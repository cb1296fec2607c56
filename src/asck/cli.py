"""Command-line interface.

Exit codes: 0 when everything passed or both sides of a statement
agreed; 1 when a yes/no query answered no; 2 on input or format
errors; 3 when the two sides of a statement disagreed (which would be
an implementation bug).  ``-`` stands for stdin/stdout everywhere a
file is expected.  ASCK_THREADS is accepted and ignored (corpus checks
run serially), but a non-integer value is still an input error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections import Counter
from typing import IO

from .checks import (
    check_bipartite_criterion,
    check_partite_criterion,
    is_p_scheme,
)
from .constructions import (
    cyclic_table,
    digraph_color_matrix,
    thin_scheme,
    wl_closure,
    wreath,
)
from .core import Scheme, _certify, _decimal_text
from .corpus import CorpusSpec, generate_corpus, run_corpus_checks
from .errors import SchemeError
from .io import read_ccm, read_dg, write_ccm
from .lattice import all_equivalences

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_DISAGREE = 3


def _read_scheme(path: str) -> Scheme:
    """The scheme of a .ccm file, certified with no second coercion:
    ``read_ccm`` returns a new matrix with colors 0..r-1."""
    source: str | IO[str] = sys.stdin if path == "-" else path
    return _certify(read_ccm(source))


def _joined(values, sep: str) -> str:
    """The decimal entries of a 1-D int64 array joined by ``sep``, from
    ``core._decimal_text`` with no ``str`` per entry."""
    return _decimal_text(values[None], sep, "\n")[:-1].decode("ascii")


def _check_threads_env() -> None:
    raw = os.environ.get("ASCK_THREADS", "").strip()
    try:
        int(raw or 0)
    except ValueError:
        raise SchemeError(f"ASCK_THREADS must be an integer, got {raw!r}") from None


def _ints_csv(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise SchemeError(f"{what} must be comma-separated integers, got {text!r}") from None


# -- subcommands ---------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    scheme = _read_scheme(args.file)
    print(f"valid: n={scheme.n} r={scheme.r}")
    return EXIT_OK


def _cmd_info(args: argparse.Namespace) -> int:
    s = _read_scheme(args.file)
    if args.machine:
        pairs = {
            "degrees": _joined(s.degrees, ","),
            "fiber-sizes": ",".join(str(len(f)) for f in s.fibers),
            "fibers": str(len(s.fibers)),
            "homogeneous": "true" if s.is_homogeneous else "false",
            "n": str(s.n),
            "r": str(s.r),
            "scheme": s.hash,
            "sizes": _joined(s.sizes, ","),
        }
        print("\n".join(f"{k}={v}" for k, v in pairs.items()))
    else:
        print(f"n: {s.n}")
        print(f"rank: {s.r}")
        print(f"fibers: {len(s.fibers)} (sizes {' '.join(str(len(f)) for f in s.fibers)})")
        print(f"homogeneous: {'true' if s.is_homogeneous else 'false'}")
        print(f"degrees: {_joined(s.degrees, ' ')}")
        print(f"sizes: {_joined(s.sizes, ' ')}")
        print(f"hash: {s.hash}")
    return EXIT_OK


def _cmd_closed_sets(args: argparse.Namespace) -> int:
    s = _read_scheme(args.file)
    eqs = all_equivalences(s)
    print(f"closed sets: {len(eqs)}")
    for i, e in enumerate(eqs):
        colors = " ".join(str(c) for c in sorted(e.colors))
        classes = " / ".join(
            " ".join(str(x) for x in cls) for cls in e.classes)
        print(f"[{i}] colors: {colors} | classes: {classes}")
    return EXIT_OK


def _cmd_check_p(args: argparse.Namespace) -> int:
    s = _read_scheme(args.file)
    verdict = is_p_scheme(s, args.p)
    if args.machine:
        lines = [f"n={s.n}", f"p={args.p}",
                 f"p-scheme={'true' if verdict else 'false'}",
                 f"r={s.r}", f"scheme={s.hash}"]
        if not verdict:
            lines.append(f"witness.size-offender=color {verdict.offender_color} "
                         f"has size {verdict.offender_size}")
        print("\n".join(lines))
    else:
        print(f"p-scheme: {'true' if verdict else 'false'}")
        if not verdict:
            print(f"witness: color {verdict.offender_color} has size "
                  f"{verdict.offender_size}")
    return EXIT_OK if verdict else EXIT_FALSE


def _cmd_theorem1(args: argparse.Namespace) -> int:
    s = _read_scheme(args.file)
    report = check_partite_criterion(s, args.p)
    print(report.machine() if args.machine else report.text())
    return EXIT_OK if report.agree else EXIT_DISAGREE


def _cmd_corollary2(args: argparse.Namespace) -> int:
    s = _read_scheme(args.file)
    report = check_bipartite_criterion(s)
    print(report.machine() if args.machine else report.text())
    return EXIT_OK if report.agree else EXIT_DISAGREE


def _cmd_gen_thin_cyclic(args: argparse.Namespace) -> int:
    scheme = thin_scheme(cyclic_table(args.m))
    write_ccm(scheme.matrix, sys.stdout if args.output == "-" else args.output)
    return EXIT_OK


def _cmd_gen_wreath(args: argparse.Namespace) -> int:
    inner = _read_scheme(args.inner)
    outer = _read_scheme(args.outer)
    write_ccm(wreath(inner, outer).matrix, sys.stdout if args.output == "-" else args.output)
    return EXIT_OK


def _cmd_gen_wl_close(args: argparse.Namespace) -> int:
    source: str | IO[str] = sys.stdin if args.file == "-" else args.file
    closure = wl_closure(digraph_color_matrix(read_dg(source)))
    write_ccm(closure.matrix, sys.stdout if args.output == "-" else args.output)
    return EXIT_OK


def _corpus_rows(results: list) -> list:
    def key(item):
        member, report = item
        return (member.family, member.scheme.n, member.name,
                report.check, report.p)
    return sorted(results, key=key)


def _cmd_corpus(args: argparse.Namespace) -> int:
    _check_threads_env()
    spec = CorpusSpec(max_n=args.max_n, primes=_ints_csv(args.primes, "--primes"),
                      seed=args.seed)
    members = generate_corpus(spec)
    results = _corpus_rows(run_corpus_checks(members, spec.primes))
    disagreements = [(m, rep) for m, rep in results if not rep.agree]

    if args.machine:
        blocks = []
        for member, report in results:
            blocks.append(f"member={member.name}\nfamily={member.family}\n"
                          f"seed={spec.seed}\n" + report.machine())
        print("\n\n".join(blocks))
        return EXIT_DISAGREE if disagreements else EXIT_OK

    print(f"corpus: {len(members)} members, {len(results)} checks "
          f"(seed {spec.seed}, max n {spec.max_n}, "
          f"primes {' '.join(str(p) for p in spec.primes)})")
    member_count = Counter(member.family for member in members)
    check_count = Counter(member.family for member, _ in results)
    bad_count = Counter(member.family for member, _ in disagreements)
    width = max(map(len, check_count))
    print(f"{'family':<{width}}  members  checks  disagreements")
    for family in sorted(check_count):
        print(f"{family:<{width}}  {member_count[family]:>7}  {check_count[family]:>6}  "
              f"{bad_count[family]:>13}")
    print(f"{'total':<{width}}  {len(members):>7}  {len(results):>6}  "
          f"{len(disagreements):>13}")
    for member, report in disagreements:
        print(f"DISAGREE member={member.name} check={report.check} p={report.p}")
    print(f"all checks agree: {'true' if not disagreements else 'false'}")
    return EXIT_DISAGREE if disagreements else EXIT_OK


# -- parser --------------------------------------------------------------------


def _add_machine(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--machine", action="store_true",
                        help="structured key=value output")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Parsing leaves it
    unchanged, and each handler looks up the functions it calls when it
    runs, so every ``main`` call may share it."""
    parser = argparse.ArgumentParser(
        prog="asck", description="coherent configuration toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a color matrix file")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("info", help="basic invariants of a scheme")
    p.add_argument("file")
    _add_machine(p)
    p.set_defaults(handler=_cmd_info)

    p = sub.add_parser("closed-sets", help="list the equivalence lattice")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_closed_sets)

    p = sub.add_parser("check-p", help="is the scheme a p-scheme?")
    p.add_argument("file")
    p.add_argument("-p", type=int, required=True)
    _add_machine(p)
    p.set_defaults(handler=_cmd_check_p)

    p = sub.add_parser(
        "theorem1",
        help="sizes vs cyclic partitions of basis digraphs, both sides")
    p.add_argument("file")
    p.add_argument("-p", type=int, required=True)
    _add_machine(p)
    p.set_defaults(handler=_cmd_theorem1)

    p = sub.add_parser(
        "corollary2", help="2-scheme vs bipartite basis graphs, both sides")
    p.add_argument("file")
    _add_machine(p)
    p.set_defaults(handler=_cmd_corollary2)

    gen = sub.add_parser("gen", help="generate schemes")
    gsub = gen.add_subparsers(dest="generator", required=True)

    p = gsub.add_parser("thin-cyclic", help="thin scheme of the cyclic group")
    p.add_argument("m", type=int)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(handler=_cmd_gen_thin_cyclic)

    p = gsub.add_parser("wreath", help="wreath product of two schemes")
    p.add_argument("inner")
    p.add_argument("outer")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(handler=_cmd_gen_wreath)

    p = gsub.add_parser("wl-close", help="coherent closure of a digraph")
    p.add_argument("file")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(handler=_cmd_gen_wl_close)

    p = sub.add_parser("corpus", help="run all checks over the built-in corpus")
    p.add_argument("--max-n", type=int, default=CorpusSpec().max_n)
    p.add_argument("--primes", default=",".join(str(q) for q in CorpusSpec().primes))
    p.add_argument("--seed", type=int, default=CorpusSpec().seed)
    _add_machine(p)
    p.set_defaults(handler=_cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        return EXIT_OK
    except (SchemeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
