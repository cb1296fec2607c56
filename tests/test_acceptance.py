"""Acceptance gate: one test per shipped criterion.

Each test prints a single `criterion N: PASS/FAIL - detail` line on the
real stdout (bypassing capture) so the gate is auditable from any pytest
run, then asserts the same condition.
"""

import io
import random
import subprocess
import sys

import numpy as np

from asck import (
    CorpusSpec,
    all_equivalences,
    ccm_text,
    check_block_criterion,
    check_primitive_structure,
    cyclic_table,
    cyclically_p_partite,
    digraph_color_matrix,
    is_p_scheme,
    period,
    read_ccm,
    thin_scheme,
    validate,
    verify_size_factorization,
    wl_closure,
    wreath,
)
from asck.digraph import Digraph
from oracles import brute_period, random_strongly_connected_digraph, same_matrix


def report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_partite_criterion_agreement(corpus, corpus_results, capsys):
    homogeneous = [m for m in corpus if m.scheme.is_homogeneous]
    reports = [(m, r) for m, r in corpus_results if r.check == "partite-criterion"]
    primes = sorted({r.p for _, r in reports})
    agreeing = sum(1 for _, r in reports if r.agree)
    ok = (len(homogeneous) >= 200
          and primes == [2, 3, 5, 7, 11]
          and len(reports) >= 1000
          and len(reports) == len(homogeneous) * len(primes)
          and agreeing == len(reports))
    report(capsys, 1, ok,
           f"{agreeing}/{len(reports)} two-sided size-vs-partition reports "
           f"agree over {len(homogeneous)} homogeneous members, primes {primes}")


def test_criterion_2_bipartite_criterion_agreement(corpus, corpus_results, capsys):
    non_homog = [m for m in corpus if not m.scheme.is_homogeneous]
    reports = [r for _, r in corpus_results if r.check == "bipartite-criterion"]
    agreeing = sum(1 for r in reports if r.agree)
    ok = (len(non_homog) >= 50
          and len(reports) == len(corpus)
          and agreeing == len(reports))
    report(capsys, 2, ok,
           f"{agreeing}/{len(reports)} bipartite reports agree "
           f"({len(non_homog)} non-homogeneous members included)")


def test_criterion_3_wreath_counterexample_shape(capsys):
    checked = []
    ok = True
    for p, q in ((2, 3), (3, 2), (3, 5)):
        w = wreath(thin_scheme(cyclic_table(p)), thin_scheme(cyclic_table(q)))
        rep = check_block_criterion(w, p)
        good = (rep.witnesses["blocks-p-schemes"] == "true"
                and rep.witnesses["maximal-below-full"] == "1"
                and not bool(is_p_scheme(w, p))
                and not rep.lhs and not rep.rhs and rep.agree)
        ok = ok and good
        checked.append(f"({p},{q}):{'ok' if good else 'BAD'}")
    report(capsys, 3, ok,
           "block-condition wreaths keep p-scheme blocks, a single maximal "
           "equivalence, and fail the p-scheme test: " + " ".join(checked))


def test_criterion_4_primitive_structure(corpus_results, capsys):
    reports = [r for _, r in corpus_results if r.check == "primitive-structure"]
    applicable = [r for r in reports if r.lhs]
    corpus_ok = bool(applicable) and all(r.rhs for r in applicable)
    direct_ok = True
    for p in (2, 3, 5, 7, 11, 13):
        rep = check_primitive_structure(thin_scheme(cyclic_table(p)), p)
        direct_ok = direct_ok and rep.lhs and rep.rhs
    ok = corpus_ok and direct_ok
    report(capsys, 4, ok,
           f"{len(applicable)} primitive prime-power corpus members are all "
           f"regular p-cycles; direct prime orders up to 13 pass too")


def test_criterion_5_size_factorization(corpus, capsys):
    members = [m for m in corpus
               if m.scheme.is_homogeneous and m.scheme.n <= 16]
    tuples = 0
    for m in members:
        for e in all_equivalences(m.scheme):
            verify_size_factorization(m.scheme, e)
            tuples += 1
    ok = tuples > 0
    report(capsys, 5, ok,
           f"size factorization exact on {tuples} (scheme, equivalence) "
           f"pairs from {len(members)} members with n <= 16")


def test_criterion_6_period_vs_brute_force(capsys):
    rng = random.Random(20260814)
    period_ok = 0
    partite_ok = 0
    total = 100
    for _ in range(total):
        g = random_strongly_connected_digraph(rng, rng.randint(2, 10))
        expected = brute_period(g)
        if period(g) == expected:
            period_ok += 1
        if all((cyclically_p_partite(g, p) is not None) == (expected % p == 0)
               for p in (2, 3, 5, 7)):
            partite_ok += 1
    ok = period_ok == total and partite_ok == total
    report(capsys, 6, ok,
           f"period matches cycle-length gcd on {period_ok}/{total} digraphs; "
           f"partition presence matches divisibility on {partite_ok}/{total}")


def test_criterion_7_wl_closure_idempotent(corpus, capsys):
    checked = 0
    for m in corpus:
        once = wl_closure(m.scheme.matrix)
        validate(once.matrix)
        twice = wl_closure(once.matrix)
        assert same_matrix(once, twice), f"closure not idempotent on {m.name}"
        checked += 1
    four_cycle = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    closure = wl_closure(digraph_color_matrix(four_cycle))
    ok = checked == len(corpus) and same_matrix(closure, thin_scheme(cyclic_table(4)))
    report(capsys, 7, ok,
           f"closure idempotent and valid on {checked} corpus matrices; "
           f"directed 4-cycle closes to the cyclic thin scheme")


def test_criterion_8_lattice_size_on_cyclic_groups(capsys):
    ok = True
    counts = []
    for m in range(1, 13):
        eqs = len(all_equivalences(thin_scheme(cyclic_table(m))))
        divisors = sum(1 for d in range(1, m + 1) if m % d == 0)
        counts.append(f"{m}:{eqs}")
        ok = ok and eqs == divisors
    report(capsys, 8, ok,
           "equivalence counts match divisor counts for cyclic orders 1..12 "
           "(" + " ".join(counts) + ")")


def test_criterion_9_cli_round_trip_and_determinism(corpus, capsys, in_tree_env):
    round_trips = 0
    for m in corpus:
        again = read_ccm(io.StringIO(ccm_text(m.scheme.matrix)))
        assert np.array_equal(again, m.scheme.matrix), m.name
        round_trips += 1

    runner = "from asck.cli import main; import sys; sys.exit(main())"
    outputs = []
    for hashseed in ("1", "2"):
        env = in_tree_env(PYTHONHASHSEED=hashseed)
        proc = subprocess.run(
            [sys.executable, "-c", runner, "corpus"],
            capture_output=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    identical = outputs[0] == outputs[1]
    spec = CorpusSpec()
    ok = round_trips == len(corpus) and identical
    report(capsys, 9, ok,
           f"{round_trips} members round-trip through the text format; two "
           f"corpus runs (seed {spec.seed}) are byte-identical across "
           f"processes with different hash seeds")
