"""The three workloads: one caller, sequential calls, outputs checked.

Each workload makes its inputs once (`make_inputs`, part of set-up) and
then runs whole passes (`run_pass`).  A pass is a fixed sequence of
timed units, each one or a few calls into asck.  It returns the seconds
of every unit, the number of operations it attempted, the failures it
saw and a digest of everything the program printed or wrote, which must
repeat exactly from pass to pass and from run to run of one seed.

Times are speed-normalized.  On shared 2-vCPU x86_64 virtual machines
the CPU speed was seen to switch between levels up to 1.8x apart, for
seconds to minutes at a time, so plain wall times of one run mostly
tell how much of it fell in slow periods.  Between units the benchmark therefore
times a fixed reference computation of its own (`calibration_s`), and
each unit's wall time is scaled by CALIBRATION_REF_S over the mean of
the reference times just before and just after it: the result is the
unit's time on a CPU that runs the reference in CALIBRATION_REF_S.  A
unit's time in a run is the median of its normalized times over the
passes, and a figure such as `pass_s` is the sum of its units' times.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs

# The default corpus spec must give exactly these numbers, and the sha256
# of its sorted member + report.machine() blocks must not change.
DEFAULT_MEMBERS = 344
DEFAULT_REPORTS = 6898
DEFAULT_DIGEST = "f2fca5c83ea5778f5f03a663c0966fa01d6fde84e15b661075f52bd2172930a9"
CHECK_SLICE = 16  # members per timed run_corpus_checks call

LADDER_RUNGS = (64, 96, 128)
QUICK_LADDER_RUNGS = (16, 24)
LATTICE_ORDERS = range(8, 25)
QUICK_LATTICE_ORDERS = range(8, 11)


# The reference computation's time on the CPU that normalized times refer
# to: such a 2-vCPU virtual machine at its faster speed.
CALIBRATION_REF_S = 0.0104
_CAL_ROWS = np.random.default_rng(12345).integers(0, 1000, size=(6000, 16))


def calibration_s() -> float:
    """Seconds taken by a fixed mix of interpreter work and a numpy row
    sort, in the proportions of the workloads; independent of asck."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    acc = 0
    for i in range(40000):
        counts[i & 255] = counts.get(i & 255, 0) + i
        acc += i * 3 % 7
    np.unique(_CAL_ROWS, axis=0)
    return time.perf_counter() - t0


@dataclass
class PassResult:
    units: dict[str, float] = field(default_factory=dict)  # "group/unit" -> wall s
    speed: dict[str, float] = field(default_factory=dict)  # "group/unit" -> ref/cal
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    digest: str = ""
    _cal: float | None = None

    @contextlib.contextmanager
    def unit(self, key: str):
        """Time the body as one unit, with reference timings around it."""
        if self._cal is None:
            calibration_s()  # the first call pays numpy's lazy set-up
            self._cal = calibration_s()
        before = self._cal
        t0 = time.perf_counter()
        yield
        self.units[key] = time.perf_counter() - t0
        self._cal = calibration_s()
        self.speed[key] = 2 * CALIBRATION_REF_S / (before + self._cal)

    @property
    def wall_s(self) -> float:
        return sum(self.units.values())

    @property
    def normalized_s(self) -> float:
        return sum(self.units[k] * self.speed[k] for k in self.units)


def unit_times(passes: list[PassResult]) -> dict[str, float]:
    """Each unit's median normalized time over the passes."""
    return {key: statistics.median(p.units[key] * p.speed[key] for p in passes)
            for key in passes[0].units}


def group_sums(units: dict[str, float]) -> dict[str, float]:
    """Unit times summed by group, the part of the key before the first '/'."""
    sums: dict[str, float] = {}
    for key, seconds in units.items():
        group = key.split("/", 1)[0]
        sums[group] = sums.get(group, 0.0) + seconds
    return sums


class Workload:
    name = ""
    # A unit's time is the median of at least this many passes, so that
    # one repeat cut by a change of CPU speed inside a long unit is outvoted.
    min_passes = 3

    def __init__(self, seed: int, quick: bool, work_dir: Path, workers: int):
        self.seed, self.quick, self.work_dir, self.workers = seed, quick, work_dir, workers

    def make_inputs(self) -> str:
        """Write the inputs; return a digest of them."""
        raise NotImplementedError

    def run_pass(self, tracer) -> PassResult:
        raise NotImplementedError

    def details(self, units: dict[str, float]) -> dict[str, tuple[float, str]]:
        """The workload's own end-to-end figures from its unit times."""
        return {k: (v, "s") for k, v in group_sums(units).items()}


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def cli_call(argv: list[str], tracer) -> tuple[int | None, str, str]:
    """Call `asck.cli.main(argv)` in-process; (exit code, stdout, stderr).

    An exception escaping main is returned as exit code None with its
    traceback as stderr.
    """
    from asck.cli import main

    out, err = io.StringIO(), io.StringIO()
    try:
        with _span(tracer, f"cli.{argv[0]}"), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except Exception:  # counted as a failed operation, the run goes on
        return None, out.getvalue(), traceback.format_exc()
    return rc, out.getvalue(), err.getvalue()


# -- corpus -------------------------------------------------------------------


class Corpus(Workload):
    """generate_corpus, then run_corpus_checks at threads=workers over
    consecutive slices of the members, so that each slice is timed."""

    name = "corpus"
    min_passes = 2  # a pass takes about 19 s; its units are mostly short slices

    def make_inputs(self) -> str:
        from asck import CorpusSpec

        if self.quick:
            self.spec = CorpusSpec(max_n=10, seed=self.seed,
                                   circulant_count=6, nonhomogeneous_count=4)
        else:
            self.spec = CorpusSpec(seed=self.seed)
        return hashlib.sha256(repr(self.spec).encode()).hexdigest()

    def run_pass(self, tracer) -> PassResult:
        from asck import generate_corpus, run_corpus_checks
        from asck.corpus import DEFAULT_SEED

        res = PassResult()
        with res.unit("corpus_gen_s/all"):
            members = generate_corpus(self.spec)
        results = []
        for start in range(0, len(members), CHECK_SLICE):
            with res.unit(f"corpus_check_s/{start:04d}"):
                results += run_corpus_checks(members[start:start + CHECK_SLICE],
                                             self.spec.primes, threads=self.workers)

        res.attempted = len(results) + 1
        for member, report in results:
            if not report.agree:
                res.failures.append(f"{member.name}: {report.check} p={report.p} disagrees")
        blocks = sorted(f"member={m.name}\n{rep.machine()}" for m, rep in results)
        res.digest = hashlib.sha256("\n\n".join(blocks).encode()).hexdigest()
        if not self.quick and self.spec.seed == DEFAULT_SEED:
            got = (len(members), len(results))
            if got != (DEFAULT_MEMBERS, DEFAULT_REPORTS):
                res.failures.append(f"default spec gave {got[0]} members, {got[1]} reports")
            if res.digest != DEFAULT_DIGEST:
                res.failures.append("default spec output digest changed")
        elif len(members) != len({m.name for m in members}):
            res.failures.append("member names repeat")
        return res

    def details(self, units):
        out = super().details(units)
        out["corpus_s"] = (out["corpus_gen_s"][0] + out["corpus_check_s"][0], "s")
        return out


# -- closure ladder -------------------------------------------------------------


class ClosureLadder(Workload):
    """Per rung: a circulant and a cycle-plus-chords digraph through the CLI."""

    name = "closure-ladder"

    def make_inputs(self) -> str:
        self.rungs = QUICK_LADDER_RUNGS if self.quick else LADDER_RUNGS
        texts = inputs.ladder_inputs(self.seed, self.rungs)
        named = {f"{kind}-n{n}.dg": text for (n, kind), text in texts.items()}
        self.paths = inputs.write_texts(self.work_dir, named)
        return hashlib.sha256("".join(texts.values()).encode()).hexdigest()

    def _pipeline(self, n: int, kind: str, tracer, res: PassResult,
                  digest: "hashlib._Hash") -> None:
        src = str(self.paths[f"{kind}-n{n}.dg"])
        out = str(self.work_dir / f"{kind}-n{n}.ccm")

        def call(argv: list[str], check) -> str:
            res.attempted += 1
            with res.unit(f"ladder_s.n{n}/{kind}/{argv[0]}"):
                rc, stdout, stderr = cli_call(argv, tracer)
            problem = f"exit {rc}: {stderr.strip()[-300:]}" if rc != 0 else check(stdout)
            if problem:
                res.failures.append(f"{kind} n={n} {argv[0]}: {problem}")
            digest.update(stdout.encode())
            return stdout

        def fields(text: str) -> dict[str, str]:
            return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)

        def agrees(text: str) -> str | None:
            return None if fields(text).get("agree") == "true" else "agree is not true"

        call(["gen", "wl-close", src, "-o", out], lambda s: None)
        digest.update(Path(out).read_bytes())
        call(["validate", out],
             lambda s: None if s.startswith(f"valid: n={n} ") else f"unexpected {s!r}")
        info = fields(call(["info", out, "--machine"],
                           lambda s: None if fields(s).get("n") == str(n) else "wrong n"))
        homogeneous = info.get("homogeneous") == "true"
        if kind == "circulant" and not homogeneous:
            res.failures.append(f"circulant n={n}: closure is not homogeneous")
        if homogeneous:
            call(["theorem1", out, "-p", "2", "--machine"], agrees)
        call(["corollary2", out, "--machine"], agrees)

    def run_pass(self, tracer) -> PassResult:
        res = PassResult()
        digest = hashlib.sha256()
        for n in self.rungs:
            for kind in ("circulant", "chords"):
                with _span(tracer, f"bench.ladder.{kind}.n{n}"):
                    self._pipeline(n, kind, tracer, res, digest)
        res.digest = digest.hexdigest()
        return res


# -- cold lattice sweep -------------------------------------------------------------


class LatticeCold(Workload):
    """`closed-sets FILE` once per group file, each with a fresh Scheme."""

    name = "lattice-cold"

    def make_inputs(self) -> str:
        orders = QUICK_LATTICE_ORDERS if self.quick else LATTICE_ORDERS
        made = inputs.lattice_inputs(self.seed, orders)
        self.expected = {f"{stem}.ccm": count for stem, _, count in made}
        self.paths = inputs.write_texts(
            self.work_dir, {f"{stem}.ccm": text for stem, text, _ in made})
        return hashlib.sha256("".join(text for _, text, _ in made).encode()).hexdigest()

    def run_pass(self, tracer) -> PassResult:
        res = PassResult()
        digest = hashlib.sha256()
        for stem, path in self.paths.items():
            res.attempted += 1
            with res.unit(f"sweep_s/{stem}"):
                rc, stdout, stderr = cli_call(["closed-sets", str(path)], tracer)
            digest.update(stdout.encode())
            lines = stdout.splitlines()
            head = f"closed sets: {self.expected[stem]}"
            if rc != 0:
                res.failures.append(f"{stem}: exit {rc}: {stderr.strip()[-300:]}")
            elif not lines or lines[0] != head or len(lines) != self.expected[stem] + 1:
                res.failures.append(f"{stem}: expected {head!r}, got {lines[:1]}")
        res.digest = digest.hexdigest()
        return res

    def details(self, units):
        out = super().details(units)
        out["query_p50_ms"] = (statistics.median(units.values()) * 1e3, "ms")
        return out


WORKLOADS = {w.name: w for w in (Corpus, ClosureLadder, LatticeCold)}
