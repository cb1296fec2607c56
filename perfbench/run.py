"""Benchmark of the asck toolkit.

Run from the root of a source tree:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

It imports `asck` from `src/` of that tree (and fails when there is
none), makes the workload's inputs from the seed, runs whole passes of
the workload until about `--seconds` have been measured, checks every
output, and prints human-readable lines followed by one JSON line:
the end-to-end metrics with `--trace 0`, the per-layer metrics from a
traced run with `--trace 1`.  Exit code 0 means every output was right.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 7
M_MMAP_THRESHOLD = -3  # mallopt parameter number in glibc's malloc.h


def parse_args(argv=None) -> argparse.Namespace:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="smallest inputs, for the self-test")
    ap.add_argument("--setup-only", action="store_true",
                    help="import asck, make the inputs, print the seconds taken")
    return ap.parse_args(argv)


def import_program():
    """Import asck from ROOT/src and nowhere else."""
    src = ROOT / "src"
    if not (src / "asck" / "__init__.py").is_file():
        sys.exit(f"perfbench: no asck sources under {src}")
    sys.path.insert(0, str(src))
    import asck

    if Path(asck.__file__).resolve().parent != (src / "asck").resolve():
        sys.exit(f"perfbench: imported asck from {asck.__file__}, not from {src}")
    return asck


def pin_mmap_threshold() -> bool:
    """Keep glibc's mmap threshold at its 128 KiB default.

    By default glibc raises the threshold after large blocks are freed,
    and later large numpy arrays then come from the heap, whose size
    depends on the order of earlier frees: peak RSS jumped between two
    levels 13% apart from seed to seed.  With the threshold fixed, every
    large array is mapped on its own and returned when freed, so peak
    RSS follows the peak of live data.  False where there is no glibc.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    return libc.mallopt(M_MMAP_THRESHOLD, 128 * 1024) == 1


def workers() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def make_workload(args, work_dir: Path):
    import workloads

    return workloads.WORKLOADS[args.workload](args.seed, args.quick, work_dir, workers())


def setup_seconds(args) -> list[float]:
    """Set-up (import asck, make and write the inputs) in fresh interpreters."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0"] + (["--quick"] if args.quick else [])
    samples = []
    for _ in range(2 if args.quick else SETUP_REPEATS):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.split()[-1]))
    return samples


def run_passes(workload, budget: float, min_passes: int, tracer=None) -> list:
    """At least min_passes whole passes, then more until the next one would
    end further past the budget than the last one ended before it."""
    passes = []
    t0 = time.perf_counter()
    while True:
        gc.collect()
        passes.append(workload.run_pass(tracer))
        elapsed = time.perf_counter() - t0
        if len(passes) >= min_passes and elapsed + elapsed / len(passes) / 2 >= budget:
            return passes


def git_sha() -> str | None:
    """HEAD of ROOT/.git read from its files; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def check_repeatable(key: str, digest: str) -> str | None:
    """Compare an output digest with the one stored by earlier runs of the
    same workload, seed and inputs in this tree; store it if new."""
    path = STATE / "digests.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    if key in known and known[key] != digest:
        return f"output differs from an earlier run with the same inputs ({key})"
    known[key] = digest
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return None


def main(argv=None) -> int:
    mmap_pinned = pin_mmap_threshold()
    t0 = time.perf_counter()
    args = parse_args(argv)  # imports the benchmark's modules, and numpy
    STATE.mkdir(exist_ok=True)
    if args.setup_only:
        import_program()
        with tempfile.TemporaryDirectory(dir=STATE) as tmp:
            make_workload(args, Path(tmp)).make_inputs()
        # Wall time: unlike the passes, set-up is mostly loading files, whose
        # cost the reference computation does not track.
        print(f"{time.perf_counter() - t0:.6f}")
        return 0

    asck = import_program()
    import numpy

    import metrics
    import workloads
    from tracer import Tracer

    setup = setup_seconds(args)
    work_dir = Path(tempfile.mkdtemp(dir=STATE, prefix=f"{args.workload}-"))
    try:
        workload = make_workload(args, work_dir)
        inputs_digest = workload.make_inputs()
        # A traced run makes one plain pass, to measure the tracing overhead
        # against, and spends the rest of its time traced.
        plain = (run_passes(workload, 0, 1) if args.trace
                 else run_passes(workload, args.seconds, workload.min_passes))
        traced, tracer = [], None
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_passes(workload, args.seconds - plain[0].wall_s, 1, tracer)
            finally:
                tracer.restore()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    digests = {p.digest for p in passes}
    attempted += 1  # the repeatability check below
    if len(digests) != 1:
        failures.append(f"output differs between passes: {len(digests)} digests")
    else:
        key = f"{args.workload}:{args.seed}:{'quick' if args.quick else 'full'}:{inputs_digest[:16]}"
        problem = check_repeatable(key, digests.pop())
        if problem:
            failures.append(problem)

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick, "nproc": workers(),
        "program_workers": workers(), "python": platform.python_version(),
        "numpy": numpy.__version__, "asck": asck.__version__, "git_sha": git_sha(),
        "machine": platform.machine(), "mmap_threshold_pinned": mmap_pinned,
        "passes": len(plain), "traced_passes": len(traced),
    }
    print("env " + json.dumps(env, sort_keys=True))
    for failure in failures[:20]:
        print(f"FAIL {failure}")

    units = workloads.unit_times(plain)
    named = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_s": (sum(units.values()), "s"),
        **workload.details(units),
        "fail_ratio": (len(failures) / attempted, "ratio"),
    }
    for name, (value, unit) in named.items():
        print(f"metric {name} {value:.6g} {unit}")

    if args.trace:
        overhead = min(p.normalized_s for p in traced) - plain[0].normalized_s
        layer, tops = metrics.per_layer(tracer, len(traced), overhead)
        for name, top in tops.items():
            print(f"attribution {name} {layer[name][0]:.3f} largest-self={top}")
        for name, (value, unit) in layer.items():
            print(f"layer {name} {value:.6g} {unit}")
        tracer.dump(STATE / f"spans-{args.workload}.npz")
        reported = layer
    else:
        reported = {k: named[k] for k in metrics.END_TO_END}

    record = {"env": env, "attempted": attempted, "failed": len(failures),
              "metrics": {k: v for k, (v, _) in named.items()},
              "pass_wall_s": [p.wall_s for p in plain]}
    with open(STATE / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    result = {
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
