"""Quick self-test of the benchmark.

Run from the root of the source tree:

    python3 perfbench/selftest.py

It runs every workload at its smallest size, plain and traced, and
asserts that every end-to-end, workload and per-layer metric is
emitted, that the output checks ran and caught a planted mismatch, that
fail_ratio is 0, that tracing restores every patched name, and that the
benchmark refuses to run in a tree without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402

ENV_KEYS = {"seed", "nproc", "program_workers", "python", "numpy", "git_sha"}
FIGURES = {
    "corpus": {"corpus_s", "corpus_gen_s", "corpus_check_s"},
    "closure-ladder": {f"ladder_s.n{n}" for n in workloads.QUICK_LADDER_RUNGS},
    "lattice-cold": {"sweep_s", "query_p50_ms"},
}
COMMON = {"setup_s", "peak_rss_mb", "fail_ratio"}


def run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=300, cwd=cwd)
    return done.returncode, done.stdout.splitlines()


def check_benchmark_json(spec: dict) -> None:
    assert [m["name"] for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.per_layer_names()
    predictions = json.loads((HERE / "predictions.json").read_text())
    for name in metrics.per_layer_names():
        assert any(name.startswith(p) for p in predictions["per_layer"]), name
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert set(predictions["workloads"]) == set(workloads.WORKLOADS)


def check_run(workload: str, trace: int, spec: dict) -> None:
    code, lines = run(workload, trace)
    assert code == 0, (workload, trace, lines[-5:])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, workload
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        if not trace:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]
    figures = {ln.split()[1]: float(ln.split()[2]) for ln in lines if ln.startswith("metric ")}
    assert COMMON | FIGURES[workload] <= set(figures), (workload, figures)
    assert figures["fail_ratio"] == 0
    env = json.loads(next(ln for ln in lines if ln.startswith("env "))[4:])
    assert ENV_KEYS <= set(env)
    if trace:
        layer = result["metrics"]
        assert layer["trace.spans"]["value"] > 0
        calls = {k: v["value"] for k, v in layer.items() if k.endswith(".calls")}
        if workload == "closure-ladder":
            assert all(v == 0 for k, v in calls.items() if k.startswith("lattice.")), calls
            assert calls["constructions.wl_closure.calls"] > 0
        else:
            assert calls["lattice.all_equivalences.calls"] > 0


def check_planted_mismatch() -> None:
    """A wrong expected closed-set count must be reported as a failure."""
    sys.path.insert(0, str(ROOT / "src"))
    state = ROOT / ".perfbench"
    state.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=state) as tmp:
        w = workloads.LatticeCold(3, True, Path(tmp), 1)
        w.make_inputs()
        assert not w.run_pass(None).failures
        stem = next(iter(w.expected))
        w.expected[stem] += 1
        assert len(w.run_pass(None).failures) == 1


def check_restore() -> None:
    import asck  # noqa: F401  (loads every asck module)
    from tracer import Tracer

    def snapshot():
        return {(name, key): value for name, mod in sys.modules.items()
                if name == "asck" or name.startswith("asck.")
                for key, value in vars(mod).items()} | dict(vars(asck.Scheme))

    before = snapshot()
    tracer = Tracer()
    tracer.install()
    assert snapshot() != before
    tracer.restore()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def check_refuses_bare_tree() -> None:
    """Only BENCHMARK.json and the benchmark's files: exit non-zero, no result."""
    state = ROOT / ".perfbench"
    state.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=state) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run("lattice-cold", 0, cwd=bare)
        assert code != 0 and not any(ln.startswith("{") for ln in lines), (code, lines)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_benchmark_json(spec)
    check_planted_mismatch()
    check_restore()
    check_refuses_bare_tree()
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace, spec)
            print(f"ok {workload} trace={trace}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
