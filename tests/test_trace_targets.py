"""Every name the benchmark's tracer wraps exists in the in-tree asck.

``perfbench/tracer.py`` patches asck from outside, by (module, attribute)
names listed in its ``TARGETS``; a traced run fails on a name that is
gone.  So a traced name is deleted only after the benchmark stops
tracing it.  The tracer's source is parsed, not imported, so this test
writes nothing under ``perfbench/``.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def trace_targets() -> tuple[tuple[str, str], ...]:
    """The literal value of ``TARGETS`` in the tracer's source."""
    for node in ast.parse(TRACER.read_text()).body:
        target = node.target if isinstance(node, ast.AnnAssign) else (
            node.targets[0] if isinstance(node, ast.Assign) else None)
        if isinstance(target, ast.Name) and target.id == "TARGETS":
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {TRACER}")


def resolves(module: str, attr: str) -> bool:
    """Whether the tracer can wrap ``attr`` of ``asck.<module>``: a
    callable, or for ``Class.member`` an attribute of the class itself."""
    mod = importlib.import_module(f"asck.{module}")
    if "." in attr:
        cls_name, member = attr.split(".")
        return member in vars(getattr(mod, cls_name, object))
    return callable(getattr(mod, attr, None))


def test_every_trace_target_exists():
    targets = trace_targets()
    assert len(targets) >= 30
    assert [f"{m}.{a}" for m, a in targets if not resolves(m, a)] == []


def test_a_missing_target_is_reported():
    assert not resolves("core", "no_such_function")
    assert not resolves("core", "Scheme.no_such_member")
    assert not resolves("core", "NoSuchClass.member")
    assert resolves("core", "Scheme.hash") and resolves("io", "read_ccm")
