"""Every name the benchmark's tracer wraps exists in the in-tree asck.

``perfbench/tracer.py`` patches asck from outside, by (module, attribute)
names listed in its ``TARGETS``; a traced run fails on a name that is
gone.  So a traced name is deleted only after the benchmark stops
tracing it.  The tracer's source is parsed, not imported, so this test
writes nothing under ``perfbench/``.
"""

import importlib

from oracles import trace_targets


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
