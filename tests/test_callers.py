"""Caller audit of ``src/asck`` and the layout of the test suite.

Every module-level function and class, and every private method, in
``src/asck`` must be referenced by a name or attribute in the package's
code (docstrings and comments do not count), exported in
``asck.__all__``, or wrapped by the benchmark's tracer.  Anything else is
dead code, or code only the tests use, which belongs in
``tests/oracles.py``.  The sources are parsed, not imported.
"""

import ast
from pathlib import Path

import asck
from oracles import trace_targets

ROOT = Path(__file__).resolve().parents[1]
TESTS = ROOT / "tests"


def unreferenced(sources: dict[str, str], exported: set[str],
                 traced: set[tuple[str, str]]) -> list[str]:
    """``module.name`` of each module-level def and class, and each
    private method as ``module.Class._name``, in the sources (module name
    to text) that no Name or Attribute node of any of them references and
    that is neither exported nor traced."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            names = [(node.name, node.name)]
            if isinstance(node, ast.ClassDef):
                names += [(f"{node.name}.{m.name}", m.name) for m in node.body
                          if isinstance(m, ast.FunctionDef) and m.name.startswith("_")
                          and not m.name.endswith("__")]
            found += [f"{module}.{qualified}" for qualified, leaf in names
                      if leaf not in referenced and qualified not in exported
                      and (module, qualified) not in traced]
    return found


def test_every_definition_in_src_has_a_caller():
    sources = {path.stem: path.read_text()
               for path in sorted((ROOT / "src" / "asck").glob("*.py"))}
    assert len(sources) == 10
    assert unreferenced(sources, set(asck.__all__), set(trace_targets())) == []


def test_audit_flags_an_unreferenced_def():
    source = '''
def used():
    """Calls orphan(), in a docstring only."""


def orphan():
    pass


class Kept:
    def _helper(self):
        pass

    def _called(self):
        pass

    def public(self):
        self._called()


used(Kept)
'''
    assert unreferenced({"fake": source}, set(), set()) == ["fake.orphan", "fake.Kept._helper"]
    assert unreferenced({"fake": source}, {"orphan"}, {("fake", "Kept._helper")}) == []


def test_no_test_module_imports_another():
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not [m for m in modules if m.split(".")[0].startswith("test_")], path.name


def test_oracles_are_defined_once():
    """Each helper in ``tests/oracles.py`` has no second definition in a
    test module."""
    shared = {node.name for node in ast.parse((TESTS / "oracles.py").read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert {"two_fiber_scheme", "brute_period", "old_thin_radical"} <= shared
    for path in sorted(TESTS.glob("test_*.py")):
        defined = {node.name for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert defined & shared == set(), path.name
