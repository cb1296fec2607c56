"""The mutation table of ``tools/mutants.py`` still applies to ``src/asck``.

Running the mutants takes minutes, so the suite only checks that each
mutant's old text occurs exactly once in its file, that every mutant
that is run names tests that exist, and that every other one argues why
it is equivalent.  Run ``python tools/mutants.py`` to apply them.
"""

import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_old_text_occurs_once():
    tool = load_tool()
    ids = [m.id for m in tool.MUTANTS]
    assert len(ids) == len(set(ids))
    for mutant in tool.MUTANTS:
        assert mutant.old != mutant.new, mutant.id
        assert tool.occurrences(mutant, ROOT / "src") == 1, mutant.id


def test_killers_exist_or_equivalence_is_argued():
    for mutant in load_tool().MUTANTS:
        assert bool(mutant.killers) != bool(mutant.equivalent), mutant.id
        for node in mutant.killers:
            path, *names = re.sub(r"\[.*\]$", "", node).split("::")
            text = (ROOT / path).read_text()
            assert names and all(re.search(rf"\b(class|def) {name}\b", text)
                                 for name in names), node
