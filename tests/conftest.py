import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from asck import CorpusSpec, generate_corpus, run_corpus_checks, validate
from asck.io import write_ccm

settings.register_profile("suite", deadline=None, max_examples=40)
settings.load_profile("suite")

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def in_tree_env():
    """The environment for a ``python`` subprocess that imports the asck
    under test: the tree's ``src`` first on PYTHONPATH, so no installed
    copy is needed (pyproject's ``pythonpath`` reaches only pytest itself)."""
    def env(**extra: str) -> dict[str, str]:
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        return dict(os.environ, PYTHONPATH=path, **extra)
    return env


@pytest.fixture(scope="session")
def corpus():
    return generate_corpus(CorpusSpec())


@pytest.fixture(scope="session")
def relabeled_corpus(corpus):
    """Each corpus member's scheme with its points permuted by a seeded
    permutation, validated afresh: the same colors under other labels."""
    rng = np.random.default_rng(2026)
    relabeled = []
    for member in corpus:
        perm = rng.permutation(member.scheme.n)
        relabeled.append(validate(member.scheme.matrix[np.ix_(perm, perm)]))
    return relabeled


@pytest.fixture(scope="session")
def corpus_results(corpus, tmp_path_factory):
    """All checks over the whole corpus, computed once per session.

    Any disagreement gets its scheme dumped as a .ccm reproducer before
    the assertion in the consuming test fires.
    """
    results = run_corpus_checks(corpus, CorpusSpec().primes)
    bad = [(m, rep) for m, rep in results if not rep.agree]
    if bad:
        out = tmp_path_factory.mktemp("disagreements")
        for member, rep in bad:
            write_ccm(member.scheme.matrix,
                      out / f"{member.name}-{rep.check}-p{rep.p}.ccm")
        print(f"\nreproducers for {len(bad)} disagreements dumped to {out}")
    return results
