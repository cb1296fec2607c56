import hashlib
from collections import Counter

import random

import numpy as np
import pytest

from asck import (
    CorpusSpec,
    constructions,
    generate_corpus,
    is_strongly_connected,
    minimal_equivalences,
    run_corpus_checks,
)
from asck import corpus as corpus_module
from asck.checks import check_quotient_factorization
from asck.core import _shift_invariant
from asck.corpus import (
    RANK_CAP,
    _FAMILIES,
    CorpusMember,
    member_reports,
    random_circulant_digraph,
)
from asck.errors import SchemeError


def rows(results):
    """Member and time-free report text of each result, in order."""
    return [(member.name, report.machine()) for member, report in results]


class TestRunCorpusChecks:
    @pytest.mark.parametrize("threads", [None, 1, 4])
    def test_equals_member_reports_in_corpus_order(self, corpus, threads):
        members = corpus[::12]
        primes = CorpusSpec().primes
        expected = [(m, rep) for m in members for rep in member_reports(m, primes)]
        got = run_corpus_checks(members, primes, threads)
        assert [m for m, _ in got] == [m for m, _ in expected]
        assert rows(got) == rows(expected)


# sha256 of the default corpus's sorted member + report.machine() blocks;
# any change in a verdict, witness or report format changes it.
DEFAULT_CORPUS_DIGEST = "f2fca5c83ea5778f5f03a663c0966fa01d6fde84e15b661075f52bd2172930a9"


def test_default_corpus_output_is_byte_identical(corpus_results):
    blocks = sorted(f"member={m.name}\n{rep.machine()}" for m, rep in corpus_results)
    digest = hashlib.sha256("\n\n".join(blocks).encode()).hexdigest()
    assert (len(corpus_results), digest) == (6898, DEFAULT_CORPUS_DIGEST)


def test_reports_do_not_depend_on_point_labels(corpus, relabeled_corpus):
    """Every report of a member with its points permuted has the same
    (check, p, mode, lhs, rhs).  The quotient reports use the first two
    minimal equivalences, whose order follows the labels, so theirs are
    compared as a multiset over all minimal equivalences."""
    primes = CorpusSpec().primes

    def facts(s):
        reports = member_reports(CorpusMember("", "", s), primes)
        plain = [(r.check, r.p, r.mode, r.lhs, r.rhs) for r in reports
                 if r.check != "quotient-factorization"]
        quotients = Counter()
        if s.is_homogeneous and s.n >= 2 and s.r <= RANK_CAP:
            for e in minimal_equivalences(s):
                for p in primes[:2]:
                    r = check_quotient_factorization(s, e, p)
                    quotients[p, r.lhs, r.rhs] += 1
        return plain, quotients

    reports = quotient_reports = crossed = 0
    for member, s in zip(corpus, relabeled_corpus):
        expected = facts(member.scheme)
        assert facts(s) == expected, member.name
        reports += len(expected[0])
        quotient_reports += sum(expected[1].values())
        # the original was certified on row 0, its relabeling on all rows
        crossed += _shift_invariant(member.scheme.matrix) and not _shift_invariant(s.matrix)
    assert (len(corpus), reports, quotient_reports) == (344, 6274, 972)
    assert crossed


def test_group_tables_are_verified_where_they_are_built(monkeypatch):
    """The wreath and quotient families read the members already made,
    and ``abelian_tables`` builds each cyclic factor once per order."""
    calls = Counter()
    family = [None]
    verify = constructions.cayley_table

    def counted(table):
        calls[family[0]] += 1
        return verify(table)

    def tagged(make):
        def run(*args):
            family[0] = make.__name__
            return make(*args)
        return run

    monkeypatch.setattr(constructions, "cayley_table", counted)
    monkeypatch.setattr("asck.corpus._FAMILIES", tuple(map(tagged, _FAMILIES)))
    generate_corpus(CorpusSpec())
    assert dict(calls) == {"_thin_cyclic": 24, "_thin_abelian": 88, "_thin_dihedral": 10}


@pytest.mark.parametrize("primes,message", [
    ((2, 3, 2), "prime 2 is repeated"),
    ((3, np.int64(3)), "prime 3 is repeated"),
    ((2.0,), "2.0 is not prime"),
])
def test_spec_rejects_repeated_and_non_integer_primes(primes, message):
    with pytest.raises(SchemeError, match=message):
        CorpusSpec(primes=primes)


@pytest.mark.parametrize("fields,message", [
    ({"max_n": 0}, "max_n must be in 1..64, got 0"),
    ({"max_n": 65}, "max_n must be in 1..64, got 65"),
    ({"primes": ()}, "prime list must be nonempty"),
])
def test_spec_rejects_empty_ranges(fields, message):
    with pytest.raises(SchemeError) as info:
        CorpusSpec(**fields)
    assert type(info.value) is SchemeError and str(info.value) == message


class TestCirculantArguments:
    """``_wl_circulant`` checks neither the strong connectivity of its
    draws nor the homogeneity of their closures; both are exact
    arguments in the docstrings, held here."""

    def test_default_draws_and_closures(self, monkeypatch):
        drawn = []

        def recorded(rng, n):
            drawn.append(random_circulant_digraph(rng, n))
            return drawn[-1]

        monkeypatch.setattr(corpus_module, "random_circulant_digraph", recorded)
        members = corpus_module._wl_circulant(CorpusSpec(), [])
        assert len(drawn) == len(members) == 80
        assert all(is_strongly_connected(g) for g in drawn)
        assert all(m.scheme.is_homogeneous for m in members)

    def test_seeded_draws_are_strongly_connected(self):
        rng = random.Random(2007)
        for n in [2, 3] + [rng.randint(4, 40) for _ in range(300)]:
            assert is_strongly_connected(random_circulant_digraph(rng, n))
