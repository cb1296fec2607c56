import pytest

from asck import CorpusSpec, run_corpus_checks
from asck.corpus import member_reports


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
