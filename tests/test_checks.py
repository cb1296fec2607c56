from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from asck import (
    CorpusSpec,
    all_equivalences,
    check_bipartite_criterion,
    check_block_criterion,
    check_fiber_reduction,
    check_partite_criterion,
    check_primitive_structure,
    check_quotient_factorization,
    cyclic_table,
    direct_product,
    is_p_scheme,
    is_prime,
    quotient,
    rank_two_scheme,
    restriction,
    thin_scheme,
    validate,
    verify_size_factorization,
    wreath,
)
from asck import checks, constructions
from asck import corpus as corpus_module
from asck.checks import _non_diagonal, require_prime
from asck.constructions import _class_restriction
from asck.core import canonical_scheme
from asck.corpus import CorpusMember, member_reports, run_corpus_checks
from asck.errors import NotASchemeEquivalence, NotHomogeneous, NotPrime, SchemeError
from asck.lattice import RANK_CAP, Equivalence, maximal_below_full, minimal_equivalences
from oracles import (
    ORBITAL_DEGREES,
    is_power_of,
    ladder_closures_64,
    old_bipartite,
    old_is_p_scheme,
    old_partite,
    old_primitive_loop_rhs,
    old_primitive_rhs,
    old_size_side,
    old_verify_size_factorization,
    orbital_p_schemes,
    symmetric_orbital_matrices,
    two_fiber_scheme,
)


class TestArithmetic:
    def test_is_prime(self):
        assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_require_prime(self):
        assert require_prime(13) == 13
        for bad in (0, 1, 4, 9):
            for _ in range(2):
                with pytest.raises(NotPrime):
                    require_prime(bad)

    def test_is_prime_matches_trial_division_twice(self):
        """Cached answers equal fresh ones, for primes and composites."""
        def trial(p):
            return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))
        for _ in range(2):
            assert [p for p in range(-3, 200) if is_prime(p)] == [
                p for p in range(-3, 200) if trial(p)]
        assert is_prime(2 ** 31 - 1) and not is_prime(2 ** 31 + 1)

    def test_is_prime_past_trial_division(self):
        """Strong pseudoprimes to the first four and the first nine prime
        bases, and Carmichael numbers, are composite; the largest primes
        below 2**63 and 2**64 are prime.  Each answer takes microseconds."""
        assert 151 * 751 * 28351 == 3215031751
        assert 149491 * 747451 * 34233211 == 3825123056546413051
        for composite in (3215031751, 3825123056546413051, 561, 41041, 825265):
            assert not is_prime(composite)
        assert is_prime(2 ** 63 - 25) and is_prime(2 ** 64 - 59)
        assert not is_prime((2 ** 61 - 1) * 65537)
        with pytest.raises(SchemeError, match="318665857834031151167461"):
            is_prime(318665857834031151167461 + 2)

    def test_require_prime_below_two_to_the_63(self):
        assert require_prime(2 ** 63 - 25) == 2 ** 63 - 25
        for big in (2 ** 63, 2 ** 63 + 29, 10 ** 30):
            with pytest.raises(SchemeError, match=f"{2 ** 63}") as info:
                require_prime(big)
            assert not isinstance(info.value, NotPrime)

    def test_is_power_of(self):
        assert is_power_of(1, 3)
        assert is_power_of(8, 2)
        assert is_power_of(243, 3)
        assert not is_power_of(6, 2)
        assert not is_power_of(0, 2)


def test_non_diagonal_colors_match_membership_test(corpus):
    for member in corpus:
        s = member.scheme
        assert np.flatnonzero(_non_diagonal(s)).tolist() == [
            c for c in range(s.r) if c not in s.diagonal_colors]


class TestIsPScheme:
    def test_cyclic_four(self):
        assert is_p_scheme(thin_scheme(cyclic_table(4)), 2)

    def test_cyclic_six_offender(self):
        verdict = is_p_scheme(thin_scheme(cyclic_table(6)), 2)
        assert not verdict
        assert verdict.offender_size == 6

    def test_first_offender_reported(self):
        verdict = is_p_scheme(rank_two_scheme(4), 2)
        assert not verdict
        assert (verdict.offender_color, verdict.offender_size) == (1, 12)

    def test_sizes_across_int64(self):
        """Powers of p up to the largest in int64, their neighbours and
        products with other primes, against the division loop."""
        for p in (2, 3, 5, 7, 11, 2 ** 31 - 1):
            powers = [p ** k for k in range(64) if p ** k < 2 ** 63]
            sizes = sorted({x for q in powers for x in (q, q - 1, q + 1, 2 * q, 3 * q)
                            if 0 < x < 2 ** 63})
            stand_in = SimpleNamespace(sizes=np.array(sizes, dtype=np.int64),
                                       derived=lambda key, build: build())
            verdict = is_p_scheme(stand_in, p)
            want = [x for x in sizes if not is_power_of(x, p)][0]
            assert (verdict.offender_size, sizes[verdict.offender_color]) == (want, want)
            for x in powers:
                one = SimpleNamespace(sizes=np.array([x]), derived=lambda key, build: build())
                assert is_p_scheme(one, p)

    def test_rejects_composite_p(self):
        s = thin_scheme(cyclic_table(4))
        assert is_p_scheme(s, 2)
        for _ in range(2):
            with pytest.raises(NotPrime):
                is_p_scheme(s, 4)

    def test_memo_matches_loop_on_corpus_and_restrictions(self, corpus):
        loop = old_is_p_scheme
        for member in corpus:
            s = member.scheme
            schemes = [s] + [restriction(s, fiber) for fiber in s.fibers]
            if s.is_homogeneous and s.r <= RANK_CAP:
                schemes += [restriction(s, c) for e in all_equivalences(s) for c in e.classes]
            for t in schemes:
                for p in CorpusSpec().primes:
                    verdict = is_p_scheme(t, p)
                    assert verdict == loop(t, p)
                    assert is_p_scheme(t, p) is verdict


class TestPartiteCriterion:
    def test_power_of_two_order(self):
        rep = check_partite_criterion(thin_scheme(cyclic_table(8)), 2)
        assert rep.lhs and rep.rhs and rep.agree and rep.mode == "iff"

    def test_wreath_fails_both_sides(self):
        w = wreath(thin_scheme(cyclic_table(2)), thin_scheme(cyclic_table(3)))
        rep = check_partite_criterion(w, 2)
        assert not rep.lhs and not rep.rhs and rep.agree
        assert "size-offender" in rep.witnesses
        assert "unpartitioned-color" in rep.witnesses

    def test_requires_homogeneous(self):
        with pytest.raises(NotHomogeneous):
            check_partite_criterion(two_fiber_scheme(), 2)

    def test_requires_prime(self):
        with pytest.raises(NotPrime):
            check_partite_criterion(thin_scheme(cyclic_table(4)), 6)


class TestBipartiteCriterion:
    def test_cyclic_four(self):
        rep = check_bipartite_criterion(thin_scheme(cyclic_table(4)))
        assert rep.lhs and rep.rhs and rep.agree
        assert rep.p == 2

    def test_odd_order(self):
        rep = check_bipartite_criterion(thin_scheme(cyclic_table(3)))
        assert not rep.lhs and not rep.rhs and rep.agree
        assert "odd-color" in rep.witnesses

    def test_non_homogeneous_input(self):
        rep = check_bipartite_criterion(two_fiber_scheme())
        assert rep.lhs and rep.rhs and rep.agree


class TestFiberReduction:
    def test_single_fiber_reduces_to_itself(self):
        rep = check_fiber_reduction(thin_scheme(cyclic_table(6)), 2)
        assert not rep.lhs and not rep.rhs and rep.agree

    def test_two_fibers(self):
        rep = check_fiber_reduction(two_fiber_scheme(), 2)
        assert rep.lhs and rep.rhs and rep.agree
        rep3 = check_fiber_reduction(two_fiber_scheme(), 3)
        assert not rep3.lhs and not rep3.rhs and rep3.agree

    def test_one_point(self):
        rep = check_fiber_reduction(validate([[0]]), 2)
        assert rep.lhs and rep.rhs and rep.agree

    def test_restrictions_are_those_of_restriction(self, corpus, monkeypatch):
        """Over the default primes the check restricts every fiber of every
        non-homogeneous corpus member, with no ``is_block`` test, to the
        object that ``restriction`` returns, on a fresh scheme and a cold
        one."""
        built = []
        real = checks._class_restriction

        def recording(s, fiber):
            sub = real(s, fiber)
            built.append((fiber, sub))
            return sub

        monkeypatch.setattr(checks, "_class_restriction", recording)
        fibers = 0
        for member in corpus:
            if member.scheme.is_homogeneous:
                continue
            s, cold = validate(member.scheme.matrix), validate(member.scheme.matrix)
            built.clear()
            for p in CorpusSpec().primes:
                check_fiber_reduction(s, p)
            assert {fiber for fiber, _ in built} == set(s.fibers)
            for fiber, sub in built:
                assert sub is restriction(s, fiber) is restriction(cold, fiber)
            fibers += len(s.fibers)
        assert fibers == 293


class TestQuotientFactorization:
    def test_cyclic_four(self):
        s = thin_scheme(cyclic_table(4))
        e = next(e for e in all_equivalences(s) if len(e.classes) == 2)
        rep = check_quotient_factorization(s, e, 2)
        assert rep.lhs and rep.rhs and rep.agree
        assert rep.witnesses["size-factorization"] == "verified"

    def test_cyclic_six_at_three(self):
        s = thin_scheme(cyclic_table(6))
        e = next(e for e in all_equivalences(s) if len(e.classes) == 2)
        rep = check_quotient_factorization(s, e, 3)
        assert not rep.lhs and not rep.rhs and rep.agree
        assert "size 2" in rep.witnesses["quotient-offender"]

    def test_discrete_equivalence(self):
        s = thin_scheme(cyclic_table(4))
        e = next(e for e in all_equivalences(s) if e.is_discrete)
        rep = check_quotient_factorization(s, e, 2)
        assert rep.lhs and rep.rhs and rep.agree


def sides(report):
    return report.lhs, report.rhs, report.witnesses


class TestVectorizedAgainstPerColorLoops:
    """Size verdicts and the partite, bipartite and primitive right-hand
    sides read masks with ``argmax``; the per-color loops are the oracle."""

    def assert_matches_loops(self, s, primes=(2, 3, 5)):
        for p in primes:
            assert is_p_scheme(s, p) == old_is_p_scheme(s, p)
            if s.is_homogeneous:
                assert sides(check_partite_criterion(s, p)) == old_partite(s, p)
                if s.n >= 2 and s.r <= RANK_CAP:
                    rep = check_primitive_structure(s, p)
                    assert (rep.rhs, rep.witnesses) == old_primitive_loop_rhs(s, p)
        assert sides(check_bipartite_criterion(s)) == old_bipartite(s)

    def test_corpus(self, corpus):
        for member in corpus:
            self.assert_matches_loops(member.scheme)

    def test_ladder_closures_and_discrete_configuration(self):
        discrete = canonical_scheme(np.arange(64 * 64).reshape(64, 64))
        for s in (*ladder_closures_64(), discrete):
            self.assert_matches_loops(s)

    def test_witnesses_occur(self, corpus):
        """The oracles above compare failing verdicts, not only passing ones."""
        schemes = [m.scheme for m in corpus if m.scheme.is_homogeneous]
        assert any(not check_partite_criterion(s, 3).rhs for s in schemes)
        assert any(not check_bipartite_criterion(s).rhs for s in schemes)
        assert any(check_primitive_structure(s, 3).rhs for s in schemes
                   if s.n >= 2 and s.r <= RANK_CAP)


def labeled_size_factorization(scheme, e):
    """The labeling ``_size_factorization`` ran inline before
    ``_class_pair_runs``; a point in no class was labeled class 0."""
    classes = e.classes
    k, r = len(classes), scheme.r
    class_of = np.zeros(scheme.n, dtype=np.int64)
    for i, c in enumerate(classes):
        class_of[list(c)] = i
    labels, counts = np.unique(
        (class_of[:, None] * k + class_of[None, :]) * r + scheme.matrix,
        return_counts=True)
    colors = labels % r
    blocks = np.bincount(colors, minlength=r)
    low = np.full(r, np.iinfo(np.int64).max)
    np.minimum.at(low, colors, counts)
    high = np.zeros(r, dtype=np.int64)
    np.maximum.at(high, colors, counts)
    vanished = blocks == 0
    failing = vanished | (low != high) | (blocks * high != scheme.sizes)
    if not failing.any():
        return
    color = int(failing.argmax())
    if vanished[color]:
        raise SchemeError(f"color {color} vanished")
    lo, hi, m = int(low[color]), int(high[color]), int(blocks[color])
    if lo != hi:
        raise SchemeError(f"color {color} has unequal block counts {lo} vs {hi}")
    raise SchemeError(
        f"color {color}: {m} blocks x {hi} != size {int(scheme.sizes[color])}")


def size_factorization(scheme, e):
    """``checks._size_factorization`` with no memo in front of it."""
    checks._size_factorization(scheme, e.classes)


def outcome(verify, scheme, e):
    """None when ``verify`` passes, else the type and message it raised."""
    try:
        verify(scheme, e)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def stand_in(matrix, sizes):
    """A scheme-shaped object with sizes that need not match its matrix,
    which no certified Scheme has, and no memo."""
    matrix = np.array(matrix, dtype=np.int64)
    sizes = np.array(sizes, dtype=np.int64)
    return SimpleNamespace(matrix=matrix, n=matrix.shape[0], r=sizes.size, sizes=sizes,
                           derived=lambda key, build: build())


class TestSizeFactorizationOracle:
    """The one-pass size factorization against the per-color loop."""

    def test_every_corpus_equivalence(self, corpus):
        pairs = 0
        for member in corpus:
            s = member.scheme
            if s.is_homogeneous and s.r <= RANK_CAP:
                for e in all_equivalences(s):
                    assert outcome(old_verify_size_factorization, s, e) is None
                    assert outcome(labeled_size_factorization, s, e) is None
                    assert outcome(size_factorization, s, e) is None
                    assert outcome(verify_size_factorization, s, e) is None
                    pairs += 1
        assert pairs > 1000

    def test_arbitrary_partitions(self, corpus):
        """Random partitions, most of them no scheme equivalence, give the
        same pass or the same first failure."""
        rng = np.random.default_rng(13)
        failures = set()
        for member in corpus:
            s = member.scheme
            if s.n > 12:
                continue
            for _ in range(4):
                label = rng.integers(0, rng.integers(1, s.n + 1), size=s.n)
                classes = tuple(tuple(np.flatnonzero(label == x).tolist())
                                for x in np.unique(label))
                e = Equivalence(s, classes, frozenset())
                want = outcome(old_verify_size_factorization, s, e)
                assert outcome(labeled_size_factorization, s, e) == want
                assert outcome(verify_size_factorization, s, e) == want
                failures.add(want)
        assert len(failures) > 10

    @pytest.mark.parametrize("scheme, classes, message", [
        (stand_in([[0, 1], [1, 0]], [2, 2, 1]), ((0,), (1,)),
         "color 2 vanished"),
        (thin_scheme(cyclic_table(3)), ((0, 1), (2,)),
         "color 0 has unequal block counts 1 vs 2"),
        (stand_in([[0, 1], [1, 0]], [2, 3]), ((0,), (1,)),
         "color 1: 2 blocks x 1 != size 3"),
        (stand_in([[0, 1], [1, 0]], [2, 2, 0]), ((0, 1),),
         "color 2 vanished"),
    ])
    def test_each_message(self, scheme, classes, message):
        """A certified Scheme has every color and sizes equal to its cell
        counts, so "vanished" and "!= size" are reached on stand-ins."""
        e = Equivalence(scheme, classes, frozenset())
        want = (SchemeError, message)
        assert outcome(old_verify_size_factorization, scheme, e) == want
        assert outcome(labeled_size_factorization, scheme, e) == want
        assert outcome(verify_size_factorization, scheme, e) == want

    def test_failure_is_not_memoized(self):
        s = thin_scheme(cyclic_table(3))
        e = Equivalence(s, ((0, 1), (2,)), frozenset())
        for _ in range(2):
            with pytest.raises(SchemeError, match="unequal block counts"):
                verify_size_factorization(s, e)

    @pytest.mark.parametrize("classes", [
        ((0, 1),), ((0, 1), (1, 2, 3)), ((0, 1, 2, 3), ()),
    ], ids=["uncovered", "overlapping", "empty-class"])
    def test_rejects_non_partition(self, classes, monkeypatch):
        """Classes that do not partition the points are rejected before
        any count, each time; the earlier inline labeling passed the
        uncovered ones.  ``quotient`` rejects them first, with its own message."""
        s = validate(thin_scheme(cyclic_table(4)).matrix)
        e = Equivalence(s, classes, frozenset())
        builds = []
        real_build = checks._size_factorization
        monkeypatch.setattr(checks, "_size_factorization",
                            lambda *args: builds.append(args) or real_build(*args))
        for _ in range(2):
            with pytest.raises(NotASchemeEquivalence,
                               match="^classes do not partition the point set$"):
                verify_size_factorization(s, e)
        assert len(builds) == 2
        if classes == ((0, 1),):
            assert outcome(labeled_size_factorization, s, e) is None
        with pytest.raises(NotASchemeEquivalence,
                           match="^classes are not the classes of the color union$"):
            quotient(s, Equivalence(s, classes, frozenset({0})))


def fresh_members(corpus):
    """The corpus members on new, uninterned Schemes with empty memos."""
    return [CorpusMember(m.name, m.family, validate(m.scheme.matrix)) for m in corpus]


def machine_blocks(results):
    """Each (member, check, p)'s ``machine()`` blocks, in report order."""
    blocks = {}
    for member, rep in results:
        blocks.setdefault((member.name, rep.check, rep.p), []).append(rep.machine())
    return blocks


class TestPrimeIndependentWork:
    def test_reports_do_not_depend_on_memo_state(self, corpus, corpus_results):
        """Fresh schemes, primes in other orders: every report equals the
        default run's, over every (member, check, p) of it."""
        primes = CorpusSpec().primes
        default = machine_blocks(corpus_results)
        covered = set()
        for order in (primes[::-1], (3, 2) + primes[2:][::-1]):
            fresh = fresh_members(corpus)
            got = machine_blocks(
                (m, rep) for m in fresh for rep in member_reports(m, order))
            common = got.keys() & default.keys()
            assert all(got[key] == default[key] for key in common)
            covered |= common
        assert covered == default.keys()

    def test_call_counts(self, corpus, monkeypatch):
        """One default run on fresh schemes: no check calls ``is_block``
        (fibers and lattice classes are blocks by definition or by the
        closure argument), the block criterion builds one restriction
        per equivalence other than the full one, the quotient check builds
        only its quotients, and each (scheme, classes) pair's size
        factorization is built once."""
        inside = []
        is_block_calls = Counter()
        real_is_block = constructions.is_block

        def counting_is_block(*args):
            is_block_calls["inside" if inside else "outside"] += 1
            return real_is_block(*args)

        def marking(name, check):
            def run(scheme, *args):
                inside.append((name, scheme))
                try:
                    return check(scheme, *args)
                finally:
                    inside.pop()
            return run

        block_builds, quotient_builds = Counter(), Counter()
        real_canonical_scheme = constructions.canonical_scheme

        def counting_canonical_scheme(sub):
            if inside and inside[-1][0] == "check_block_criterion":
                block_builds[id(inside[-1][1])] += 1
            if inside and inside[-1][0] == "check_quotient_factorization":
                quotient_builds[id(inside[-1][1])] += 1
            return real_canonical_scheme(sub)

        builds = Counter()
        real_build = checks._size_factorization

        def counting_build(scheme, classes):
            builds[id(scheme), classes] += 1
            return real_build(scheme, classes)

        monkeypatch.setattr(constructions, "is_block", counting_is_block)
        monkeypatch.setattr(checks, "_size_factorization", counting_build)
        monkeypatch.setattr(constructions, "canonical_scheme", counting_canonical_scheme)
        for name in ("check_block_criterion", "check_quotient_factorization"):
            monkeypatch.setattr(corpus_module, name,
                                marking(name, getattr(corpus_module, name)))

        fresh = fresh_members(corpus)
        results = run_corpus_checks(fresh, CorpusSpec().primes)
        assert len(results) == 6898
        assert sum(is_block_calls.values()) == 0
        pairs = {(id(m.scheme), e.classes) for m in fresh
                 if m.scheme.is_homogeneous and m.scheme.n >= 2 and m.scheme.r <= RANK_CAP
                 for e in minimal_equivalences(m.scheme)[:2]}
        assert set(builds) == pairs
        assert set(builds.values()) == {1}
        assert block_builds == {
            id(m.scheme): sum(not e.is_full for e in all_equivalences(m.scheme))
            for m in lattice_members(fresh)}
        assert sum(block_builds.values()) == 1150
        # the quotient check builds its quotients and reads the block
        # criterion's restriction of the class of point 0
        assert quotient_builds == Counter(scheme_id for scheme_id, _ in pairs)

        # in corpus order the block criterion restricts first; alone, the
        # quotient check must not call is_block either
        before = is_block_calls["outside"]
        for m in fresh_members(corpus):
            s = m.scheme
            if s.is_homogeneous and s.n >= 2 and s.r <= RANK_CAP:
                for e in minimal_equivalences(s)[:2]:
                    check_quotient_factorization(s, e, 2)
        assert is_block_calls["outside"] == before
        # the wrapper counts: ``restriction`` itself still tests its points
        s = next(m.scheme for m in fresh if not m.scheme.is_homogeneous)
        restriction(s, s.fibers[0])
        assert is_block_calls["outside"] == before + 1


    def test_one_prime_check_per_report(self, corpus, monkeypatch):
        """``_begin`` validates each check's prime and nothing below it
        does: one default run on fresh schemes calls ``require_prime``
        once per report, with that report's p.  Re-validating in every
        sub-verdict made 19,406 calls."""
        calls = Counter()
        real_require_prime = checks.require_prime

        def counting_require_prime(p):
            calls[p] += 1
            return real_require_prime(p)

        monkeypatch.setattr(checks, "require_prime", counting_require_prime)
        results = run_corpus_checks(fresh_members(corpus), CorpusSpec().primes)
        assert calls == Counter(rep.p for _, rep in results)
        assert sum(calls.values()) == len(results) == 6898


def prime_taking_calls(s, e):
    """``is_p_scheme`` and each check that takes p, by name, as a function
    of p on the scheme s; the quotient check is given the equivalence e."""
    return {
        "is_p_scheme": lambda p: is_p_scheme(s, p),
        "partite": lambda p: check_partite_criterion(s, p),
        "fiber": lambda p: check_fiber_reduction(s, p),
        "quotient": lambda p: check_quotient_factorization(s, e, p),
        "primitive": lambda p: check_primitive_structure(s, p),
        "block": lambda p: check_block_criterion(s, p),
    }


class TestPrimeDoor:
    """Each check's p passes ``require_prime`` once, in ``_begin``, and
    ``is_p_scheme`` is ``_p_verdict`` behind the same door."""

    @pytest.mark.parametrize("name", [
        "is_p_scheme", "partite", "fiber", "quotient", "primitive", "block"])
    def test_bad_primes_raise_on_first_and_repeat_calls(self, name):
        s = thin_scheme(cyclic_table(4))
        call = prime_taking_calls(s, minimal_equivalences(s)[0])[name]
        for _ in range(2):
            for bad, message in ((4, "4"), (6, "6"), (2.0, "2.0"), ("3", "'3'"),
                                 (None, "None")):
                with pytest.raises(NotPrime) as info:
                    call(bad)
                assert str(info.value) == f"{message} is not prime"
            with pytest.raises(SchemeError) as info:
                call(2 ** 63)
            assert type(info.value) is SchemeError
            assert str(info.value) == (
                f"p = {2 ** 63} is not below 2**63 = {2 ** 63}: sizes and powers are int64")
            call(2)  # a good p warms the memos between the rounds

    @pytest.mark.parametrize("name", ["partite", "quotient", "primitive", "block"])
    def test_not_homogeneous_before_not_prime(self, name):
        z4 = thin_scheme(cyclic_table(4))
        # e is never read: the homogeneity test comes first
        call = prime_taking_calls(two_fiber_scheme(), minimal_equivalences(z4)[0])[name]
        for p in (2, 4, None):
            with pytest.raises(NotHomogeneous):
                call(p)


class TestPrimitiveStructure:
    def test_prime_cyclic(self):
        for p in (2, 3, 5, 7):
            rep = check_primitive_structure(thin_scheme(cyclic_table(p)), p)
            assert rep.mode == "implies"
            assert rep.lhs and rep.rhs and rep.agree

    def test_primitive_non_p_scheme_is_vacuous(self):
        rep = check_primitive_structure(rank_two_scheme(4), 2)
        assert not rep.lhs and rep.agree
        assert "vacuous" in rep.text()

    def test_imprimitive_is_vacuous(self):
        rep = check_primitive_structure(thin_scheme(cyclic_table(4)), 2)
        assert not rep.lhs and rep.agree

    def test_rhs_matches_digraph_oracle_on_corpus(self, corpus):
        checked = 0
        for member in corpus:
            s = member.scheme
            if s.is_homogeneous and s.n >= 2 and s.r <= RANK_CAP:
                for p in CorpusSpec().primes:
                    rep = check_primitive_structure(s, p)
                    assert (rep.rhs, rep.witnesses) == old_primitive_rhs(s, p), member.name
                    checked += 1
        assert checked == 1395

    @pytest.mark.parametrize("n", range(2, 13))
    def test_rhs_matches_digraph_oracle_on_small_schemes(self, n):
        for s in (thin_scheme(cyclic_table(n)), rank_two_scheme(n)):
            for p in (2, 3, 5, 7, 11):
                rep = check_primitive_structure(s, p)
                assert (rep.rhs, rep.witnesses) == old_primitive_rhs(s, p)


def direct_class_restrictions(s):
    """Every class of every equivalence of s other than the full one,
    with its restriction by direct indexing, by size and then by points."""
    blocks = sorted({cls for e in all_equivalences(s) if not e.is_full for cls in e.classes},
                    key=lambda c: (len(c), c))
    return [(cls, canonical_scheme(s.matrix[np.ix_(cls, cls)])) for cls in blocks]


def all_classes_block_sides(s, p, restricted):
    """lhs and witnesses of the block criterion as first built: every
    class of every equivalence but the full one is tested, and the first
    failing one is the witness."""
    _, witnesses = old_size_side(s, p)
    top = len(maximal_below_full(s))
    witnesses["maximal-below-full"] = str(top)
    cond_blocks = True
    for block, sub in restricted:
        verdict = old_is_p_scheme(sub, p)
        if not verdict:
            cond_blocks = False
            witnesses["block-offender"] = (
                f"block {list(block)} restriction has color "
                f"{verdict.offender_color} of size {verdict.offender_size}")
            break
    witnesses["blocks-p-schemes"] = "true" if cond_blocks else "false"
    return top >= 2 and cond_blocks, witnesses


def lattice_members(corpus):
    return [m for m in corpus if m.scheme.is_homogeneous and m.scheme.n >= 2
            and m.scheme.r <= RANK_CAP]


class TestBlockCriterion:
    def test_matches_all_classes_oracle_on_corpus(self, corpus):
        """Testing the class of point 0 per equivalence gives the lhs and
        witnesses, block offender included, of testing every class."""
        checked = offenders = 0
        for member in lattice_members(corpus):
            s = member.scheme
            restricted = direct_class_restrictions(s)
            for p in CorpusSpec().primes:
                rep = check_block_criterion(s, p)
                assert (rep.lhs, rep.witnesses) == all_classes_block_sides(
                    s, p, restricted), member.name
                offenders += "block-offender" in rep.witnesses
                checked += 1
        assert checked == 1395
        assert offenders > 0

    def test_every_class_gives_one_verdict(self, corpus):
        """All classes of one equivalence restrict to one multiset of
        color sizes, so each gets the verdict of the class of point 0,
        the one the checks restrict to, at every prime."""
        equivalences = 0
        for member in lattice_members(corpus):
            s = member.scheme
            for e in all_equivalences(s):
                if e.is_full:
                    continue
                subs = [canonical_scheme(s.matrix[np.ix_(c, c)]) for c in e.classes]
                assert len({tuple(sorted(sub.sizes.tolist())) for sub in subs}) == 1
                rep = _class_restriction(s, e.classes[0])
                for p in CorpusSpec().primes:
                    assert {bool(is_p_scheme(sub, p)) for sub in subs} == {
                        bool(is_p_scheme(rep, p))}
                equivalences += 1
        assert equivalences == 1150

    def test_klein_group(self):
        klein = thin_scheme(direct_product(cyclic_table(2), cyclic_table(2)))
        rep = check_block_criterion(klein, 2)
        assert rep.lhs and rep.rhs and rep.agree
        assert rep.witnesses["maximal-below-full"] == "3"

    def test_wreath_counterexample_shape(self):
        for p, q in ((2, 3), (3, 2), (3, 5)):
            w = wreath(thin_scheme(cyclic_table(p)), thin_scheme(cyclic_table(q)))
            rep = check_block_criterion(w, p)
            assert rep.witnesses["blocks-p-schemes"] == "true"
            assert rep.witnesses["maximal-below-full"] == "1"
            assert not rep.rhs
            assert not rep.lhs and rep.agree

    def test_primitive_case_is_vacuous(self):
        rep = check_block_criterion(thin_scheme(cyclic_table(5)), 5)
        assert rep.witnesses["maximal-below-full"] == "1"
        assert not rep.lhs and rep.agree and rep.rhs


class TestTheoremReport:
    def test_text_form(self):
        rep = check_partite_criterion(thin_scheme(cyclic_table(4)), 2)
        text = rep.text()
        assert "p-scheme: true" in text
        assert "agree: true" in text
        assert "elapsed:" in text

    def test_machine_form_is_parseable_and_time_free(self):
        rep = check_partite_criterion(thin_scheme(cyclic_table(6)), 2)
        pairs = dict(line.split("=", 1) for line in rep.machine().splitlines())
        assert pairs["check"] == "partite-criterion"
        assert pairs["lhs"] == "false" and pairs["rhs"] == "false"
        assert pairs["agree"] == "true"
        assert pairs["p"] == "2"
        assert "elapsed" not in pairs
        assert any(key.startswith("witness.") for key in pairs)

    def test_agreement_semantics(self):
        rep = check_partite_criterion(thin_scheme(cyclic_table(4)), 2)
        iff_true = rep.agree
        assert iff_true == (rep.lhs == rep.rhs)
        imp = check_primitive_structure(thin_scheme(cyclic_table(4)), 2)
        assert imp.agree == ((not imp.lhs) or imp.rhs)


class TestOrbitalPSchemes:
    """Orbital schemes of transitive p-groups drawn from Z_p wr ... wr Z_p:
    p-schemes whose group need not act regularly, which no corpus family
    makes.  Each is a p-scheme for its own p only, the paper's two sides
    agree on it, and the own-p partite criterion holds on both sides, so
    a fault on either side shows as a false negative.  Groups drawn from
    the full symmetric group add negative instances of the same checks."""

    @staticmethod
    def verdicts(p, s):
        assert s.is_homogeneous
        assert is_p_scheme(s, p)
        assert not any(is_p_scheme(s, q) for q in (2, 3, 5, 7) if q != p)
        reports = member_reports(CorpusMember("orbital", "orbital", s), (2, 3, 5, 7))
        assert all(rep.agree for rep in reports)
        (own,) = [rep for rep in reports if rep.check == "partite-criterion" and rep.p == p]
        assert own.lhs and own.rhs
        return [(rep.check, rep.p, rep.lhs, rep.rhs) for rep in reports]

    def test_reports_agree_under_relabeling(self):
        drawn = orbital_p_schemes(seed=1, draws=40)
        distinct = {m.tobytes(): (p, m) for p, m in drawn}
        assert len(drawn) > 100 and len(distinct) > 30
        assert {(p, m.shape[0]) for p, m in distinct.values()} == {
            (p, p ** k) for p, k in ORBITAL_DEGREES}
        rng = np.random.default_rng(29)
        for p, m in distinct.values():
            perm = rng.permutation(m.shape[0])
            want = self.verdicts(p, validate(m))
            assert self.verdicts(p, validate(m[np.ix_(perm, perm)])) == want

    def test_symmetric_group_draws(self):
        """Transitive groups drawn from S_n on 3 to 8 points: rank-2
        schemes, p-schemes and schemes that are neither all occur, and
        the two sides agree on every report of each."""
        drawn = symmetric_orbital_matrices(seed=1, draws=40)
        distinct = {m.tobytes(): m for m in drawn}.values()
        kinds = Counter()
        for m in distinct:
            s = validate(m)
            assert s.is_homogeneous
            reports = member_reports(CorpusMember("orbital", "orbital", s), (2, 3, 5, 7))
            assert all(rep.agree for rep in reports)
            p_scheme = any(is_p_scheme(s, q) for q in (2, 3, 5, 7))
            kinds["rank-2" if s.r == 2 else "p-scheme" if p_scheme else "neither"] += 1
        assert len(drawn) > 100 and len(distinct) > 20
        assert kinds["rank-2"] and kinds["p-scheme"] and kinds["neither"]
