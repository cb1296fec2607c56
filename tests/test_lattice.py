import ast
from itertools import combinations
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from asck import (
    Digraph,
    all_equivalences,
    basis_digraph,
    cayley_table,
    cyclic_table,
    digraph_color_matrix,
    dihedral_table,
    direct_product,
    equivalence_from_colors,
    generated_closed_set,
    is_primitive,
    is_regular,
    maximal_below_full,
    minimal_equivalences,
    rank_two_scheme,
    thin_radical,
    thin_scheme,
    validate,
    weakly_connected_components,
    wl_closure,
    wreath,
)
from asck.errors import (
    NotASchemeEquivalence,
    NotHomogeneous,
    RankTooLarge,
    SchemeError,
    TooFewPoints,
)
import asck
from asck import lattice
from asck.lattice import RANK_CAP, ClosedSet, Equivalence, closed_set_equivalence
from oracles import (
    check_closed_set,
    old_all_equivalences,
    old_equivalence_from_colors,
    old_outcome,
    old_thin_radical,
)


def z4():
    return thin_scheme(cyclic_table(4))


def element_order(radical, color):
    """Order of a thin color in the radical group, read from its table:
    the least k with color^k the identity."""
    i = radical.elements.index(color)
    power, order = i, 1
    while power != radical.identity:
        power, order = int(radical.table[power, i]), order + 1
    return order


def divisor_count(m: int) -> int:
    return sum(1 for d in range(1, m + 1) if m % d == 0)


class TestGeneratedClosedSet:
    def test_order_two_color(self):
        s = z4()
        c2 = int(s.matrix[0, 2])
        assert generated_closed_set(s, {c2}).colors == {0, c2}

    def test_generator_color(self):
        s = z4()
        assert generated_closed_set(s, {int(s.matrix[0, 1])}).colors == {0, 1, 2, 3}

    def test_diagonal_seed(self):
        s = z4()
        assert generated_closed_set(s, {0}).colors == {0}

    def test_membership_iteration_and_length(self):
        s = z4()
        c2 = int(s.matrix[0, 2])
        closed = generated_closed_set(s, {c2})
        assert c2 in closed and 0 in closed
        assert [c for c in range(s.r) if c in closed] == [0, c2]
        assert list(closed) == [0, c2] and len(closed) == 2
        assert list(generated_closed_set(s, {int(s.matrix[0, 1])})) == [0, 1, 2, 3]

    def test_closure_invariants(self):
        s = thin_scheme(dihedral_table(4))
        for c in range(s.r):
            check_closed_set(generated_closed_set(s, {c}))

    def test_rejects_non_homogeneous(self):
        g = Digraph.from_arcs(3, [(0, 1), (1, 2)])
        s = wl_closure(digraph_color_matrix(g))
        with pytest.raises(NotHomogeneous):
            generated_closed_set(s, {0})


def generated_equivalence(s, color):
    """The equivalence of the closed set one color generates."""
    return closed_set_equivalence(s, generated_closed_set(s, {color}).colors)


class TestGeneratedEquivalence:
    def test_connected_color(self):
        s = z4()
        e = generated_equivalence(s, int(s.matrix[0, 1]))
        assert e.classes == ((0, 1, 2, 3),)

    def test_two_class_color(self):
        s = z4()
        e = generated_equivalence(s, int(s.matrix[0, 2]))
        assert e.classes == ((0, 2), (1, 3))

    def test_diagonal_gives_discrete(self):
        e = generated_equivalence(z4(), 0)
        assert e.is_discrete and len(e.classes) == 4

    def test_classes_match_weak_components(self, corpus):
        sample = [m for m in corpus if m.scheme.is_homogeneous
                  and m.scheme.r <= 10][:25]
        for member in sample:
            s = member.scheme
            for c in range(s.r):
                e = generated_equivalence(s, c)
                g = basis_digraph(s, c)
                comps = [tuple(g.labels[v] for v in comp)
                         for comp in weakly_connected_components(g)]
                covered = {p for cls in comps for p in cls}
                singletons = [(p,) for p in range(s.n) if p not in covered]
                assert sorted(e.classes) == sorted(comps + singletons)


class TestAllEquivalences:
    def test_cyclic_four(self):
        eqs = all_equivalences(z4())
        assert len(eqs) == 3
        assert sorted(len(e.classes) for e in eqs) == [1, 2, 4]

    def test_cyclic_six(self):
        assert len(all_equivalences(thin_scheme(cyclic_table(6)))) == 4

    def test_rank_two_is_primitive(self):
        s = rank_two_scheme(5)
        assert len(all_equivalences(s)) == 2
        assert is_primitive(s)

    def test_divisor_counts(self):
        for m in range(1, 13):
            s = thin_scheme(cyclic_table(m))
            assert len(all_equivalences(s)) == divisor_count(m)

    def test_union_is_equivalence_relation(self):
        for s in (thin_scheme(cyclic_table(12)), thin_scheme(dihedral_table(5))):
            n = s.n
            for e in all_equivalences(s):
                rel = np.isin(s.matrix, list(e.colors))
                assert rel.diagonal().all()
                assert np.array_equal(rel, rel.T)
                assert not ((rel.astype(int) @ rel.astype(int) > 0) & ~rel).any()
                block = np.zeros((n, n), dtype=bool)
                for cls in e.classes:
                    block[np.ix_(cls, cls)] = True
                assert np.array_equal(rel, block)

    def test_rank_cap(self):
        with pytest.raises(RankTooLarge):
            all_equivalences(thin_scheme(cyclic_table(25)))

    def test_distinct_closed_sets_give_distinct_partitions(self, corpus):
        checked = 0
        for member in corpus:
            s = member.scheme
            if s.is_homogeneous and s.r <= RANK_CAP:
                eqs = all_equivalences(s)
                assert len({e.classes for e in eqs}) == len({e.colors for e in eqs}) == len(eqs)
                checked += 1
        assert checked == 280

    def test_one_point(self):
        s = validate([[0]])
        eqs = all_equivalences(s)
        assert len(eqs) == 1 and eqs[0].is_discrete and eqs[0].is_full

    def test_returns_a_fresh_list(self):
        s = thin_scheme(cyclic_table(6))
        first = all_equivalences(s)
        first.clear()
        second = all_equivalences(s)
        assert len(second) == 4
        assert second is not all_equivalences(s)


class TestMinimalMaximal:
    def test_cyclic_four(self):
        s = z4()
        mins, maxs = minimal_equivalences(s), maximal_below_full(s)
        assert len(mins) == 1 and len(maxs) == 1
        assert mins[0] == maxs[0] and len(mins[0].classes) == 2

    def test_cyclic_six(self):
        s = thin_scheme(cyclic_table(6))
        assert len(minimal_equivalences(s)) == 2
        assert len(maximal_below_full(s)) == 2

    def test_rank_two_empty(self):
        s = rank_two_scheme(4)
        assert minimal_equivalences(s) == []
        assert [e.is_discrete for e in maximal_below_full(s)] == [True]

    def test_one_point_empty(self):
        s = validate([[0]])
        assert minimal_equivalences(s) == []
        assert maximal_below_full(s) == []

    def test_each_color_generates_its_minimal_equivalence(self, corpus):
        """The exact argument in ``minimal_equivalences``, as an oracle:
        every non-diagonal color of a minimal equivalence generates it."""
        checked = 0
        for member in corpus:
            s = member.scheme
            if not (s.is_homogeneous and s.r <= RANK_CAP):
                continue
            for e in minimal_equivalences(s):
                for c in e.colors - set(s.diagonal_colors):
                    assert generated_closed_set(s, {c}).colors == e.colors, member.name
                    checked += 1
        assert checked == 712

    def test_below_full_counts_discrete(self):
        klein = thin_scheme(direct_product(cyclic_table(2), cyclic_table(2)))
        assert len(maximal_below_full(klein)) == 3
        for p in (2, 3, 5, 7, 11, 13):
            assert len(maximal_below_full(thin_scheme(cyclic_table(p)))) == 1

    def test_wreath_has_unique_proper_equivalence(self):
        w = wreath(thin_scheme(cyclic_table(2)), thin_scheme(cyclic_table(3)))
        assert len(maximal_below_full(w)) == 1
        assert len(minimal_equivalences(w)) == 1


class TestPrimitivity:
    def test_prime_cyclic(self):
        assert is_primitive(thin_scheme(cyclic_table(5)))

    def test_composite_cyclic(self):
        assert not is_primitive(z4())

    def test_rank_two_on_seven(self):
        assert is_primitive(rank_two_scheme(7))

    def test_one_point_rejected(self):
        with pytest.raises(TooFewPoints):
            is_primitive(validate([[0]]))


def brute_equivalence(scheme, colors):
    """The classes of the color union, built point by point after a
    brute-force transitivity test, or the message it is rejected with."""
    member = np.isin(scheme.matrix, sorted(colors))
    if not member.diagonal().all():
        return "union of relations is not reflexive"
    if not np.array_equal(member, member.T):
        return "union of relations is not symmetric"
    for u, v in zip(*np.nonzero(member)):
        if (member[v] & ~member[u]).any():
            return "union of relations is not transitive"
    classes, seen = [], set()
    for u in range(scheme.n):
        if u not in seen:
            cls = tuple(int(v) for v in np.flatnonzero(member[u]))
            classes.append(cls)
            seen.update(cls)
    return tuple(classes)


def equivalence_outcome(scheme, colors):
    try:
        return equivalence_from_colors(scheme, colors).classes
    except NotASchemeEquivalence as exc:
        return str(exc)


class TestEquivalenceConstructors:
    def test_from_colors_matches_brute_force(self, corpus):
        rng = np.random.default_rng(5)
        outcomes = []
        for member in corpus[::3]:
            s = member.scheme
            for _ in range(6):
                colors = set(np.flatnonzero(rng.random(s.r) < 0.4).tolist())
                outcomes.append((s, colors))
                # reflexive and symmetric unions reach the transitivity test
                closed = colors | set(s.diagonal_colors)
                outcomes.append((s, closed | {s.transpose(c) for c in closed}))
        messages = set()
        for s, colors in outcomes:
            want = brute_equivalence(s, colors)
            assert equivalence_outcome(s, colors) == want
            messages.add(want if isinstance(want, str) else "classes")
        assert len(messages) == 4

    def test_from_colors_at_n_128(self):
        s = thin_scheme(cyclic_table(128))
        step = {int(s.matrix[0, v]) for v in (1, 127)}
        subgroup = generated_closed_set(s, {int(s.matrix[0, 16])}).colors
        for colors in (subgroup, {0} | step):
            assert equivalence_outcome(s, colors) == brute_equivalence(s, colors)
        assert len(equivalence_from_colors(s, subgroup).classes) == 16
        assert "transitive" in equivalence_outcome(s, {0} | step)

    def test_from_colors(self):
        s = z4()
        c2 = int(s.matrix[0, 2])
        e = equivalence_from_colors(s, [0, c2])
        assert e.classes == ((0, 2), (1, 3))

    def test_from_colors_rejects_non_closed(self):
        s = z4()
        with pytest.raises(NotASchemeEquivalence):
            equivalence_from_colors(s, [0, int(s.matrix[0, 1])])


class TestValueEquality:
    """``ClosedSet`` and ``Equivalence`` are equal exactly when they are on
    the same scheme object and have equal colors, or equal classes; a
    scheme compares by identity, and an equivalence's colors are not
    compared."""

    def test_equal_on_one_scheme(self):
        s = thin_scheme(dihedral_table(4))
        for seed in ([], [1], [1, 2], list(range(s.r))):
            a = generated_closed_set(s, seed)
            b = ClosedSet(s, frozenset(sorted(a.colors)))
            assert a is not b and a == b and hash(a) == hash(b)
            e = equivalence_from_colors(s, a.colors)
            f = equivalence_from_colors(s, sorted(a.colors))
            assert e is not f and e == f and hash(e) == hash(f)
        eqs = all_equivalences(s)
        assert len({e.colors for e in eqs}) == len(set(eqs)) == len(eqs)

    def test_equal_matrices_on_two_schemes_differ(self):
        matrix = thin_scheme(cyclic_table(4)).matrix
        s, t = validate(matrix), validate(matrix)
        assert generated_closed_set(s, [2]) != generated_closed_set(t, [2])
        assert equivalence_from_colors(s, [0, 2]) != equivalence_from_colors(t, [0, 2])
        assert all(e != f for e, f in zip(all_equivalences(s), all_equivalences(t)))

    def test_equivalence_colors_not_compared(self):
        s = z4()
        e = equivalence_from_colors(s, [0, 2])
        for colors in (frozenset(), frozenset({0}), frozenset(range(s.r))):
            other = Equivalence(s, e.classes, colors)
            assert other == e and hash(other) == hash(e)
        assert Equivalence(s, ((0, 1), (2, 3)), e.colors) != e

    def test_set_and_dict_keys(self):
        s = z4()
        a, b = generated_closed_set(s, [2]), ClosedSet(s, frozenset({0, 2}))
        e = equivalence_from_colors(s, [0, 2])
        f = Equivalence(s, e.classes, frozenset())
        assert len({a, b}) == 1 and {a: "a"}[b] == "a"
        assert len({e, f}) == 1 and {e: "e"}[f] == "e"
        assert len({a, e}) == 2
        for value in (a, e):
            for other in (a.colors, e.classes, (s, a.colors), (s, e.classes, e.colors),
                          s, None):
                assert value != other and not value == other
        assert a != e and e != a


class TestSubgroupCriterion:
    """A color set of a thin scheme is a subgroup of the radical group
    exactly when its relation union is an equivalence."""

    @staticmethod
    def is_subgroup(radical, subset) -> bool:
        idx = {radical.elements.index(c) for c in subset}
        if radical.identity not in idx:
            return False
        return all(int(radical.table[a, b]) in idx for a in idx for b in idx)

    @pytest.mark.parametrize("table", [cyclic_table(6), dihedral_table(3)])
    def test_both_directions(self, table):
        s = thin_scheme(table)
        radical = thin_radical(s)
        non_diag = [c for c in range(s.r) if c != 0]
        eq_partitions = {e.classes for e in all_equivalences(s)}
        for k in range(len(non_diag) + 1):
            for extra in combinations(non_diag, k):
                subset = (0,) + extra
                try:
                    e = equivalence_from_colors(s, subset)
                    union_ok = e.classes in eq_partitions
                except NotASchemeEquivalence:
                    union_ok = False
                assert union_ok == self.is_subgroup(radical, subset)


class TestThinRadical:
    def test_thin_scheme_radical_is_whole_group(self):
        s = z4()
        radical = thin_radical(s)
        assert radical.elements == (0, 1, 2, 3)
        assert is_regular(s)
        assert element_order(radical, int(s.matrix[0, 1])) == 4
        assert element_order(radical, int(s.matrix[0, 2])) == 2

    def test_rank_two_radical_is_trivial(self):
        s = rank_two_scheme(5)
        radical = thin_radical(s)
        assert radical.elements == (0,)
        assert not is_regular(s)

    def test_wreath_radical(self):
        w = wreath(thin_scheme(cyclic_table(2)), thin_scheme(cyclic_table(3)))
        radical = thin_radical(w)
        assert len(radical.elements) == 2
        assert element_order(radical, radical.elements[1]) == 2

    def test_identity_has_order_one(self):
        radical = thin_radical(z4())
        assert element_order(radical, 0) == 1

    def test_orders_match_cyclic_group(self):
        for m in range(2, 11):
            s = thin_scheme(cyclic_table(m))
            radical = thin_radical(s)
            for k in range(m):
                shift_order = m // gcd(m, k) if k else 1
                color = int(s.matrix[0, k])
                assert element_order(radical, color) == shift_order
                # the total degree of the closed set the color generates
                closed = generated_closed_set(s, {color}).colors
                assert sum(s.degree(c) for c in closed) == shift_order

    def test_inverse_via_transpose(self):
        s = thin_scheme(cyclic_table(5))
        radical = thin_radical(s)
        for c in radical.elements:
            i, j = radical.elements.index(c), radical.elements.index(s.transpose(c))
            assert int(radical.table[i, j]) == radical.identity

    def test_scatter_matches_loop(self, corpus):
        """The scatter, and the argument that lets it skip the loop's two
        raises, on every homogeneous corpus member, once as built and once
        with its points and colors relabeled by a seeded permutation."""
        rng = np.random.default_rng(20)
        checked = 0
        for member in corpus:
            s = member.scheme
            if not s.is_homogeneous:
                continue
            perm, colors = rng.permutation(s.n), rng.permutation(s.r)
            for t in (s, validate(colors[s.matrix[np.ix_(perm, perm)]])):
                got, want = thin_radical(t), old_thin_radical(t)
                assert (got.elements, got.identity) == (want.elements, want.identity)
                assert got.table.dtype == want.table.dtype
                assert np.array_equal(got.table, want.table), member.name
                checked += 1
        assert checked == 2 * 284


class TestClosedSetCheck:
    def test_broken_set_detected(self):
        s = z4()
        broken = ClosedSet(s, frozenset({0, int(s.matrix[0, 1])}))
        with pytest.raises(SchemeError):
            check_closed_set(broken)

    def test_least_leaving_pair_named(self):
        """A transpose-closed set that is not closed is reported by its
        least outside color reached and that color's least pair of
        members, as read from the full tensor."""
        raised = 0
        for s in (thin_scheme(cyclic_table(12)), thin_scheme(dihedral_table(4)),
                  wreath(thin_scheme(cyclic_table(3)), rank_two_scheme(3))):
            t = s.tensor()
            for c in range(1, s.r):
                colors = frozenset({0, c, s.transpose(c)})
                members = sorted(colors)
                leaving = [(d, a, b) for d in range(s.r) if d not in colors
                           for a in members for b in members if t[d, a, b]]
                if not leaving:
                    check_closed_set(ClosedSet(s, colors))
                    continue
                d, a, b = leaving[0]
                with pytest.raises(SchemeError,
                                   match=rf"^composition {a}\*{b} leaves the set via {d}$"):
                    check_closed_set(ClosedSet(s, colors))
                raised += 1
        assert raised > 10


def matrix_group_table(*generators):
    """Cayley table of the finite group generated by complex matrices."""
    def key(m):
        return tuple(np.round(m, 6).ravel().tolist())

    identity = np.eye(generators[0].shape[0], dtype=complex)
    elements = {key(identity): identity}
    frontier = [identity]
    while frontier:
        g = frontier.pop()
        for h in generators:
            gh = g @ h
            if key(gh) not in elements:
                elements[key(gh)] = gh
                frontier.append(gh)
    index = {k: i for i, k in enumerate(elements)}
    mats = list(elements.values())
    return cayley_table([[index[key(a @ b)] for b in mats] for a in mats])


def dicyclic_table(k: int):
    """Dicyclic group of order 4k (k = 2 gives the quaternion group)."""
    a = np.diag([np.exp(1j * np.pi / k), np.exp(-1j * np.pi / k)])
    x = np.array([[0, -1], [1, 0]], dtype=complex)
    return matrix_group_table(a, x)


def alternating_four_table():
    def perm(p):
        m = np.zeros((4, 4), dtype=complex)
        m[p, range(4)] = 1
        return m

    return matrix_group_table(perm([1, 2, 0, 3]), perm([1, 0, 3, 2]))


def groups_up_to_twelve():
    """One table per isomorphism class of groups of order 1..12 (24 groups)."""
    c, d, x = cyclic_table, dihedral_table, direct_product
    return [c(1), c(2), c(3), c(4), x(c(2), c(2)), c(5), c(6), d(3), c(7),
            c(8), x(c(4), c(2)), x(x(c(2), c(2)), c(2)), d(4), dicyclic_table(2),
            c(9), x(c(3), c(3)), c(10), d(5), c(11),
            c(12), x(c(2), c(6)), d(6), alternating_four_table(), dicyclic_table(3)]


def brute_force_closed_sets(s):
    """Every color subset meeting the three closure axioms, read from the
    intersection tensor by testing all 2^r subsets."""
    r = s.r
    subsets = ((np.arange(2 ** r)[:, None] >> np.arange(r)) & 1).astype(bool)
    positive = (s.tensor() > 0).astype(np.int64)
    member = subsets.astype(np.int64)
    # reach[s, c]: some a, b in subset s have p^c_ab > 0
    reach = np.einsum("sa,cab,sb->sc", member, positive, member, optimize=True) > 0
    ok = (subsets[:, list(s.diagonal_colors)].all(axis=1)
          & (~subsets | subsets[:, s.transpose_map]).all(axis=1)
          & (~reach | subsets).all(axis=1))
    return [frozenset(np.nonzero(row)[0].tolist()) for row in subsets[ok]]


def assert_matches_oracle(s):
    closed_sets = brute_force_closed_sets(s)
    expected = sorted(closed_sets, key=lambda cs: (len(cs), sorted(cs)))
    eqs = all_equivalences(s)
    assert [e.colors for e in eqs] == expected
    for e in eqs:
        check_closed_set(ClosedSet(e.scheme, e.colors))
    for c in range(s.r):
        smallest = frozenset.intersection(*(cs for cs in closed_sets if c in cs))
        assert generated_closed_set(s, {c}).colors == smallest


class TestIsRegular:
    """is_regular reads the degrees; the thin radical is the oracle."""

    def assert_matches_radical(self, s):
        assert is_regular(s) == (len(thin_radical(s).elements) == s.r)

    def test_homogeneous_corpus_members(self, corpus):
        for member in corpus:
            if member.scheme.is_homogeneous:
                self.assert_matches_radical(member.scheme)

    @pytest.mark.parametrize("table", groups_up_to_twelve(), ids=lambda t: f"order{t.m}")
    def test_thin_groups(self, table):
        s = thin_scheme(table)
        assert is_regular(s)
        self.assert_matches_radical(s)

    @pytest.mark.parametrize("inner,outer", [(2, 2), (2, 3), (3, 2), (4, 2), (2, 4)])
    def test_small_wreaths(self, inner, outer):
        self.assert_matches_radical(
            wreath(thin_scheme(cyclic_table(inner)), thin_scheme(cyclic_table(outer))))
        self.assert_matches_radical(
            wreath(rank_two_scheme(inner + 1), thin_scheme(cyclic_table(outer))))


class TestBruteForceOracle:
    @pytest.mark.parametrize("table", groups_up_to_twelve(), ids=lambda t: f"order{t.m}")
    def test_thin_groups(self, table):
        assert_matches_oracle(thin_scheme(table))

    def test_group_list_is_complete_up_to_isomorphism(self):
        tables = groups_up_to_twelve()
        orders = [t.m for t in tables]
        assert orders == sorted(orders)
        assert [orders.count(m) for m in range(1, 13)] == [1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5]
        spectra = set()
        for t in tables:
            radical = thin_radical(thin_scheme(t))
            spectra.add((t.m, tuple(sorted(
                element_order(radical, c) for c in radical.elements))))
        # distinct element-order spectra: no two tables are isomorphic
        assert len(spectra) == len(tables)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_rank_two(self, n):
        assert_matches_oracle(rank_two_scheme(n))

    @pytest.mark.parametrize("inner,outer", [(2, 2), (2, 3), (3, 2), (4, 2), (2, 4)])
    def test_small_wreaths(self, inner, outer):
        w = wreath(thin_scheme(cyclic_table(inner)), thin_scheme(cyclic_table(outer)))
        assert w.r <= 12
        assert_matches_oracle(w)

    def test_wreath_with_rank_two(self):
        assert_matches_oracle(wreath(rank_two_scheme(3), thin_scheme(dihedral_table(3))))

    @given(st.integers(min_value=2, max_value=12), st.data())
    def test_circulant_closures(self, n, data):
        jumps = data.draw(st.sets(st.integers(min_value=1, max_value=n - 1)))
        g = Digraph.from_arcs(n, [(u, (u + j) % n) for u in range(n) for j in jumps])
        s = wl_closure(digraph_color_matrix(g))
        assert s.is_homogeneous and s.r <= 12
        assert_matches_oracle(s)


class TestLatticeSizes:
    """Closed-set counts of non-cyclic groups: the subgroup counts."""

    @pytest.mark.parametrize("table,count", [
        (direct_product(direct_product(cyclic_table(2), cyclic_table(2)),
                        direct_product(cyclic_table(2), cyclic_table(2))), 67),
        (dihedral_table(12), 34),
        (direct_product(direct_product(cyclic_table(2), cyclic_table(2)),
                        cyclic_table(6)), 32),
    ], ids=["Z2^4", "D12", "Z2xZ2xZ6"])
    def test_subgroup_counts(self, table, count):
        eqs = all_equivalences(thin_scheme(table))
        assert len(eqs) == count
        assert eqs[0].is_discrete and eqs[-1].is_full

    def test_generated_closed_set_above_rank_cap(self):
        s = thin_scheme(cyclic_table(29))
        assert s.r > RANK_CAP
        assert generated_closed_set(s, {1}).colors == frozenset(range(29))
        assert generated_closed_set(s, {0}).colors == {0}


def groups_thirteen_to_twenty_four():
    """Thin-scheme groups of order 13..24: every cyclic and dihedral one,
    and a spread of abelian, dicyclic and product groups."""
    c, d, x = cyclic_table, dihedral_table, direct_product
    return ([c(m) for m in range(13, 25)] + [d(k) for k in range(7, 13)] + [
        x(c(2), c(8)), x(c(4), c(4)), x(x(c(2), c(2)), c(4)),
        x(x(c(2), c(2)), x(c(2), c(2))), x(d(4), c(2)), x(dicyclic_table(2), c(2)),
        dicyclic_table(4), x(c(3), c(6)), x(d(3), c(3)), x(c(2), c(10)),
        dicyclic_table(5), x(c(2), c(12)), x(x(c(2), c(2)), c(6)), x(d(3), c(4)),
        x(alternating_four_table(), c(2)), dicyclic_table(6)])


def lattice_listing(eqs):
    return [(sorted(e.colors), e.classes) for e in eqs]


class TestPreviousEngineOracle:
    """The closure rows, Close-by-One and the lookup-table equivalences
    reproduce the engine they replaced: same sets, classes and order."""

    def test_homogeneous_corpus_members(self, corpus):
        checked = 0
        for member in corpus:
            s = member.scheme
            if s.is_homogeneous and s.r <= RANK_CAP:
                assert lattice_listing(all_equivalences(s)) == lattice_listing(
                    old_all_equivalences(s)), member.name
                checked += 1
        assert checked > 200

    @pytest.mark.parametrize("table", groups_up_to_twelve() + groups_thirteen_to_twenty_four(),
                             ids=lambda t: f"order{t.m}")
    def test_thin_groups(self, table):
        s = validate(thin_scheme(table).matrix)
        assert lattice_listing(all_equivalences(s)) == lattice_listing(
            old_all_equivalences(s))

    def test_equivalence_from_colors_on_random_unions(self, corpus):
        rng = np.random.default_rng(11)
        outcomes = set()
        for member in corpus[::2]:
            s = member.scheme
            for _ in range(6):
                colors = set(np.flatnonzero(rng.random(s.r) < 0.4).tolist())
                closed = colors | set(s.diagonal_colors)
                for union in (colors, closed | {s.transpose(c) for c in closed}):
                    want = old_outcome(old_equivalence_from_colors, s, union)
                    assert old_outcome(equivalence_from_colors, s, union) == want
                    outcomes.add(want[1] if isinstance(want[0], type) else "classes")
        assert outcomes == {"classes", "union of relations is not reflexive",
                            "union of relations is not symmetric",
                            "union of relations is not transitive"}


class TestCloseByOne:
    """The enumeration's own invariants, and its exact count of closures
    and of the colors they take from the worklist: a loop that also tried
    the larger color of each transpose pair would find the same sets with
    more closures, and closures that never stopped early would take more
    colors."""

    @pytest.mark.parametrize("table,sets,closures,taken", [
        (direct_product(direct_product(cyclic_table(2), cyclic_table(2)),
                        direct_product(cyclic_table(2), cyclic_table(2))), 67, 352, 439),
        (direct_product(direct_product(cyclic_table(2), cyclic_table(2)),
                        cyclic_table(6)), 32, 184, 257),
    ], ids=["Z2^4", "Z2xZ2xZ6"])
    def test_each_set_and_color_closed_once(self, table, sets, closures, taken, monkeypatch):
        s = validate(thin_scheme(table).matrix)
        real = lattice._close
        calls, worklist = [], []

        class Rows(list):
            """Closure rows that log each color whose row is read, one
            read per color taken from the worklist."""

            def __getitem__(self, c):
                worklist.append(c)
                return super().__getitem__(c)

        def close(rows, closed, members, extra, stop):
            join = real(Rows(rows), closed, members, extra, stop)
            calls.append((closed, extra, stop, join and join[0]))
            return join

        monkeypatch.setattr(lattice, "_close", close)
        assert len(all_equivalences(s)) == sets
        pairs = [(closed, extra) for closed, extra, _, _ in calls]
        assert len(set(pairs)) == len(pairs)
        # one color at a time, only a color the set lacks, and the join
        # stops at any color below it
        assert all(extra & (extra - 1) == 0 and not closed & extra and stop == extra - 1
                   for closed, extra, stop, _ in calls)
        # each kept join is new, and every set but the diagonal is one
        kept = [join for _, _, _, join in calls if join is not None]
        assert len(set(kept)) == len(kept) == sets - 1
        assert 1 << s.diagonal_colors[0] not in kept
        assert len(calls) == closures
        assert len(worklist) == taken


class TestStoppedClosure:
    """``_close`` stops a join at the first stop color in its worklist;
    the same call with an empty stop mask, which runs to the end, is the
    oracle."""

    def test_matches_full_closures(self, corpus, monkeypatch):
        real = lattice._close
        outcomes = {"stopped": 0, "kept": 0}

        def close(rows, closed, members, extra, stop):
            join = real(rows, closed, members, extra, stop)
            full = real(rows, closed, members, extra, 0)
            assert full is not None
            if join is None:
                assert full[0] & ~closed & stop
                outcomes["stopped"] += 1
            else:
                assert join == full
                outcomes["kept"] += 1
            return join

        monkeypatch.setattr(lattice, "_close", close)
        brute = 0
        for s in lattice_schemes(corpus):
            eqs = all_equivalences(s)
            assert lattice_listing(eqs) == lattice_listing(old_all_equivalences(s))
            if s.r <= 12:
                expected = sorted(brute_force_closed_sets(s), key=lambda cs: (len(cs), sorted(cs)))
                assert [e.colors for e in eqs] == expected
                brute += 1
        assert outcomes["stopped"] > outcomes["kept"] > 0
        assert brute > 0


def lattice_schemes(corpus):
    """Fresh copies (empty memos) of the corpus lattices, then of the
    thin groups of order 8..24."""
    groups = [t for t in groups_up_to_twelve() if t.m >= 8] + groups_thirteen_to_twenty_four()
    return ([validate(m.scheme.matrix) for m in corpus
             if m.scheme.is_homogeneous and m.scheme.r <= RANK_CAP]
            + [validate(thin_scheme(t).matrix) for t in groups])


class TestUncheckedClassBuild:
    """The enumeration builds each closed set's classes with no axiom
    check; the checked build of the same colors is the oracle."""

    def assert_matches_checked(self, s):
        eqs = all_equivalences(s)
        for e in eqs:
            assert e.classes == equivalence_from_colors(s, e.colors).classes
            assert closed_set_equivalence(s, e.colors) is e
        return len(eqs)

    def test_corpus_lattices(self, corpus):
        counts = [self.assert_matches_checked(s) for s in lattice_schemes(corpus)]
        assert len(counts) == 280 + 49

    @pytest.mark.parametrize("table", [t for t in groups_up_to_twelve() if t.m < 8],
                             ids=lambda t: f"order{t.m}")
    def test_small_thin_groups(self, table):
        self.assert_matches_checked(validate(thin_scheme(table).matrix))


class TestRelabeling:
    """Least-point labels do not lean on the point numbering: relabeling
    the points by a seeded permutation P keeps the color sets and their
    order and maps each class to its P-image."""

    def test_lattices_commute_with_relabeling(self, corpus):
        rng = np.random.default_rng(18)
        for s in lattice_schemes(corpus):
            perm = rng.permutation(s.n)
            moved = np.empty_like(s.matrix)
            moved[np.ix_(perm, perm)] = s.matrix
            eqs, relabeled = all_equivalences(s), all_equivalences(validate(moved))
            assert [e.colors for e in relabeled] == [e.colors for e in eqs]
            for e, f in zip(eqs, relabeled):
                assert ({frozenset(perm[list(cls)].tolist()) for cls in e.classes}
                        == {frozenset(cls) for cls in f.classes})


class TestLayering:
    def test_lattice_imports_only_core_and_errors(self):
        """Read from the source text, so nothing is imported to check it."""
        path = Path(__file__).resolve().parents[1] / "src" / "asck" / "lattice.py"
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                imported |= ({node.module} if node.module
                             else {alias.name for alias in node.names})
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = ([node.module] if isinstance(node, ast.ImportFrom)
                         else [alias.name for alias in node.names])
                assert not any(n.split(".")[0] == "asck" for n in names)
        assert imported == {"core", "errors"}

    def test_removed_names_not_exported(self):
        for name in ("generated_equivalence", "equivalence_from_partition",
                     "maximal_equivalences", "element_order"):
            assert name not in asck.__all__
            assert not hasattr(lattice, name)
        assert not hasattr(lattice.Equivalence, "class_of")
