import functools
import random
import tracemalloc
import warnings
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asck import (
    Digraph,
    all_equivalences,
    canonical_recolor,
    cayley_table,
    cyclic_table,
    digraph_color_matrix,
    dihedral_table,
    direct_product,
    equivalence_from_colors,
    is_block,
    minimal_equivalences,
    quotient,
    rank_two_scheme,
    restriction,
    thin_scheme,
    validate,
    verify_size_factorization,
    wl_closure,
    wreath,
)
from asck import constructions, lattice
from asck.constructions import _class_restriction, _quotient_matrix
from asck.core import Scheme, _shift_invariant, as_color_matrix
from asck.corpus import (
    CorpusMember,
    CorpusSpec,
    _random_digraph,
    generate_corpus,
    member_reports,
    random_circulant_digraph,
)
from asck.errors import (
    InconsistentIntersectionNumbers,
    InvalidGroupTable,
    NotABlock,
    NotASchemeEquivalence,
    NotHomogeneous,
    SchemeError,
)
from asck.lattice import RANK_CAP, Equivalence
from oracles import (
    cayley_inverse,
    chords_shape,
    circulant_shape,
    ladder_matrix,
    old_cayley_table,
    old_dihedral_table,
    old_full_rows_fixpoint,
    old_hashed_fixpoint,
    old_is_block,
    old_quotient_matrix,
    old_wreath_matrix,
    same_matrix,
    two_fiber_scheme,
)

# smallest loop that is a non-group: latin, has identity, not associative
NON_ASSOCIATIVE_LOOP = [
    (0, 1, 2, 3, 4),
    (1, 0, 3, 4, 2),
    (2, 3, 4, 0, 1),
    (3, 4, 1, 2, 0),
    (4, 2, 0, 1, 3),
]


def loop_product(k):
    """NON_ASSOCIATIVE_LOOP x Z_k, built by hand: a 5k-element loop that
    is not a group, since ``direct_product`` would reject its factor."""
    loop = np.array(NON_ASSOCIATIVE_LOOP)
    g = np.arange(k)
    zk = (g[:, None] + g[None, :]) % k
    ga, ha = np.divmod(np.arange(5 * k), k)
    return loop[np.ix_(ga, ga)] * k + zk[np.ix_(ha, ha)]


def table_outcome(verify, table):
    """The verified table, dtype and identity, or the error's type and message."""
    try:
        t = verify(table)
    except InvalidGroupTable as exc:
        return type(exc), str(exc)
    return t.m, t.table.dtype, t.table.flags.writeable, t.table.tolist(), t.identity


@st.composite
def perturbed_group_tables(draw):
    """A group of order <= 24 (cyclic, a product of two cyclic groups or
    dihedral) or NON_ASSOCIATIVE_LOOP x Z_k, then one perturbation:
    none, an isotope (random, or the principal loop isotope), a
    single-entry edit or a dropped identity; and an optional relabeling
    of the elements before it."""
    base = draw(st.sampled_from(["cyclic", "product", "dihedral", "loop"]))
    if base == "cyclic":
        table = cyclic_table(draw(st.integers(1, 24))).table
    elif base == "product":
        a, b = draw(st.integers(1, 6)), draw(st.integers(1, 4))
        table = direct_product(cyclic_table(a), cyclic_table(b)).table
    elif base == "dihedral":
        table = dihedral_table(draw(st.integers(1, 12))).table
    else:
        table = loop_product(draw(st.integers(1, 4)))
    table = np.array(table)
    m = len(table)
    perm = st.permutations(range(m)).map(np.array)
    if draw(st.booleans()):
        relabel = draw(perm)
        inverse = np.argsort(relabel)
        table = relabel[table[np.ix_(inverse, inverse)]]
    kind = draw(st.sampled_from(["none", "isotope", "principal", "edit", "no-identity"]))
    if kind == "isotope":
        rows, cols, values = draw(perm), draw(perm), draw(perm)
        table = values[table[np.ix_(rows, cols)]]
    elif kind == "principal":
        # x o y = (x / b)(a \ y), a loop with identity ab: a group for a
        # group table, often another non-associative loop for a loop
        a, b = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        table = table[np.ix_(np.argsort(table[:, b]), np.argsort(table[a]))]
    elif kind == "edit":
        x, y = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        table[x, y] = draw(st.integers(-1, m))
    elif kind == "no-identity" and m > 1:
        e = int(np.argmax((table == np.arange(m)).all(axis=1)))
        g = draw(st.integers(0, m - 1).filter(lambda g: g != e))
        table[[e, g]] = table[[g, e]]
    return table


class TestCayleyTables:
    def test_cyclic(self):
        t = cyclic_table(6)
        assert t.m == 6 and t.identity == 0
        for g in range(6):
            assert t.table[g, cayley_inverse(t, g)] == 0

    def test_identity_need_not_be_zero(self):
        t = cayley_table([[1, 0], [0, 1]])
        assert t.identity == 1

    def test_rejects_non_latin(self):
        with pytest.raises(InvalidGroupTable):
            cayley_table([[0, 1], [1, 1]])

    def test_rejects_non_square_array(self):
        with pytest.raises(InvalidGroupTable) as info:
            cayley_table(np.zeros((2, 3), dtype=np.int64))
        assert type(info.value) is InvalidGroupTable
        assert str(info.value) == "expected a nonempty square table, got (2, 3)"

    @pytest.mark.parametrize("table", [
        pytest.param([[0.7, 1.2], [1.2, 0.7]], id="fractions"),
        *[pytest.param(np.array([[0, 1], [1, bad]]), id=str(bad))
          for bad in (1.5, np.inf, -np.inf, np.nan, 1e19)],
    ])
    def test_rejects_non_integer_entries(self, table):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidGroupTable, match="element ids"):
                cayley_table(table)

    def test_integral_floats_match_integers(self):
        ints = cyclic_table(5).table
        floats = cayley_table(ints.astype(np.float64))
        assert floats.table.dtype == np.int64
        assert np.array_equal(floats.table, ints) and floats.identity == 0

    def test_rejects_missing_identity(self):
        with pytest.raises(InvalidGroupTable):
            cayley_table([[(i - j) % 3 for j in range(3)] for i in range(3)])

    def test_rejects_non_associative(self):
        with pytest.raises(InvalidGroupTable, match="not associative"):
            cayley_table(NON_ASSOCIATIVE_LOOP)

    def test_rejects_non_associative_loop_whose_identity_is_not_zero(self):
        """Generation starts from the identity, 1 here: started from 0,
        the products of 0 with the tested elements reach every element
        while 0 itself, which fails Light's test, is never tested."""
        loop = [[3, 0, 4, 2, 5, 1], [0, 1, 2, 3, 4, 5], [4, 2, 5, 1, 3, 0],
                [5, 3, 1, 0, 2, 4], [1, 4, 3, 5, 0, 2], [2, 5, 0, 4, 1, 3]]
        with pytest.raises(InvalidGroupTable, match="not associative"):
            cayley_table(loop)

    def test_associativity_check_peak_memory(self):
        """Two m^3 int64 arrays would be 32 MiB at m = 128."""
        g = np.arange(128)
        table = (g[:, None] + g[None, :]) % 128
        tracemalloc.start()
        try:
            t = cayley_table(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t.identity == 0
        assert peak < 2 ** 20

    def test_rejects_ragged_rows(self):
        with pytest.raises(InvalidGroupTable, match="expected a nonempty square table"):
            cayley_table([[0, 1], [1]])

    @pytest.mark.parametrize("order", [2.5, 3.0, "3", None])
    @pytest.mark.parametrize("build,what", [(cyclic_table, "order"),
                                            (dihedral_table, "rotation order")])
    def test_rejects_non_integer_orders(self, build, what, order):
        with pytest.raises(InvalidGroupTable, match=f"^{what} must be an integer, got "):
            build(order)

    @pytest.mark.parametrize("build,message", [
        (cyclic_table, "order must be positive, got 0"),
        (dihedral_table, "rotation order must be positive, got 0"),
    ])
    def test_orders_below_one_keep_their_message(self, build, message):
        for order in (0, np.int64(0)):
            with pytest.raises(InvalidGroupTable, match=f"^{message}$"):
                build(order)

    def test_numpy_integer_orders(self):
        assert cyclic_table(np.int64(3)).table.tolist() == cyclic_table(3).table.tolist()
        assert dihedral_table(np.int32(3)).m == 6

    @settings(max_examples=300)
    @given(perturbed_group_tables())
    def test_matches_row_by_row_oracle(self, table):
        assert table_outcome(cayley_table, table) == table_outcome(old_cayley_table, table)

    @pytest.mark.parametrize("table,generators", [
        *[pytest.param(cyclic_table(m).table, [1] if m > 1 else [], id=f"z{m}")
          for m in (1, 2, 7, 24, 1000)],
        pytest.param(functools.reduce(direct_product, [cyclic_table(2)] * 4).table,
                     [1, 2, 4, 8], id="z2^4"),
        pytest.param(dihedral_table(12).table, [1, 12], id="d24"),
    ])
    def test_light_tests_one_greedy_generating_set(self, monkeypatch, table, generators):
        """Each tested element at least doubles the subgroup generated so
        far, so a group of order m tests at most log2(m) elements."""
        tested = []
        light_holds = constructions._light_holds

        def counted(arr, g):
            tested.append(g)
            return light_holds(arr, g)

        monkeypatch.setattr(constructions, "_light_holds", counted)
        t = cayley_table(table)
        assert tested == generators
        assert len(tested) <= t.m.bit_length() - 1

    def test_order_1000_peak_memory(self):
        """A few m^2 arrays: the input copy and Light's two gathers."""
        g = np.arange(1000)
        table = (g[:, None] + g[None, :]) % 1000
        tracemalloc.start()
        try:
            t = cayley_table(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t.identity == 0
        assert peak < 4 * table.nbytes

    def test_rejects_non_associative_loop_of_order_1000(self):
        with pytest.raises(InvalidGroupTable, match="multiplication is not associative"):
            cayley_table(loop_product(200))

    def test_direct_product(self):
        klein = direct_product(cyclic_table(2), cyclic_table(2))
        assert klein.m == 4
        assert all(klein.table[g, g] == klein.identity for g in range(4))

    def test_dihedral_non_abelian(self):
        t = dihedral_table(3).table
        assert any(t[a, b] != t[b, a] for a in range(6) for b in range(6))
        assert dihedral_table(4).m == 8

    @pytest.mark.parametrize("k", range(1, 13))
    def test_dihedral_matches_loop_oracle(self, k):
        assert table_outcome(dihedral_table, k) == table_outcome(old_dihedral_table, k)


class TestThinScheme:
    def test_every_color_degree_one(self):
        for table in (cyclic_table(5), dihedral_table(4),
                      direct_product(cyclic_table(2), cyclic_table(3))):
            s = thin_scheme(table)
            assert s.n == s.r == table.m
            assert all(s.degree(c) == 1 for c in range(s.r))

    def test_first_row_orders_colors(self):
        s = thin_scheme(cyclic_table(7))
        assert list(s.matrix[0]) == list(range(7))


class TestRankTwo:
    def test_shape(self):
        s = rank_two_scheme(4)
        assert s.r == 2 and s.sizes[1] == 12

    def test_too_small(self):
        with pytest.raises(SchemeError):
            rank_two_scheme(1)


class TestQuotient:
    def test_cyclic_four_by_subgroup(self):
        s = thin_scheme(cyclic_table(4))
        e = next(e for e in all_equivalences(s) if len(e.classes) == 2)
        assert same_matrix(quotient(s, e), thin_scheme(cyclic_table(2)))

    def test_discrete_is_identity(self):
        s = thin_scheme(cyclic_table(4))
        e = next(e for e in all_equivalences(s) if e.is_discrete)
        assert same_matrix(quotient(s, e), s)

    def test_full_is_one_point(self):
        s = thin_scheme(cyclic_table(4))
        e = next(e for e in all_equivalences(s) if e.is_full)
        assert quotient(s, e).n == 1

    def test_dihedral_by_reflection_subgroup(self):
        s = thin_scheme(dihedral_table(3))
        by_classes = {len(e.classes): e for e in all_equivalences(s)}
        assert same_matrix(quotient(s, by_classes[2]), thin_scheme(cyclic_table(2)))
        three = next(e for e in minimal_equivalences(s) if len(e.classes) == 3)
        assert same_matrix(quotient(s, three), rank_two_scheme(3))

    def test_rejects_foreign_equivalence(self):
        z6 = thin_scheme(cyclic_table(6))
        z4 = thin_scheme(cyclic_table(4))
        three_classes = next(e for e in all_equivalences(z6) if len(e.classes) == 3)
        with pytest.raises(NotASchemeEquivalence):
            quotient(z4, three_classes)
        two_classes = next(e for e in all_equivalences(z6) if len(e.classes) == 2)
        with pytest.raises(SchemeError):
            quotient(z4, two_classes)

    def test_memoized_per_equivalence(self):
        s = thin_scheme(cyclic_table(6))
        e = next(e for e in all_equivalences(s) if len(e.classes) == 2)
        assert quotient(s, e) is quotient(s, e)

    def test_size_factorization(self):
        for s in (thin_scheme(cyclic_table(12)), thin_scheme(dihedral_table(4)),
                  wreath(thin_scheme(cyclic_table(2)), thin_scheme(cyclic_table(3)))):
            for e in all_equivalences(s):
                verify_size_factorization(s, e)


def labeled_quotient_matrix(scheme, e):
    """The labeling ``_quotient_matrix`` ran inline before
    ``_class_pair_runs``: one ``np.unique`` of the labeled cells."""
    base = lattice.closed_set_equivalence(scheme, frozenset(e.colors))
    if base.classes != e.classes:
        raise NotASchemeEquivalence(
            "classes are not the classes of the color union")
    k, r = len(e.classes), scheme.r
    class_of = np.empty(scheme.n, dtype=np.int64)
    for x, cls in enumerate(e.classes):
        class_of[list(cls)] = x
    labels = np.unique((class_of[:, None] * k + class_of[None, :]) * r + scheme.matrix)
    pairs, colors = np.divmod(labels, r)
    bounds = np.searchsorted(pairs, np.arange(k * k + 1)).tolist()
    colors = colors.tolist()
    ids, seen_in, raw = {}, {}, []
    for lo, hi in zip(bounds, bounds[1:]):
        block = frozenset(colors[lo:hi])
        raw.append(ids.setdefault(block, len(ids)))
        for c in block:
            prev = seen_in.setdefault(c, block)
            if prev != block:
                raise SchemeError(
                    f"color {c} occurs in distinct class-pair color sets "
                    f"{sorted(prev)} and {sorted(block)}")
    return np.array(raw, dtype=np.int64).reshape(k, k)


def quotient_matrix_outcome(build, scheme, e):
    """The raw quotient matrix up to its color ids, which
    ``canonical_scheme`` renames, or the exception it raised."""
    try:
        raw = build(scheme, e)
    except SchemeError as exc:
        return type(exc), str(exc)
    return raw.dtype.str, raw.shape, canonical_recolor(raw).tobytes()


def uncertified(matrix):
    """A Scheme over a color matrix that skips certification; only the
    matrix, n and r are filled in, which is all a quotient matrix reads
    (``circulant`` is a required field, so it is given as False)."""
    m = np.asarray(matrix, dtype=np.int64)
    m.flags.writeable = False
    n = m.shape[0]
    return Scheme(matrix=m, n=n, r=int(m.max()) + 1, transpose_map=None,
                  diagonal_colors=(0,), fibers=(tuple(range(n)),), degrees=None,
                  sizes=None, first_cells=None, circulant=False)


class TestQuotientMatrixOracle:
    """One np.unique over labeled cells gives the class-pair loop's raw
    matrix, up to color ids, and its exceptions, as did the labeling it
    ran inline before ``_class_pair_runs``."""

    def test_every_corpus_equivalence(self, corpus):
        rng = random.Random(3)
        kinds = set()
        for member in corpus:
            s = member.scheme
            if not (s.is_homogeneous and s.r <= RANK_CAP):
                continue
            eqs = all_equivalences(s)
            cases = [(s, e) for e in eqs]
            # equal equivalences on new objects, outside the memo
            cases += [(s, equivalence_from_colors(s, e.colors)) for e in eqs]
            # classes of one equivalence, colors of another or a random union
            for e in rng.sample(eqs, min(3, len(eqs))):
                f = rng.choice(eqs)
                colors = frozenset(c for c in range(s.r) if rng.random() < 0.5)
                cases += [(s, Equivalence(s, e.classes, f.colors)),
                          (s, Equivalence(s, e.classes, colors))]
            for scheme, e in cases:
                want = quotient_matrix_outcome(old_quotient_matrix, scheme, e)
                assert quotient_matrix_outcome(_quotient_matrix, scheme, e) == want
                assert quotient_matrix_outcome(labeled_quotient_matrix, scheme, e) == want
                kinds.add(want[1] if isinstance(want[0], type) else "raw")
        assert kinds == {"raw", "classes are not the classes of the color union",
                         "union of relations is not reflexive",
                         "union of relations is not symmetric",
                         "union of relations is not transitive"}

    def test_partitions_of_quotients(self):
        for s in (thin_scheme(cyclic_table(12)), thin_scheme(dihedral_table(6)),
                  wreath(thin_scheme(cyclic_table(2)), rank_two_scheme(3)),
                  wreath(wreath(thin_scheme(cyclic_table(2)), thin_scheme(cyclic_table(2))),
                         thin_scheme(cyclic_table(3)))):
            eqs = all_equivalences(s)
            for fine in eqs:
                q = quotient(s, fine)
                for coarse in eqs:
                    if coarse.colors >= fine.colors:
                        e = induced_on_quotient(q, fine, coarse)
                        want = quotient_matrix_outcome(old_quotient_matrix, q, e)
                        assert quotient_matrix_outcome(_quotient_matrix, q, e) == want
                        assert quotient_matrix_outcome(labeled_quotient_matrix, q, e) == want

    def test_colors_out_of_canonical_order(self):
        """In a scheme whose colors are not in canonical order, the least
        colors of the class pairs do not ascend in row-major order; the
        raw matrix still recolors to the class-pair loop's, and the
        quotient is that of the scheme in canonical colors."""
        rng = np.random.default_rng(12)
        for base in (thin_scheme(cyclic_table(12)), thin_scheme(dihedral_table(6)),
                     wreath(thin_scheme(cyclic_table(2)), rank_two_scheme(3))):
            perm = rng.permutation(base.r)
            s = validate(perm[base.matrix])
            for e in all_equivalences(s):
                want = quotient_matrix_outcome(old_quotient_matrix, s, e)
                assert quotient_matrix_outcome(_quotient_matrix, s, e) == want
                colors = {b for b in range(base.r) if perm[b] in e.colors}
                assert same_matrix(
                    quotient(s, e), quotient(base, equivalence_from_colors(base, colors)))

    def test_color_in_two_class_pair_sets(self):
        """On a matrix that is no scheme, a color can lie in two distinct
        class-pair color sets, which the old loops reported.  Labeled by
        least color, the two pairs merge, and the certificate of the
        quotient rejects it."""
        # classes {0,1}, {2,3}, {4,5}; color 2 meets 3 in X x Y and 4 in X x Z
        cross = {(0, 1): [[2, 3], [3, 2]], (0, 2): [[2, 4], [4, 2]], (1, 2): [[5, 5], [5, 5]]}
        m = np.zeros((6, 6), dtype=np.int64)
        for x in range(3):
            m[2 * x:2 * x + 2, 2 * x:2 * x + 2] = [[0, 1], [1, 0]]
            for y in range(x + 1, 3):
                block = np.array(cross[x, y])
                m[2 * x:2 * x + 2, 2 * y:2 * y + 2] = block
                m[2 * y:2 * y + 2, 2 * x:2 * x + 2] = block.T
        s = uncertified(m)
        e = Equivalence(s, ((0, 1), (2, 3), (4, 5)), frozenset({0, 1}))
        want = (SchemeError,
                "color 2 occurs in distinct class-pair color sets [2, 3] and [2, 4]")
        assert quotient_matrix_outcome(old_quotient_matrix, s, e) == want
        assert quotient_matrix_outcome(labeled_quotient_matrix, s, e) == want
        with pytest.raises(InconsistentIntersectionNumbers,
                           match=r"^color 1: cells \(0, 1\) and \(1, 0\) see 1 vs 0 "):
            quotient(s, e)

    def test_class_pair_color_sets_are_double_cosets(self, corpus):
        """The argument of ``_quotient_matrix``: on every equivalence of
        every corpus lattice, two class-pair color sets are equal or
        disjoint, so each set is named by its least color."""
        lattices = 0
        for member in corpus:
            s = member.scheme
            if not (s.is_homogeneous and s.r <= RANK_CAP):
                continue
            lattices += 1
            for e in all_equivalences(s):
                k = len(e.classes)
                class_of = np.empty(s.n, dtype=np.int64)
                for x, cls in enumerate(e.classes):
                    class_of[list(cls)] = x
                pair = class_of[:, None] * k + class_of[None, :]
                sets = {}
                for p, c in set(zip(pair.ravel().tolist(), s.matrix.ravel().tolist())):
                    sets.setdefault(p, set()).add(c)
                assert len(sets) == k * k
                distinct = {frozenset(colors) for colors in sets.values()}
                assert sum(map(len, distinct)) == s.r, member.name
        assert lattices == 280


def induced_on_quotient(qF, F, E):
    """E on the points of qF, which are F's class indices, built from
    the colors of qF inside E's classes."""
    index = {p: x for x, cls in enumerate(F.classes) for p in cls}
    classes = [sorted({index[p] for p in cls}) for cls in E.classes]
    colors = {int(c) for cls in classes for c in np.unique(qF.matrix[np.ix_(cls, cls)])}
    e = equivalence_from_colors(qF, colors)
    assert sorted(e.classes) == sorted(map(tuple, classes))
    return e


def isomorphic(a, b) -> bool:
    if a.n != b.n:
        return False
    target = canonical_recolor(b.matrix)
    for sigma in permutations(range(a.n)):
        perm = np.array(sigma)
        if np.array_equal(canonical_recolor(a.matrix[perm][:, perm]), target):
            return True
    return False


class TestQuotientOfQuotient:
    """Collapsing by a coarse equivalence directly, or in two stages via a
    finer one, gives the same scheme up to isomorphism."""

    @pytest.mark.parametrize("scheme,fine,coarse", [
        (thin_scheme(cyclic_table(8)), 4, 2),
        (thin_scheme(cyclic_table(12)), 6, 3),
        (wreath(wreath(thin_scheme(cyclic_table(2)), thin_scheme(cyclic_table(2))),
                thin_scheme(cyclic_table(2))), 4, 2),
    ])
    def test_two_stage_collapse(self, scheme, fine, coarse):
        eqs = all_equivalences(scheme)
        F = next(e for e in eqs if len(e.classes) == fine)
        E = next(e for e in eqs if len(e.classes) == coarse)
        assert all(any(set(fc) <= set(ec) for ec in E.classes) for fc in F.classes)
        direct = quotient(scheme, E)
        qF = quotient(scheme, F)
        double = quotient(qF, induced_on_quotient(qF, F, E))
        assert isomorphic(double, direct)


class TestBlocksAndRestriction:
    def test_row_count_matches_generated_equivalence(self, corpus):
        """``is_block`` agrees with the closure-and-equivalence oracle on
        every point subset of every corpus member with n <= 8."""
        homogeneous = blocks = 0
        for member in corpus:
            if member.scheme.n > 8:
                continue
            s = validate(member.scheme.matrix)
            for mask in range(1, 1 << s.n):
                pts = [p for p in range(s.n) if mask >> p & 1]
                want = old_is_block(s, pts)
                assert is_block(s, pts) == want, (member.name, pts)
                homogeneous += s.is_homogeneous
                blocks += want
        assert homogeneous == 13484 and 0 < blocks < homogeneous

    def test_whole_set_and_singletons(self):
        s = thin_scheme(cyclic_table(4))
        assert is_block(s, range(4))
        assert is_block(s, [2])
        assert restriction(s, [2]).n == 1

    def test_subgroup_class_is_block(self):
        s = thin_scheme(cyclic_table(4))
        assert is_block(s, [0, 2])
        assert same_matrix(restriction(s, [0, 2]), thin_scheme(cyclic_table(2)))

    def test_memoized_per_point_set(self):
        s = thin_scheme(cyclic_table(4))
        assert restriction(s, [0, 2]) is restriction(s, (2, 0, 2))

    def test_blocks_read_the_lattice_equivalences(self, monkeypatch):
        s = thin_scheme(dihedral_table(4))
        eqs = all_equivalences(s)
        real = lattice.equivalence_from_colors
        calls = []
        assert not hasattr(constructions, "equivalence_from_colors")
        monkeypatch.setattr(lattice, "equivalence_from_colors",
                            lambda *args: calls.append(args) or real(*args))
        assert all(is_block(s, cls) for e in eqs for cls in e.classes)
        assert all(quotient(s, e).n == len(e.classes) for e in eqs)
        assert calls == []

    def test_non_block_rejected(self):
        """A non-block is rejected before and after a lattice class's
        restriction fills the shared memo."""
        s = validate(thin_scheme(cyclic_table(4)).matrix)
        assert not is_block(s, [0, 1])
        with pytest.raises(NotABlock):
            restriction(s, [0, 1])
        for cls in ((0, 2), (1, 3)):
            assert _class_restriction(s, cls) is restriction(s, cls)
        with pytest.raises(NotABlock):
            restriction(s, [0, 1])

    @pytest.mark.parametrize("points,message", [
        ([], "empty point set"),
        ([0, 4], "points out of range 0..3"),
        ([-1, 1], "points out of range 0..3"),
    ])
    def test_empty_and_out_of_range_points(self, points, message):
        with pytest.raises(NotABlock) as info:
            restriction(thin_scheme(cyclic_table(4)), points)
        assert type(info.value) is NotABlock and str(info.value) == message

    def test_lattice_classes_need_no_is_block(self, corpus):
        """Every class of every lattice equivalence is a block, and its
        restriction without ``is_block`` is the object ``restriction``
        returns, from the shared memo entry and from a cold scheme."""
        classes = 0
        for member in corpus:
            s = member.scheme
            if not (s.is_homogeneous and s.r <= RANK_CAP):
                continue
            fresh, cold = validate(s.matrix), validate(s.matrix)
            for e in all_equivalences(fresh):
                for cls in e.classes:
                    assert is_block(s, cls)
                    sub = _class_restriction(fresh, cls)
                    assert sub is restriction(fresh, cls) is restriction(cold, cls)
                    classes += 1
        assert classes == 7200

    def test_primitive_has_only_trivial_blocks(self):
        s = rank_two_scheme(4)
        assert not is_block(s, [0, 1])

    def test_fiber_restrictions(self):
        s = two_fiber_scheme()
        small = restriction(s, s.fibers[0])
        large = restriction(s, s.fibers[1])
        assert same_matrix(small, thin_scheme(cyclic_table(2)))
        assert same_matrix(large, thin_scheme(cyclic_table(4)))

    def test_cross_fiber_subset_rejected(self):
        s = two_fiber_scheme()
        with pytest.raises(NotABlock):
            restriction(s, [0, 2])


class TestWreath:
    def test_shape_and_sizes(self):
        w = wreath(thin_scheme(cyclic_table(3)), thin_scheme(cyclic_table(2)))
        assert (w.n, w.r) == (6, 4)
        assert sorted(int(z) for z in w.sizes) == [6, 6, 6, 18]

    def test_class_restriction_is_inner(self):
        inner = thin_scheme(cyclic_table(3))
        w = wreath(inner, thin_scheme(cyclic_table(2)))
        e = minimal_equivalences(w)[0]
        assert same_matrix(restriction(w, e.classes[0]), inner)

    def test_quotient_is_outer(self):
        outer = thin_scheme(cyclic_table(2))
        w = wreath(thin_scheme(cyclic_table(3)), outer)
        e = minimal_equivalences(w)[0]
        assert same_matrix(quotient(w, e), outer)

    def test_requires_homogeneous(self):
        with pytest.raises(NotHomogeneous):
            wreath(two_fiber_scheme(), thin_scheme(cyclic_table(2)))

    def test_matches_block_loop_on_every_corpus_pair(self, monkeypatch):
        pairs = []
        monkeypatch.setattr("asck.corpus.wreath",
                            lambda i, o: pairs.append((i, o)) or wreath(i, o))
        members = generate_corpus(CorpusSpec())
        assert len(pairs) >= sum(m.family.startswith("wreath-") for m in members) > 0
        raws = []
        finish = constructions.canonical_scheme
        monkeypatch.setattr(constructions, "canonical_scheme",
                            lambda raw: raws.append(raw) or finish(raw))
        for inner, outer in pairs:
            raws.clear()
            wreath(inner, outer)
            assert len(raws) == 1 and raws[0].dtype == np.int64
            assert np.array_equal(raws[0], old_wreath_matrix(inner, outer))

    def test_one_point_factors_are_neutral(self):
        s = thin_scheme(cyclic_table(3))
        one = validate([[0]])
        assert same_matrix(wreath(s, one), s)
        assert same_matrix(wreath(one, s), s)


class TestDigraphEncoding:
    def test_four_classes_with_loops(self):
        m = digraph_color_matrix(Digraph.from_arcs(3, [(0, 0), (0, 1)]))
        assert sorted(set(m.ravel())) == [0, 1, 2, 3]
        assert m[1, 1] == m[2, 2] != m[0, 0]
        assert m[0, 1] != m[1, 0]
        assert m[1, 0] == m[2, 0] == m[1, 2]

    def test_loopless_digraph_gets_three_classes(self):
        m = digraph_color_matrix(Digraph.from_arcs(2, [(0, 1)]))
        assert len(set(m.ravel())) == 3

    def test_rejects_empty_digraph(self):
        with pytest.raises(SchemeError) as info:
            digraph_color_matrix(Digraph(0, frozenset()))
        assert type(info.value) is SchemeError
        assert str(info.value) == "cannot encode an empty digraph"


class TestWlClosure:
    def test_four_cycle_closes_to_cyclic_thin(self):
        g = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        s = wl_closure(digraph_color_matrix(g))
        assert same_matrix(s, thin_scheme(cyclic_table(4)))

    def test_idempotent_and_valid(self):
        digraphs = [
            Digraph.from_arcs(3, [(0, 1), (1, 2)]),
            Digraph.from_arcs(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]),
            Digraph.from_arcs(6, [(u, (u + 1) % 6) for u in range(6)] + [(0, 3)]),
        ]
        for g in digraphs:
            s = wl_closure(digraph_color_matrix(g))
            validate(s.matrix)
            assert same_matrix(wl_closure(s.matrix), s)

    def test_uniform_matrix_closes_to_rank_two(self):
        s = wl_closure(np.zeros((3, 3), dtype=int))
        assert same_matrix(s, rank_two_scheme(3))

    def test_refines_arbitrary_seed_coloring(self):
        seed = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        s = wl_closure(seed)
        assert same_matrix(s, rank_two_scheme(3))

    @given(st.integers(min_value=2, max_value=7),
           st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6))))
    def test_closure_of_random_digraph_validates(self, n, raw_arcs):
        arcs = {(u, v) for u, v in raw_arcs if u < n and v < n}
        s = wl_closure(digraph_color_matrix(Digraph(n, frozenset(arcs))))
        validate(s.matrix)
        assert same_matrix(wl_closure(s.matrix), s)


# -- the hashed closure against the sort-based refinement -----------------------


def sorted_signature_closure(matrix):
    """The sort-based coherent closure, the oracle for ``wl_closure``.

    Cells are first split by (color, transposed color, on-diagonal);
    then each round recolors a cell by its old color together with the
    sorted multiset of two-step color pairs through every intermediate
    point, until a round no longer increases the color count.
    """
    arr = as_color_matrix(matrix)
    n = arr.shape[0]
    first = np.stack(
        [arr.ravel(), arr.T.ravel(), np.eye(n, dtype=np.int64).ravel()], axis=1)
    _, inverse = np.unique(first, axis=0, return_inverse=True)
    cur = inverse.reshape(n, n).astype(np.int64)
    while True:
        r = int(cur.max()) + 1
        sig = np.empty((n * n, n + 1), dtype=np.int64)
        sig[:, 0] = cur.ravel()
        for u in range(n):
            codes = np.sort(cur[u][:, None] * r + cur, axis=0)
            sig[u * n:(u + 1) * n, 1:] = codes.T
        _, inverse = np.unique(sig, axis=0, return_inverse=True)
        if int(inverse.max()) + 1 == r:
            break
        cur = inverse.reshape(n, n).astype(np.int64)
    return validate(canonical_recolor(cur))


def assert_same_closure(matrix):
    got = wl_closure(matrix)
    assert got.matrix.tobytes() == sorted_signature_closure(matrix).matrix.tobytes()


class TestClosureOracle:
    @given(st.integers(min_value=1, max_value=12),
           st.sets(st.tuples(st.integers(0, 11), st.integers(0, 11))))
    def test_hypothesis_digraphs(self, n, raw_arcs):
        arcs = {(u, v) for u, v in raw_arcs if u < n and v < n}
        assert_same_closure(digraph_color_matrix(Digraph(n, frozenset(arcs))))

    def test_seeded_random_digraphs(self):
        rng = random.Random(710046)
        for attempt in range(200):
            assert_same_closure(digraph_color_matrix(_random_digraph(rng, attempt % 4)))

    @pytest.mark.parametrize("n", [16, 24, 32, 64])
    @pytest.mark.parametrize("make", [circulant_shape, chords_shape])
    def test_ladder_shapes(self, make, n):
        assert_same_closure(ladder_matrix(make, n, seed=n))

    def test_arbitrary_seed_colorings(self):
        rng = np.random.default_rng(5)
        for n in (2, 5, 9):
            for colors in (2, 3, 6):
                assert_same_closure(canonical_recolor(rng.integers(0, colors, size=(n, n))))


def assert_fixpoints_match_oracle(matrix):
    """Every ``_hashed_fixpoint`` call of ``wl_closure(matrix)`` returns the
    oracle's partition; the weights differ, so the ids are compared after
    ``canonical_recolor``."""
    real = constructions._hashed_fixpoint
    seeds = []

    def checked(cur, seed, width):
        got = real(cur, seed, width)
        want = old_hashed_fixpoint(cur, seed, width)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert canonical_recolor(got).tobytes() == canonical_recolor(want).tobytes()
        seeds.append(seed)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constructions, "_hashed_fixpoint", checked)
        wl_closure(matrix)
    assert seeds


class TestRoundKeyOracle:
    @given(st.integers(min_value=1, max_value=12),
           st.sets(st.tuples(st.integers(0, 11), st.integers(0, 11))))
    def test_hypothesis_digraphs(self, n, raw_arcs):
        arcs = {(u, v) for u, v in raw_arcs if u < n and v < n}
        assert_fixpoints_match_oracle(digraph_color_matrix(Digraph(n, frozenset(arcs))))

    @pytest.mark.parametrize("make,n", [(make, n) for make in (chords_shape, circulant_shape)
                                        for n in (16, 24, 32, 64)]
                             + [(circulant_shape, 128), (circulant_shape, 256)])
    def test_ladder_shapes(self, make, n):
        assert_fixpoints_match_oracle(ladder_matrix(make, n, seed=n))

    def test_one_fixpoint_per_closure(self, monkeypatch):
        """The default corpus's 140 closures and the n = 64 ladder shapes
        each certify their first fixpoint: one hash per round needs no
        retry there."""
        real = constructions._hashed_fixpoint
        seeds = []
        monkeypatch.setattr(constructions, "_hashed_fixpoint",
                            lambda cur, seed, width: seeds.append(seed) or real(cur, seed, width))
        closures = []
        monkeypatch.setattr("asck.corpus.wl_closure",
                            lambda m: closures.append(len(seeds)) or wl_closure(m))
        generate_corpus(CorpusSpec())
        assert len(closures) == 140
        for make in (circulant_shape, chords_shape):
            closures.append(len(seeds))
            wl_closure(ladder_matrix(make, 64, seed=64))
        assert closures == list(range(len(closures)))
        assert seeds == [constructions._CLOSURE_SEEDS[0]] * len(closures)


def full_rows_closure(matrix):
    """``wl_closure(matrix)`` with every ``_hashed_fixpoint`` call checked
    against the all-rows rounds, ids and dtype included; the number of
    calls whose partition was shift-invariant."""
    real = constructions._hashed_fixpoint
    invariant = []

    def checked(cur, seed, width):
        got = real(cur, seed, width)
        want = old_full_rows_fixpoint(cur, seed, width)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        invariant.append(_shift_invariant(cur))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constructions, "_hashed_fixpoint", checked)
        closure = wl_closure(matrix)
    assert invariant
    return closure, sum(invariant)


class TestRowZeroRounds:
    """On a shift-invariant partition ``_hashed_fixpoint`` runs its rounds
    on row 0; the rounds over all rows, with the same weights, are the
    oracle for every array it returns."""

    @pytest.mark.parametrize("n", [16, 24, 32, 64, 128, 256])
    def test_ladder_shapes(self, n):
        for seed in (1, 2, 3, 5):
            for make in (circulant_shape, chords_shape):
                _, invariant = full_rows_closure(ladder_matrix(make, n, seed))
                assert invariant == (make is circulant_shape)

    def test_directed_circulants(self):
        """Closures of circulant digraphs with seeded jump sets; most are
        not symmetric, so rounds read with the transposed shift differ."""
        rng = random.Random(24)
        asymmetric = 0
        for n in (5, 12, 16, 30, 64, 100, 128) * 3:
            matrix = digraph_color_matrix(random_circulant_digraph(rng, n))
            closure, invariant = full_rows_closure(matrix)
            assert invariant == 1
            asymmetric += not np.array_equal(closure.matrix, closure.matrix.T)
        assert asymmetric > 10

    def test_thin_cyclic(self):
        for m in range(1, 101):
            thin = thin_scheme(cyclic_table(m))
            closure, invariant = full_rows_closure(thin.matrix)
            assert invariant == 1 and closure is thin


def discrete_stop_rounds(matrix):
    """``wl_closure(matrix)`` with every ``_hashed_fixpoint`` call checked
    against the all-rows rounds that run until one splits nothing, ids
    and dtype included.  Per call: the cells of the rows walked (n on
    row 0, n^2 over all rows), the color count r of each round started,
    the oracle's round count and whether the result is discrete there."""
    real_fixpoint, real_weights = constructions._hashed_fixpoint, constructions._hash_weights
    sink = [[]]
    calls = []

    def weights(rng, r, width):
        sink[0].append(r)
        return real_weights(rng, r, width)

    def checked(cur, seed, width):
        walked = cur.shape[0] if _shift_invariant(cur) else cur.size
        rounds = sink[0] = []
        got = real_fixpoint(cur, seed, width)
        oracle = sink[0] = []
        want = old_full_rows_fixpoint(cur, seed, width)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        discrete = np.unique(got[:1] if walked == cur.shape[0] else got).size == walked
        calls.append((walked, rounds, len(oracle), discrete))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constructions, "_hash_weights", weights)
        mp.setattr(constructions, "_hashed_fixpoint", checked)
        wl_closure(matrix)
    return calls


class TestDiscreteStop:
    """No round starts once the ids on the rows walked are discrete; the
    round that would confirm them returns the same array."""

    @pytest.mark.parametrize("n", [16, 24, 32, 64])
    def test_chords_ladder_closures(self, n):
        for seed in (n, 1, 2):
            [(walked, rounds, oracle_rounds, discrete)] = discrete_stop_rounds(
                ladder_matrix(chords_shape, n, seed))
            assert walked == n * n and discrete
            assert rounds and max(rounds) < walked
            assert oracle_rounds == len(rounds) + 1

    def test_thin_cyclic_returns_at_once(self):
        for m in (2, 3, 8, 17, 64):
            thin = thin_scheme(cyclic_table(m))
            assert discrete_stop_rounds(thin.matrix) == [(m, [], 1, True)]

    def test_one_color_short_of_discrete_still_rounds(self):
        """Jumps 1, 2, 3 on Z_5: row 0 starts with colors d, (1), (2, 3),
        (4), one short of discrete, and {2, 3} is no Schur ring class, as
        1 + 1 = 2 alone; the round splits it into the thin scheme."""
        g = Digraph.from_arcs(5, [(u, (u + j) % 5) for u in range(5) for j in (1, 2, 3)])
        [(walked, rounds, oracle_rounds, discrete)] = discrete_stop_rounds(
            digraph_color_matrix(g))
        assert walked == 5 and rounds == [4] and oracle_rounds == 2 and discrete

    def test_discrete_input_returns_at_once(self):
        matrix = np.arange(36).reshape(6, 6)
        assert discrete_stop_rounds(matrix) == [(36, [], 1, True)]

    def test_circulant_ladder_closures_unchanged(self):
        """Their fixpoints are not discrete, so every round still runs."""
        for n in (16, 64):
            [(walked, rounds, oracle_rounds, discrete)] = discrete_stop_rounds(
                ladder_matrix(circulant_shape, n, seed=n))
            assert walked == n and not discrete and oracle_rounds == len(rounds)


class TestClosureRetry:
    def test_degenerate_first_attempt_retries_to_exact_closure(self, monkeypatch):
        real = constructions._hash_weights
        attempts = []

        def ones_on_first_attempt(rng, r, width):
            if not any(rng is seen for seen in attempts):
                attempts.append(rng)
            if rng is attempts[0]:
                return np.ones((2, r))
            return real(rng, r, width)

        monkeypatch.setattr(constructions, "_hash_weights", ones_on_first_attempt)
        matrix = ladder_matrix(chords_shape, 16)
        got = wl_closure(matrix)
        assert len(attempts) == 2
        assert got.matrix.tobytes() == sorted_signature_closure(matrix).matrix.tobytes()

    def test_exhausted_seeds_raise(self, monkeypatch):
        monkeypatch.setattr(constructions, "_hash_weights",
                            lambda rng, r, width: np.ones((2, r)))
        with pytest.raises(SchemeError, match="not certified"):
            wl_closure(ladder_matrix(chords_shape, 16))

    def test_seed_tuple_does_not_change_bytes(self):
        matrices = [ladder_matrix(make, n, seed) for make in (circulant_shape, chords_shape)
                    for n, seed in ((16, 1), (24, 2), (32, 3))]
        before = [wl_closure(m).matrix.tobytes() for m in matrices]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(constructions, "_CLOSURE_SEEDS", (31415, 9265, 35))
            after = [wl_closure(m).matrix.tobytes() for m in matrices]
        assert after == before

    def test_circulant_128_peak_memory(self):
        """One n^2 x (n + 1) int64 signature array alone would be 16.5 MiB."""
        matrix = ladder_matrix(circulant_shape, 128)
        tracemalloc.start()
        try:
            s = wl_closure(matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.r == 65
        assert peak < 8 * 2 ** 20


class TestClosureEquivariance:
    """The coarsest coherent refinement is unique, so relabeling the
    points before the closure or after it gives one partition, whatever
    the hash weights."""

    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("make", [circulant_shape, chords_shape])
    def test_ladder_shapes(self, make, n):
        matrix = ladder_matrix(make, n, seed=n)
        closed = wl_closure(matrix).matrix
        rng = np.random.default_rng(n)
        for _ in range(3):
            p = rng.permutation(n)
            relabeled = wl_closure(matrix[p][:, p]).matrix
            assert np.array_equal(canonical_recolor(relabeled),
                                  canonical_recolor(closed[p][:, p]))


def group_tables(max_order):
    """Cyclic, direct-product and dihedral tables of order <= max_order."""
    tables = [cyclic_table(m) for m in range(2, max_order + 1)]
    tables += [direct_product(cyclic_table(a), cyclic_table(b))
               for a in range(2, max_order + 1) for b in range(a, max_order // a + 1)]
    tables += [dihedral_table(k) for k in range(3, max_order // 2 + 1)]
    return tables


@functools.cache
def cayley_group_tables():
    return tuple(group_tables(32))


class TestCayleyClosures:
    """Closures of Cayley digraphs of cyclic, abelian and dihedral groups:
    the group acts regularly by automorphisms of the digraph, hence of its
    closure, so the closure is homogeneous, and the paper's two sides
    agree on it."""

    @settings(max_examples=120)
    @given(st.data())
    def test_reports_agree(self, data):
        table = data.draw(st.sampled_from(cayley_group_tables()))
        connection = data.draw(st.sets(st.integers(0, table.m - 1), min_size=1))
        arcs = [(g, int(table.table[g, s])) for g in range(table.m) for s in connection]
        s = wl_closure(digraph_color_matrix(Digraph.from_arcs(table.m, arcs)))
        assert s.is_homogeneous
        reports = member_reports(CorpusMember("cayley", "cayley", s), (2, 3, 5))
        assert reports and all(rep.agree for rep in reports)
