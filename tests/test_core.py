import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from asck import (
    Digraph,
    as_color_matrix,
    canonical_recolor,
    cyclic_table,
    digraph_color_matrix,
    rank_two_scheme,
    scheme_from_colors,
    thin_scheme,
    validate,
    wl_closure,
)
from asck.core import apply_remap, normalize_colors
from asck.errors import (
    InconsistentIntersectionNumbers,
    NonContiguousColors,
    NotAPartitionOfDiagonal,
    NotHomogeneous,
    NotTransposeClosed,
    SchemeError,
)


def z4_direct():
    return np.array([[(v - u) % 4 for v in range(4)] for u in range(4)])


def product_colors(s, left, right):
    """Colors met by the boolean matrix product of two color relations."""
    a = (s.matrix == left).astype(np.float64)
    b = (s.matrix == right).astype(np.float64)
    return tuple(int(c) for c in np.unique(s.matrix[(a @ b) > 0]))


def two_fiber_scheme():
    g = Digraph.from_arcs(6, [(0, 1), (1, 0), (2, 3), (3, 4), (4, 5), (5, 2)])
    return wl_closure(digraph_color_matrix(g))


class TestValidate:
    def test_one_point(self):
        s = validate([[0]])
        assert s.n == 1 and s.r == 1
        assert s.fibers == ((0,),)
        assert s.intersection_number(0, 0, 0) == 1

    def test_cyclic_shift_matrix(self):
        s = validate(z4_direct())
        assert s.r == 4
        assert all(s.degree(c) == 1 for c in range(4))
        assert s.intersection_number(2, 1, 1) == 1

    def test_inconsistent_counts(self):
        broken = [[0, 2, 1], [2, 0, 1], [1, 1, 0]]
        with pytest.raises(InconsistentIntersectionNumbers):
            validate(broken)

    def test_diagonal_mix(self):
        with pytest.raises(NotAPartitionOfDiagonal):
            validate([[0, 0], [1, 0]])

    def test_not_transpose_closed(self):
        with pytest.raises(NotTransposeClosed):
            validate([[0, 1, 1], [1, 0, 2], [2, 2, 0]])

    def test_non_contiguous_colors(self):
        with pytest.raises(NonContiguousColors) as exc:
            validate([[0, 2], [2, 0]])
        remapped = apply_remap([[0, 2], [2, 0]], exc.value.remap)
        s = validate(remapped)
        assert s.r == 2

    def test_rejects_non_square(self):
        with pytest.raises(SchemeError):
            as_color_matrix([[0, 1]])

    def test_rejects_negative(self):
        with pytest.raises(SchemeError):
            as_color_matrix([[0, -1], [-1, 0]])

    def test_matrix_is_readonly(self):
        s = validate(z4_direct())
        with pytest.raises(ValueError):
            s.matrix[0, 0] = 3


class TestSchemeAccessors:
    def test_transpose_involution(self):
        s = thin_scheme(cyclic_table(6))
        assert np.array_equal(s.transpose_map[s.matrix], s.matrix.T)
        for c in range(s.r):
            assert s.transpose(s.transpose(c)) == c

    def test_fibers_and_degrees(self):
        s = two_fiber_scheme()
        assert sorted(len(f) for f in s.fibers) == [2, 4]
        assert not s.is_homogeneous
        with pytest.raises(NotHomogeneous):
            s.require_homogeneous()
        for f_index, fiber in enumerate(s.fibers):
            for u in fiber:
                assert s.fiber_of(u) == f_index

    def test_relation_sizes_sum(self):
        s = two_fiber_scheme()
        assert sum(s.relation_size(c) for c in range(s.r)) == s.n * s.n

    def test_homogeneous_size_degree_relation(self):
        s = thin_scheme(cyclic_table(5))
        for c in range(s.r):
            assert s.relation_size(c) == s.degree(c) * s.n

    def test_cells_match_color_of(self):
        s = rank_two_scheme(4)
        for c in range(s.r):
            for u, v in s.cells(c):
                assert s.color_of(u, v) == c

    def test_tensor_consistency(self):
        for s in (thin_scheme(cyclic_table(6)), rank_two_scheme(5),
                  thin_scheme(cyclic_table(70))):
            t = s.tensor()
            for through in range(s.r):
                assert np.array_equal(t[through], s.tensor_slice(through))
            u, w = s.cells(1)[0]
            for left in range(s.r):
                for right in range(s.r):
                    brute = sum(
                        1 for v in range(s.n)
                        if s.color_of(u, v) == left and s.color_of(v, w) == right)
                    assert t[1, left, right] == brute
                    assert s.intersection_number(1, left, right) == brute

    def test_composition_colors(self):
        s = thin_scheme(cyclic_table(4))
        t = s.tensor()
        for a in range(s.r):
            for b in range(s.r):
                (c,) = s.composition_colors(a, b)
                assert t[c, a, b] > 0

    def test_composition_table_matches_tensor(self, corpus):
        for member in corpus:
            s = member.scheme
            positive = s.tensor() > 0
            expected = {}
            for c, a, b in zip(*np.nonzero(positive)):
                expected[int(a), int(b)] = expected.get((int(a), int(b)), 0) | (1 << int(c))
            assert s.composition_table() == expected

    @pytest.mark.parametrize("m", [70, 83, 90])
    def test_composition_colors_above_tensor_cache_rank(self, m):
        s = thin_scheme(cyclic_table(m))
        assert s.r > 64
        for left in range(0, s.r, 3):
            for right in range(left % 5, s.r, 5):
                assert s.composition_colors(left, right) == product_colors(s, left, right)

    def test_hash_identifies_matrix(self):
        a = thin_scheme(cyclic_table(5))
        b = thin_scheme(cyclic_table(5))
        c = rank_two_scheme(5)
        assert a.hash == b.hash
        assert a.hash != c.hash
        assert a.same_matrix(b) and not a.same_matrix(c)


class TestCanonicalRecolor:
    def test_idempotent(self):
        m = thin_scheme(cyclic_table(7)).matrix
        assert np.array_equal(canonical_recolor(m), m)

    def test_color_permutation_invariant(self):
        m = z4_direct()
        perm = np.array([2, 0, 3, 1])
        assert np.array_equal(canonical_recolor(perm[m]), canonical_recolor(m))

    def test_diagonal_colors_come_first(self):
        s = two_fiber_scheme()
        assert set(s.diagonal_colors) == set(range(len(s.fibers)))

    def test_gapped_ids_normalized(self):
        m, remap = normalize_colors([[0, 5], [5, 0]])
        assert sorted(remap) == [0, 5]
        assert m.max() == 1

    @given(st.integers(min_value=2, max_value=8), st.randoms(use_true_random=False))
    def test_random_color_relabel(self, m, rnd):
        mat = thin_scheme(cyclic_table(m)).matrix
        perm = list(range(m))
        rnd.shuffle(perm)
        relabeled = np.array(perm)[mat]
        assert np.array_equal(canonical_recolor(relabeled), canonical_recolor(mat))
        validate(relabeled)


class TestFloatInput:
    @pytest.mark.parametrize("convert", [canonical_recolor, normalize_colors, validate])
    @pytest.mark.parametrize("bad", [1.5, np.inf, -np.inf, np.nan, 1e19])
    def test_rejects_non_integer_entries(self, convert, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SchemeError, match="expected integer entries"):
                convert(np.array([[0, bad], [bad, 0]]))

    def test_integral_floats_match_integers(self):
        ints = two_fiber_scheme().matrix * 3 + 1
        floats = ints.astype(np.float64)
        assert np.array_equal(canonical_recolor(floats), canonical_recolor(ints))
        m_int, remap_int = normalize_colors(ints)
        m_float, remap_float = normalize_colors(floats)
        assert np.array_equal(m_float, m_int) and remap_float == remap_int
        canonical = canonical_recolor(ints)
        assert validate(canonical.astype(np.float64)).same_matrix(validate(canonical))


class TestSchemeFromColors:
    def test_round_trip(self):
        s = thin_scheme(cyclic_table(3))
        rebuilt = scheme_from_colors(3, [s.cells(c) for c in range(s.r)])
        assert rebuilt.same_matrix(s)

    def test_missing_cell(self):
        with pytest.raises(SchemeError):
            scheme_from_colors(2, [[(0, 0), (1, 1)], [(0, 1)]])
