import ast
import dataclasses
import hashlib
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from asck import (
    Digraph,
    all_equivalences,
    as_color_matrix,
    canonical_recolor,
    ccm_text,
    check_partite_criterion,
    cyclic_table,
    cyclically_p_partite,
    digraph_color_matrix,
    dihedral_table,
    equivalence_from_colors,
    generated_closed_set,
    is_block,
    is_p_scheme,
    is_prime,
    quotient,
    rank_two_scheme,
    restriction,
    scheme_from_colors,
    thin_scheme,
    validate,
    wl_closure,
    wreath,
    write_ccm,
)
from asck import core
from asck.cli import _read_scheme
from asck.core import (
    _canonical,
    _certify,
    _check_intersection_numbers,
    _groups,
    _integer_matrix,
    _raise_count_mismatch,
    _shift_invariant,
    canonical_scheme,
)
from asck.checks import require_prime
from asck.errors import (
    InconsistentIntersectionNumbers,
    InvalidColor,
    InvalidP,
    NonContiguousColors,
    NotABlock,
    NotAPartitionOfDiagonal,
    NotHomogeneous,
    NotPrime,
    NotTransposeClosed,
    SchemeError,
)
from asck.lattice import RANK_CAP, _closure_rows
from oracles import (
    chords_shape,
    circulant_shape,
    counter_mismatch,
    ladder_closures_64,
    ladder_matrix,
    old_canonical_recolor,
    old_canonical_scheme,
    old_check_intersection_numbers,
    old_components,
    old_fibers,
    old_labeled_groups,
    row_zero_runs,
    same_matrix,
    two_fiber_scheme,
)


def apply_remap(matrix, remap):
    """Relabel colors according to ``remap`` (as carried by NonContiguousColors)."""
    arr = np.asarray(matrix, dtype=np.int64)
    lut = np.zeros(int(arr.max()) + 1, dtype=np.int64)
    for old, new in remap.items():
        lut[old] = new
    return lut[arr]


def z4_direct():
    return np.array([[(v - u) % 4 for v in range(4)] for u in range(4)])


def product_colors(s, left, right):
    """Colors met by the boolean matrix product of two color relations."""
    a = (s.matrix == left).astype(np.float64)
    b = (s.matrix == right).astype(np.float64)
    return tuple(int(c) for c in np.unique(s.matrix[(a @ b) > 0]))


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

    @pytest.mark.parametrize("high", [4, 2 ** 40, 2 ** 63 - 1])
    def test_ids_above_cell_count_raise_with_remap(self, high):
        """An id of at least n^2 leaves a gap; it is reported without a
        count array sized by the id."""
        matrix = np.array([[0, high], [high, 0]], dtype=np.int64)
        with pytest.raises(NonContiguousColors) as exc:
            as_color_matrix(matrix)
        assert exc.value.remap == {0: 0, high: 1}

    @pytest.mark.parametrize("build", [validate, canonical_scheme])
    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.float64])
    def test_callers_array_is_neither_frozen_nor_aliased(self, build, dtype):
        m = np.array(z4_direct(), dtype=dtype)
        s = build(m)
        assert m.flags.writeable
        assert not np.shares_memory(s.matrix, m)
        m[0, 1] = 3
        assert s.matrix[0, 1] == 1
        view = np.array(z4_direct(), dtype=dtype)[:, :]
        assert not np.shares_memory(build(view).matrix, view.base)

    def test_rejects_non_square(self):
        with pytest.raises(SchemeError):
            as_color_matrix([[0, 1]])

    @pytest.mark.parametrize("ragged", [[[0, 1], [1]], [[0, 1], [1, [0]]]])
    @pytest.mark.parametrize("entry", [validate, as_color_matrix, canonical_recolor,
                                       ccm_text, canonical_scheme])
    def test_rejects_ragged_rows(self, entry, ragged):
        with pytest.raises(SchemeError, match="^expected a square matrix, got a ragged"):
            entry(ragged)

    def test_rejects_negative(self):
        with pytest.raises(SchemeError):
            as_color_matrix([[0, -1], [-1, 0]])

    def test_matrix_is_readonly(self):
        s = validate(z4_direct())
        with pytest.raises(ValueError):
            s.matrix[0, 0] = 3


def loop_check_intersection_numbers(matrix, r):
    """The per-cell loop that ``_check_intersection_numbers`` replaced; the
    oracle for its verdicts and witnesses."""
    n = matrix.shape[0]
    reference = {}
    for u in range(n):
        codes = np.sort(matrix[u][:, None] * r + matrix, axis=0)
        row = matrix[u]
        for w in range(n):
            color = int(row[w])
            sig = codes[:, w]
            seen = reference.get(color)
            if seen is None:
                reference[color] = ((u, w), sig.copy())
            elif not np.array_equal(seen[1], sig):
                _raise_count_mismatch(matrix, r, color, seen[0], (u, w))


def count_mismatch(check, matrix):
    """The fields and message of the InconsistentIntersectionNumbers that
    ``check`` raises on the matrix, or None."""
    try:
        check(matrix, int(matrix.max()) + 1)
    except InconsistentIntersectionNumbers as exc:
        return (exc.color, exc.rs, exc.cell_a, exc.count_a, exc.cell_b, exc.count_b,
                str(exc))
    return None


def perturbations(s, rng):
    """The scheme's matrix, the same with two off-diagonal cells (and their
    transposes) swapped, and with a transposed pair split off into a new
    color."""
    yield np.array(s.matrix)
    off = np.argwhere(~np.eye(s.n, dtype=bool))
    for _ in range(12):
        (u, v), (x, y) = off[rng.choice(len(off), size=2, replace=False)]
        m = np.array(s.matrix)
        m[u, v], m[x, y] = m[x, y], m[u, v]
        m[v, u], m[y, x] = m[y, x], m[v, u]
        yield m
    for u in range(s.n - 1):
        m = np.array(s.matrix)
        m[u, u + 1] = m[u + 1, u] = s.r
        yield m


def perturbed_matrices():
    """Valid schemes, the same with two off-diagonal cells (and their
    transposes) swapped or with a transposed pair split off into a new
    color, and random colorings."""
    rng = np.random.default_rng(2007)
    bases = [thin_scheme(cyclic_table(6)), thin_scheme(dihedral_table(4)),
             rank_two_scheme(5), two_fiber_scheme(),
             wreath(rank_two_scheme(3), thin_scheme(cyclic_table(3))),
             wl_closure(digraph_color_matrix(
                 Digraph.from_arcs(8, [(u, (u + 1) % 8) for u in range(8)] + [(0, 4)]))),
             # colors spanning several n-cell chunks of the all-cells walk
             rank_two_scheme(9),
             wreath(rank_two_scheme(4), thin_scheme(cyclic_table(4)))]
    for s in bases:
        yield from perturbations(s, rng)
    for n in (2, 3, 4, 6, 9):
        for colors in (2, 3, 5):
            yield canonical_recolor(rng.integers(0, colors, size=(n, n)))


def cell_runs(matrix, r):
    """The flat row-major position of every cell grouped by color,
    ascending within a color, and the offsets of the color runs, built
    from ``np.flatnonzero``."""
    order = np.concatenate([np.flatnonzero(matrix == c) for c in range(r)])
    return order, np.concatenate(([0], np.cumsum(np.bincount(matrix.ravel(), minlength=r))))


class TestIntersectionNumberCheck:
    def test_witnesses_match_loop_oracle(self, monkeypatch):
        def check(matrix, r):
            # chunks of n cells, as the spans below count them
            monkeypatch.setattr(core, "_WALK_CODES", matrix.shape[0] ** 2)
            _check_intersection_numbers(matrix, r, *cell_runs(matrix, r))

        outcomes = [(m, count_mismatch(check, m),
                     count_mismatch(loop_check_intersection_numbers, m))
                    for m in perturbed_matrices()]
        for _, got, want in outcomes:
            assert got == want
        raised = sum(got is not None for _, got, _ in outcomes)
        assert 0 < raised < len(outcomes)

        # some witnesses lie in a later n-cell chunk of the walk than
        # their color's first cell
        def chunks(m, mismatch):
            order, offsets = cell_runs(m, int(m.max()) + 1)
            (n, color), (u, w) = (m.shape[0], mismatch[0]), mismatch[4]
            return offsets[color] // n, order.tolist().index(u * n + w) // n

        spans = [chunks(m, got) for m, got, _ in outcomes if got is not None]
        assert any(start < witness for start, witness in spans)


class TestCountMismatchWitness:
    """``_raise_count_mismatch`` reads the least differing code off the
    two sorted code rows; ``counter_mismatch`` counts every code."""

    def test_matches_counter_oracle(self):
        rng = np.random.default_rng(30)
        kinds = Counter()
        for _ in range(3000):
            n, r = int(rng.integers(1, 9)), int(rng.choice([1, 2, 3, 5, 2 ** 31 + 11]))
            m = rng.integers(0, r, size=(n, n))
            cell_a, cell_b = (tuple(map(int, rng.integers(0, n, size=2))) for _ in range(2))
            a, b = (np.sort(m[u, :] * r + m[:, w]) for u, w in (cell_a, cell_b))
            if np.array_equal(a, b):
                continue
            color = int(m[cell_a])
            got = raised(_raise_count_mismatch, m, r, color, cell_a, cell_b)
            assert got == raised(counter_mismatch, m, r, color, cell_a, cell_b)
            kinds["last index"] += bool(np.flatnonzero(a != b)[0] == n - 1)
            kinds["same codes"] += bool(np.array_equal(np.unique(a), np.unique(b)))
            kinds["wide codes"] += r > 2 ** 31
        assert kinds["last index"] > 20 and kinds["same codes"] > 20
        assert kinds["wide codes"] > 20


def raised(call, *args):
    """The type, fields and message of the SchemeError that ``call(*args)``
    raises, or None."""
    try:
        call(*args)
    except SchemeError as exc:
        return type(exc), vars(exc), str(exc)
    return None


def stable_runs(matrix):
    """The flat row-major position of every cell stably sorted by color,
    and the offsets of the color runs."""
    order = np.argsort(matrix.ravel(), kind="stable")
    sizes = np.bincount(matrix.ravel())
    return order, np.concatenate(([0], np.cumsum(sizes)))


def discrete_configuration(n):
    return canonical_recolor(np.arange(n * n).reshape(n, n))


def partly_discrete_schemes():
    """Closures of digraphs with some symmetry: singleton and multi-cell
    colors side by side."""
    shapes = [(6, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)]),
              (7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6)]),
              (9, [(0, 1), (1, 0), (2, 3), (3, 2), (4, 5), (5, 6), (6, 7), (7, 8),
                   (8, 4), (4, 0)])]
    return [wl_closure(digraph_color_matrix(Digraph.from_arcs(n, arcs)))
            for n, arcs in shapes]


def merge_transposed_pair(matrix, u, v):
    """The matrix with the color of (u, v) merged into that of (v, u),
    recolored to contiguous ids: transpose-closed, but a discrete
    configuration then fails the intersection-number axiom."""
    m = np.array(matrix)
    m[u, v] = m[v, u]
    return canonical_recolor(m)


class TestNarrowSingletonWalk:
    """``_check_intersection_numbers`` walks only multi-cell colors, with
    int32 codes when r^2 <= 2^31; the parent's int64 all-cells walk is
    the oracle."""

    def test_outcomes_match_int64_all_cells_oracle(self):
        rng = np.random.default_rng(1002)
        bases = [thin_scheme(cyclic_table(12)), rank_two_scheme(7),
                 wreath(rank_two_scheme(3), thin_scheme(cyclic_table(4))),
                 *ladder_closures_64(), *partly_discrete_schemes()]
        matrices = [np.unique(m, return_inverse=True)[1].reshape(m.shape)
                    for s in bases for m in perturbations(s, rng)]
        matrices += [merge_transposed_pair(discrete_configuration(n), u, v)
                     for n, u, v in ((2, 0, 1), (5, 3, 1), (9, 2, 7))]
        mixed = raising = 0
        for m in matrices:
            r = int(m.max()) + 1
            runs = stable_runs(m)
            got = raised(_check_intersection_numbers, m, r, *runs)
            assert got == raised(old_check_intersection_numbers, m, r, *runs)
            sizes = np.bincount(m.ravel())
            if got is not None:
                raising += 1
                mixed += bool((sizes == 1).any() and (sizes > 1).any())
        assert 0 < raising < len(matrices)
        assert mixed > 10

    @pytest.mark.parametrize("n", [215, 216])
    def test_code_width_boundary(self, n):
        """r = n^2 is 46,225 (int32 codes) at n = 215 and 46,656 (int64)
        at n = 216; one merged transposed pair leaves r = n^2 - 1."""
        assert ((n * n) ** 2 <= 2 ** 31) == (n == 215)
        discrete = discrete_configuration(n)
        assert validate(discrete).r == n * n
        assert raised(old_check_intersection_numbers, discrete, n * n,
                      *stable_runs(discrete)) is None
        merged = merge_transposed_pair(discrete, 3, 7)
        got = raised(validate, merged)
        assert got is not None and got[0] is InconsistentIntersectionNumbers
        assert got == raised(old_check_intersection_numbers, merged, n * n - 1,
                             *stable_runs(merged))


def swapped_cyclic(m):
    """The thin scheme of Z_m with the colors of cells (0, 1) and (0, 2)
    swapped: rank m still, every color of size m, and incoherent."""
    g = np.arange(m)
    matrix = (g[None, :] - g[:, None]) % m
    matrix[0, 1], matrix[0, 2] = 2, 1
    return matrix


def walk_position(matrix, cell):
    """Where ``cell`` sits in the walk: the flat positions of the cells of
    the multi-cell colors, stably sorted by color."""
    order, offsets = stable_runs(matrix)
    sizes = np.diff(offsets)
    u, w = cell
    return order[np.repeat(sizes > 1, sizes)].tolist().index(u * matrix.shape[0] + w)


class TestChunkedWalk:
    """``_check_intersection_numbers`` walks about 2^16 codes per chunk,
    with int16 codes when r^2 <= 2^15; the int64 walk of n-cell chunks
    over all cells that it replaced is the oracle."""

    @pytest.mark.parametrize("m", [181, 182])
    def test_int16_boundary(self, m):
        assert (m * m <= 2 ** 15) == (m == 181)
        coherent = thin_scheme(cyclic_table(m)).matrix
        assert raised(_check_intersection_numbers, coherent, m, *stable_runs(coherent)) is None
        matrix = swapped_cyclic(m)
        runs = stable_runs(matrix)
        want = raised(old_check_intersection_numbers, matrix, m, *runs)
        assert want is not None and want[0] is InconsistentIntersectionNumbers
        assert raised(_check_intersection_numbers, matrix, m, *runs) == want
        assert m * m > core._WALK_CODES // m  # the walk takes several chunks

    def test_witness_just_before_at_and_after_a_chunk_boundary(self, monkeypatch):
        """With chunks of p + 1, p and p - 1 cells, the witness at walk
        position p is the last cell of a chunk, the first of the next, or
        the one after it; on the small bases, chunks of 1 to 3 cells put a
        boundary before nearly every cell, so every cell leans on the
        chaining row."""
        rng = np.random.default_rng(1016)
        bases = [wreath(rank_two_scheme(4), thin_scheme(cyclic_table(4))),
                 rank_two_scheme(9), ladder_closures_64()[0]]
        straddled = 0
        for m in (x for b in bases for x in perturbations(b, rng)):
            n, r = m.shape[0], int(m.max()) + 1
            runs = stable_runs(m)
            want = raised(old_check_intersection_numbers, m, r, *runs)
            sizes = [1, 2, 3] if n <= 16 else []
            if want is not None:
                p = walk_position(m, want[1]["cell_b"])
                color_start = walk_position(m, want[1]["cell_a"])
                sizes += [k for k in (p - 1, p, p + 1) if k >= 1]
            for rows in sizes:
                monkeypatch.setattr(core, "_WALK_CODES", rows * n)
                assert raised(_check_intersection_numbers, m, r, *runs) == want
                # the witness's color straddles a chunk boundary
                straddled += want is not None and color_start // rows < p // rows
        assert straddled > 10

    def test_buffers_fit_a_short_walk(self):
        """Buffers hold min(walk, chunk) rows: 25 walked cells at n = 5,
        not the 13,107 rows of a full chunk (about 330 KB)."""
        s = rank_two_scheme(5)
        matrix = np.array(s.matrix)
        tracemalloc.start()
        try:
            _check_intersection_numbers(matrix, s.r, *stable_runs(matrix))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 10


def circulant_closures():
    """The closures of the circulant ladder shape at n = 16 to 256."""
    return [wl_closure(ladder_matrix(circulant_shape, n, seed=n)).matrix
            for n in (16, 24, 32, 64, 128, 256)]


def cyclic_matrix(m):
    """The thin scheme of Z_m as color(u, v) = (v - u) % m, shift-invariant."""
    g = np.arange(m)
    return (g[None, :] - g[:, None]) % m


def recolored_orbits(matrix):
    """The coloring with the shift orbit {(u, u + d)} recolored, for each
    d in 1..n-1: to a new color, or to the color of orbit d + 1, with
    orbit -d recolored alike so that the colors stay transpose-closed.
    Every result is shift-invariant, with contiguous ids."""
    n = matrix.shape[0]
    g = np.arange(n)
    diff = (g[None, :] - g[:, None]) % n
    r = int(matrix.max()) + 1
    row = matrix[0]
    for d in range(1, n):
        for new, new_back in ((r, r + 1), (row[(d + 1) % n], row[(-d - 1) % n])):
            m = np.array(matrix)
            m[diff == d] = new
            m[diff == n - d] = new if 2 * d == n else new_back
            yield np.unique(m, return_inverse=True)[1].reshape(n, n)


def general_path(call, *args):
    """``raised(call, *args)`` with the shift test off: the full walk."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_shift_invariant", lambda matrix: False)
        return raised(call, *args)


class TestRowZeroWalk:
    """When the label shift is an automorphism, certification walks the
    cells of row 0 only; the full walk over every cell is the oracle for
    its outcome and message."""

    def test_invariant_schemes_pass_both_walks(self):
        matrices = circulant_closures() + [cyclic_matrix(m) for m in range(1, 41)]
        for m in matrices:
            assert _shift_invariant(m)
            r = int(m.max()) + 1
            runs = stable_runs(m)
            assert raised(_check_intersection_numbers, m, r, *row_zero_runs(m)) is None
            assert raised(_check_intersection_numbers, m, r, *runs) is None
            assert raised(old_check_intersection_numbers, m, r, *runs) is None

    def test_recolored_orbits_match_full_walk(self):
        """Incoherent shift-invariant matrices, through the walk alone and
        through ``validate`` against its general path."""
        bases = circulant_closures()[:4] + [cyclic_matrix(m) for m in (6, 9, 12)]
        outcomes = Counter()
        for m in (x for b in bases for x in recolored_orbits(b)):
            assert _shift_invariant(m)
            r = int(m.max()) + 1
            got = raised(_check_intersection_numbers, m, r, *row_zero_runs(m))
            assert got == raised(old_check_intersection_numbers, m, r, *stable_runs(m))
            full = raised(validate, m)
            assert full == general_path(validate, m)
            outcomes[got is not None, full and full[0].__name__] += 1
        # the walk passes and rejects, and most rejections reach it through validate
        assert outcomes[False, None] > 10
        assert outcomes[True, "InconsistentIntersectionNumbers"] > 100

    def test_non_invariant_coloring_consistent_on_row_zero(self):
        """Swapping two colors in row 3 of Z_m (and their transposes in
        column 3) breaks the counts below row 0 only: a walk of row 0
        alone accepts the matrix, and so does certification forced onto
        it by a shift test that always passes; the real test fails, and
        the full walk rejects it."""
        for m in (6, 9, 16, 40):
            matrix = cyclic_matrix(m)
            matrix[3, [4, 5]] = matrix[3, [5, 4]]
            matrix[[4, 5], 3] = matrix[[5, 4], 3]
            r, runs = m, stable_runs(matrix)
            assert not _shift_invariant(matrix)
            assert raised(_check_intersection_numbers, matrix, r, *row_zero_runs(matrix)) is None
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(core, "_shift_invariant", lambda matrix: True)
                assert raised(validate, matrix) is None
            want = raised(old_check_intersection_numbers, matrix, r, *runs)
            assert want is not None and want[0] is InconsistentIntersectionNumbers
            assert raised(_check_intersection_numbers, matrix, r, *runs) == want
            assert raised(validate, matrix) == want

    def test_shift_test_against_roll(self):
        """``_shift_invariant`` agrees with the two-axis ``np.roll`` on
        invariant matrices, on each one with one cell changed (in row 0,
        row 1, the last row or the wrap column) and on random ones."""
        rng = np.random.default_rng(24)
        matrices = [cyclic_matrix(m) for m in (1, 2, 3, 7)] + circulant_closures()[:2]
        for base in list(matrices):
            n = base.shape[0]
            for u, v in {(0, n - 1), (min(1, n - 1), 0), (n - 1, n - 2), (n // 2, n - 1)}:
                m = np.array(base)
                m[u, v] += 1
                matrices.append(m)
        matrices += [rng.integers(0, 2, size=(n, n)) for n in (1, 2, 3, 4) for _ in range(8)]
        seen = Counter()
        for m in matrices:
            want = bool(np.array_equal(np.roll(m, (1, 1), (0, 1)), m))
            assert _shift_invariant(m) == want
            seen[want] += 1
        assert seen[True] > 10 and seen[False] > 10


class TestWorkingSet:
    def test_discrete_configuration_validates_in_quadratic_memory(self):
        """r = n^2 colors: one (r, n) reference row per color would be
        n^3 int64 entries, 128 MiB at n = 256."""
        n = 256
        m = canonical_recolor(np.arange(n * n).reshape(n, n))
        tracemalloc.start()
        try:
            s = validate(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.r == n * n
        assert peak < 16 * 2 ** 20


def traced_validate(matrix):
    """``validate(matrix)``, and the bytes that tracemalloc counts held
    after it (the Scheme alive) and at its peak."""
    tracemalloc.start()
    try:
        s = validate(matrix)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert s.n == matrix.shape[0]
    return held, peak


def relabeled(matrix, seed):
    """The matrix with its points relabeled by a seeded permutation."""
    perm = np.random.default_rng(seed).permutation(matrix.shape[0])
    return matrix[np.ix_(perm, perm)]


class TestCertifiedMemory:
    """A certified Scheme keeps the matrix and per-color vectors, no
    per-cell index (which took 16 more bytes per cell), and a
    shift-invariant coloring is sorted on row 0 alone."""

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: cyclic_matrix(512), id="thin-Z512"),
        pytest.param(lambda: np.array(wreath(rank_two_scheme(16), rank_two_scheme(32)).matrix),
                     id="wreath-16-32"),
    ])
    def test_held_bytes_per_cell(self, build):
        matrix = build()
        assert matrix.shape[0] == 512
        held, _ = traced_validate(matrix)
        assert held <= 10 * matrix.size

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: np.array(wreath(rank_two_scheme(16), rank_two_scheme(32)).matrix),
                     id="wreath-16-32"),
        pytest.param(lambda: relabeled(thin_scheme(dihedral_table(256)).matrix, seed=30),
                     id="relabeled-D256"),
    ])
    def test_general_path_peak(self, build):
        """Sorting and walking all n^2 cells through flat positions, 8
        bytes per cell each: about 30 and 35 bytes per cell at the peak,
        where an (n^2, 2) cell array and its walk copy read 49 and 51."""
        matrix = build()
        assert matrix.shape[0] == 512 and not _shift_invariant(matrix)
        _, peak = traced_validate(matrix)
        assert peak <= 40 * matrix.size

    def test_interned_scheme_holds_one_copy_of_its_bytes(self):
        """An input that is its own recoloring is filed once: the Scheme
        and its table key hold about 16 bytes per cell, where a second
        key for the same bytes held a second copy, 24 in all."""
        n = 512
        key = (np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)).tobytes()
        assert key not in core._interned  # so the call below certifies
        del key
        tracemalloc.start()
        try:
            s = rank_two_scheme(n)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert s.n == n and held <= 17 * n * n

    def test_circulant_peak(self):
        """Sorting all n^2 cells peaked at 45.8 MiB on thin Z_1000;
        sorting row 0 peaks at about 16.3 MiB."""
        matrix = cyclic_matrix(1000)
        _, peak = traced_validate(matrix)
        assert peak < 24 * 2 ** 20


def tensor_slice(s, through):
    """The (r, r) intersection numbers of one color, by one ``np.bincount``
    of the pairs (color(u,v), color(v,w)) at the color's first cell."""
    u, w = s.first_cells[through]
    codes = s.matrix[u, :] * s.r + s.matrix[:, w]
    return np.bincount(codes, minlength=s.r * s.r).reshape(s.r, s.r)


Z4 = thin_scheme(cyclic_table(4))
CYCLE4 = Digraph.from_arcs(4, [(u, (u + 1) % 4) for u in range(4)])


@pytest.mark.parametrize("call,good,error", [
    pytest.param(is_prime, 2, False, id="is_prime"),
    pytest.param(require_prime, 2, NotPrime, id="require_prime"),
    pytest.param(lambda p: check_partite_criterion(Z4, p).p, 2, NotPrime, id="check-p"),
    pytest.param(Z4.degree, 1, InvalidColor, id="degree"),
    pytest.param(Z4.transpose, 1, InvalidColor, id="transpose"),
    pytest.param(lambda c: Z4.intersection_number(c, 1, 1), 1, InvalidColor,
                 id="intersection_number"),
    pytest.param(lambda c: generated_closed_set(Z4, [c]).colors, 1, InvalidColor,
                 id="generated_closed_set"),
    pytest.param(lambda c: equivalence_from_colors(Z4, [0, c]).classes, 2, InvalidColor,
                 id="equivalence_from_colors"),
    pytest.param(lambda u: is_block(Z4, [0, u]), 2, False, id="is_block"),
    pytest.param(lambda u: restriction(Z4, [0, u]).n, 2, NotABlock, id="restriction"),
    pytest.param(lambda p: cyclically_p_partite(CYCLE4, p), 2, InvalidP,
                 id="cyclically_p_partite"),
    pytest.param(lambda n: rank_two_scheme(n).n, 3, SchemeError, id="rank_two_scheme"),
])
def test_integer_arguments(call, good, error):
    """An integer argument is an int or a numpy integer, read through
    ``operator.index``: numpy integers give the answer of the int, with
    Python ints inside it, and a float, even an integral one, a string or
    None is refused, answering False or raising, whatever came before."""
    want = repr(call(good))
    for kind in (np.int64, np.int32, np.uint8):
        assert repr(call(kind(good))) == want
    for bad in (good + 0.5, float(good), str(good), None):
        if error is False:
            assert call(bad) is False
        else:
            with pytest.raises(error):
                call(bad)
        assert repr(call(good)) == want


class TestGroups:
    """``_groups`` gives the fibers of the old per-color ``np.nonzero``
    scans, and the classes of the two dict loops it replaced in the
    lattice and the weak components, on least-point labelings."""

    def test_corpus_and_ladder_closures(self, corpus, relabeled_corpus):
        schemes = ([m.scheme for m in corpus] + relabeled_corpus + list(ladder_closures_64())
                   + [validate(m) for m in circulant_closures()]
                   + [wl_closure(ladder_matrix(chords_shape, n, seed=n)) for n in (96, 128)])
        for s in schemes:
            assert s.fibers == old_fibers(s.matrix.diagonal())
        assert max(len(s.fibers) for s in schemes) == 128

    @given(st.lists(st.integers(0, 40), min_size=1, max_size=60))
    @example([2, 0, 2, 1])
    def test_random_diagonal_labelings(self, labels):
        diag = np.array(labels, dtype=np.int64)
        assert _groups(diag) == old_fibers(diag)

    @given(st.lists(st.integers(0, 40), min_size=1, max_size=60))
    def test_least_point_labelings(self, blocks):
        """Point p lies in block blocks[p] and is labeled by the least
        point of its block, as lattice classes and forest roots are."""
        least = {}
        labels = np.array([least.setdefault(b, p) for p, b in enumerate(blocks)])
        assert _groups(labels) == old_labeled_groups(labels)
        assert list(_groups(labels)) == old_components(labels.tolist())


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
                assert s.matrix[u, u] == s.diagonal_colors[f_index]

    def test_relation_sizes_sum(self):
        s = two_fiber_scheme()
        assert s.sizes.sum() == s.n * s.n

    def test_homogeneous_size_degree_relation(self):
        s = thin_scheme(cyclic_table(5))
        for c in range(s.r):
            assert s.sizes[c] == s.degree(c) * s.n

    def test_cells_match_color_of(self):
        s = rank_two_scheme(4)
        for c in range(s.r):
            for u, v in s.cell_array(c).tolist():
                assert int(s.matrix[u, v]) == c

    def test_cell_index_matches_argwhere(self, corpus):
        for member in corpus:
            s = member.scheme
            for c in range(s.r):
                cells = s.cell_array(c)
                assert np.array_equal(cells, np.argwhere(s.matrix == c))
                assert not cells.flags.writeable
                assert s.first_cells[c].tolist() == cells[0].tolist()

    def test_degrees_match_row_counts(self, corpus):
        for member in corpus:
            s = member.scheme
            for c in range(s.r):
                u, _ = s.cell_array(c)[0]
                assert s.degree(c) == np.count_nonzero(s.matrix[u] == c)

    def test_tensor_consistency(self):
        for s in (thin_scheme(cyclic_table(6)), rank_two_scheme(5),
                  thin_scheme(cyclic_table(70)), two_fiber_scheme()):
            t = s.tensor()
            assert t.shape == (s.r, s.r, s.r) and t.dtype == np.int64
            for through in range(s.r):
                assert np.array_equal(t[through], tensor_slice(s, through))
            u, w = s.cell_array(1)[0]
            for left in range(s.r):
                for right in range(s.r):
                    brute = sum(
                        1 for v in range(s.n)
                        if int(s.matrix[u, v]) == left and int(s.matrix[v, w]) == right)
                    assert t[1, left, right] == brute
                    assert s.intersection_number(1, left, right) == brute

    def test_composition_colors(self):
        s = thin_scheme(cyclic_table(4))
        t = s.tensor()
        for a in range(s.r):
            for b in range(s.r):
                (c,) = s.composition_colors(a, b)
                assert t[c, a, b] > 0

    def test_closure_rows_match_tensor(self, corpus):
        for member in corpus:
            s = member.scheme
            positive = s.tensor() > 0
            expected = [[0] * s.r for _ in range(s.r)]
            for c, a, b in zip(*(x.tolist() for x in np.nonzero(
                    positive | positive.transpose(0, 2, 1)))):
                expected[a][b] |= 1 << c
            assert _closure_rows(s) == expected

    @pytest.mark.parametrize("m", [70, 83, 90])
    def test_composition_colors_above_tensor_cache_rank(self, m):
        s = thin_scheme(cyclic_table(m))
        assert s.r > 64
        for left in range(0, s.r, 3):
            for right in range(left % 5, s.r, 5):
                assert s.composition_colors(left, right) == product_colors(s, left, right)

    def test_hash_matches_per_row_payload(self, corpus):
        """The payload that the flat join replaced, the rows joined one at a
        time, is the oracle."""
        def per_row_hash(s):
            payload = f"{s.n} {s.r} " + " ".join(
                " ".join(map(str, row.tolist())) for row in s.matrix)
            return hashlib.sha256(payload.encode("ascii")).hexdigest()

        schemes = [m.scheme for m in corpus] + list(ladder_closures_64())
        assert len({s.n for s in schemes}) > 5
        for s in schemes:
            assert s.hash == per_row_hash(s)

    def test_hash_identifies_matrix(self):
        a = thin_scheme(cyclic_table(5))
        b = thin_scheme(cyclic_table(5))
        c = rank_two_scheme(5)
        assert a.hash == b.hash
        assert a.hash != c.hash
        assert same_matrix(a, b) and not same_matrix(a, c)


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
        assert canonical_recolor([[5, -2], [-2, 5]]).tolist() == [[0, 1], [1, 0]]

    @given(st.integers(min_value=2, max_value=8), st.randoms(use_true_random=False))
    def test_random_color_relabel(self, m, rnd):
        mat = thin_scheme(cyclic_table(m)).matrix
        perm = list(range(m))
        rnd.shuffle(perm)
        relabeled = np.array(perm)[mat]
        assert np.array_equal(canonical_recolor(relabeled), canonical_recolor(mat))
        validate(relabeled)


def uninterned_canonical_scheme(matrix):
    """A fresh ``canonical_scheme`` build that bypasses the intern table."""
    return _certify(_canonical(_integer_matrix(matrix)))


def scheme_fields(s):
    """Every field of a Scheme, with dtypes and array bytes, except the
    ``_derived`` memo, which is cache state and not output."""
    fields = {}
    for f in dataclasses.fields(s):
        if f.name == "_derived":
            continue
        value = getattr(s, f.name)
        if isinstance(value, np.ndarray):
            value = (value.dtype.str, value.shape, value.tobytes(), value.flags.writeable)
        fields[f.name] = value
    return fields


def scheme_outcome(build, matrix):
    """``scheme_fields`` of the Scheme that ``build`` returns, or the type
    and message of the SchemeError it raises."""
    try:
        s = build(matrix)
    except SchemeError as exc:
        return type(exc), str(exc)
    return scheme_fields(s)


def gapped_relabel(rng, matrix):
    """The matrix under a random injective relabel onto ids with gaps,
    negative ones included."""
    ids = rng.choice(np.arange(-50, 50), size=int(matrix.max()) + 1, replace=False)
    return ids[matrix]


class TestCanonicalScheme:
    def test_matches_old_composition_on_corpus(self, corpus):
        for member in corpus:
            m = member.scheme.matrix
            old = scheme_outcome(old_canonical_scheme, m)
            assert scheme_outcome(canonical_scheme, m) == old
            assert scheme_outcome(uninterned_canonical_scheme, m) == old

    def test_matches_old_composition_on_relabeled_perturbations(self):
        rng = np.random.default_rng(6)
        outcomes = []
        for m in perturbed_matrices():
            m = gapped_relabel(rng, m)
            assert canonical_recolor(m).tobytes() == old_canonical_recolor(m).tobytes()
            outcomes.append(scheme_outcome(canonical_scheme, m))
            assert outcomes[-1] == scheme_outcome(old_canonical_scheme, m)
            assert outcomes[-1] == scheme_outcome(uninterned_canonical_scheme, m)
        raised = sum(isinstance(got, tuple) for got in outcomes)
        assert 0 < raised < len(outcomes)


def quotient_matrix(s, classes):
    """The class-pair color-set matrix that ``quotient`` certifies."""
    ids = {}
    return np.array([[ids.setdefault(frozenset(np.unique(s.matrix[np.ix_(x, y)]).tolist()),
                                     len(ids)) for y in classes] for x in classes])


def blocks(s):
    """The fibers of s and, when s is homogeneous of enumerable rank, the
    classes of every scheme equivalence: the blocks the checks restrict to."""
    found = dict.fromkeys(s.fibers)
    if s.is_homogeneous and s.r <= RANK_CAP:
        for e in all_equivalences(s):
            found.update(dict.fromkeys(e.classes))
    return list(found)


# Builds a small corpus with its restrictions and quotients, plus a scheme
# whose memo holds itself, drops them all and prints how many survive gc.
PIN_PROBE = """
import gc, weakref
from asck import CorpusSpec, all_equivalences, cyclic_table, generate_corpus
from asck import quotient, restriction, thin_scheme
from asck.core import _interned, canonical_scheme

def build():
    members = generate_corpus(CorpusSpec(max_n=10, circulant_count=6, nonhomogeneous_count=4))
    held = [m.scheme for m in members]
    for s in [m.scheme for m in members]:
        held += [restriction(s, fiber) for fiber in s.fibers]
        if s.is_homogeneous:
            for e in all_equivalences(s):
                held.append(quotient(s, e))
                held += [restriction(s, c) for c in e.classes]
    looped = thin_scheme(cyclic_table(6))
    assert canonical_scheme(looped.matrix) is looped
    assert restriction(looped, looped.fibers[0]) is looped
    held.append(looped)
    assert len(_interned) > 0
    return [weakref.ref(x) for x in held + members]

refs = build()
gc.collect()
print(sum(ref() is not None for ref in refs), len(refs), len(_interned))
"""


class TestInterning:
    def test_equal_bytes_share_one_scheme(self):
        m = z4_direct()
        s = canonical_scheme(m)
        for same in (m.tolist(), m.astype(np.int8), m.astype(np.float64),
                     np.asfortranarray(m)):
            assert canonical_scheme(same) is s
        # recoloring to equal matrices: certified once, under the result's bytes
        assert canonical_scheme(s.matrix) is s
        assert canonical_scheme(m * 5 - 7) is s
        assert canonical_scheme(np.eye(4, dtype=np.int64)) is not s
        assert validate(s.matrix) is not s
        assert validate(s.matrix) is not validate(s.matrix)

    def test_constructions_share_one_scheme(self):
        s = thin_scheme(cyclic_table(6))
        assert thin_scheme(cyclic_table(6)) is s
        assert wl_closure(s.matrix) is s
        assert restriction(s, range(6)) is s
        assert restriction(wreath(rank_two_scheme(3), s), range(3)) is rank_two_scheme(3)

    def test_equal_restrictions_of_different_parents_are_one_object(self, corpus):
        by_bytes = {}
        for member in corpus:
            s = member.scheme
            for block in blocks(s):
                sub = s.matrix[np.ix_(block, block)].tobytes()
                by_bytes.setdefault(sub, []).append((member.name, restriction(s, block)))
        shared = 0
        for found in by_bytes.values():
            assert len({id(r) for _, r in found}) == 1
            shared += len({name for name, _ in found}) > 1
        assert shared > 0

    def test_raising_input_stores_nothing(self):
        bad = np.array([[0, 1], [1, 1]])
        outcomes = []
        for _ in range(2):
            with pytest.raises(SchemeError) as info:
                canonical_scheme(bad)
            outcomes.append((type(info.value), str(info.value)))
            assert bad.astype(np.int64).tobytes() not in core._interned
            assert canonical_recolor(bad).tobytes() not in core._interned
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] is NotAPartitionOfDiagonal

    def test_nothing_is_pinned(self, in_tree_env):
        proc = subprocess.run([sys.executable, "-c", PIN_PROBE], env=in_tree_env(),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        alive, total, entries = map(int, proc.stdout.split())
        assert total > 100
        assert (alive, entries) == (0, 0)

    def test_restrictions_and_quotients_equal_fresh_builds(self, corpus):
        for member in corpus:
            s = member.scheme
            for block in blocks(s):
                sub = s.matrix[np.ix_(block, block)]
                assert scheme_fields(restriction(s, block)) == scheme_outcome(
                    uninterned_canonical_scheme, sub)
            if s.is_homogeneous and s.r <= RANK_CAP:
                for e in all_equivalences(s):
                    assert scheme_fields(quotient(s, e)) == scheme_outcome(
                        uninterned_canonical_scheme, quotient_matrix(s, e.classes))


class TestFloatInput:
    @pytest.mark.parametrize("convert", [canonical_recolor, canonical_scheme,
                                         ccm_text, validate])
    @pytest.mark.parametrize("matrix,message", [
        *[pytest.param(np.array([[0, bad], [bad, 0]]), "expected integer entries", id=str(bad))
          for bad in (1.5, np.inf, -np.inf, np.nan, 1e19)],
        pytest.param(np.zeros((0, 0)), "expected at least one point", id="empty"),
    ])
    def test_rejects_non_integer_entries(self, convert, matrix, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SchemeError, match=message):
                convert(matrix)

    def test_integral_floats_match_integers(self):
        ints = two_fiber_scheme().matrix * 3 + 1
        floats = ints.astype(np.float64)
        assert np.array_equal(canonical_recolor(floats), canonical_recolor(ints))
        want = raised(ccm_text, ints)  # ids 1, 4, ...: a gap that is not written
        assert want is not None and raised(ccm_text, floats) == want
        canonical = canonical_recolor(ints)
        assert ccm_text(canonical.astype(np.float64)) == ccm_text(canonical)
        assert same_matrix(validate(canonical.astype(np.float64)), validate(canonical))


class TestSchemeFromColors:
    def test_round_trip(self):
        s = thin_scheme(cyclic_table(3))
        rebuilt = scheme_from_colors(3, [s.cell_array(c).tolist() for c in range(s.r)])
        assert same_matrix(rebuilt, s)

    def test_missing_cell(self):
        with pytest.raises(SchemeError):
            scheme_from_colors(2, [[(0, 0), (1, 1)], [(0, 1)]])

    def test_negative_coordinate_does_not_wrap(self):
        with pytest.raises(SchemeError, match=r"cell \(-1, 0\) of color 1 .* 0\.\.1"):
            scheme_from_colors(2, [[(0, 0), (1, 1)], [(0, 1), (-1, 0)]])

    def test_coordinate_of_n(self):
        with pytest.raises(SchemeError, match=r"cell \(1, 2\) of color 1 .* 0\.\.1"):
            scheme_from_colors(2, [[(0, 0), (1, 1)], [(0, 1), (1, 2)]])

    @pytest.mark.parametrize("n", [-1, 0, 2.0])
    def test_n_not_a_positive_integer(self, n):
        with pytest.raises(SchemeError, match=f"got {n!r}$"):
            scheme_from_colors(n, [])

    def test_cell_under_two_colors(self):
        with pytest.raises(SchemeError, match=r"cell \(0,1\) .* colors 0 and 1$"):
            scheme_from_colors(2, [[(0, 0), (1, 1), (0, 1)], [(0, 1), (1, 0)]])


def private_writes(source: str) -> list[int]:
    """Lines that assign, augment, delete or setattr an underscore
    attribute of an object other than ``self``, or call a method on one,
    directly or through a subscript or attribute chain."""

    def touches_private(node) -> bool:
        private = False
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            if isinstance(node, ast.Attribute):
                private |= node.attr.startswith("_") and not node.attr.endswith("__")
            node = node.value
        return private and not (isinstance(node, ast.Name) and node.id == "self")

    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call):
            name = node.args[1] if len(node.args) > 1 else None
            if (isinstance(node.func, ast.Name) and node.func.id == "setattr"
                    and isinstance(name, ast.Constant) and str(name.value).startswith("_")):
                lines.append(node.lineno)
            targets = [node.func.value] if isinstance(node.func, ast.Attribute) else []
        else:
            continue
        flat = [e for t in targets for e in (t.elts if isinstance(t, ast.Tuple) else [t])]
        if any(touches_private(t) for t in flat):
            lines.append(node.lineno)
    return lines


def memo_kinds(source: str) -> set[str]:
    """The kind of every ``derived(...)`` key in the source: the key
    itself if it is a string, or a tuple key's leading string."""
    kinds = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "derived":
            key = node.args[0]
            if isinstance(key, ast.Tuple):
                key = key.elts[0]
            assert isinstance(key, ast.Constant) and isinstance(key.value, str), ast.dump(key)
            kinds.add(key.value)
    return kinds


class TestSchemeOwnsDerivedData:
    def test_memo_kinds(self):
        """Every memo layer in ``src/asck``; a new one is named here and
        in the README's memo paragraph."""
        assert memo_kinds("s.derived(('a', k), f)\nt.derived('b', g)\nu.other('c')") == {
            "a", "b"}
        src = Path(__file__).resolve().parents[1] / "src" / "asck"
        kinds = set().union(*(memo_kinds(path.read_text()) for path in src.glob("*.py")))
        assert kinds == {"hash", "closure-rows", "equivalences", "equivalence",
                         "basis-periods", "p-scheme", "size-factorization",
                         "block-restrictions", "quotient", "restriction"}

    def test_detector_flags_foreign_writes(self):
        flagged = ["scheme._quotients[e.classes] = result", "scheme._equivalences = eqs",
                   "s._hash += 'x'", "del s._derived['hash']", "a, s._n = 1, 2",
                   "setattr(scheme, '_hash', h)", "scheme._derived.setdefault(k, v)"]
        allowed = ["self._lock = lock", "self._seen[k] = 1", "scheme.derived(k, f)",
                   "x.y = 1", "s.__dict__['k'] = 1"]
        assert [bool(private_writes(line)) for line in flagged] == [True] * len(flagged)
        assert [bool(private_writes(line)) for line in allowed] == [False] * len(allowed)

    def test_only_core_writes_scheme_private_fields(self):
        src = Path(__file__).resolve().parents[1] / "src" / "asck"
        offenders = {path.name: private_writes(path.read_text())
                     for path in sorted(src.glob("*.py")) if path.name != "core.py"}
        assert len(offenders) >= 9
        assert {name: lines for name, lines in offenders.items() if lines} == {}

    def test_one_private_field(self):
        s = thin_scheme(cyclic_table(4))
        assert [f.name for f in dataclasses.fields(s) if f.name.startswith("_")] == ["_derived"]
        # the benchmark's tracer keys a WeakKeyDictionary on schemes and
        # wraps the ``hash`` property
        assert weakref.ref(s)() is s
        assert isinstance(type(s).__dict__["hash"], property)


# The arrays a Scheme holds, all made read-only by the certificate.
SCHEME_ARRAYS = ("matrix", "first_cells", "sizes", "degrees", "transpose_map")


class TestFrozenArrays:
    def test_writes_raise(self, tmp_path):
        """On a ``validate`` result, a ``canonical_scheme`` result and a
        scheme read by the CLI, writing any held array raises."""
        path = tmp_path / "two-fiber.ccm"
        write_ccm(two_fiber_scheme().matrix, path)
        schemes = [validate(z4_direct()), canonical_scheme(wreath(rank_two_scheme(2),
                                                                  rank_two_scheme(3)).matrix),
                   _read_scheme(str(path))]
        for s in schemes:
            for name in SCHEME_ARRAYS:
                arr = getattr(s, name)
                assert not arr.flags.writeable, name
                with pytest.raises(ValueError):
                    arr[(0,) * arr.ndim] = 1

    def test_interned_twin_keeps_its_values(self):
        """Every holder of an interned scheme shares its arrays and its
        memo, so a write by one holder is refused and a later twin reads
        the certified values, which its p-scheme memo answers for."""
        s = thin_scheme(cyclic_table(4))
        with pytest.raises(ValueError):
            s.sizes[1] = 3
        twin = thin_scheme(cyclic_table(4))
        assert twin is s
        assert twin.sizes.tolist() == [4, 4, 4, 4] and twin.degrees.tolist() == [1] * 4
        assert twin.transpose_map.tolist() == [0, 3, 2, 1] and is_p_scheme(twin, 2)


class TestCirculantVerdict:
    def test_equals_shift_test(self, corpus, relabeled_corpus, tmp_path):
        """``Scheme.circulant`` is ``_shift_invariant`` of the matrix on
        every corpus member, its relabeled copy, their ``canonical_scheme``
        results and their CLI reads."""
        schemes = [m.scheme for m in corpus] + relabeled_corpus
        schemes += [canonical_scheme(s.matrix) for s in relabeled_corpus]
        for i, s in enumerate(schemes[::17]):
            path = tmp_path / f"{i}.ccm"
            write_ccm(s.matrix, path)
            schemes.append(_read_scheme(str(path)))
        verdicts = Counter()
        for s in schemes:
            assert type(s.circulant) is bool
            assert s.circulant == _shift_invariant(s.matrix)
            verdicts[s.circulant] += 1
        assert verdicts[True] > 50 and verdicts[False] > 300
