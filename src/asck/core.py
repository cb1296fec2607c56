"""Color matrices and coherent-configuration validation.

A configuration on n points is stored as an n x n integer matrix whose
entry (u, v) is the color of the pair (u, v).  Colors must be exactly
0..r-1.  ``validate`` checks the three axioms (diagonal is a union of
colors, the color classes are transpose-closed, and intermediate-point
counts depend only on colors) and returns a ``Scheme`` handle that
caches the derived data every other module needs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    InconsistentIntersectionNumbers,
    InvalidColor,
    NonContiguousColors,
    NotAPartitionOfDiagonal,
    NotHomogeneous,
    NotTransposeClosed,
    SchemeError,
)


def _integer_matrix(matrix: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
    """Coerce input to a square int64 matrix without changing any value.

    Floats are accepted only when every entry is finite, integral and
    within int64 range; anything else raises SchemeError.
    """
    arr = np.asarray(matrix)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise SchemeError(f"expected a square matrix, got shape {arr.shape}")
    if arr.dtype.kind not in "iu" and not (
            arr.dtype.kind == "f" and np.isfinite(arr).all()
            and (arr == np.floor(arr)).all() and (np.abs(arr) < 2.0 ** 63).all()):
        raise SchemeError(f"expected integer entries, got dtype {arr.dtype}")
    return arr.astype(np.int64)


def as_color_matrix(matrix: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
    """Coerce input to a square int64 matrix with contiguous colors 0..r-1.

    Raises SchemeError for malformed arrays and NonContiguousColors
    (carrying the ascending relabel map) when color ids have gaps.
    """
    arr = _integer_matrix(matrix)
    if arr.shape[0] == 0:
        raise SchemeError("expected at least one point")
    if arr.min() < 0:
        u, v = map(int, np.argwhere(arr < 0)[0])
        raise SchemeError(f"negative color {arr[u, v]} at cell ({u},{v})")
    uniq = np.unique(arr)
    r = int(arr.max()) + 1
    if uniq.size != r:
        remap = {int(old): new for new, old in enumerate(uniq)}
        raise NonContiguousColors(remap)
    return arr


def apply_remap(matrix: Sequence[Sequence[int]] | np.ndarray,
                remap: dict[int, int]) -> np.ndarray:
    """Relabel colors according to ``remap`` (as carried by NonContiguousColors)."""
    arr = np.asarray(matrix, dtype=np.int64)
    lut = np.zeros(int(arr.max()) + 1, dtype=np.int64)
    for old, new in remap.items():
        lut[old] = new
    return lut[arr]


def normalize_colors(matrix: Sequence[Sequence[int]] | np.ndarray
                     ) -> tuple[np.ndarray, dict[int, int]]:
    """Relabel arbitrary color ids to contiguous 0..r-1, ascending.

    Returns the relabeled matrix and the applied old-to-new map.
    """
    arr = _integer_matrix(matrix)
    uniq, inverse = np.unique(arr, return_inverse=True)
    remap = {int(old): new for new, old in enumerate(uniq)}
    return inverse.reshape(arr.shape).astype(np.int64), remap


def _first_cells(matrix: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major first cell (u, v) of every color, as two arrays of length r."""
    n = matrix.shape[0]
    _, first_flat = np.unique(matrix.ravel(), return_index=True)
    return first_flat // n, first_flat % n


def mask_colors(mask: int) -> tuple[int, ...]:
    """The colors whose bits are set in a color bitmask, ascending."""
    colors = []
    while mask:
        low = mask & -mask
        colors.append(low.bit_length() - 1)
        mask ^= low
    return tuple(colors)


def canonical_recolor(matrix: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
    """Rename colors into the canonical order used by every construction here.

    Diagonal colors come first, then off-diagonal ones, each group ordered
    by the row-major position of its first cell.  The result is
    independent of the input labeling; gaps in the input ids are allowed
    and removed.
    """
    arr, _ = normalize_colors(matrix)
    r = int(arr.max()) + 1
    us, vs = _first_cells(arr, r)
    diag_counts = np.bincount(arr.diagonal(), minlength=r)
    rank = sorted(range(r), key=lambda c: (diag_counts[c] == 0, us[c] * arr.shape[0] + vs[c]))
    perm = np.empty(r, dtype=np.int64)
    for new, old in enumerate(rank):
        perm[old] = new
    return perm[arr]


@dataclass(eq=False)
class Scheme:
    """A validated coherent configuration.

    Construct via ``validate``; fields are derived data and must not be
    mutated.  ``matrix`` is the color matrix with its writeable flag off.
    Identity-based equality; compare contents with ``same_matrix``.
    """

    matrix: np.ndarray
    n: int
    r: int
    transpose_map: np.ndarray          # sigma[R] = color of the transposed relation
    diagonal_colors: tuple[int, ...]   # colors whose cells lie on the diagonal
    fibers: tuple[tuple[int, ...], ...]  # point classes of the diagonal colors
    degrees: np.ndarray                # out-degree of each color's basis digraph
    sizes: np.ndarray                  # total cell count of each color
    _composition: dict[tuple[int, int], int] | None = field(default=None, repr=False)
    _hash: str | None = field(default=None, repr=False)
    # memoized derived structures; transparent caches of pure functions
    _equivalences: list | None = field(default=None, repr=False)
    _restrictions: dict = field(default_factory=dict, repr=False)
    _quotients: dict = field(default_factory=dict, repr=False)

    # -- basic queries ---------------------------------------------------

    def check_color(self, color: int) -> int:
        if not 0 <= color < self.r:
            raise InvalidColor(color, self.r)
        return int(color)

    def color_of(self, u: int, v: int) -> int:
        return int(self.matrix[u, v])

    def cells(self, color: int) -> list[tuple[int, int]]:
        """All cells of a color in row-major order."""
        self.check_color(color)
        return [(int(u), int(v)) for u, v in np.argwhere(self.matrix == color)]

    def transpose(self, color: int) -> int:
        return int(self.transpose_map[self.check_color(color)])

    def is_symmetric_color(self, color: int) -> bool:
        return self.transpose(color) == color

    def is_diagonal_color(self, color: int) -> bool:
        return self.check_color(color) in self.diagonal_colors

    def degree(self, color: int) -> int:
        """Constant out-degree of the color within its source fiber."""
        return int(self.degrees[self.check_color(color)])

    def relation_size(self, color: int) -> int:
        """Total number of cells of the color.

        For a homogeneous scheme this equals degree * n.
        """
        return int(self.sizes[self.check_color(color)])

    @property
    def is_homogeneous(self) -> bool:
        return len(self.fibers) == 1

    def require_homogeneous(self) -> None:
        if not self.is_homogeneous:
            raise NotHomogeneous(len(self.fibers))

    def fiber_of(self, u: int) -> int:
        """Index into ``fibers`` of the fiber containing point u."""
        d = int(self.matrix[u, u])
        return self.diagonal_colors.index(d)

    # -- intersection numbers --------------------------------------------

    def intersection_number(self, through: int, left: int, right: int) -> int:
        """Count points v with (u,v) of color ``left`` and (v,w) of color
        ``right``, for any (hence every) cell (u,w) of color ``through``.

        Argument order matches the tensor index order [through, left, right].
        Counts over one cell in O(n) time and memory; ``tensor_slice``
        would allocate r^2 entries for one number.
        """
        left = self.check_color(left)
        right = self.check_color(right)
        through = self.check_color(through)
        u, w = self._first_cell(through)
        return int(np.count_nonzero(
            (self.matrix[u, :] == left) & (self.matrix[:, w] == right)))

    def tensor_slice(self, through: int) -> np.ndarray:
        """The (r, r) matrix of intersection numbers seen from one color."""
        through = self.check_color(through)
        u, w = self._first_cell(through)
        codes = self.matrix[u, :] * self.r + self.matrix[:, w]
        return np.bincount(codes, minlength=self.r * self.r).reshape(self.r, self.r)

    def tensor(self) -> np.ndarray:
        """Full (r, r, r) intersection tensor, indexed [through, left, right].

        Stacked from ``tensor_slice`` on every call, so it costs r^3
        memory each time; prefer ``tensor_slice`` or
        ``intersection_number``.  Composition queries never build it:
        they read ``composition_table``.
        """
        return np.stack([self.tensor_slice(c) for c in range(self.r)])

    def composition_table(self) -> dict[tuple[int, int], int]:
        """Sparse composition table, built once and cached at any rank.

        ``table[(a, b)]`` is the bitmask (bit c set) of the colors c with
        p^c_ab > 0; pairs with no a-then-b two-step are absent.  Each
        color contributes the distinct codes color(u,v) * r + color(v,w)
        over v for its first cell (u, w), so at most r * n triples are
        read and the (r, r, r) tensor is never formed.  The returned
        dict is shared and must not be mutated.
        """
        if self._composition is None:
            r, n = self.r, self.n
            us, ws = _first_cells(self.matrix, r)
            table: dict[tuple[int, int], int] = {}
            # chunks of at most n colors keep the code array at n x n
            for lo in range(0, r, n):
                through = np.arange(lo, min(lo + n, r))
                codes = np.sort(self.matrix[us[through], :] * r
                                + self.matrix[:, ws[through]].T, axis=1)
                fresh = np.ones(codes.shape, dtype=bool)
                fresh[:, 1:] = codes[:, 1:] != codes[:, :-1]
                rows, cols = np.nonzero(fresh)
                for c, code in zip(through[rows].tolist(), codes[rows, cols].tolist()):
                    pair = divmod(code, r)
                    table[pair] = table.get(pair, 0) | (1 << c)
            self._composition = table
        return self._composition

    def composition_colors(self, left: int, right: int) -> tuple[int, ...]:
        """Colors carrying at least one left-then-right two-step, ascending.

        Read from ``composition_table`` at every rank.
        """
        left = self.check_color(left)
        right = self.check_color(right)
        return mask_colors(self.composition_table().get((left, right), 0))

    def _first_cell(self, color: int) -> tuple[int, int]:
        flat = int(np.argmax(self.matrix.ravel() == color))
        return flat // self.n, flat % self.n

    # -- identity ---------------------------------------------------------

    @property
    def hash(self) -> str:
        """sha256 over the dimensions and the row-major color sequence.

        Computed once and kept in ``_hash``.
        """
        if self._hash is None:
            payload = f"{self.n} {self.r} " + " ".join(
                str(int(c)) for c in self.matrix.ravel())
            self._hash = hashlib.sha256(payload.encode("ascii")).hexdigest()
        return self._hash

    def same_matrix(self, other: "Scheme") -> bool:
        return self.n == other.n and bool(np.array_equal(self.matrix, other.matrix))


def _check_diagonal(matrix: np.ndarray, r: int) -> tuple[int, ...]:
    n = matrix.shape[0]
    diag = matrix.diagonal()
    total = np.bincount(matrix.ravel(), minlength=r)
    on_diag = np.bincount(diag, minlength=r)
    mixed = np.nonzero((on_diag > 0) & (on_diag < total))[0]
    if mixed.size:
        color = int(mixed[0])
        du = int(np.argmax(diag == color))
        off = np.argwhere((matrix == color)
                          & ~np.eye(n, dtype=bool))[0]
        raise NotAPartitionOfDiagonal(color, (du, du), (int(off[0]), int(off[1])))
    return tuple(int(c) for c in np.nonzero(on_diag)[0])


def _check_transpose(matrix: np.ndarray, r: int) -> np.ndarray:
    n = matrix.shape[0]
    us, vs = _first_cells(matrix, r)
    sigma = matrix[vs, us]
    mismatch = sigma[matrix] != matrix.T
    if mismatch.any():
        u, v = map(int, np.argwhere(mismatch)[0])
        color = int(matrix[u, v])
        raise NotTransposeClosed((u, v), color,
                                 int(sigma[color]), int(matrix[v, u]))
    return sigma.astype(np.int64)


def _check_intersection_numbers(matrix: np.ndarray, r: int) -> None:
    """Verify that intermediate-point counts depend only on the cell's color.

    For each cell (u, w) the sorted multiset of codes
    color(u,v) * r + color(v,w) over all v must agree across cells of one
    color; agreement of these multisets is equivalent to constancy of
    every pairwise count.
    """
    n = matrix.shape[0]
    reference: dict[int, tuple[tuple[int, int], np.ndarray]] = {}
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


def _raise_count_mismatch(matrix: np.ndarray, r: int, color: int,
                          cell_a: tuple[int, int], cell_b: tuple[int, int]) -> None:
    def counts(cell: tuple[int, int]) -> np.ndarray:
        u, w = cell
        codes = matrix[u, :] * r + matrix[:, w]
        return np.bincount(codes, minlength=r * r)

    ca, cb = counts(cell_a), counts(cell_b)
    code = int(np.argmax(ca != cb))
    raise InconsistentIntersectionNumbers(
        color, (code // r, code % r),
        cell_a, int(ca[code]), cell_b, int(cb[code]))


def validate(matrix: Sequence[Sequence[int]] | np.ndarray) -> Scheme:
    """Check the configuration axioms and return a Scheme.

    Raises NotAPartitionOfDiagonal, NotTransposeClosed, or
    InconsistentIntersectionNumbers with a concrete witness when the
    matrix fails an axiom; NonContiguousColors when ids have gaps.
    """
    arr = as_color_matrix(matrix)
    n = arr.shape[0]
    r = int(arr.max()) + 1

    diagonal_colors = _check_diagonal(arr, r)
    sigma = _check_transpose(arr, r)
    _check_intersection_numbers(arr, r)

    diag = arr.diagonal()
    fibers = tuple(
        tuple(int(u) for u in np.nonzero(diag == d)[0]) for d in diagonal_colors)

    us, _ = _first_cells(arr, r)
    degrees = np.array(
        [int(np.count_nonzero(arr[us[c]] == c)) for c in range(r)], dtype=np.int64)
    sizes = np.bincount(arr.ravel(), minlength=r).astype(np.int64)

    arr = arr.copy()
    arr.setflags(write=False)
    return Scheme(matrix=arr, n=n, r=r, transpose_map=sigma,
                  diagonal_colors=diagonal_colors, fibers=fibers,
                  degrees=degrees, sizes=sizes)


def scheme_from_colors(n: int, cells_by_color: Iterable[Iterable[tuple[int, int]]]) -> Scheme:
    """Build and validate a scheme from explicit cell lists, one per color."""
    arr = np.full((n, n), -1, dtype=np.int64)
    for color, cells in enumerate(cells_by_color):
        for u, v in cells:
            arr[u, v] = color
    if (arr < 0).any():
        u, v = map(int, np.argwhere(arr < 0)[0])
        raise SchemeError(f"cell ({u},{v}) not covered by any color")
    return validate(arr)
