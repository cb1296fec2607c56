"""Color matrices and coherent-configuration validation.

A configuration on n points is stored as an n x n integer matrix whose
entry (u, v) is the color of the pair (u, v).  Colors must be exactly
0..r-1.  ``validate`` checks the three axioms (diagonal is a union of
colors, the color classes are transpose-closed, and intermediate-point
counts depend only on colors) and returns a ``Scheme`` handle that
caches the derived data every other module needs.  Certification
stably sorts by color the flat row-major positions u * n + v of the
cells that the intersection-number check walks, one color order of 8
bytes per cell, and reads the first cells off that sort.  The check
walks only colors with at least two cells, about 2^16 codes at a time
in O(n^2) memory, so a discrete configuration costs no walk; its codes
are int16 up to rank 181 and int32 up to rank 46,340.  A failing walk's
witness is read off the two cells' sorted code rows.  ``validate`` of a
general n = 512 input peaks at about 30-36 bytes per cell under
tracemalloc, its input copy included.  The cells are all n^2, or
the n cells of row 0 when the label shift u -> u + 1 (mod n) is an
automorphism of the coloring, as for a thin scheme of Z_n or the
closure of a circulant digraph: every cell is then the image of a
row-0 cell of its color, so the verdict and witness are those of the
full walk.  The Scheme keeps that verdict as ``circulant``.  The
closure rounds (``constructions._hashed_fixpoint``) and the checks'
digraph side (``digraph.basis_periods``, through ``Scheme.circulant``)
read row 0 of such a coloring too.  A Scheme keeps no per-cell index.
``canonical_scheme`` does the same walk after renaming the colors into
canonical order, and interns its result by content: equal inputs return
one shared Scheme, certified once, whose ``derived`` memo every holder
shares.
``validate`` never interns; each call certifies and returns a new Scheme.
Fibers, lattice classes, weak components and cyclic partitions are all
made by ``_groups``, which groups the points by a label vector.
The decimal text of int64 arrays, for ``.ccm`` bodies, ``Scheme.hash``
and the CLI's lists, comes from one byte encoder, ``_decimal_text``: a
digit table per distinct value, gathered and written as ASCII bytes
with no Python string per entry.
"""

from __future__ import annotations

import hashlib
import operator
import weakref
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Sequence, TypeVar

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

T = TypeVar("T")

# The most points of any n x n input: a .ccm header, a group table
# (cyclic, dihedral or a direct product), a rank-2 scheme, a scheme from
# cell lists, a wreath product and a digraph for the closure.  Each entry
# checks it before making any n x n array, so oversized input fails with
# SchemeError (exit 2 on the CLI) and never with an allocation failure.
# At n = 1,024 the closure of a circulant 1,024-cycle (rank 513) takes
# 0.26-0.36 s with a 73 MiB tracemalloc peak, and that of a discrete
# cycle-plus-chords digraph 1.8-2.4 s with 112 MiB (2 vCPUs, in process);
# n x n int64 arrays at n = 10**5 would take 75 GiB each.
MAX_POINTS = 1024


def require_points(n: int, what: str) -> None:
    """SchemeError naming n and the bound when n exceeds MAX_POINTS."""
    if n > MAX_POINTS:
        raise SchemeError(f"{what} has n={n} points; the bound is n <= {MAX_POINTS}")


def _index(value) -> int | None:
    """``operator.index(value)``: a Python int for an int or a numpy
    integer, and None for anything else, such as 2.0, "3" or None."""
    try:
        return operator.index(value)
    except TypeError:
        return None


def _integral(arr: np.ndarray) -> bool:
    """Whether int64 holds every entry unchanged: an integer dtype, or
    floats that are all finite, integral and within int64 range."""
    return arr.dtype.kind in "iu" or arr.dtype.kind == "f" and bool(
        np.isfinite(arr).all() and (arr == np.floor(arr)).all() and (np.abs(arr) < 2.0 ** 63).all())


def _integer_matrix(matrix: Sequence[Sequence[int]] | np.ndarray,
                    copy: bool = False) -> np.ndarray:
    """Coerce input to a nonempty square int64 matrix without changing
    any value.

    Floats are accepted only when every entry is finite, integral and
    within int64 range; anything else raises SchemeError.  An int64
    ndarray comes back as itself unless ``copy`` is set, so a caller
    that keeps or freezes the result asks for a copy.
    """
    try:
        arr = np.asarray(matrix)
    except ValueError:
        raise SchemeError("expected a square matrix, got a ragged sequence") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise SchemeError(f"expected a square matrix, got shape {arr.shape}")
    if not _integral(arr):
        raise SchemeError(f"expected integer entries, got dtype {arr.dtype}")
    if arr.shape[0] == 0:
        raise SchemeError("expected at least one point")
    return arr.astype(np.int64, copy=copy)


def _digit_table(top: int) -> np.ndarray:
    """Row v, for v = 0..top: the ASCII digits of v right-aligned in
    len(str(top)) columns, its leading zeros NUL, then one NUL column.

    Column j holds digit (v // run) % 10, with run = 10^k for the k
    places to its right: the digits 0..9 in turn, each for run rows.
    The table is made with its rows rounded up to a whole number of
    runs of the first column, so each column is one broadcast write of
    its digits through a (runs, run, width + 1) view of the table; its
    leading zeros are its first run rows, when run > 1.
    """
    width = len(str(top))
    lead = 10 ** (width - 1)
    rows = -(-(top + 1) // lead) * lead
    table = np.zeros((rows, width + 1), dtype=np.uint8)
    digits = np.arange(48, 58, dtype=np.uint8)
    for j in range(width):
        run = 10 ** (width - 1 - j)
        runs = rows // run
        cycle = np.tile(digits, -(-runs // 10))[:runs]
        table.reshape(runs, run, width + 1)[:, :, j] = cycle[:, None]
        if run > 1:
            table[:run, j] = 0
    return table[:top + 1]


def _decimal_text(arr: np.ndarray, sep: str, end: str) -> bytes:
    """The ASCII decimal text of a 2-D int64 array: each entry followed
    by ``sep``, except the last of each row, which ``end`` follows.

    A table holds the digits of each distinct value, NUL-padded to one
    width, with a spare column.  Entries in 0..size-1, which every color
    matrix has, index the digits of 0..max, made by ``_digit_table``
    without one ``str`` per value; any other array indexes the ``str``
    of its ``np.unique`` values, so no table outgrows the array.  One
    ``np.take`` of table rows gives every entry its digits, the spare
    column takes the separators, and the NULs are dropped.
    """
    top = int(arr.max())
    if arr.min() >= 0 and top < arr.size:
        table, index = _digit_table(top), arr
    else:
        values, inverse = np.unique(arr, return_inverse=True)
        words = np.array([str(v) for v in values.tolist()], dtype=bytes)
        table = np.zeros((values.size, words.itemsize + 1), dtype=np.uint8)
        table[:, :-1] = words.view(np.uint8).reshape(values.size, -1)
        index = inverse.reshape(arr.shape)
    text = np.take(table, index, axis=0)
    text[:, :, -1] = ord(sep)
    text[:, -1, -1] = ord(end)
    return text.tobytes().translate(None, b"\0")


def as_color_matrix(matrix: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
    """Coerce input to a new square int64 matrix with contiguous colors
    0..r-1.

    Raises SchemeError for malformed arrays and NonContiguousColors
    (carrying the ascending relabel map) when color ids have gaps; the
    color test is ``_color_ids``.
    """
    return _color_ids(_integer_matrix(matrix, copy=True))


def _color_ids(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself, an int64 matrix from ``_integer_matrix``, once its
    ids are checked to be the contiguous colors 0..r-1.

    Raises SchemeError naming a negative id's cell, and NonContiguousColors
    (carrying the ascending relabel map) when the ids have gaps.  The gap
    test is one ``np.bincount`` over the ids; ``np.unique`` runs only to
    build the relabel map.  Ids above n^2 - 1 leave a gap among at most
    n^2 colors, so they take that path before any count is allocated for
    them.
    """
    if arr.min() < 0:
        u, v = map(int, np.argwhere(arr < 0)[0])
        raise SchemeError(f"negative color {arr[u, v]} at cell ({u},{v})")
    if int(arr.max()) >= arr.size or not np.bincount(arr.ravel()).all():
        uniq = np.unique(arr)
        raise NonContiguousColors({int(old): new for new, old in enumerate(uniq)})
    return arr


def _canonical(arr: np.ndarray) -> np.ndarray:
    """The canonically recolored matrix, for an int64 matrix from
    ``_integer_matrix``.

    One ``np.unique`` over the entries gives the color ids, the first
    row-major cell of each and the relabel.  Colors with a diagonal cell
    come first, then the others, each group ordered by first cell: a
    single argsort of first_flat + off_diagonal * n^2, whose keys are
    distinct.
    """
    n = arr.shape[0]
    _, first_flat, inverse = np.unique(arr.ravel(), return_index=True, return_inverse=True)
    inverse = inverse.reshape(n, n)
    off_diagonal = np.ones(first_flat.size, dtype=np.int64)
    off_diagonal[inverse.diagonal()] = 0
    order = np.argsort(first_flat + off_diagonal * (n * n))
    perm = np.empty_like(order)
    perm[order] = np.arange(order.size)
    return perm[inverse]


def canonical_recolor(matrix: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
    """Rename colors into the canonical order used by every construction here.

    Diagonal colors come first, then off-diagonal ones, each group ordered
    by the row-major position of its first cell.  The result is
    independent of the input labeling; gaps in the input ids are allowed
    and removed.  This is the matrix half of ``canonical_scheme``.
    """
    return _canonical(_integer_matrix(matrix))


@dataclass(eq=False)
class Scheme:
    """A validated coherent configuration.

    Construct via ``validate`` or ``canonical_scheme``; fields are derived
    data and must not be mutated.  ``matrix`` and the per-color vectors
    have their writeable flags off.  ``circulant`` is the certificate's
    ``_shift_invariant`` verdict on the matrix, which chose its row-0
    walk and which ``digraph.basis_periods`` reads.  Identity-based
    equality; compare contents by their matrices.  ``validate`` returns a new Scheme on every call,
    while ``canonical_scheme`` returns one shared Scheme for equal inputs,
    so its ``derived`` memo is shared by every holder of the object.
    """

    matrix: np.ndarray
    n: int
    r: int
    transpose_map: np.ndarray          # sigma[R] = color of the transposed relation
    diagonal_colors: tuple[int, ...]   # colors whose cells lie on the diagonal
    fibers: tuple[tuple[int, ...], ...]  # point classes of the diagonal colors
    degrees: np.ndarray                # out-degree of each color's basis digraph
    sizes: np.ndarray                  # total cell count of each color
    first_cells: np.ndarray            # (r, 2): row-major first cell (u, v) of each color
    circulant: bool                    # the label shift u -> u + 1 (mod n) is an automorphism
    _derived: dict = field(default_factory=dict, repr=False)

    def derived(self, key: Hashable, build: Callable[[], T]) -> T:
        """The scheme's one memo: ``build()``, a pure function of the scheme
        and ``key``, runs on the first call for ``key`` (storing nothing if
        it raises); later calls share its value, which must not be mutated."""
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

    # -- basic queries ---------------------------------------------------

    def check_color(self, color: int) -> int:
        """The color as a Python int; InvalidColor unless it is an int or
        a numpy integer in 0..r-1."""
        index = _index(color)
        if index is None or not 0 <= index < self.r:
            raise InvalidColor(color, self.r)
        return index

    def cell_array(self, color: int) -> np.ndarray:
        """The (k, 2) array of a color's cells in row-major order,
        ``np.argwhere(matrix == color)``, read-only; a scan of the
        matrix, O(n^2) per call."""
        cells = np.argwhere(self.matrix == self.check_color(color))
        cells.setflags(write=False)
        return cells

    def transpose(self, color: int) -> int:
        return int(self.transpose_map[self.check_color(color)])

    def is_diagonal_color(self, color: int) -> bool:
        return self.check_color(color) in self.diagonal_colors

    def degree(self, color: int) -> int:
        """Constant out-degree of the color within its source fiber."""
        return int(self.degrees[self.check_color(color)])

    @property
    def is_homogeneous(self) -> bool:
        return len(self.fibers) == 1

    def require_homogeneous(self) -> None:
        if not self.is_homogeneous:
            raise NotHomogeneous(len(self.fibers))

    # -- intersection numbers --------------------------------------------

    def intersection_number(self, through: int, left: int, right: int) -> int:
        """Count points v with (u,v) of color ``left`` and (v,w) of color
        ``right``, for any (hence every) cell (u,w) of color ``through``.

        Argument order matches the tensor index order [through, left, right].
        Counts over one cell in O(n) time and memory.
        """
        left = self.check_color(left)
        right = self.check_color(right)
        u, w = self.first_cells[self.check_color(through)]
        return int(np.count_nonzero(
            (self.matrix[u, :] == left) & (self.matrix[:, w] == right)))

    def tensor(self) -> np.ndarray:
        """Full (r, r, r) intersection tensor, indexed [through, left, right].

        One ``np.bincount`` of the codes (c, color(u,v), color(v,w)) over
        every point v, with (u, w) the first cell of each color c, so it
        costs r^3 memory on every call; prefer ``intersection_number``.
        Composition queries never build it: ``composition_colors`` and
        the lattice's closure rows count on each color's first cell.
        """
        r = self.r
        us, ws = self.first_cells.T
        codes = (np.arange(r)[:, None] * r + self.matrix[us, :]) * r + self.matrix[:, ws].T
        return np.bincount(codes.ravel(), minlength=r ** 3).reshape(r, r, r)

    def composition_colors(self, left: int, right: int) -> tuple[int, ...]:
        """Colors carrying at least one left-then-right two-step, ascending.

        One ``intersection_number`` per color, in O(r * n) time and O(n)
        memory.
        """
        return tuple(c for c in range(self.r) if self.intersection_number(c, left, right))

    # -- identity ---------------------------------------------------------

    @property
    def hash(self) -> str:
        """sha256 over the dimensions and the row-major color sequence:
        the ASCII text "n r c0 c1 ...", single spaces, no trailing one.

        The colors' bytes come from ``_decimal_text`` with every
        separator a space, less the last; no ``str`` is made per color.
        Computed once and kept in the ``derived`` memo.
        """
        def build() -> str:
            digest = hashlib.sha256(f"{self.n} {self.r} ".encode("ascii"))
            digest.update(memoryview(_decimal_text(self.matrix, " ", " "))[:-1])
            return digest.hexdigest()

        return self.derived("hash", build)


def _check_diagonal(matrix: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Each color's count of diagonal cells, once every color is checked
    to lie wholly on or wholly off the diagonal."""
    n = matrix.shape[0]
    diag = matrix.diagonal()
    on_diag = np.bincount(diag, minlength=sizes.size)
    mixed = np.nonzero((on_diag > 0) & (on_diag < sizes))[0]
    if mixed.size:
        color = int(mixed[0])
        du = int(np.argmax(diag == color))
        off = np.argwhere((matrix == color)
                          & ~np.eye(n, dtype=bool))[0]
        raise NotAPartitionOfDiagonal(color, (du, du), (int(off[0]), int(off[1])))
    return on_diag


def _check_transpose(matrix: np.ndarray, first: np.ndarray) -> np.ndarray:
    us, vs = first.T
    sigma = matrix[vs, us]
    mismatch = sigma[matrix] != matrix.T
    if mismatch.any():
        u, v = map(int, np.argwhere(mismatch)[0])
        color = int(matrix[u, v])
        raise NotTransposeClosed((u, v), color,
                                 int(sigma[color]), int(matrix[v, u]))
    return sigma.astype(np.int64)


def _shift_invariant(matrix: np.ndarray) -> bool:
    """Whether the label shift u -> u + 1 (mod n) is an automorphism of
    the coloring: ``matrix[(u+1) % n, (v+1) % n] == matrix[u, v]`` for
    every cell.

    Two comparisons, in O(n^2) with no copy of the matrix: the block
    ``m[1:, 1:]`` against ``m[:-1, :-1]`` and the wrap column.  They
    make every row equal to row 0 shifted, so color(u, v) =
    row0[(v - u) % n], and the cells of row n - 1 then hold as well.
    Such a coloring is circulant; a thin scheme of Z_n and every
    coherent closure of a circulant digraph are such.
    """
    return bool(np.array_equal(matrix[1:, 1:], matrix[:-1, :-1])
                and np.array_equal(matrix[1:, 0], matrix[:-1, -1]))


# The intersection-number walk fills about this many codes per chunk.
_WALK_CODES = 2 ** 16


def _check_intersection_numbers(matrix: np.ndarray, r: int,
                                order: np.ndarray, offsets: np.ndarray) -> None:
    """Verify that intermediate-point counts depend only on the cell's
    color, over the cells given in color runs by their flat row-major
    positions u * n + w: ascending within a run, color c's run at
    ``offsets[c]``.  ``_certify`` gives every cell, or row 0's when that
    is exact.

    For each cell (u, w) the sorted multiset of codes color(u,v) * r +
    color(v,w) over all v must agree across cells of one color; agreement
    of these multisets is equivalent to constancy of every pairwise
    count.  The codes are below r^2, so they are int16 whenever r^2 <=
    2^15 (r <= 181), int32 whenever r^2 <= 2^31 and int64 otherwise.
    Only the runs of at least two cells are walked, their positions
    gathered into one index of 8 bytes per walked cell and split into
    (u, w) a chunk at a time: max(1, 2^16 // n) cells (about 2^16 codes)
    through refilled buffers of that many rows, or fewer when the walk is
    shorter (the last chunk may be short).  Each cell is compared with
    the previous cell of its run.  A run's first cell, and so every cell
    of a single-cell run, has no previous cell and is never flagged.
    Equal neighbours chain back to the run's first cell, so each run's
    first flagged cell is its first mismatch, and the least flagged
    position is the witness, reported against its run's first cell.
    """
    n = matrix.shape[0]
    sizes = np.diff(offsets)
    shared = sizes > 1
    walk = order[np.repeat(shared, sizes)]
    flagged = np.ones(len(walk), dtype=bool)
    flagged[np.cumsum(sizes[shared]) - sizes[shared]] = False  # first cells
    dtype = np.int16 if r * r <= 2 ** 15 else np.int32 if r * r <= 2 ** 31 else np.int64
    chunk = max(1, min(len(walk), _WALK_CODES // n))
    left = matrix.astype(dtype, copy=False)
    columns = np.ascontiguousarray(left.T)
    codes = np.empty((chunk + 1, n), dtype=dtype)  # row 0: the previous chunk's last row
    right = np.empty((chunk, n), dtype=dtype)
    differs = np.empty((chunk, n), dtype=bool)
    for lo in range(0, len(walk), chunk):
        us, ws = np.divmod(walk[lo:lo + chunk], n)
        k = us.size
        rows = codes[1:k + 1]
        # mode="clip" lets take write straight into out; the indices are valid
        np.take(left, us, axis=0, out=rows, mode="clip")
        np.take(columns, ws, axis=0, out=right[:k], mode="clip")
        rows *= r
        rows += right[:k]
        rows.sort(axis=1)
        np.not_equal(rows, codes[:k], out=differs[:k])
        flagged[lo:lo + k] &= differs[:k].any(axis=1)
        codes[0] = codes[k]
    if flagged.any():
        cell = divmod(int(walk[flagged].min()), n)
        color = int(matrix[cell])
        _raise_count_mismatch(matrix, r, color, divmod(int(order[offsets[color]]), n), cell)


def _raise_count_mismatch(matrix: np.ndarray, r: int, color: int,
                          cell_a: tuple[int, int], cell_b: tuple[int, int]) -> None:
    """Raise for the least code whose count differs between two cells
    whose code multisets differ, in O(n log n) at any rank.

    With both code rows sorted and i their first differing index, that
    code is min(a[i], b[i]): every smaller code lies wholly in the equal
    prefix of both rows, and if a[i] < b[i], b holds no further a[i].
    """
    a, b = (np.sort(matrix[u, :] * r + matrix[:, w]) for u, w in (cell_a, cell_b))
    i = int(np.argmax(a != b))
    code = int(min(a[i], b[i]))
    raise InconsistentIntersectionNumbers(
        color, divmod(code, r),
        cell_a, int(np.count_nonzero(a == code)), cell_b, int(np.count_nonzero(b == code)))


def validate(matrix: Sequence[Sequence[int]] | np.ndarray) -> Scheme:
    """Check the configuration axioms and return a Scheme.

    Raises NotAPartitionOfDiagonal, NotTransposeClosed, or
    InconsistentIntersectionNumbers with a concrete witness when the
    matrix fails an axiom; NonContiguousColors when ids have gaps.
    """
    return _certify(as_color_matrix(matrix))


# Certified schemes by the int64 bytes of a ``canonical_scheme`` input
# (the length fixes n).  Weak values pin nothing: an entry lives exactly
# as long as its Scheme, so the table needs no size bound.
_interned: weakref.WeakValueDictionary[bytes, Scheme] = weakref.WeakValueDictionary()


def canonical_scheme(matrix: Sequence[Sequence[int]] | np.ndarray) -> Scheme:
    """The Scheme of the canonically recolored matrix; the ending of every
    construction.

    Equal to ``validate(canonical_recolor(matrix))``, errors and witnesses
    included, without ``validate``'s second pass over the recolored ids.

    Interned by content, matched by full byte equality: while a result is
    alive, every input with the same int64 bytes gets that same object,
    and with it its ``derived`` memo.  The result is also filed under its
    own matrix, the input whose recoloring is itself, so inputs that
    recolor to equal matrices are certified once.  An input that is its
    own recoloring is filed once: a second entry under equal bytes would
    keep a second copy of them alive.  A raising input stores nothing.
    """
    arr = _integer_matrix(matrix)
    key = arr.tobytes()
    scheme = _interned.get(key)
    if scheme is None:
        recolored = _canonical(arr)
        canonical_key = recolored.tobytes()
        scheme = _interned.get(canonical_key)
        if scheme is None:
            scheme = _interned[canonical_key] = _certify(recolored)
        if key != canonical_key:
            _interned[key] = scheme
    return scheme


def _groups(labels: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The points 0..n-1 grouped by their labels, each group ascending
    and the groups in ascending label order: one dict pass, then a sort
    of the distinct labels."""
    groups: dict[int, list[int]] = {}
    for point, label in enumerate(labels.tolist()):
        groups.setdefault(label, []).append(point)
    return tuple(tuple(groups[label]) for label in sorted(groups))


def _certify(arr: np.ndarray) -> Scheme:
    """Check the axioms on a matrix with colors 0..r-1 and wrap it; ``arr``
    must be a fresh array, which the Scheme takes over read-only.

    One stable argsort by color gives the flat row-major positions
    (``order``, 8 bytes per cell) from which the first cells are split
    and over which the walk runs its color runs, over all n^2 cells or,
    when the label shift is an automorphism (``_shift_invariant``), the
    n cells of row 0, whose positions are their columns.  That is
    exact: the shift maps (0, w - u) to (u, w) and keeps two-step
    multisets, so every cell has the multiset of a row-0 cell of its
    color, and every color has a cell in row 0.  A color's row-0 cells
    come first in row-major order, its first cell among them; if they all
    agree, every cell of the color agrees, and if not, its first mismatch
    in the full walk lies in row 0, after the same previous cells.  So
    the first cells, verdict and witness are those of the full walk.
    """
    n = arr.shape[0]
    sizes = np.bincount(arr.ravel()).astype(np.int64)
    r = sizes.size
    circulant = _shift_invariant(arr)
    if circulant:
        keys, counts = arr[0], np.bincount(arr[0], minlength=r)
    else:
        keys, counts = arr.ravel(), sizes
    offsets = np.concatenate(([0], np.cumsum(counts)))
    order = np.argsort(keys, kind="stable")
    first = np.stack(np.divmod(order[offsets[:-1]], n), axis=1)

    # a diagonal color's count of diagonal cells is its fiber's size
    fiber_sizes = _check_diagonal(arr, sizes)
    sigma = _check_transpose(arr, first)
    _check_intersection_numbers(arr, r, order, offsets)

    diag = arr.diagonal()
    fibers = _groups(diag)
    diagonal_colors = tuple(np.flatnonzero(fiber_sizes).tolist())

    # with the axioms checked, each color's cells leave every point of its
    # source fiber equally often, so the degree is size / |source fiber|
    degrees = sizes // fiber_sizes[diag[first[:, 0]]]

    for a in (arr, first, sizes, degrees, sigma):
        a.setflags(write=False)
    return Scheme(matrix=arr, n=n, r=r, transpose_map=sigma,
                  diagonal_colors=diagonal_colors, fibers=fibers,
                  degrees=degrees, sizes=sizes, first_cells=first, circulant=circulant)


def scheme_from_colors(n: int, cells_by_color: Iterable[Iterable[tuple[int, int]]]) -> Scheme:
    """Build and validate a scheme from explicit cell lists, one per color.

    SchemeError names n when it is not a positive integer or exceeds
    MAX_POINTS, and names the cell when a coordinate is not an integer in
    0..n-1, when a cell is listed twice or when no color lists it.
    """
    m = _index(n)
    if m is None or m < 1:
        raise SchemeError(f"scheme from colors needs a positive integer n, got {n!r}")
    require_points(m, "scheme from colors")
    n = m
    arr = np.full((n, n), -1, dtype=np.int64)
    for color, cells in enumerate(cells_by_color):
        for cell in cells:
            u, v = (_index(x) for x in cell)
            if u is None or v is None or not (0 <= u < n and 0 <= v < n):
                raise SchemeError(
                    f"cell {tuple(cell)} of color {color} is not a pair of integers in 0..{n - 1}")
            if arr[u, v] >= 0:
                raise SchemeError(
                    f"cell ({u},{v}) is listed twice, under colors {arr[u, v]} and {color}")
            arr[u, v] = color
    if (arr < 0).any():
        u, v = map(int, np.argwhere(arr < 0)[0])
        raise SchemeError(f"cell ({u},{v}) not covered by any color")
    return validate(arr)
