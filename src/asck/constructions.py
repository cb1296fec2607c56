"""Scheme builders: thin schemes from group tables, quotients,
restrictions, wreath products, and the coherent (2-dim WL) closure.

Group tables are verified once, in O(m^2 log m) numpy work with no
per-element loop.  Associativity is Light's test: the elements g with
(xg)y = x(gy) for all x, y are closed under the product, so testing a
generating set, built greedily from the least element outside the
submagma generated so far, decides associativity exactly, whether or
not the table is associative (see ``cayley_table``).

Every construction ends in ``core.canonical_scheme``: the colors are
renamed into canonical order (diagonal colors first, then by first cell)
and the axioms are checked.  The quotient by a scheme equivalence, the
restriction to a block and the wreath product of homogeneous schemes
are again coherent (Zieschang, *Theory of Association Schemes*, 2005),
so on certified input the check cannot fail; its errors, if any, are
raised unchanged.  ``canonical_scheme`` interns by content, so
constructions whose matrices are equal return one shared Scheme,
certified once, and the quotients and restrictions kept in its memo are
shared as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (Scheme, _color_ids, _index, _integer_matrix, _integral, _shift_invariant,
                   canonical_scheme, require_points)
from .digraph import Digraph
from .errors import (
    InvalidGroupTable,
    NotABlock,
    NotASchemeEquivalence,
    SchemeError,
)
from .lattice import Equivalence, closed_set_equivalence


# -- group tables -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CayleyTable:
    """A verified group multiplication table over elements 0..m-1."""

    m: int
    table: np.ndarray
    identity: int


def cayley_table(table: Sequence[Sequence[int]] | np.ndarray) -> CayleyTable:
    """Check that a multiplication table is a group and wrap it.

    O(m^2 log m) time and a few m^2 arrays, with no per-element loop.
    The Latin test sorts each axis once and reports the least g whose
    row or column is not a permutation; the identity is the least e
    whose row and column are both the identity map.

    Associativity is Light's test (Clifford & Preston, *The Algebraic
    Theory of Semigroups*, vol. 1, 1961).  For one g it compares (xg)y
    with x(gy) for all x, y, two m^2 gathers.  The set L of elements that
    pass is closed under the product: for g, h in L, (x(gh))y =
    ((xg)h)y = (xg)(hy) = x(g(hy)) = x((gh)y).  So the table is
    associative exactly when a set S that generates it lies in L.  S is
    built greedily: start from the submagma {identity} (which is in L),
    test the least element outside the submagma generated so far, add it
    and close again under H <- H u H.H.  This is exact for any table,
    associative or not: every element is tested or is a product of tested
    elements.  For a group each new generator at least doubles the
    subgroup, so |S| <= log2(m) + 1.
    """
    try:
        arr = np.asarray(table)
    except ValueError:
        raise InvalidGroupTable(
            "expected a nonempty square table, got a ragged sequence") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise InvalidGroupTable(f"expected a nonempty square table, got {arr.shape}")
    m = arr.shape[0]
    if not _integral(arr) or arr.min() < 0 or arr.max() >= m:
        raise InvalidGroupTable("entries must be element ids 0..m-1")
    arr = arr.astype(np.int64)
    ids = np.arange(m)
    not_latin = ((np.sort(arr, axis=1) != ids).any(axis=1)
                 | (np.sort(arr, axis=0) != ids[:, None]).any(axis=0))
    if not_latin.any():
        raise InvalidGroupTable(
            f"row or column {int(np.argmax(not_latin))} is not a permutation")
    is_identity = (arr == ids).all(axis=1) & (arr == ids[:, None]).all(axis=0)
    if not is_identity.any():
        raise InvalidGroupTable("no identity element")
    identity = int(np.argmax(is_identity))
    generated = np.zeros(m, dtype=bool)
    generated[identity] = True
    while not generated.all():
        g = int(np.argmin(generated))
        if not _light_holds(arr, g):
            raise InvalidGroupTable("multiplication is not associative")
        generated[g] = True
        closed, h = 0, generated.nonzero()[0]
        while closed < len(h) < m:
            closed = len(h)
            generated[arr[h[:, None], h]] = True
            h = generated.nonzero()[0]
    arr.setflags(write=False)
    return CayleyTable(m, arr, identity)


def _light_holds(arr: np.ndarray, g: int) -> bool:
    """Whether (xg)y = x(gy) for all x, y: two m^2 gathers."""
    return np.array_equal(arr[arr[:, g]], arr[:, arr[g]])


def _group_order(value: int, what: str) -> int:
    """A group order as a Python int; ints and numpy integers are
    accepted, anything else raises InvalidGroupTable."""
    m = _index(value)
    if m is None:
        raise InvalidGroupTable(f"{what} must be an integer, got {value!r}")
    if m < 1:
        raise InvalidGroupTable(f"{what} must be positive, got {m}")
    return m


def cyclic_table(m: int) -> CayleyTable:
    """The cyclic group of order m."""
    m = _group_order(m, "order")
    require_points(m, "cyclic group table")
    g = np.arange(m)
    return cayley_table((g[:, None] + g[None, :]) % m)


def direct_product(a: CayleyTable, b: CayleyTable) -> CayleyTable:
    """Direct product; element (g, h) gets id g * b.m + h."""
    require_points(a.m * b.m, "direct product table")
    ga, ha = np.divmod(np.arange(a.m * b.m), b.m)
    prod = a.table[np.ix_(ga, ga)] * b.m + b.table[np.ix_(ha, ha)]
    return cayley_table(prod)


def dihedral_table(k: int) -> CayleyTable:
    """The dihedral group of order 2k; element a*k + i encodes flip^a rot^i.

    (a, i)(b, j) = (a + b mod 2, i + j mod k) when a = 0 and
    (a + b mod 2, i - j mod k) when a = 1.
    """
    k = _group_order(k, "rotation order")
    require_points(2 * k, "dihedral group table")
    a, i = np.divmod(np.arange(2 * k), k)
    rot = (i[:, None] + np.where(a == 0, 1, -1)[:, None] * i[None, :]) % k
    return cayley_table((a[:, None] + a[None, :]) % 2 * k + rot)


# -- basic builders -----------------------------------------------------------


def thin_scheme(table: CayleyTable) -> Scheme:
    """The scheme whose color of (u, v) is the group element inv(u) * v.

    Every color has degree 1 and the colors form a group isomorphic to
    the input, so the result is regular.
    """
    inv = np.argmax(table.table == table.identity, axis=1)
    return canonical_scheme(table.table[inv])


def rank_two_scheme(n: int) -> Scheme:
    """Diagonal plus everything-else; the unique rank-2 scheme on n >= 2 points."""
    m = _index(n)
    if m is None or m < 2:
        raise SchemeError(f"rank-2 scheme needs an integer n of at least 2, got {n!r}")
    require_points(m, "rank-2 scheme")
    n = m
    return canonical_scheme(np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64))


# -- quotient and restriction -------------------------------------------------


def quotient(scheme: Scheme, e: Equivalence) -> Scheme:
    """Scheme on the classes of e; the color of a class pair (X, Y) is
    the set of original colors occurring inside X x Y.

    Those sets are double cosets, so distinct colors induce identical or
    disjoint class-pair relations (see ``_quotient_matrix``), and the
    quotient of a scheme by a scheme equivalence is a scheme.
    """
    return scheme.derived(("quotient", e.classes),
                          lambda: canonical_scheme(_quotient_matrix(scheme, e)))


def _quotient_matrix(scheme: Scheme, e: Equivalence) -> np.ndarray:
    """The (k, k) matrix of class-pair color sets, each named by its
    least color; ``canonical_scheme`` renames them, whatever their ids.

    The least color of a class pair is the first of its ascending run in
    ``_class_pair_runs``.  Exact: let T be the closed set of e.  For
    a class pair X x Y holding a cell (x, y) of color s, every cell
    (x', y') inside it has a color in TsT, through x and y; and every
    color c of TsT has s in TcT, so a path x -> v -> v' -> y of colors
    in T, c, T puts a cell (v, v') of color c inside X x Y.  The colors
    inside X x Y are therefore the double coset TsT, and double cosets
    partition the colors (Zieschang, *Theory of Association Schemes*,
    2005), so two class pairs hold equal color sets exactly when their
    least colors are equal.
    """
    # a color union that is an equivalence is closed
    base = closed_set_equivalence(scheme, frozenset(e.colors))
    if base.classes != e.classes:
        raise NotASchemeEquivalence(
            "classes are not the classes of the color union")
    k = len(e.classes)
    pairs, colors, _ = _class_pair_runs(scheme, e.classes)
    # every class pair holds a cell, so each of the k^2 pairs starts a run
    return colors[np.flatnonzero(np.diff(pairs, prepend=-1))].reshape(k, k)


def _class_pair_runs(scheme: Scheme, classes: tuple[tuple[int, ...], ...]
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (class pair, color) met, with its cell count.

    Each cell (u, v) is labeled (class(u) * k + class(v)) * r + color,
    and one ``np.unique`` of the n^2 labels, in O(n^2) memory whatever k
    and r are, gives the class pair, the color and the count of each
    distinct label, ascending, so each class pair's colors form one run.
    Raises NotASchemeEquivalence when a class is empty, two overlap or
    a point is missing.
    """
    points = [p for cls in classes for p in cls]
    if not all(classes) or sorted(points) != list(range(scheme.n)):
        raise NotASchemeEquivalence("classes do not partition the point set")
    k, r = len(classes), scheme.r
    class_of = np.empty(scheme.n, dtype=np.int64)
    class_of[points] = np.repeat(np.arange(k), [len(cls) for cls in classes])
    labels, counts = np.unique((class_of[:, None] * k + class_of[None, :]) * r
                               + scheme.matrix, return_counts=True)
    pairs, colors = np.divmod(labels, r)
    return pairs, colors, counts


def is_block(scheme: Scheme, points: Sequence[int]) -> bool:
    """Whether the point set is a class of some scheme equivalence or a fiber.

    For a homogeneous scheme this is decided exactly by one row count:
    with T the colors inside B x B, B is a block iff every u in B has
    exactly |B| points v with color(u, v) in T.  If so, N_T(u) = B for
    every u in B, as N_T(u) always contains B.  T then holds the
    diagonal color, and every transpose, as B x B is symmetric.  For a,
    b in T and p^c_ab > 0, homogeneity gives a cell (u, w) of color c
    with u in B; its midpoint v has color(u, v) = a, so v is in B, and
    color(v, w) = b, so w is in B and c is in T.  So T is closed and B =
    N_T(u) is a class of E_T.  Conversely a class of E_T holds exactly
    the colors of T (see ``_class_restriction``), and N_T(u) is u's
    class.  For non-homogeneous schemes only fibers, singletons and the
    full point set are recognized (their equivalence lattices are not
    enumerated here).  A point that is not an int or numpy integer gives
    False.
    """
    pts = _point_list(points)
    if not pts or pts[0] < 0 or pts[-1] >= scheme.n:
        return False
    if len(pts) == scheme.n or len(pts) == 1:
        return True
    if tuple(pts) in scheme.fibers:
        return True
    if not scheme.is_homogeneous:
        return False
    inside = np.zeros(scheme.r, dtype=bool)
    inside[scheme.matrix[np.ix_(pts, pts)]] = True
    # each row of B already counts the |B| points of B
    return np.count_nonzero(inside[scheme.matrix[pts]]) == len(pts) ** 2


def _point_list(points: Sequence[int]) -> list[int] | None:
    """The distinct points, ascending, or None when one is not an int or
    numpy integer."""
    pts = [_index(p) for p in points]
    return None if None in pts else sorted(set(pts))


def restriction(scheme: Scheme, points: Sequence[int]) -> Scheme:
    """The induced scheme on a block or fiber, canonically recolored."""
    pts = _point_list(points)
    if pts is None:
        raise NotABlock("points must be integers")
    if not pts:
        raise NotABlock("empty point set")
    if pts[0] < 0 or pts[-1] >= scheme.n:
        raise NotABlock(f"points out of range 0..{scheme.n - 1}")
    if not is_block(scheme, pts):
        raise NotABlock(f"{pts} is not a class of any scheme equivalence")
    return _class_restriction(scheme, tuple(pts))


def _class_restriction(scheme: Scheme, cls: tuple[int, ...]) -> Scheme:
    """``restriction`` to a fiber, or to one class of a scheme
    equivalence of a homogeneous scheme, with no ``is_block`` test.  The
    points must be ascending, as every fiber and every class of an
    ``Equivalence`` of ``asck.lattice`` is kept.

    A fiber is a block by definition, and ``is_block`` accepts every
    fiber.  A class is one too: let T be the closed color set of the
    equivalence E_T and B one of its classes.  In a homogeneous scheme
    every color leaves every point at least once, and the out-neighbours
    of a point under a color of T are E_T-related to it, so they stay in
    its class: every color of T occurs inside B x B.  Every pair inside
    B is E_T-related, so no other color does.  The colors inside B are
    therefore exactly T, so each u in B has exactly |B| points v with
    color(u, v) in T, its class, which is the row count ``is_block``
    tests.  It also follows that each color c of T has |B| * deg(c)
    cells inside B x B, so all classes of E_T restrict to one multiset
    of color sizes and get one verdict from ``is_p_scheme``, which reads
    only sizes.

    The restriction is kept under the ``("restriction", cls)`` memo
    entry, which ``restriction`` reads through this function, so both
    return one object.
    """
    return scheme.derived(("restriction", cls),
                          lambda: canonical_scheme(scheme.matrix[np.ix_(cls, cls)]))


# -- wreath product -----------------------------------------------------------


def wreath(inner: Scheme, outer: Scheme) -> Scheme:
    """Wreath product: inner scheme within classes, outer between them.

    Point (u1, u2) gets id u2 * inner.n + u1, so each outer point owns a
    contiguous block of inner copies.
    """
    inner.require_homogeneous()
    outer.require_homogeneous()
    n1, n2 = inner.n, outer.n
    require_points(n1 * n2, "wreath product")
    raw = np.repeat(np.repeat(inner.r + outer.matrix, n1, axis=0), n1, axis=1)
    # the (u2, u2) blocks: axes (u2, u1, v2, v1) of the row-major view
    diagonal = np.arange(n2)
    raw.reshape(n2, n1, n2, n1)[diagonal, :, diagonal, :] = inner.matrix
    return canonical_scheme(raw)


# -- coherent closure ---------------------------------------------------------


def digraph_color_matrix(g: Digraph) -> np.ndarray:
    """Encode a digraph as a color matrix for the coherent closure.

    Distinguishes diagonal cells, loops, arcs, and off-diagonal
    non-arcs; unused classes are squeezed out to keep ids contiguous.
    More than MAX_POINTS vertices raise SchemeError before any array.
    """
    if g.n == 0:
        raise SchemeError("cannot encode an empty digraph")
    require_points(g.n, "digraph")
    arr = np.where(np.eye(g.n, dtype=bool), 0, 3)
    for u, v in g.arcs:
        arr[u, v] = 1 if u == v else 2
    _, inverse = np.unique(arr, return_inverse=True)
    return inverse.reshape(arr.shape)


# Seeds of the successive hashed-refinement attempts in ``wl_closure``.
_CLOSURE_SEEDS = (710046, 1, 2, 3, 4, 5, 6, 7)


def _hash_weights(rng: np.random.Generator, r: int, width: int) -> np.ndarray:
    """Rows x, y of integer weights in [1, 2**width), one per color."""
    return rng.integers(1, 1 << width, size=(2, r)).astype(np.float64)


def _hashed_fixpoint(cur: np.ndarray, seed: int, width: int) -> np.ndarray:
    """Refine ``cur`` by hashed rounds until a round splits no color.

    A round's new ids rank the pairs (cur, hash): the hash is ranked on
    its own, then one int64 ``np.unique`` of cur * k + rank, with k the
    number of distinct hashes, gives the ids.  Both r and k are at most
    n^2, so the key is below n^4 and fits int64 for every n below 55,000.

    One hash per round is enough.  A hashed round is never finer than
    the exact round (see ``wl_closure``), so a collision only merges
    cells that the exact round would split.  Their two-step multisets
    still differ in the next round, whose weights are fresh, so the
    split is delayed; or the rounds stop early on an incoherent
    partition, which ``canonical_scheme`` rejects and the next seed of
    ``_CLOSURE_SEEDS`` refines further.

    A round walks the rows ``top``: every row, or only row 0 when the
    label shift u -> u + 1 (mod n) is an automorphism of ``cur``
    (``core._shift_invariant``).  Then cur[u, w] = row[(w - u) % n] for
    row 0 ``row``, and the product is invariant too: its entry (u, w)
    sums over v the terms of entry (u + 1, w + 1) at v + 1.  So is each
    round's partition, and row 0 holds every hash value and every key
    of the full round.  The ranks and the ``np.unique`` ids are
    therefore those of the full round, one vector-matrix product
    x[row] @ y[row[shift]] with shift[u, v] = (v - u) % n gives them,
    and the matrix returned, row[shift], equals the full rounds' to the
    ids.

    No round starts once the ids on the rows walked are discrete, r ==
    top.size: r = n^2 over all rows, r = n over row 0.  Such a round
    could split no color: over all rows each color is one cell, and on
    row 0 each color of the invariant partition has exactly one cell
    there, while every color of the next partition, invariant too, has a
    cell in row 0.  The round it skips would also return the same array:
    with ``top`` a permutation of 0..r-1, the keys top * k + rank sort
    in the order of ``top``, so the new ids are ``top`` itself.
    """
    rng = np.random.default_rng(seed)
    n = cur.shape[0]
    if _shift_invariant(cur):
        shift = (np.arange(n) - np.arange(n)[:, None]) % n
        top = cur[:1]
    else:
        shift, top = None, cur
    while True:
        full = top if shift is None else top[0][shift]
        r = int(top.max()) + 1
        if r == top.size:  # discrete: no round can split a color
            break
        x, y = _hash_weights(rng, r, width)
        # einsum runs numpy's own loop: a threaded BLAS product was seen to
        # wait ~20 ms per call for its worker threads on a 2-vCPU machine.
        # The hash is an exact integer, so its ranks compare exactly.
        _, rank = np.unique(np.einsum("uv,vw->uw", x[top], y[full]), return_inverse=True)
        k = int(rank.max()) + 1
        _, inverse = np.unique(top * k + rank.reshape(top.shape), return_inverse=True)
        if int(inverse.max()) + 1 == r:
            break
        top = inverse.reshape(top.shape)
    return full


def wl_closure(matrix: Sequence[Sequence[int]] | np.ndarray) -> Scheme:
    """The coarsest coherent configuration refining the given coloring.

    Cells are first split by (color, transposed color, on-diagonal).
    Then each round splits the cells of every color by a hash of the
    two-step color pairs through the intermediate points: with
    integer weights x, y per color, drawn fresh each round, the hash of
    (u, w) is sum_v x[color(u,v)] * y[color(v,w)], the entry (u, w) of
    the product x[cur] @ y[cur].  Weights lie in [1, 2**width) with
    width = (53 - n.bit_length()) // 2, so n * 2**(2 * width) < 2**53
    and every float64 sum is an exact integer (width is 21 at
    n = 1,024, the bound ``MAX_POINTS``).
    The rounds stop when one splits no color, or before a round when
    every cell has its own color: a discrete partition is a fixpoint,
    and the round it skips would return the same ids.  When the label shift
    u -> u + 1 (mod n) is an automorphism of the input, as for a
    circulant digraph, every round is too, and one vector-matrix product
    over row 0 gives it (see ``_hashed_fixpoint``).

    Cells with equal multisets of two-step pairs get equal hashes, so a
    hashed round is never finer than the exact (multiset) round, and
    every partition reached stays at least as coarse as the true
    closure.  ``canonical_scheme`` of the fixpoint is therefore the
    certificate: a coherent partition that is no finer than the coarsest
    coherent refinement is that refinement, and the canonical recoloring
    makes the bytes independent of the weights.  If a hash collision
    leaves the fixpoint incoherent, refinement goes on from it with the
    next seed of ``_CLOSURE_SEEDS``; SchemeError is raised once they run
    out.
    """
    arr = _color_ids(_integer_matrix(matrix))
    n = arr.shape[0]
    r = int(arr.max()) + 1
    first = (arr * r + arr.T) * 2 + np.eye(n, dtype=np.int64)
    _, inverse = np.unique(first, return_inverse=True)
    cur = inverse.reshape(n, n)
    width = (53 - n.bit_length()) // 2
    for seed in _CLOSURE_SEEDS:
        cur = _hashed_fixpoint(cur, seed, width)
        try:
            return canonical_scheme(cur)
        except SchemeError:
            continue
    raise SchemeError(
        f"coherent closure not certified after {len(_CLOSURE_SEEDS)} hashed attempts")
