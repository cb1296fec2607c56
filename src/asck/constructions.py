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
and the axioms are checked.  A validation failure here means a bug in
the construction, so it is re-raised under a construction-specific
error type.  ``canonical_scheme`` interns by content, so constructions
whose matrices are equal return one shared Scheme, certified once, and
the quotients and restrictions kept in its memo are shared as well.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Scheme, _integral, as_color_matrix, canonical_scheme, normalize_colors
from .digraph import Digraph
from .errors import (
    InvalidGroupTable,
    NotABlock,
    NotASchemeEquivalence,
    QuotientValidationFailed,
    RestrictionValidationFailed,
    SchemeError,
    WreathValidationFailed,
)
from .lattice import (
    Equivalence,
    closed_set_equivalence,
    generated_closed_set,
)


# -- group tables -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CayleyTable:
    """A verified group multiplication table over elements 0..m-1."""

    m: int
    table: np.ndarray
    identity: int

    def inverse(self, g: int) -> int:
        return int(np.argmax(self.table[g] == self.identity))


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
    """A group order as a Python int; ``operator.index`` accepts ints and
    numpy integers, anything else raises InvalidGroupTable."""
    try:
        m = operator.index(value)
    except TypeError:
        raise InvalidGroupTable(f"{what} must be an integer, got {value!r}") from None
    if m < 1:
        raise InvalidGroupTable(f"{what} must be positive, got {m}")
    return m


def cyclic_table(m: int) -> CayleyTable:
    """The cyclic group of order m."""
    m = _group_order(m, "order")
    g = np.arange(m)
    return cayley_table((g[:, None] + g[None, :]) % m)


def direct_product(a: CayleyTable, b: CayleyTable) -> CayleyTable:
    """Direct product; element (g, h) gets id g * b.m + h."""
    ga, ha = np.divmod(np.arange(a.m * b.m), b.m)
    prod = a.table[np.ix_(ga, ga)] * b.m + b.table[np.ix_(ha, ha)]
    return cayley_table(prod)


def dihedral_table(k: int) -> CayleyTable:
    """The dihedral group of order 2k; element a*k + i encodes flip^a rot^i.

    (a, i)(b, j) = (a + b mod 2, i + j mod k) when a = 0 and
    (a + b mod 2, i - j mod k) when a = 1.
    """
    k = _group_order(k, "rotation order")
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
    if n < 2:
        raise SchemeError(f"rank-2 scheme needs at least 2 points, got {n}")
    return canonical_scheme(np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64))


# -- quotient and restriction -------------------------------------------------


def quotient(scheme: Scheme, e: Equivalence) -> Scheme:
    """Scheme on the classes of e; the color of a class pair (X, Y) is
    the set of original colors occurring inside X x Y.

    Distinct colors always induce identical-or-disjoint class-pair
    relations; this is re-checked and a violation (or a validation
    failure of the result) raises QuotientValidationFailed.
    """
    return scheme.derived(("quotient", e.classes), lambda: _quotient(scheme, e))


def _quotient(scheme: Scheme, e: Equivalence) -> Scheme:
    raw = _quotient_matrix(scheme, e)
    try:
        return canonical_scheme(raw)
    except SchemeError as exc:
        raise QuotientValidationFailed(str(exc)) from exc


def _quotient_matrix(scheme: Scheme, e: Equivalence) -> np.ndarray:
    """The (k, k) matrix of class-pair color-set ids, numbered in
    row-major order of first appearance.

    ``_class_pair_runs`` gives every class pair's colors as one
    ascending run.  The pairs are then walked row-major, and a color met
    in two distinct color sets raises QuotientValidationFailed.
    """
    # a color union that is an equivalence is closed
    base = closed_set_equivalence(scheme, frozenset(e.colors))
    if base.classes != e.classes:
        raise NotASchemeEquivalence(
            "classes are not the classes of the color union")
    k = len(e.classes)
    pairs, colors, _ = _class_pair_runs(scheme, e.classes)
    # every class pair holds a cell, so each pair has a nonempty run
    bounds = np.searchsorted(pairs, np.arange(k * k + 1)).tolist()
    colors = colors.tolist()
    ids: dict[frozenset[int], int] = {}
    seen_in: dict[int, frozenset[int]] = {}
    raw = []
    for lo, hi in zip(bounds, bounds[1:]):
        block = frozenset(colors[lo:hi])
        raw.append(ids.setdefault(block, len(ids)))
        for c in block:
            prev = seen_in.setdefault(c, block)
            if prev != block:
                raise QuotientValidationFailed(
                    f"color {c} occurs in distinct class-pair color sets "
                    f"{sorted(prev)} and {sorted(block)}")
    return np.array(raw, dtype=np.int64).reshape(k, k)


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

    For a homogeneous scheme this is decided exactly: the set is a block
    iff it is a class of the equivalence generated by the colors found
    inside it.  For non-homogeneous schemes only fibers, singletons and
    the full point set are recognized (their equivalence lattices are
    not enumerated here).
    """
    pts = sorted({int(p) for p in points})
    if not pts or pts[0] < 0 or pts[-1] >= scheme.n:
        return False
    if len(pts) == scheme.n or len(pts) == 1:
        return True
    if tuple(pts) in scheme.fibers:
        return True
    if not scheme.is_homogeneous:
        return False
    inside = {int(c) for c in np.unique(scheme.matrix[np.ix_(pts, pts)])}
    closed = generated_closed_set(scheme, inside)
    return tuple(pts) in closed_set_equivalence(scheme, closed.colors).classes


def restriction(scheme: Scheme, points: Sequence[int]) -> Scheme:
    """The induced scheme on a block or fiber, canonically recolored."""
    pts = sorted({int(p) for p in points})
    if not pts:
        raise NotABlock("empty point set")
    if pts[0] < 0 or pts[-1] >= scheme.n:
        raise NotABlock(f"points out of range 0..{scheme.n - 1}")
    return scheme.derived(("restriction", tuple(pts)), lambda: _restriction(scheme, pts))


def _restriction(scheme: Scheme, pts: list[int]) -> Scheme:
    if not is_block(scheme, pts):
        raise NotABlock(f"{pts} is not a class of any scheme equivalence")
    return _induced(scheme.matrix[np.ix_(pts, pts)])


def _class_restriction(scheme: Scheme, cls: tuple[int, ...]) -> Scheme:
    """``restriction`` to one class of a scheme equivalence of a
    homogeneous scheme, with no ``is_block`` test.  The class must be
    ascending, as every ``Equivalence`` of ``asck.lattice`` keeps it.

    Exact: let T be the closed color set of the equivalence E_T and B one
    of its classes.  In a homogeneous scheme every color leaves every
    point at least once, and the out-neighbours of a point under a color
    of T are E_T-related to it, so they stay in its class: every color of
    T occurs inside B x B.  Every pair inside B is E_T-related, so no
    other color does.  The colors inside B are therefore exactly T, which
    is closed, so B is a class of the equivalence that its inner colors
    generate, which is what ``is_block`` decides.  It also follows that
    each color c of T has |B| * deg(c) cells inside B x B, so all classes
    of E_T restrict to one multiset of color sizes and get one verdict
    from ``is_p_scheme``, which reads only sizes.

    The restriction is kept under the same ``("restriction", cls)`` memo
    entry that ``restriction`` fills, so both return one object.
    """
    return scheme.derived(("restriction", cls),
                          lambda: _induced(scheme.matrix[np.ix_(cls, cls)]))


def _induced(sub: np.ndarray) -> Scheme:
    """The canonical scheme of a restricted sub-matrix."""
    try:
        return canonical_scheme(sub)
    except SchemeError as exc:
        raise RestrictionValidationFailed(str(exc)) from exc


# -- wreath product -----------------------------------------------------------


def wreath(inner: Scheme, outer: Scheme) -> Scheme:
    """Wreath product: inner scheme within classes, outer between them.

    Point (u1, u2) gets id u2 * inner.n + u1, so each outer point owns a
    contiguous block of inner copies.
    """
    inner.require_homogeneous()
    outer.require_homogeneous()
    n1, n2 = inner.n, outer.n
    raw = np.repeat(np.repeat(inner.r + outer.matrix, n1, axis=0), n1, axis=1)
    # the (u2, u2) blocks: axes (u2, u1, v2, v1) of the row-major view
    diagonal = np.arange(n2)
    raw.reshape(n2, n1, n2, n1)[diagonal, :, diagonal, :] = inner.matrix
    try:
        return canonical_scheme(raw)
    except SchemeError as exc:
        raise WreathValidationFailed(str(exc)) from exc


# -- coherent closure ---------------------------------------------------------


# Largest digraph ``digraph_color_matrix`` encodes, since a .dg header can
# name any n.  Certification works in O(n^2) memory at every rank: a
# closure that ends discrete (n^2 colors) peaks in ``wl_closure`` at
# 10.6 MiB (tracemalloc) at n = 256.  Raising the bound changes what the
# CLI accepts, so it waits for a matching size bound on .ccm input.
MAX_CLOSURE_POINTS = 256


def digraph_color_matrix(g: Digraph) -> np.ndarray:
    """Encode a digraph as a color matrix for the coherent closure.

    Distinguishes diagonal cells, loops, arcs, and off-diagonal
    non-arcs; unused classes are squeezed out to keep ids contiguous.
    More than MAX_CLOSURE_POINTS vertices raise SchemeError before any array.
    """
    if g.n == 0:
        raise SchemeError("cannot encode an empty digraph")
    if g.n > MAX_CLOSURE_POINTS:
        raise SchemeError(
            f"digraph has n={g.n} vertices; the closure allows n <= {MAX_CLOSURE_POINTS}")
    arr = np.where(np.eye(g.n, dtype=bool), 0, 3)
    for u, v in g.arcs:
        arr[u, v] = 1 if u == v else 2
    normalized, _ = normalize_colors(arr)
    return normalized


# Seeds of the successive hashed-refinement attempts in ``wl_closure``.
_CLOSURE_SEEDS = (710046, 1, 2, 3, 4, 5, 6, 7)


def _hash_weights(rng: np.random.Generator, r: int, width: int) -> np.ndarray:
    """Rows x1, y1, x2, y2 of integer weights in [1, 2**width), one per color."""
    return rng.integers(1, 1 << width, size=(4, r)).astype(np.float64)


# Round keys of ``_hashed_fixpoint`` must stay below this to fit int64.
_ROUND_KEY_BOUND = 2 ** 63


def _hashed_fixpoint(cur: np.ndarray, seed: int, width: int) -> np.ndarray:
    """Refine ``cur`` by hashed rounds until a round splits no color.

    A round's new ids rank the triples (cur, h1, h2) lexicographically,
    h1 and h2 being the two hashes: each hash is ranked on its own, then
    one int64 ``np.unique`` of (cur * k1 + rank1) * k2 + rank2, with k1
    and k2 the numbers of distinct values, gives the ids.  That key is
    below r * k1 * k2 <= n^6 (2^48 at n = 256, 2^60 at n = 1,024), so it
    fits int64 up to n = 1,448; past that, (cur, rank1) is ranked first
    whenever the product would not fit, and the ids are the same.
    """
    rng = np.random.default_rng(seed)
    while True:
        r = int(cur.max()) + 1
        x1, y1, x2, y2 = _hash_weights(rng, r, width)
        # einsum runs numpy's own loop: a threaded BLAS product was seen to
        # wait ~20 ms per call for its worker threads on a 2-vCPU machine.
        # Both hashes are exact integers, so their ranks compare exactly.
        _, rank1 = np.unique(np.einsum("uv,vw->uw", x1[cur], y1[cur]), return_inverse=True)
        _, rank2 = np.unique(np.einsum("uv,vw->uw", x2[cur], y2[cur]), return_inverse=True)
        k1, k2 = int(rank1.max()) + 1, int(rank2.max()) + 1
        key = cur * k1 + rank1.reshape(cur.shape)
        if r * k1 * k2 > _ROUND_KEY_BOUND:
            _, key = np.unique(key, return_inverse=True)
        _, inverse = np.unique(key * k2 + rank2.reshape(key.shape), return_inverse=True)
        if int(inverse.max()) + 1 == r:
            return cur
        cur = inverse.reshape(cur.shape)


def wl_closure(matrix: Sequence[Sequence[int]] | np.ndarray) -> Scheme:
    """The coarsest coherent configuration refining the given coloring.

    Cells are first split by (color, transposed color, on-diagonal).
    Then each round splits the cells of every color by two hashes of
    the two-step color pairs through the intermediate points: with
    integer weights x, y per color, drawn fresh each round, the hash of
    (u, w) is sum_v x[color(u,v)] * y[color(v,w)], the entry (u, w) of
    the product x[cur] @ y[cur].  Weights lie in [1, 2**width) with
    width = (53 - n.bit_length()) // 2, so n * 2**(2 * width) < 2**53
    and every float64 sum is an exact integer (width is 20 at n = 4096).
    The rounds stop when one splits no color.

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
    arr = as_color_matrix(matrix)
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
