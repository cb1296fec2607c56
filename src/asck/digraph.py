"""Digraphs of basis relations and the periodicity machinery.

Vertices are contiguous ids 0..n-1; digraphs extracted from a scheme
carry a label tuple mapping those ids back to the scheme's points.
One potential labeling, ``_forest_defects`` (numpy hook-and-jump rounds
that build a spanning forest), gives every weak component's least
vertex as its root, integer labels that grow by 1 along each tree arc,
and every arc's defect.  The gcd d of a component's defects is the gcd
of its semicycle net lengths, whichever forest was used, and any two
labelings of a component differ by multiples of d.  Every reader uses
only what no forest changes: the weak components, the period d,
``basis_periods`` (the checks' digraph side), bipartitions (label
parities, d even) and cyclic p-partitions (labels mod p, p | d).
When the label shift u -> u + 1 (mod n) is an automorphism of a scheme,
``basis_periods`` builds no forest: each basis digraph is a Cayley
digraph Cay(Z_n, S) of the color's row-0 points S, whose closed
semicycles of net length t exist exactly when g | t s, for s = min S
and g = gcd(n, {w - s : w in S}), so d = g / gcd(g, s).
Tarjan's algorithm answers strong connectivity.  All functions are pure
and deterministic: components come out sorted by least vertex, and
cyclic partitions lay the components' residue intervals end to end in
that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .core import Scheme, _groups, _index
from .errors import (
    DiagonalColor,
    HasLoops,
    InvalidP,
    NoArcs,
    NotStronglyConnected,
    NotSymmetric,
    SchemeError,
)


@dataclass(frozen=True)
class Digraph:
    """A finite digraph on vertices 0..n-1 with an arc set.

    ``labels`` optionally names each vertex (e.g. the scheme point it
    came from); it does not affect any algorithm.  n and the endpoints
    are stored as Python ints, read through ``operator.index``.
    """

    n: int
    arcs: frozenset[tuple[int, int]]
    labels: tuple[int, ...] | None = None

    def __post_init__(self):
        n = _index(self.n)
        if n is None or n < 0:
            raise SchemeError(f"vertex count must be a non-negative integer, got {self.n!r}")
        object.__setattr__(self, "n", n)
        if not all(type(u) is int and type(v) is int for u, v in self.arcs):
            bad = [x for arc in self.arcs for x in arc if _index(x) is None]
            if bad:
                raise SchemeError(f"arc endpoint {bad[0]!r} is not an integer")
            object.__setattr__(self, "arcs", frozenset(
                (_index(u), _index(v)) for u, v in self.arcs))
        for u, v in self.arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise SchemeError(f"arc ({u},{v}) out of range for {n} vertices")
        if self.labels is not None and len(self.labels) != n:
            raise SchemeError("labels length differs from vertex count")

    @staticmethod
    def from_arcs(n: int, arcs: Iterable[tuple[int, int]],
                  labels: Iterable[int] | None = None) -> "Digraph":
        return Digraph(n, frozenset(map(tuple, arcs)), None if labels is None else tuple(labels))

    @property
    def m(self) -> int:
        return len(self.arcs)

    @cached_property
    def out_adj(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            adj[u].append(v)
        return tuple(tuple(sorted(vs)) for vs in adj)

    def sorted_arcs(self) -> list[tuple[int, int]]:
        return sorted(self.arcs)


@dataclass(frozen=True)
class CyclicPartition:
    """Ordered classes V_0..V_{p-1} witnessing cyclic p-partiteness."""

    p: int
    classes: tuple[tuple[int, ...], ...]


# -- extraction from schemes ----------------------------------------------


def _relabeled(cells: np.ndarray) -> tuple[list[tuple[int, int]], tuple[int, ...]]:
    """Cells with their points renumbered 0..k-1 over the sorted support,
    by one ``np.unique`` of the cells' points."""
    support, index = np.unique(cells, return_inverse=True)
    return list(map(tuple, index.reshape(-1, 2).tolist())), tuple(support.tolist())


def basis_digraph(scheme: Scheme, color: int) -> Digraph:
    """The digraph of one basis relation, on the relation's support.

    Vertices are reindexed 0..k-1; labels give the original points.
    The cells are read off the matrix in O(n^2 + |R| log |R|).
    """
    arcs, support = _relabeled(scheme.cell_array(color))
    return Digraph(len(support), frozenset(arcs), support)


def basis_graph(scheme: Scheme, color: int) -> Digraph:
    """The symmetric loopless digraph of a color joined with its transpose.

    Diagonal colors are rejected: their graph would be empty.  The
    transpose's cells are the color's cells reversed, so only the
    color's own cells are read off the matrix.
    """
    if scheme.is_diagonal_color(color):
        raise DiagonalColor(color)
    arcs, support = _relabeled(scheme.cell_array(color))
    return Digraph(len(support), frozenset(arcs + [(b, a) for a, b in arcs]), support)


# -- connectivity -----------------------------------------------------------


def strongly_connected_components(g: Digraph) -> list[tuple[int, ...]]:
    """Tarjan's algorithm, iterative; components sorted by least vertex.

    A work frame is a vertex and the iterator over its out-neighbours: a
    frame resumes where it entered its last child, and once its iterator
    runs out (``for ... else``) it is popped.
    """
    n = g.n
    adj = g.out_adj
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[tuple[int, ...]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(adj[root]))]
        while work:
            v, successors = work[-1]
            for w in successors:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(adj[w])))
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(tuple(sorted(comp)))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
    comps.sort(key=lambda c: c[0])
    return comps


def is_strongly_connected(g: Digraph) -> bool:
    return len(strongly_connected_components(g)) == 1


def weakly_connected_components(g: Digraph) -> list[tuple[int, ...]]:
    """Components of the symmetrized digraph, sorted by least vertex:
    the vertices grouped by their forest root, the least vertex."""
    return list(_groups(_forest_defects(g.n, *_arc_arrays(g))[0]))


def _arc_arrays(g: Digraph) -> tuple[np.ndarray, np.ndarray]:
    """The tails and heads of g's arcs as two int64 vectors."""
    arcs = np.array(list(g.arcs), dtype=np.int64).reshape(-1, 2)
    return arcs[:, 0], arcs[:, 1]


def _forest_defects(n: int, tails: np.ndarray,
                    heads: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roots, labels and arc defects against a spanning forest of the
    digraph on 0..n-1 with arcs (tails[i], heads[i]), in numpy rounds.

    Hook and jump (Shiloach & Vishkin, "An O(log n) parallel
    connectivity algorithm", J. Algorithms 3, 1982): every vertex keeps
    its tree's root and its label relative to that root.  In each round,
    every root with an arc to a tree of smaller root hooks onto the least
    such root, through the first arc that reaches it, with the offset
    that gives that arc defect 0; pointer jumping then sends every
    vertex to its new root, adding up the offsets on the way.  The
    rounds stop when no arc joins two trees.

    A root hooks only onto a smaller root, so the hook arcs never close a
    cycle: they form a spanning forest, each component's root is its
    least vertex, and a root keeps label 0.  Labels grow by 1 along each
    tree arc, so a component's labels form a contiguous range.  Tree
    arcs have defect 0, so any other arc's defect label(u) + 1 - label(v)
    is the net length of its fundamental semicycle, and the gcd of a
    component's defects is the gcd of all its semicycle net lengths
    whatever forest was used.  Two forests' labels of a vertex differ by
    the net length of a closed semicycle through the root: a multiple of
    that gcd.
    Each round with a cross arc hooks the largest root that has one, so
    the number of trees falls strictly and the rounds end.  Hooking onto
    the least root, not just any smaller one, bounds them by 2 log2 n: a
    root with a cross arc that neither hooks nor is hooked onto in one
    round has only larger neighbours, and each of them hooked onto a
    root smaller still, so it hooks in the next round.  Every tree with
    a cross arc thus merges within two rounds, which at least halves
    their number.  (Hooking through the first arc instead takes n - 1
    rounds on a star whose arcs list the leaves in descending order.)
    """
    root = np.arange(n)
    label = np.zeros(n, dtype=np.int64)
    # a hooked root's parent and its label relative to the parent's; a
    # root is its own parent, at offset 0
    parent = np.arange(n)
    shift = np.zeros(n, dtype=np.int64)
    u, v = tails, heads
    while True:
        ru, rv = root[u], root[v]
        cross = ru != rv
        if not cross.any():
            return root, label, label[tails] + 1 - label[heads]
        u, v, ru, rv = u[cross], v[cross], ru[cross], rv[cross]
        hi, lo = np.maximum(ru, rv), np.minimum(ru, rv)
        m = hi.size
        # per hooking root, the least lo * m + arc index: least root, first arc
        best = np.full(n, n * m)
        np.minimum.at(best, hi, lo * m + np.arange(m))
        hooked = np.flatnonzero(best < n * m)
        arc = best[hooked] % m
        step = label[u[arc]] + 1 - label[v[arc]]
        parent[hooked] = lo[arc]
        shift[hooked] = np.where(ru[arc] == hooked, -step, step)  # minus: the tail's root hooks
        while hooked.size:  # jump the hooked roots whose parent has hooked
            above = parent[hooked]
            moved = parent[above] != above
            hooked, above = hooked[moved], above[moved]
            shift[hooked] += shift[above]
            parent[hooked] = parent[above]
        label += shift[root]
        root = parent[root]


def basis_periods(scheme: Scheme) -> np.ndarray:
    """Each color's gcd d of the semicycle net lengths of its basis digraph,
    as a read-only int64 vector kept in the scheme's memo.

    Read off ``first_cells``: a diagonal color's arcs are loops, so
    d = 1, and a single off-diagonal cell is a tree arc, so d = 0.  The
    basis digraphs of the other colors, off the diagonal with at least
    two cells, are laid side by side in one digraph on the (color, point)
    pairs in use, whose arcs are those colors' cells, one ``np.nonzero``
    over the matrix, so one ``_forest_defects`` run gives every such
    cell's defect.

    The pairs are numbered without a sort.  A color's cells run from one
    fiber X to one fiber Y, leaving every point of X and entering every
    point of Y, so its block of vertices is X, then Y when Y != X, each
    in point order; the blocks follow each other in color order.

    When the label shift u -> u + 1 (mod n) is an automorphism, as
    ``Scheme.circulant`` records, no forest is built: color c's basis
    digraph is the Cayley digraph Cay(Z_n, S_c), with S_c the points w
    of row 0 with color c, and its period is g / gcd(g, s) for the least
    element s of S_c and g = gcd(n, {w - s : w in S_c}), one
    ``np.gcd.at`` over row 0 for all colors (see ``_cayley_periods``).
    """
    def build() -> np.ndarray:
        if scheme.circulant:
            periods = _cayley_periods(scheme)
            periods.setflags(write=False)
            return periods
        n, sizes = scheme.n, scheme.sizes
        u, v = scheme.first_cells.T
        periods = (u == v).astype(np.int64)
        labeled = (sizes > 1) & (u != v)
        tails, heads = np.nonzero(labeled[scheme.matrix])
        colors = scheme.matrix[tails, heads]
        fiber = scheme.matrix.diagonal()
        count = np.bincount(fiber)
        order = np.argsort(fiber, kind="stable")
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n) - (np.cumsum(count) - count)[fiber[order]]
        source, target = fiber[u], fiber[v]
        skip = np.where(source != target, count[source], 0)
        support = np.where(labeled, skip + count[target], 0)
        base = np.cumsum(support) - support
        tails = base[colors] + rank[tails]
        heads = (base + skip)[colors] + rank[heads]
        np.gcd.at(periods, colors, _forest_defects(int(support.sum()), tails, heads)[2])
        periods.setflags(write=False)
        return periods

    return scheme.derived("basis-periods", build)


def _cayley_periods(scheme: Scheme) -> np.ndarray:
    """``basis_periods`` of a shift-invariant scheme, from row 0 alone.

    Color c's arcs are the pairs (u, u + w) for w in S_c = {w : color(0,
    w) = c}.  Let s be the least element of S_c, ``first_cells[c, 1]``
    (every color has a cell in row 0, so its first cell is there), and
    g = gcd(n, {w - s : w in S_c}).  A closed semicycle steps e_i = +-1
    along w_i and has net length t = sum e_i; it closes when sum e_i w_i
    = t s + sum e_i (w_i - s) is 0 mod n, which needs g | t s.  Every
    such t occurs: a step forward along w and one backward along s move
    by w - s at net length 0, so t steps along s, then such pairs, reach
    t s plus any multiple of g, and so 0 mod n.  The net lengths are
    therefore the multiples of d = g / gcd(g, s), the period.  The diagonal color has s = 0 and
    g = n, so d = 1; an off-diagonal color has s > 0 and d >= 1, as
    following s alone closes a cycle.
    """
    row, s = scheme.matrix[0], scheme.first_cells[:, 1]
    g = np.full(scheme.r, scheme.n, dtype=np.int64)
    np.gcd.at(g, row, np.arange(scheme.n) - s[row])
    return g // np.gcd(g, s)


# -- period and cyclic partitions -------------------------------------------


def period(g: Digraph) -> int:
    """gcd of all directed cycle lengths of a strongly connected digraph.

    In a strongly connected digraph every semicycle's net length is an
    integer combination of cycle lengths and vice versa, so this is the
    gcd d of the arc defects of ``_forest_defects``.
    """
    strong = strongly_connected_components(g)
    if len(strong) != 1:
        raise NotStronglyConnected(f"{len(strong)} strong components")
    if g.m == 0:
        raise NoArcs("period is undefined without arcs")
    return int(np.gcd.reduce(_forest_defects(g.n, *_arc_arrays(g))[2]))


def cyclically_p_partite(g: Digraph, p: int) -> CyclicPartition | None:
    """A witness partition into p cyclic classes, or None if none exists.

    p nonempty classes need p vertices.  A partition needs the labels of
    ``_forest_defects`` to be consistent mod p, that is p | d: every arc
    defect is a multiple of p.  Then any forest gives each vertex the
    same residue, and a component's residues form a cyclic interval of
    width w = min(span, p), starting at s = (least label) mod p when
    w < p and at 0, the residue of the component's least vertex, when
    w = p; neither depends on the forest.  Rotating a component moves
    its interval around, so every class can be made nonempty exactly
    when the widths sum to at least p.  The witness lays the intervals
    end to end in order of least vertex: a cursor starts at the first
    component's s, each component is rotated by cursor - s, and the
    cursor advances by w.  The first component keeps its own labels.

    The witness needs no check: each vertex lies in the one class of its
    rotated label mod p, and an arc (u, v) has label(v) = label(u) + 1
    mod p, as p divides its defect and both ends share a component and
    its rotation, so it runs from one class to the next.
    """
    q = _index(p)
    if q is None or q < 2:
        raise InvalidP(p)
    p = q
    if p > g.n:
        return None
    root, label, defect = _forest_defects(g.n, *_arc_arrays(g))
    if (defect % p).any():
        return None
    lo, hi = np.zeros(g.n, dtype=np.int64), np.zeros(g.n, dtype=np.int64)
    np.minimum.at(lo, root, label)  # a root's label is 0
    np.maximum.at(hi, root, label)
    roots = np.flatnonzero(root == np.arange(g.n))
    width = np.minimum(hi[roots] - lo[roots] + 1, p)
    start = np.where(width < p, lo[roots] % p, 0)
    turn = np.zeros(g.n, dtype=np.int64)
    turn[roots] = start[0] + np.cumsum(width) - width - start
    classes = _groups((label + turn[root]) % p)
    return CyclicPartition(p, classes) if len(classes) == p else None


# -- bipartiteness -----------------------------------------------------------


def is_bipartite(g: Digraph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """2-coloring of a symmetric loopless digraph, or None.

    It exists when every arc defect of ``_forest_defects`` is even; a
    vertex's class is then the parity of its label, which no forest
    changes.  Both classes must be nonempty for a positive answer.
    Isolated vertices are appended (in ascending order) to whichever
    class is currently smaller, class 0 on ties.
    """
    for u, v in g.sorted_arcs():
        if u == v:
            raise HasLoops(u)
        if (v, u) not in g.arcs:
            raise NotSymmetric((u, v))
    _, label, defect = _forest_defects(g.n, *_arc_arrays(g))
    if (defect % 2).any():
        return None
    side = [value % 2 if g.out_adj[v] else -1 for v, value in enumerate(label.tolist())]
    counts = [side.count(0), side.count(1)]
    for v in range(g.n):
        if side[v] == -1:
            cls = 0 if counts[0] <= counts[1] else 1
            side[v] = cls
            counts[cls] += 1
    if counts[0] == 0 or counts[1] == 0:
        return None
    zero = tuple(v for v in range(g.n) if side[v] == 0)
    one = tuple(v for v in range(g.n) if side[v] == 1)
    return zero, one
