"""Digraphs of basis relations and the periodicity machinery.

Vertices are contiguous ids 0..n-1; digraphs extracted from a scheme
carry a label tuple mapping those ids back to the scheme's points.
One potential labeling, ``_potentials``, gives the weak components,
integer labels that change by 1 along each arc, and d, the gcd of the
semicycle net lengths; the period, cyclic p-partitions (p | d),
bipartiteness (d even) and ``basis_periods`` all read it, and Tarjan's
algorithm answers strong connectivity.  ``basis_periods`` runs it only
on the off-diagonal colors with at least two cells; every other color's
d is read off its first cell.  All functions are pure and
deterministic: components come out sorted by least vertex, and cyclic
partitions lay the components' label intervals end to end in that
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .core import Scheme, _index
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
    came from); it does not affect any algorithm.
    """

    n: int
    arcs: frozenset[tuple[int, int]]
    labels: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.n < 0:
            raise SchemeError(f"vertex count must be non-negative, got {self.n}")
        for u, v in self.arcs:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise SchemeError(f"arc ({u},{v}) out of range for {self.n} vertices")
        if self.labels is not None and len(self.labels) != self.n:
            raise SchemeError("labels length differs from vertex count")

    @staticmethod
    def from_arcs(n: int, arcs: Iterable[tuple[int, int]],
                  labels: Iterable[int] | None = None) -> "Digraph":
        return Digraph(n, frozenset((int(u), int(v)) for u, v in arcs),
                       None if labels is None else tuple(labels))

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
    """Cells with their points renumbered 0..k-1 over the sorted support."""
    pairs = cells.tolist()
    support = sorted({p for pair in pairs for p in pair})
    index = {p: i for i, p in enumerate(support)}
    return [(index[u], index[v]) for u, v in pairs], tuple(support)


def basis_digraph(scheme: Scheme, color: int) -> Digraph:
    """The digraph of one basis relation, on the relation's support.

    Vertices are reindexed 0..k-1; labels give the original points.
    The cells are read from the scheme's cell index in O(|R| log |R|).
    """
    arcs, support = _relabeled(scheme.cell_array(color))
    return Digraph(len(support), frozenset(arcs), support)


def basis_graph(scheme: Scheme, color: int) -> Digraph:
    """The symmetric loopless digraph of a color joined with its transpose.

    Diagonal colors are rejected: their graph would be empty.  The
    transpose's cells are the color's cells reversed, so only the
    color's own cells are read from the cell index.
    """
    scheme.check_color(color)
    if scheme.is_diagonal_color(color):
        raise DiagonalColor(color)
    arcs, support = _relabeled(scheme.cell_array(color))
    return Digraph(len(support), frozenset(arcs + [(b, a) for a, b in arcs]), support)


# -- connectivity -----------------------------------------------------------


def strongly_connected_components(g: Digraph) -> list[tuple[int, ...]]:
    """Tarjan's algorithm, iterative; components sorted by least vertex."""
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
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for i in range(pi, len(adj[v])):
                w = adj[v][i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
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
    """Components of the symmetrized digraph, sorted by least vertex."""
    return _digraph_potentials(g)[0]


def _digraph_potentials(g: Digraph) -> tuple[list[tuple[int, ...]], list[int], np.ndarray]:
    """``_potentials`` of g, with its weak components as ascending vertex
    tuples in order of least vertex."""
    arcs = np.array(list(g.arcs), dtype=np.int64).reshape(-1, 2)
    comp, label, defect = _potentials(g.n, arcs[:, 0], arcs[:, 1])
    groups: dict[int, list[int]] = {}
    for v, c in enumerate(comp):
        groups.setdefault(c, []).append(v)
    return [tuple(members) for members in groups.values()], label, defect


def _potentials(n: int, tails: np.ndarray,
                heads: np.ndarray) -> tuple[list[int], list[int], np.ndarray]:
    """Weak components, integer labels and arc defects of the digraph on
    0..n-1 with arcs (tails[i], heads[i]).

    Each weak component is labeled by BFS from its least vertex, which
    gets 0; a label grows by 1 along an arc and shrinks by 1 against it,
    out-neighbours first, each side in ascending order.  comp[v] is the
    least vertex of v's component, whose labels form a contiguous range.
    An arc's defect is label(u) + 1 - label(v).  Tree arcs have
    defect 0, so any other arc's is the net length of its fundamental
    semicycle: the gcd d of a component's defects is the gcd of its
    semicycle net lengths, 0 without semicycles and the period when the
    component is strongly connected.
    """
    def adjacency(src: np.ndarray, dst: np.ndarray) -> tuple[list[int], list[int]]:
        ptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
        return ptr.tolist(), dst[np.lexsort((dst, src))].tolist()

    sides = ((*adjacency(tails, heads), 1), (*adjacency(heads, tails), -1))
    comp = [-1] * n
    label = [0] * n
    for root in range(n):
        if comp[root] < 0:
            comp[root] = root
            queue = [root]
            for u in queue:  # grows while it is read: a FIFO queue
                for ptr, nbr, step in sides:
                    for v in nbr[ptr[u]:ptr[u + 1]]:
                        if comp[v] < 0:
                            comp[v] = root
                            label[v] = label[u] + step
                            queue.append(v)
    labels = np.array(label, dtype=np.int64)
    return comp, label, labels[tails] + 1 - labels[heads]


def basis_periods(scheme: Scheme) -> np.ndarray:
    """Each color's gcd d of the semicycle net lengths of its basis digraph,
    as a read-only int64 vector kept in the scheme's memo.

    Read off ``first_cells``: a diagonal color's arcs are loops, so
    d = 1, and a single off-diagonal cell is a tree arc, so d = 0.  The
    basis digraphs of the other colors, off the diagonal with at least
    two cells, are laid side by side in one digraph on the (color, point)
    pairs in use, whose arcs are those colors' cells from ``cell_index``,
    so one ``_potentials`` run gives every such cell's defect.
    """
    def build() -> np.ndarray:
        n, sizes = scheme.n, scheme.sizes
        u, v = scheme.first_cells.T
        periods = (u == v).astype(np.int64)
        labeled = (sizes > 1) & (u != v)
        colors = np.repeat(np.flatnonzero(labeled), sizes[labeled])
        tails, heads = scheme.cell_index[np.repeat(labeled, sizes)].T
        pairs, vertex = np.unique(np.concatenate((colors * n + tails, colors * n + heads)),
                                  return_inverse=True)
        np.gcd.at(periods, colors, _potentials(pairs.size, *vertex.reshape(2, -1))[2])
        periods.setflags(write=False)
        return periods

    return scheme.derived("basis-periods", build)


# -- period and cyclic partitions -------------------------------------------


def period(g: Digraph) -> int:
    """gcd of all directed cycle lengths of a strongly connected digraph.

    In a strongly connected digraph every semicycle's net length is an
    integer combination of cycle lengths and vice versa, so this is the
    gcd d of the arc defects of ``_potentials``.
    """
    strong = strongly_connected_components(g)
    if len(strong) != 1:
        raise NotStronglyConnected(f"{len(strong)} strong components")
    if g.m == 0:
        raise NoArcs("period is undefined without arcs")
    return int(np.gcd.reduce(_digraph_potentials(g)[2]))


def cyclically_p_partite(g: Digraph, p: int) -> CyclicPartition | None:
    """A witness partition into p cyclic classes, or None if none exists.

    A partition needs the labels of ``_potentials`` to be consistent mod
    p, that is p | d: every arc defect is a multiple of p.  A component's labels form
    a contiguous range, so mod p they cover a cyclic interval of
    min(span, p) residues, and shifting a component moves its interval
    around.  Every class can be made nonempty exactly when these capped
    spans sum to at least p: the witness lays the intervals end to end,
    the first component keeping its own labels.

    The witness needs no check: each vertex lies in the one class of its
    shifted label mod p, and an arc (u, v) has label(v) = label(u) + 1
    mod p, as p divides its defect and both ends share a component and
    its shift, so it runs from one class to the next.
    """
    q = _index(p)
    if q is None or q < 2:
        raise InvalidP(p)
    p = q
    components, label, defect = _digraph_potentials(g)
    if (defect % p).any():
        return None
    classes: list[list[int]] = [[] for _ in range(p)]
    cursor = None  # one past the last residue laid so far
    for members in components:
        values = [label[v] for v in members]
        shift = 0 if cursor is None else cursor - min(values)
        cursor = max(values) + shift + 1
        for v, value in zip(members, values):
            classes[(value + shift) % p].append(v)
    if not all(classes):
        return None
    return CyclicPartition(p, tuple(tuple(sorted(c)) for c in classes))


# -- bipartiteness -----------------------------------------------------------


def is_bipartite(g: Digraph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """2-coloring of a symmetric loopless digraph, or None.

    It exists when every arc defect of ``_potentials`` is even; a
    vertex's class is then the parity of its label.  Both classes must
    be nonempty for a positive answer.  Isolated vertices are appended
    (in ascending order) to whichever class is currently smaller, class
    0 on ties.
    """
    for u, v in g.sorted_arcs():
        if u == v:
            raise HasLoops(u)
        if (v, u) not in g.arcs:
            raise NotSymmetric((u, v))
    _, label, defect = _digraph_potentials(g)
    if (defect % 2).any():
        return None
    side = [value % 2 if g.out_adj[v] else -1 for v, value in enumerate(label)]
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
