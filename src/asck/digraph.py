"""Digraphs of basis relations and the periodicity machinery.

Vertices are contiguous ids 0..n-1; digraphs extracted from a scheme
carry a label tuple mapping those ids back to the scheme's points.
All functions are pure and deterministic: components come out sorted by
least vertex, and cyclic partitions lay the components' label intervals
end to end in that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Iterable

import numpy as np

from .core import Scheme
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

    @cached_property
    def in_adj(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            adj[v].append(u)
        return tuple(tuple(sorted(us)) for us in adj)

    def sorted_arcs(self) -> list[tuple[int, int]]:
        return sorted(self.arcs)

    def is_symmetric(self) -> bool:
        return all((v, u) in self.arcs for u, v in self.arcs)

    def has_loops(self) -> bool:
        return any(u == v for u, v in self.arcs)


@dataclass(frozen=True)
class CyclicPartition:
    """Ordered classes V_0..V_{p-1} witnessing cyclic p-partiteness."""

    p: int
    classes: tuple[tuple[int, ...], ...]

    def check(self, g: Digraph) -> None:
        """Raise if this partition is not a valid witness for g."""
        if self.p < 2 or len(self.classes) != self.p:
            raise SchemeError(f"expected {self.p} classes, got {len(self.classes)}")
        seen: dict[int, int] = {}
        for idx, cls in enumerate(self.classes):
            if not cls:
                raise SchemeError(f"class {idx} is empty")
            for v in cls:
                if v in seen:
                    raise SchemeError(f"vertex {v} in classes {seen[v]} and {idx}")
                seen[v] = idx
        if len(seen) != g.n:
            raise SchemeError("classes do not cover the vertex set")
        for u, v in g.arcs:
            if seen[v] != (seen[u] + 1) % self.p:
                raise SchemeError(
                    f"arc ({u},{v}) goes from class {seen[u]} to {seen[v]}")

    def class_of(self) -> dict[int, int]:
        return {v: i for i, cls in enumerate(self.classes) for v in cls}


# -- extraction from schemes ----------------------------------------------


def basis_digraph(scheme: Scheme, color: int) -> Digraph:
    """The digraph of one basis relation, on the relation's support.

    Vertices are reindexed 0..k-1; labels give the original points.
    """
    scheme.check_color(color)
    cells = np.argwhere(scheme.matrix == color)
    support = sorted({int(p) for p in cells.ravel()})
    index = {p: i for i, p in enumerate(support)}
    arcs = frozenset((index[int(u)], index[int(v)]) for u, v in cells)
    return Digraph(len(support), arcs, tuple(support))


def basis_graph(scheme: Scheme, color: int) -> Digraph:
    """The symmetric loopless digraph of a color joined with its transpose.

    Diagonal colors are rejected: their graph would be empty.
    """
    scheme.check_color(color)
    if scheme.is_diagonal_color(color):
        raise DiagonalColor(color)
    mask = (scheme.matrix == color) | (scheme.matrix == scheme.transpose(color))
    cells = np.argwhere(mask)
    support = sorted({int(p) for p in cells.ravel()})
    index = {p: i for i, p in enumerate(support)}
    arcs = set()
    for u, v in cells:
        a, b = index[int(u)], index[int(v)]
        arcs.add((a, b))
        arcs.add((b, a))
    return Digraph(len(support), frozenset(arcs), tuple(support))


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
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.arcs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(find(v), []).append(v)
    return [tuple(sorted(groups[root])) for root in sorted(groups)]


# -- period and cyclic partitions -------------------------------------------


def period(g: Digraph) -> int:
    """gcd of all directed cycle lengths of a strongly connected digraph.

    Computed as the gcd over arcs (u,v) of level(u) + 1 - level(v), with
    levels taken from a BFS tree; every cycle length is an integer
    combination of these arc defects and vice versa.
    """
    if not is_strongly_connected(g):
        raise NotStronglyConnected(
            f"{len(strongly_connected_components(g))} strong components")
    if g.m == 0:
        raise NoArcs("period is undefined without arcs")
    level = [-1] * g.n
    level[0] = 0
    queue = [0]
    while queue:
        nxt: list[int] = []
        for u in queue:
            for v in g.out_adj[u]:
                if level[v] == -1:
                    level[v] = level[u] + 1
                    nxt.append(v)
        queue = nxt
    result = 0
    for u, v in g.sorted_arcs():
        result = gcd(result, abs(level[u] + 1 - level[v]))
    return result


def _component_labels(g: Digraph, p: int,
                      component: tuple[int, ...]) -> dict[int, int] | None:
    """Integer labels over one weak component, or None on a conflict.

    The least vertex gets 0; labels grow by 1 along an arc and shrink by
    1 against it.  Two labels of one vertex that differ mod p are a
    conflict.  Neighbours differ by 1, so the labels of a component form
    a contiguous range of integers.
    """
    labels = {component[0]: 0}
    queue = [component[0]]
    while queue:
        nxt: list[int] = []
        for u in queue:
            for v in g.out_adj[u]:
                want = labels[u] + 1
                if v in labels:
                    if (labels[v] - want) % p:
                        return None
                else:
                    labels[v] = want
                    nxt.append(v)
            for w in g.in_adj[u]:
                want = labels[u] - 1
                if w in labels:
                    if (labels[w] - want) % p:
                        return None
                else:
                    labels[w] = want
                    nxt.append(w)
        queue = nxt
    return labels


def cyclically_p_partite(g: Digraph, p: int) -> CyclicPartition | None:
    """A witness partition into p cyclic classes, or None if none exists.

    Integer labels are propagated within each weak component; a conflict
    mod p anywhere means no partition.  A component's labels form a
    contiguous range, so mod p they cover a cyclic interval of
    min(span, p) residues, and shifting a component moves its interval
    around.  Every class can be made nonempty exactly when these capped
    spans sum to at least p: the witness lays the intervals end to end,
    the first component keeping its own labels.
    """
    if p < 2:
        raise InvalidP(p)
    classes: list[list[int]] = [[] for _ in range(p)]
    cursor = None  # one past the last residue laid so far
    for comp in weakly_connected_components(g):
        labels = _component_labels(g, p, comp)
        if labels is None:
            return None
        shift = 0 if cursor is None else cursor - min(labels.values())
        cursor = max(labels.values()) + shift + 1
        for v, value in labels.items():
            classes[(value + shift) % p].append(v)
    if not all(classes):
        return None
    partition = CyclicPartition(p, tuple(tuple(sorted(c)) for c in classes))
    partition.check(g)
    return partition


# -- bipartiteness -----------------------------------------------------------


def is_bipartite(g: Digraph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """2-coloring of a symmetric loopless digraph, or None.

    Both classes must be nonempty for a positive answer.  Isolated
    vertices are appended (in ascending order) to whichever class is
    currently smaller, class 0 on ties.
    """
    for u, v in g.sorted_arcs():
        if u == v:
            raise HasLoops(u)
        if (v, u) not in g.arcs:
            raise NotSymmetric((u, v))
    side = [-1] * g.n
    for root in range(g.n):
        if side[root] != -1 or not g.out_adj[root]:
            continue
        side[root] = 0
        queue = [root]
        while queue:
            nxt: list[int] = []
            for u in queue:
                for v in g.out_adj[u]:
                    if side[v] == -1:
                        side[v] = 1 - side[u]
                        nxt.append(v)
                    elif side[v] == side[u]:
                        return None
            queue = nxt
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
