"""Closed color sets, scheme equivalences, and the thin radical.

A closed set contains the diagonal, its own transposes, and every color
reachable by composing two members; the union of its relations is then
an equivalence relation on the point set.  Closure runs on color
bitmasks over closure rows kept in the scheme's ``derived`` memo: row c
holds, for each color m, the mask of the colors composed from c and m
in either order.  A worklist adds one color at a time and composes it
only with the current members, one row entry per member.  Every closed
set is the join of the single-color closed sets of its colors, so the
full lattice is enumerated by joining each found set with each
single-color generator, starting from the diagonal, without scanning
all 2^r subsets.  A join depends only on the union of the two masks,
so a union that is already a found set, or was closed before, is
skipped.

Each closed set gives one equivalence, built from its colors by
``equivalence_from_colors``; the lattice queries (all, minimal and
maximal-below-full equivalences, primitivity) feed the quotients and
restrictions of ``constructions`` and the block criterion of ``checks``.
The module reads only ``core`` and ``errors``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import Scheme, mask_colors
from .errors import (
    NotASchemeEquivalence,
    NotThinElement,
    RankTooLarge,
    SchemeError,
    TooFewPoints,
)

# Full lattice enumeration is refused above this rank.
RANK_CAP = 24


@dataclass(frozen=True, eq=False)
class ClosedSet:
    """A transpose- and composition-closed color set containing the diagonal."""

    scheme: Scheme
    colors: frozenset[int]

    def __contains__(self, color: int) -> bool:
        return color in self.colors

    def __iter__(self):
        return iter(sorted(self.colors))

    def __len__(self) -> int:
        return len(self.colors)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ClosedSet) and self.scheme is other.scheme
                and self.colors == other.colors)

    def __hash__(self) -> int:
        return hash((id(self.scheme), self.colors))

    def check(self) -> None:
        """Raise if the three closure invariants fail (used by tests).

        Reads intersection numbers, not the closure rows that the
        closure engine runs on, so it verifies that engine independently.
        """
        s = self.scheme
        missing = set(s.diagonal_colors) - self.colors
        if missing:
            raise SchemeError(f"diagonal colors {sorted(missing)} missing")
        for c in self.colors:
            if s.transpose(c) not in self.colors:
                raise SchemeError(f"transpose of {c} missing")
        members = sorted(self.colors)
        inside = np.ix_(members, members)
        for c in range(s.r):
            if c in self.colors:
                continue
            hits = np.argwhere(s.tensor_slice(c)[inside])
            if hits.size:
                a, b = members[hits[0][0]], members[hits[0][1]]
                raise SchemeError(
                    f"composition {a}*{b} leaves the set via {c}")


@dataclass(frozen=True, eq=False)
class Equivalence:
    """A partition of the points whose pair relation is a union of colors.

    Equality is by class partition (same scheme object); the color set
    is carried along and always determines, and is determined by, the
    partition.
    """

    scheme: Scheme
    classes: tuple[tuple[int, ...], ...]
    colors: frozenset[int]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Equivalence) and self.scheme is other.scheme
                and self.classes == other.classes)

    def __hash__(self) -> int:
        return hash((id(self.scheme), self.classes))

    @property
    def is_discrete(self) -> bool:
        return all(len(c) == 1 for c in self.classes)

    @property
    def is_full(self) -> bool:
        return len(self.classes) == 1


def _closure_rows(scheme: Scheme) -> tuple[list[list[int]], list[int]]:
    """The closure engine's composition table, kept in the ``derived``
    memo: ``rows[c][m]`` is the mask of the colors composed from c and m
    in either order, and the transpose map as a list.

    Color c's first cell (u, w) meets the pair (color(u,v), color(v,w))
    at each point v, and p^c_ab > 0 exactly for the pairs (a, b) met, so
    one ``np.unique`` of the r * n triples (c, a, b) gives every
    composition.  The scheme is homogeneous, so r <= n and the walk and
    the rows take O(n^2) ints.
    """
    def build() -> tuple[list[list[int]], list[int]]:
        r = scheme.r
        us, ws = scheme.first_cells.T
        triples = np.unique((np.arange(r)[:, None] * r + scheme.matrix[us, :]) * r
                            + scheme.matrix[:, ws].T)
        rows = [[0] * r for _ in range(r)]
        for c, a, b in zip(*(x.tolist() for x in np.unravel_index(triples, (r, r, r)))):
            rows[a][b] |= 1 << c
            rows[b][a] |= 1 << c
        return rows, scheme.transpose_map.tolist()

    return scheme.derived("closure-rows", build)


def _close(scheme: Scheme, closed: int, extra: int) -> int:
    """Smallest closed color mask containing the closed mask ``closed``
    and the colors of the mask ``extra``.

    Worklist closure: each color taken from the worklist joins the
    members and queues its transpose and its compositions, both ways,
    with every current member, read from the color's closure row.  A
    pair of members is composed once, when the later of the two is
    added; pairs inside ``closed`` never.
    """
    rows, sigma = _closure_rows(scheme)
    members = list(mask_colors(closed))
    pending = extra & ~closed
    while pending:
        bit = pending & -pending
        pending ^= bit
        closed |= bit
        c = bit.bit_length() - 1
        members.append(c)
        row = rows[c]
        found = 1 << sigma[c]
        for m in members:
            found |= row[m]
        pending |= found & ~closed
    return closed


def _mask(colors: Iterable[int]) -> int:
    mask = 0
    for c in colors:
        mask |= 1 << c
    return mask


def generated_closed_set(scheme: Scheme, seed: Iterable[int]) -> ClosedSet:
    """Smallest closed set containing the seed colors."""
    scheme.require_homogeneous()
    extra = _mask(scheme.check_color(c) for c in seed)
    closed = _close(scheme, _mask(scheme.diagonal_colors), extra)
    return ClosedSet(scheme, frozenset(mask_colors(closed)))


def equivalence_from_colors(scheme: Scheme, colors: Iterable[int]) -> Equivalence:
    """The equivalence whose pair relation is the union of the given colors.

    Raises NotASchemeEquivalence when that union is not reflexive,
    symmetric, and transitive on the whole point set.
    """
    colorset = frozenset(scheme.check_color(c) for c in colors)
    # membership is one gather from an r-entry table
    lut = np.zeros(scheme.r, dtype=bool)
    lut[list(colorset)] = True
    member = lut[scheme.matrix]
    if not member.diagonal().all():
        raise NotASchemeEquivalence("union of relations is not reflexive")
    if not np.array_equal(member, member.T):
        raise NotASchemeEquivalence("union of relations is not symmetric")
    # label each point by the least point of its row; a reflexive,
    # symmetric relation is transitive iff it is "same label"
    labels = np.argmax(member, axis=1)
    if not np.array_equal(member, labels[:, None] == labels[None, :]):
        raise NotASchemeEquivalence("union of relations is not transitive")
    # one stable sort groups the points by label, each class ascending
    order = np.argsort(labels, kind="stable")
    cuts = (np.flatnonzero(np.diff(labels[order])) + 1).tolist()
    points = order.tolist()
    classes = tuple(tuple(points[lo:hi])
                    for lo, hi in zip([0] + cuts, cuts + [scheme.n]))
    return Equivalence(scheme, classes, colorset)


def closed_set_equivalence(scheme: Scheme, colors: frozenset[int]) -> Equivalence:
    """``equivalence_from_colors`` of a closed color set, built once per
    scheme and set and kept in the ``derived`` memo."""
    return scheme.derived(("equivalence", colors),
                          lambda: equivalence_from_colors(scheme, colors))


def all_equivalences(scheme: Scheme) -> list[Equivalence]:
    """Every scheme equivalence, discrete and full included.

    Starting from the diagonal and the single-color closed sets, each
    closed set found is joined with each single-color closed set until
    no new set appears; this reaches every closed set, since each one is
    the join of the single-color closed sets of its colors.  The join
    depends only on the union of the two masks, so it is skipped when
    that union is a closed set already found or a union already closed:
    every union is closed at most once, on the closure rows.  The result
    is sorted by color-set size, then by the sorted color ids.

    Distinct closed sets give distinct partitions: the colors partition
    the n x n cells and none is empty, so the union of a closed set's
    relations determines the set, and the partition determines the union.
    """
    scheme.require_homogeneous()
    if scheme.r > RANK_CAP:
        raise RankTooLarge(scheme.r, RANK_CAP)
    return list(scheme.derived("equivalences", lambda: _enumerate_equivalences(scheme)))


def _enumerate_equivalences(scheme: Scheme) -> list[Equivalence]:
    # the lone diagonal color of a homogeneous scheme is closed
    bottom = _mask(scheme.diagonal_colors)
    generators = {_close(scheme, bottom, 1 << c)
                  for c in range(scheme.r) if c not in scheme.diagonal_colors}
    family = {bottom} | generators
    joined = set()
    frontier = list(family)
    while frontier:
        closed = frontier.pop()
        for g in generators:
            # the join depends only on the union: close each union once
            union = closed | g
            if union in family or union in joined:
                continue
            joined.add(union)
            join = _close(scheme, closed, g)
            if join not in family:
                family.add(join)
                frontier.append(join)
    eqs = [closed_set_equivalence(scheme, frozenset(mask_colors(m))) for m in family]
    eqs.sort(key=lambda e: (len(e.colors), sorted(e.colors)))
    return eqs


def minimal_equivalences(scheme: Scheme) -> list[Equivalence]:
    """Minimal proper equivalences (discrete and full excluded).

    Each one is generated by any one of its non-diagonal colors, with no
    check needed: let T be minimal and c a non-diagonal color of T.  The
    closed set generated by c is in the enumerated family (every
    single-color closed set is), lies inside T, and is not discrete
    (it holds c); it is not full either, since T is not.  So it is a
    proper equivalence at most T, and minimality makes it T.
    """
    proper = [e for e in all_equivalences(scheme) if not e.is_discrete and not e.is_full]
    return [e for e in proper if not any(f.colors < e.colors for f in proper)]


def maximal_below_full(scheme: Scheme) -> list[Equivalence]:
    """Maximal elements among all equivalences except the full one.

    The discrete equivalence is kept as a candidate, so a primitive
    scheme reports exactly one maximal element.  The block criterion
    check counts these.
    """
    candidates = [e for e in all_equivalences(scheme) if not e.is_full]
    return [e for e in candidates
            if not any(e.colors < f.colors for f in candidates)]


def is_primitive(scheme: Scheme) -> bool:
    """True when the only equivalences are the discrete and the full one."""
    scheme.require_homogeneous()
    if scheme.n < 2:
        raise TooFewPoints("primitivity needs at least two points")
    return len(all_equivalences(scheme)) == 2


@dataclass(frozen=True, eq=False)
class ThinRadical:
    """The group formed by the degree-1 colors.

    ``table[i][j]`` is the index (into ``elements``) of the composition
    of elements i and j; ``identity`` indexes the diagonal color.
    """

    scheme: Scheme
    elements: tuple[int, ...]
    table: np.ndarray
    identity: int

    def index_of(self, color: int) -> int:
        if color not in self.elements:
            raise NotThinElement(color)
        return self.elements.index(color)

    def inverse(self, color: int) -> int:
        self.index_of(color)
        return self.scheme.transpose(color)


def thin_radical(scheme: Scheme) -> ThinRadical:
    """Collect the degree-1 colors and their composition table."""
    scheme.require_homogeneous()
    elements = tuple(c for c in range(scheme.r) if scheme.degree(c) == 1)
    k = len(elements)
    row0 = scheme.matrix[0]
    table = np.zeros((k, k), dtype=np.int64)
    lookup = {c: i for i, c in enumerate(elements)}
    for i, a in enumerate(elements):
        v = int(np.argmax(row0 == a))
        for j, b in enumerate(elements):
            w = int(np.argmax(scheme.matrix[v] == b))
            prod = int(scheme.matrix[0, w])
            if prod not in lookup:
                raise SchemeError(
                    f"product of thin colors {a},{b} is {prod} of degree "
                    f"{scheme.degree(prod)}")
            table[i, j] = lookup[prod]
    for i in range(k):
        if sorted(table[i]) != list(range(k)) or sorted(table[:, i]) != list(range(k)):
            raise SchemeError("thin radical table is not a group table")
    return ThinRadical(scheme, elements, table,
                       elements.index(scheme.diagonal_colors[0]))


def is_regular(scheme: Scheme) -> bool:
    """True when every color has degree 1 (the scheme is thin)."""
    scheme.require_homogeneous()
    return bool((scheme.degrees == 1).all())


def element_order(radical: ThinRadical, color: int) -> int:
    """Order of a thin color in the radical group: the total degree of
    the closed set it generates."""
    radical.index_of(color)
    closed = generated_closed_set(radical.scheme, {color})
    return sum(radical.scheme.degree(c) for c in closed.colors)
