"""Closed color sets, scheme equivalences, and the thin radical.

A closed set contains the diagonal, its own transposes, and every color
reachable by composing two members; the union of its relations is then
an equivalence relation on the point set.  Closure runs on color
bitmasks over closure rows kept in the scheme's ``derived`` memo: row c
holds, for each color m, the mask of the colors composed from c and m
in either order.  A worklist adds one color at a time and composes it
only with the current members, one row entry per member; it queues no
transpose, since a set closed under composition already holds each one
(see ``_close``).  The lattice is enumerated by Close-by-One (Kuznetsov,
1993): depth first from the diagonal, each set is joined with single
colors taken in ascending order, and a join is kept only when it adds
no color below the one that made it, so every closed set is made
exactly once and none is looked up.  As in In-Close (Andrews, 2009), a
join stops at the first such color its worklist meets.  A join starts
from the list of its parent's colors.

Each closed set gives one equivalence.  Its classes come from one
labeling, ``_labeled_classes``: one gather of an r-entry table over the
matrix, and each point labeled by the least point of its row.
``equivalence_from_colors`` checks any color union on top of that
labeling; the enumeration builds its closed sets' classes unchecked
(their unions are equivalences by the closure axioms) and files them
under the memo that ``closed_set_equivalence`` reads.  ``ClosedSet``
and ``Equivalence`` are frozen dataclasses whose generated equality
reads the scheme, which compares by identity, and the colors or the
classes.  The lattice queries (all, minimal and maximal-below-full
equivalences, primitivity) feed the quotients and restrictions of
``constructions`` and the block criterion of ``checks``.  The module
reads only ``core`` and ``errors``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .core import Scheme, _groups
from .errors import NotASchemeEquivalence, RankTooLarge, TooFewPoints

# Full lattice enumeration is refused above this rank.
RANK_CAP = 24


@dataclass(frozen=True)
class ClosedSet:
    """A transpose- and composition-closed color set containing the diagonal.

    Equality is by colors on the same scheme object: ``Scheme`` compares
    by identity.
    """

    scheme: Scheme
    colors: frozenset[int]

    def __contains__(self, color: int) -> bool:
        return color in self.colors

    def __iter__(self):
        return iter(sorted(self.colors))

    def __len__(self) -> int:
        return len(self.colors)


@dataclass(frozen=True)
class Equivalence:
    """A partition of the points whose pair relation is a union of colors.

    Equality is by class partition on the same scheme object (``Scheme``
    compares by identity); the color set is carried along, outside the
    comparison, and always determines, and is determined by, the
    partition.
    """

    scheme: Scheme
    classes: tuple[tuple[int, ...], ...]
    colors: frozenset[int] = field(compare=False)

    @property
    def is_discrete(self) -> bool:
        # the classes partition the points: n classes are n singletons
        return len(self.classes) == self.scheme.n

    @property
    def is_full(self) -> bool:
        return len(self.classes) == 1


def _closure_rows(scheme: Scheme) -> list[list[int]]:
    """The closure engine's composition table, kept in the ``derived``
    memo: ``rows[c][m]`` is the mask of the colors composed from c and m
    in either order.

    Color c's first cell (u, w) meets the pair (color(u,v), color(v,w))
    at each point v, and p^c_ab > 0 exactly for the pairs (a, b) met, so
    one ``np.unique`` of the r * n triples (c, a, b) gives every
    composition.  The scheme is homogeneous, so r <= n and the walk and
    the rows take O(n^2) ints.
    """
    def build() -> list[list[int]]:
        r = scheme.r
        us, ws = scheme.first_cells.T
        triples = np.unique((np.arange(r)[:, None] * r + scheme.matrix[us, :]) * r
                            + scheme.matrix[:, ws].T)
        rows = [[0] * r for _ in range(r)]
        for c, a, b in zip(*(x.tolist() for x in np.unravel_index(triples, (r, r, r)))):
            rows[a][b] |= 1 << c
            rows[b][a] |= 1 << c
        return rows

    return scheme.derived("closure-rows", build)


def _close(rows: list[list[int]], closed: int, members: list[int],
           extra: int, stop: int) -> tuple[int, list[int]] | None:
    """Smallest closed color mask containing the closed mask ``closed``,
    whose colors are listed in ``members``, and the colors of the mask
    ``extra``; returned with a new list of its colors, or None as soon
    as the worklist holds a color of the mask ``stop``.

    Worklist closure on the closure rows ``rows``: each color taken from
    the worklist joins the members and queues its compositions, both
    ways, with every current member, read from the color's closure row.
    A pair of members is composed once, when the later of the two is
    added; pairs inside ``closed`` never.  Every color the closure adds
    passes through the worklist, so None means exactly that the closure
    adds a color of ``stop``.

    No transpose is queued: a set closed under composition already holds
    each one (Zieschang, *Theory of Association Schemes*, 2005).  In a
    homogeneous scheme every vertex of a basis digraph has equal in- and
    out-degree, so each arc (u, v) of color s lies on a directed cycle
    of s-arcs, and the color of (v, u) is met in s composed with itself
    k times, for some k.  So the closed mask is the one that queuing
    transposes would give.
    """
    members = members.copy()
    pending = extra & ~closed
    while pending:
        if pending & stop:
            return None
        bit = pending & -pending
        pending ^= bit
        closed |= bit
        c = bit.bit_length() - 1
        members.append(c)
        row = rows[c]
        found = 0
        for m in members:
            found |= row[m]
        pending |= found & ~closed
    return closed, members


def _mask(colors: Iterable[int]) -> int:
    mask = 0
    for c in colors:
        mask |= 1 << c
    return mask


def generated_closed_set(scheme: Scheme, seed: Iterable[int]) -> ClosedSet:
    """Smallest closed set containing the seed colors."""
    scheme.require_homogeneous()
    extra = _mask(scheme.check_color(c) for c in seed)
    bottom = list(scheme.diagonal_colors)
    _, members = _close(_closure_rows(scheme), _mask(bottom), bottom, extra, 0)
    return ClosedSet(scheme, frozenset(members))


def _labeled_classes(scheme: Scheme, colors: list[int]
                     ) -> tuple[np.ndarray, np.ndarray, tuple[tuple[int, ...], ...]]:
    """The cells of the union of ``colors``, each point's label and the
    points grouped by label.

    Membership is one gather from an r-entry table, and each point is
    labeled by the least point of its row, by one ``argmax``, and
    ``core._groups`` groups the points by label, so when the union is an
    equivalence every class is ascending and the classes come in the
    order of their least points, which are their labels.
    """
    lut = np.zeros(scheme.r, dtype=bool)
    lut[colors] = True
    member = lut[scheme.matrix]
    labels = member.argmax(axis=1)
    return member, labels, _groups(labels)


def equivalence_from_colors(scheme: Scheme, colors: Iterable[int]) -> Equivalence:
    """The equivalence whose pair relation is the union of the given colors.

    Raises NotASchemeEquivalence when that union is not reflexive,
    symmetric, and transitive on the whole point set.  The classes are
    those of ``_labeled_classes``, which the three checks make exact: a
    reflexive, symmetric relation is transitive iff it is "same label".
    """
    colorset = frozenset(scheme.check_color(c) for c in colors)
    member, labels, classes = _labeled_classes(scheme, list(colorset))
    if not member.diagonal().all():
        raise NotASchemeEquivalence("union of relations is not reflexive")
    if not np.array_equal(member, member.T):
        raise NotASchemeEquivalence("union of relations is not symmetric")
    if not np.array_equal(member, labels[:, None] == labels[None, :]):
        raise NotASchemeEquivalence("union of relations is not transitive")
    return Equivalence(scheme, classes, colorset)


def closed_set_equivalence(scheme: Scheme, colors: frozenset[int]) -> Equivalence:
    """The equivalence of a color set, kept in the ``derived`` memo under
    ``("equivalence", colors)``.

    The lattice enumeration files every closed set there, so for those
    this is a lookup; on a miss, ``equivalence_from_colors`` builds it
    with its three checks, so a caller's colors that are not a closed
    set still raise NotASchemeEquivalence.
    """
    return scheme.derived(("equivalence", colors),
                          lambda: equivalence_from_colors(scheme, colors))


def all_equivalences(scheme: Scheme) -> list[Equivalence]:
    """Every scheme equivalence, discrete and full included.

    Every closed set is made once, by the Close-by-One search of
    ``_enumerate_equivalences``, with no scan of all 2^r subsets.  The
    result is sorted by color-set size, then by the sorted color ids.

    Distinct closed sets give distinct partitions: the colors partition
    the n x n cells and none is empty, so the union of a closed set's
    relations determines the set, and the partition determines the union.
    """
    scheme.require_homogeneous()
    if scheme.r > RANK_CAP:
        raise RankTooLarge(scheme.r, RANK_CAP)
    return list(scheme.derived("equivalences", lambda: _enumerate_equivalences(scheme)))


def _enumerate_equivalences(scheme: Scheme) -> list[Equivalence]:
    """The closed sets of a homogeneous scheme and their equivalences.

    Close-by-One (Kuznetsov, 1993) over the non-diagonal colors c with
    sigma[c] >= c, in ascending order, depth first from the diagonal: a
    set S made by adding color c is joined with each later such color d
    that S lacks, and the join is kept when it adds no color below d.
    ``_close`` runs that test during the closure, with the colors below
    d as its stop mask, and is exact: a color in the worklist is in the
    full closure, which then fails the test too, and a closure that runs
    to the end never queued such a color, so it passes.
    Every closed set is then kept exactly once, from its one canonical
    parent, so no found set is looked up.  Skipping a color whose
    transpose is smaller loses nothing: its join always adds that
    smaller transpose, so the test would reject it anyway.  Each set is
    kept with the list of its colors, and a join starts from that list;
    the closure rows are read once.

    The classes are built by ``_labeled_classes`` with no axiom check,
    and filed under the ``("equivalence", colors)`` memo that
    ``closed_set_equivalence`` reads.  The checks would pass: in a
    homogeneous scheme a closed set holds the lone diagonal color, so
    its union is reflexive; it holds the transpose of each member, so
    the union is symmetric; and it holds every color of a composed pair
    (p^c_ab > 0 with a, b in the set puts c in the set), so the union is
    transitive.
    """
    rows, sigma = _closure_rows(scheme), scheme.transpose_map
    # the lone diagonal color of a homogeneous scheme is closed
    bottom = list(scheme.diagonal_colors)
    colors = [c for c in range(scheme.r) if c not in bottom and sigma[c] >= c]
    found = []
    stack = [(_mask(bottom), bottom, 0)]
    while stack:
        closed, members, start = stack.pop()
        found.append(members)
        for i in range(start, len(colors)):
            c = colors[i]
            if (closed >> c) & 1:
                continue
            # stop at the first color below c that the join would add
            join = _close(rows, closed, members, 1 << c, (1 << c) - 1)
            if join is not None:
                stack.append((*join, i + 1))
    ordered = sorted(found, key=lambda ms: (len(ms), sorted(ms)))
    return [_unchecked_equivalence(scheme, members) for members in ordered]


def _unchecked_equivalence(scheme: Scheme, members: list[int]) -> Equivalence:
    """The memo's equivalence of a closed set, built with no axiom check
    when missing; exact only for closed sets, by the argument in
    ``_enumerate_equivalences``."""
    colors = frozenset(members)
    return scheme.derived(("equivalence", colors), lambda: Equivalence(
        scheme, _labeled_classes(scheme, members)[2], colors))


def minimal_equivalences(scheme: Scheme) -> list[Equivalence]:
    """Minimal proper equivalences (discrete and full excluded).

    Each one is generated by any one of its non-diagonal colors, with no
    check needed: let T be minimal and c a non-diagonal color of T.  The
    closed set generated by c is enumerated (every closed set is), lies
    inside T, and is not discrete (it holds c); it is not full either,
    since T is not.  So it is a proper equivalence at most T, and
    minimality makes it T.
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


def thin_radical(scheme: Scheme) -> ThinRadical:
    """Collect the degree-1 colors and their composition table.

    Exact with no check, by n_a * n_b = sum_c p^c_ab * n_c (Zieschang,
    *Theory of Association Schemes*, 2005): for thin a and b the left
    side is 1, so exactly one color c has p^c_ab > 0, and n_c = 1.  A
    product of thin colors is thus one thin color.  The thin colors hold
    the diagonal color and, as p^diagonal_{a,a'} = n_a = 1 for the
    transpose a', an inverse of each; relation products associate, so
    they form a group and the table is a group table.

    One scatter fills it: with v_a the one point that row 0 reaches by
    the thin color a, the product of a and b is color(0, w) for the one
    w with color(v_a, w) = b, and each of the k rows v_a holds every
    thin color exactly once.
    """
    scheme.require_homogeneous()
    thin = scheme.degrees == 1
    elements = np.flatnonzero(thin)
    index = np.cumsum(thin) - 1  # each thin color's place in ``elements``
    row0 = scheme.matrix[0]
    reached = np.flatnonzero(thin[row0])
    rows = scheme.matrix[reached]
    i, w = np.nonzero(thin[rows])
    table = np.empty((elements.size, elements.size), dtype=np.int64)
    table[index[row0[reached[i]]], index[rows[i, w]]] = index[row0[w]]
    return ThinRadical(scheme, tuple(elements.tolist()), table,
                       int(index[scheme.diagonal_colors[0]]))


def is_regular(scheme: Scheme) -> bool:
    """True when every color has degree 1 (the scheme is thin)."""
    scheme.require_homogeneous()
    return bool((scheme.degrees == 1).all())
