"""Test-only code shared by the test modules: oracles and fixtures.

Every ``old_*`` function is an implementation that a faster or simpler
one in ``src/asck`` replaced, kept verbatim or nearly so as the oracle the
tests compare against.  ``check_closed_set`` and ``check_cyclic_partition``
are the verifiers that were ``ClosedSet.check`` and ``CyclicPartition.check``;
no library code calls them.  The rest are brute-force references and the
fixtures that more than one test module builds, and ``trace_targets``,
the reader of the benchmark tracer's ``TARGETS``.  No test module imports
another; they all import from here.
"""

import ast
import functools
import random
from collections import Counter
from math import gcd
from pathlib import Path

import networkx as nx
import numpy as np

from asck import (
    CyclicPartition,
    Digraph,
    basis_digraph,
    canonical_recolor,
    digraph_color_matrix,
    is_regular,
    is_strongly_connected,
    strongly_connected_components,
    validate,
    wl_closure,
)
from asck import constructions, lattice
from asck.checks import PSchemeVerdict
from asck.core import _integer_matrix, _integral, as_color_matrix
from asck.errors import (
    HasLoops,
    InconsistentIntersectionNumbers,
    InvalidGroupTable,
    InvalidP,
    NoArcs,
    NotASchemeEquivalence,
    NotStronglyConnected,
    NotSymmetric,
    SchemeError,
)
from asck.io import ParseError, _content_lines, _ints


# -- core --------------------------------------------------------------------


def unique_first_cells(matrix):
    """Row-major first cell (u, v) of every color, as an (r, 2) array: the
    ``np.unique`` oracle for the first cells certification reads off its
    cell sort."""
    _, first_flat = np.unique(matrix.ravel(), return_index=True)
    return np.stack(np.divmod(first_flat, matrix.shape[0]), axis=1)


def same_matrix(a, b):
    """Whether two Schemes have equal color matrices: the content
    comparison that identity-equal ``Scheme`` objects do not make."""
    return bool(np.array_equal(a.matrix, b.matrix))


def old_decimal_words(arr):
    """The decimal text of every entry of an int64 array, as an object
    array of its shape: the ``str`` table that ``_decimal_text`` replaced,
    whose joins are the oracle for its bytes."""
    if arr.min() >= 0 and arr.max() < arr.size:
        return np.array([str(v) for v in range(int(arr.max()) + 1)], dtype=object)[arr]
    values, inverse = np.unique(arr, return_inverse=True)
    return np.array([str(v) for v in values.tolist()], dtype=object)[inverse.reshape(arr.shape)]


def old_fibers(diag):
    """One ``np.nonzero`` scan of the diagonal per diagonal color: the
    loop that ``_fibers`` replaced, O(n) per fiber."""
    return tuple(tuple(int(u) for u in np.nonzero(diag == d)[0]) for d in np.unique(diag))


def old_labeled_groups(labels):
    """The dict loop that ``lattice._labeled_classes`` ran before
    ``core._groups``: points grouped by label in first-seen order."""
    groups = {}
    for p, label in enumerate(labels.tolist()):
        groups.setdefault(label, []).append(p)
    return tuple(map(tuple, groups.values()))


def old_components(comp):
    """The dict loop that was ``digraph._components`` before
    ``core._groups``: vertices grouped by the least vertex of their class,
    in first-seen order."""
    groups = {}
    for v, c in enumerate(comp):
        groups.setdefault(c, []).append(v)
    return [tuple(members) for members in groups.values()]


def two_fiber_scheme():
    g = Digraph.from_arcs(6, [(0, 1), (1, 0), (2, 3), (3, 4), (4, 5), (5, 2)])
    return wl_closure(digraph_color_matrix(g))


def old_check_intersection_numbers(matrix, r, order, offsets):
    """The int64 walk over all n^2 cells that ``_check_intersection_numbers``
    replaced, reporting through ``counter_mismatch``; the oracle for its
    outcomes.  It takes the cells as flat row-major positions, like the
    walk, and splits them into (u, w) pairs itself."""
    n = matrix.shape[0]
    cells = np.stack(np.divmod(order, n), axis=1)
    columns = np.ascontiguousarray(matrix.T)
    codes = np.empty((n + 1, n), dtype=np.int64)
    rows, previous = codes[1:], codes[:-1]
    right = np.empty((n, n), dtype=np.int64)
    differs = np.empty((n, n), dtype=bool)
    flagged = np.ones(n * n, dtype=bool)
    flagged[offsets[:-1]] = False
    for lo in range(0, n * n, n):
        us, ws = cells[lo:lo + n].T
        np.take(matrix, us, axis=0, out=rows, mode="clip")
        np.take(columns, ws, axis=0, out=right, mode="clip")
        rows *= r
        rows += right
        rows.sort(axis=1)
        np.not_equal(rows, previous, out=differs)
        flagged[lo:lo + n] &= differs.any(axis=1)
        codes[0] = codes[n]
    if flagged.any():
        u, w = cells[flagged].T
        k = int(np.argmin(u * n + w))
        color = int(matrix[u[k], w[k]])
        counter_mismatch(matrix, r, color, tuple(map(int, cells[offsets[color]])),
                         (int(u[k]), int(w[k])))


def row_zero_runs(matrix):
    """The flat positions w of the cells (0, w) of row 0 stably sorted by
    color, and the offsets of their color runs over every color of the
    matrix: the walk that certification makes of a shift-invariant
    coloring."""
    sizes = np.bincount(matrix[0], minlength=int(matrix.max()) + 1)
    return np.argsort(matrix[0], kind="stable"), np.concatenate(([0], np.cumsum(sizes)))


def counter_mismatch(matrix, r, color, cell_a, cell_b):
    """``_raise_count_mismatch`` by ``Counter``: the least code whose count
    differs between the two cells."""
    def counts(cell):
        u, w = cell
        return Counter(int(a) * r + int(b) for a, b in zip(matrix[u, :], matrix[:, w]))

    ca, cb = counts(cell_a), counts(cell_b)
    code = min(c for c in ca.keys() | cb.keys() if ca[c] != cb[c])
    raise InconsistentIntersectionNumbers(
        color, (code // r, code % r), cell_a, ca[code], cell_b, cb[code])


def old_canonical_recolor(matrix):
    """The composition ``canonical_scheme`` replaced: relabel to 0..r-1,
    find first cells, rank colors with a Python sort.  Its oracle."""
    arr = _integer_matrix(matrix)
    arr = np.unique(arr, return_inverse=True)[1].reshape(arr.shape)
    r = int(arr.max()) + 1
    us, vs = unique_first_cells(arr).T
    diag_counts = np.bincount(arr.diagonal(), minlength=r)
    rank = sorted(range(r), key=lambda c: (diag_counts[c] == 0, us[c] * arr.shape[0] + vs[c]))
    perm = np.empty(r, dtype=np.int64)
    for new, old in enumerate(rank):
        perm[old] = new
    return perm[arr]


def old_canonical_scheme(matrix):
    return validate(old_canonical_recolor(matrix))


# -- lattice -----------------------------------------------------------------


def tensor_composition(scheme):
    """The composition table read from ``tensor()``: ``comp[a, b]`` is the
    mask of the colors c with p^c_ab > 0."""
    comp = {}
    for c, a, b in zip(*(x.tolist() for x in np.nonzero(scheme.tensor()))):
        comp[a, b] = comp.get((a, b), 0) | (1 << c)
    return comp


def mask_colors(mask):
    """The colors whose bits are set in a color bitmask, ascending."""
    colors = []
    while mask:
        low = mask & -mask
        colors.append(low.bit_length() - 1)
        mask ^= low
    return tuple(colors)


def old_close(comp, sigma, closed, extra):
    """The worklist closure read straight from a composition table
    ``comp``: two dict lookups per member and a numpy transpose map
    ``sigma``, no closure rows."""
    members = list(mask_colors(closed))
    pending = extra & ~closed
    while pending:
        bit = pending & -pending
        pending ^= bit
        closed |= bit
        c = bit.bit_length() - 1
        members.append(c)
        found = 1 << int(sigma[c])
        for m in members:
            found |= comp[c, m] | comp[m, c]
        pending |= found & ~closed
    return closed


def old_equivalence_from_colors(scheme, colors):
    """Membership by ``np.isin``, one ``flatnonzero`` per ``np.unique`` label."""
    colorset = frozenset(scheme.check_color(c) for c in colors)
    member = np.isin(scheme.matrix, sorted(colorset))
    if not member.diagonal().all():
        raise NotASchemeEquivalence("union of relations is not reflexive")
    if not np.array_equal(member, member.T):
        raise NotASchemeEquivalence("union of relations is not symmetric")
    labels = np.argmax(member, axis=1)
    if not np.array_equal(member, labels[:, None] == labels[None, :]):
        raise NotASchemeEquivalence("union of relations is not transitive")
    classes = tuple(tuple(np.flatnonzero(labels == least).tolist())
                    for least in np.unique(labels))
    return lattice.Equivalence(scheme, classes, colorset)


def old_all_equivalences(scheme):
    """Every found set joined with every generator, each join closed
    afresh by ``old_close``, with no union skipped."""
    comp, sigma = tensor_composition(scheme), scheme.transpose_map
    bottom = 0
    for c in scheme.diagonal_colors:
        bottom |= 1 << c
    generators = {old_close(comp, sigma, bottom, 1 << c) for c in range(scheme.r)}
    family = {bottom}
    frontier = [bottom]
    while frontier:
        closed = frontier.pop()
        for g in generators:
            join = old_close(comp, sigma, closed, g)
            if join not in family:
                family.add(join)
                frontier.append(join)
    eqs = [old_equivalence_from_colors(scheme, mask_colors(m)) for m in family]
    eqs.sort(key=lambda e: (len(e.colors), sorted(e.colors)))
    return eqs


def old_outcome(build, scheme, colors):
    try:
        return build(scheme, colors).classes
    except SchemeError as exc:
        return type(exc), str(exc)


def check_closed_set(closed):
    """Raise SchemeError if a ``ClosedSet`` misses a diagonal color or a
    transpose, or if two members compose to an outside color.

    Reads intersection numbers at first cells, not the closure rows that
    the closure engine runs on, so it verifies that engine independently.
    The leaving pair named is the least pair (a, b) of members met at the
    first cell of the least outside color reached.
    """
    s, colors = closed.scheme, closed.colors
    missing = set(s.diagonal_colors) - colors
    if missing:
        raise SchemeError(f"diagonal colors {sorted(missing)} missing")
    for c in colors:
        if s.transpose(c) not in colors:
            raise SchemeError(f"transpose of {c} missing")
    inside = np.zeros(s.r, dtype=bool)
    inside[list(colors)] = True
    for c in range(s.r):
        if inside[c]:
            continue
        u, w = s.first_cells[c]
        left, right = s.matrix[u, :], s.matrix[:, w]
        hits = (left * s.r + right)[inside[left] & inside[right]]
        if hits.size:
            a, b = divmod(int(hits.min()), s.r)
            raise SchemeError(f"composition {a}*{b} leaves the set via {c}")


def old_thin_radical(scheme):
    """The per-pair ``argmax`` loop and the two raises that the scatter in
    ``thin_radical`` replaced."""
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
    return lattice.ThinRadical(scheme, elements, table,
                               elements.index(scheme.diagonal_colors[0]))


# -- digraph -----------------------------------------------------------------


def old_relabeled(cells):
    """The set and dict renumbering that ``digraph._relabeled`` ran before
    its one ``np.unique``: cells over the sorted support, and the support."""
    pairs = cells.tolist()
    support = sorted({p for pair in pairs for p in pair})
    index = {p: i for i, p in enumerate(support)}
    return [(index[u], index[v]) for u, v in pairs], tuple(support)


def check_cyclic_partition(partition, g):
    """Raise SchemeError unless ``partition`` is a witness that the digraph
    g is cyclically p-partite: p nonempty classes that cover the vertices
    once each, every arc running from one class to the next."""
    p, classes = partition.p, partition.classes
    if p < 2 or len(classes) != p:
        raise SchemeError(f"expected {p} classes, got {len(classes)}")
    seen = {}
    for idx, cls in enumerate(classes):
        if not cls:
            raise SchemeError(f"class {idx} is empty")
        for v in cls:
            if v in seen:
                raise SchemeError(f"vertex {v} in classes {seen[v]} and {idx}")
            seen[v] = idx
    if len(seen) != g.n:
        raise SchemeError("classes do not cover the vertex set")
    for u, v in g.arcs:
        if seen[v] != (seen[u] + 1) % p:
            raise SchemeError(f"arc ({u},{v}) goes from class {seen[u]} to {seen[v]}")


def brute_period(g: Digraph) -> int:
    lengths = [len(c) for c in nx.simple_cycles(nx.DiGraph(list(g.arcs)))]
    return gcd(*lengths)


def random_strongly_connected_digraph(rng: random.Random, n: int) -> Digraph:
    """A random strongly connected digraph: a spanning cycle plus chords.

    One third are bare cycles (period n), one third add chords whose
    stride keeps a residue structure (period a proper divisor), one
    third add arbitrary chords (period usually 1).
    """
    if n == 1:
        return Digraph(1, frozenset({(0, 0)} if rng.random() < 0.5 else set()))
    arcs = {(u, (u + 1) % n) for u in range(n)}
    style = rng.randrange(3)
    if style == 1:
        divisors = [d for d in range(2, n) if n % d == 0]
        if divisors:
            d = rng.choice(divisors)
            strides = [j for j in range(2, n) if j % d == 1]
            for j in rng.sample(strides, min(len(strides), rng.randint(1, 2))):
                u = rng.randrange(n)
                arcs.add((u, (u + j) % n))
    elif style == 2:
        extra = rng.randint(1, max(1, n // 2))
        for _ in range(extra):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                arcs.add((u, v))
    return Digraph(n, frozenset(arcs))


def old_weakly_connected_components(g: Digraph) -> list[tuple[int, ...]]:
    """Union-find over the arcs."""
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


def old_period(g: Digraph) -> int:
    """gcd of level(u) + 1 - level(v) over arcs, levels from a BFS tree."""
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


def old_component_labels(g: Digraph, p: int,
                         component: tuple[int, ...]) -> dict[int, int] | None:
    """Labels over one weak component by a BFS that checks them mod p."""
    in_adj = [sorted(u for u, w in g.arcs if w == v) for v in range(g.n)]
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
            for w in in_adj[u]:
                want = labels[u] - 1
                if w in labels:
                    if (labels[w] - want) % p:
                        return None
                else:
                    labels[w] = want
                    nxt.append(w)
        queue = nxt
    return labels


def old_cyclically_p_partite(g: Digraph, p: int) -> CyclicPartition | None:
    """Per-component mod-p labels placed by the interval rule of
    ``cyclically_p_partite``: a component's residues cover a cyclic
    interval of width w = min(span, p) that starts at (least label) mod p
    when w < p and at the least vertex's residue 0 when w = p; the
    intervals are laid end to end from the first one's start.  The
    labels come from a level BFS, not from any forest."""
    if p < 2:
        raise InvalidP(p)
    classes: list[list[int]] = [[] for _ in range(p)]
    cursor = None
    for comp in old_weakly_connected_components(g):
        labels = old_component_labels(g, p, comp)
        if labels is None:
            return None
        lo, hi = min(labels.values()), max(labels.values())
        width = min(hi - lo + 1, p)
        start = lo % p if width < p else 0
        cursor = start if cursor is None else cursor
        for v, value in labels.items():
            classes[(value + cursor - start) % p].append(v)
        cursor += width
    if not all(classes):
        return None
    partition = CyclicPartition(p, tuple(tuple(sorted(c)) for c in classes))
    check_cyclic_partition(partition, g)
    return partition


def old_is_bipartite(g: Digraph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """2-coloring BFS from the least vertex of each component with arcs."""
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


def old_potentials(n, tails, heads):
    """Weak components, integer labels and arc defects of the digraph on
    0..n-1 with arcs (tails[i], heads[i]): the FIFO BFS that
    ``_forest_defects`` replaced.

    Each weak component is labeled by BFS from its least vertex, which
    gets 0; a label grows by 1 along an arc and shrinks by 1 against it,
    out-neighbours first, each side in ascending order.  comp[v] is the
    least vertex of v's component.  An arc's defect is
    label(u) + 1 - label(v)."""
    def adjacency(src, dst):
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


def old_basis_periods(s):
    """The all-cells FIFO build that ``basis_periods`` replaced: every
    cell an arc of one ``old_potentials`` run, single-cell colors included."""
    n = s.n
    colors = s.matrix.ravel()
    tails, heads = np.divmod(np.arange(n * n), n)
    pairs, vertex = np.unique(np.concatenate((colors * n + tails, colors * n + heads)),
                              return_inverse=True)
    periods = np.zeros(s.r, dtype=np.int64)
    np.gcd.at(periods, colors, old_potentials(pairs.size, *vertex.reshape(2, -1))[2])
    return periods


# -- constructions -----------------------------------------------------------


def cayley_inverse(t, g):
    """The inverse of g in a ``CayleyTable``: where row g meets the identity."""
    return int(np.argmax(t.table[g] == t.identity))


def old_cayley_table(table):
    """The row-by-row verifier that Light's test replaced, verbatim."""
    arr = np.asarray(table)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise InvalidGroupTable(f"expected a nonempty square table, got {arr.shape}")
    m = arr.shape[0]
    if not _integral(arr) or arr.min() < 0 or arr.max() >= m:
        raise InvalidGroupTable("entries must be element ids 0..m-1")
    arr = arr.astype(np.int64)
    ids = np.arange(m)
    for g in range(m):
        if sorted(arr[g]) != list(ids) or sorted(arr[:, g]) != list(ids):
            raise InvalidGroupTable(f"row or column {g} is not a permutation")
    identity = -1
    for e in range(m):
        if np.array_equal(arr[e], ids) and np.array_equal(arr[:, e], ids):
            identity = e
            break
    if identity < 0:
        raise InvalidGroupTable("no identity element")
    # (ab)c against a(bc) one row a at a time: m^2 entries live, not m^3
    for a in range(m):
        if not np.array_equal(arr[arr[a]], arr[a][arr]):
            raise InvalidGroupTable("multiplication is not associative")
    arr.setflags(write=False)
    return constructions.CayleyTable(m, arr, identity)


def old_dihedral_table(k):
    """The loop-built dihedral table that broadcasting replaced."""
    if k < 1:
        raise InvalidGroupTable(f"rotation order must be positive, got {k}")
    m = 2 * k
    arr = np.zeros((m, m), dtype=np.int64)
    for x in range(m):
        a, i = divmod(x, k)
        for y in range(m):
            b, j = divmod(y, k)
            rot = (i + j) % k if a == 0 else (i - j) % k
            arr[x, y] = ((a + b) % 2) * k + rot
    return old_cayley_table(arr)


def old_wreath_matrix(inner, outer):
    """The block-by-block raw matrix of ``wreath`` before its
    canonical recoloring: the loop that broadcasting replaced."""
    n1, n2 = inner.n, outer.n
    n = n1 * n2
    raw = np.zeros((n, n), dtype=np.int64)
    for u2 in range(n2):
        for v2 in range(n2):
            block = np.s_[u2 * n1:(u2 + 1) * n1, v2 * n1:(v2 + 1) * n1]
            if u2 == v2:
                raw[block] = inner.matrix
            else:
                raw[block] = inner.r + outer.matrix[u2, v2]
    return raw


def old_quotient_matrix(scheme, e):
    """The class-pair loop: one gather, one np.unique and one frozenset
    per pair of classes, the base read by ``equivalence_from_colors``."""
    base = lattice.equivalence_from_colors(scheme, e.colors)
    if base.classes != e.classes:
        raise NotASchemeEquivalence(
            "classes are not the classes of the color union")
    classes = e.classes
    k = len(classes)
    raw = np.zeros((k, k), dtype=np.int64)
    ids, seen_in = {}, {}
    for x in range(k):
        for y in range(k):
            block = frozenset(
                int(c) for c in np.unique(
                    scheme.matrix[np.ix_(classes[x], classes[y])]))
            if block not in ids:
                ids[block] = len(ids)
            raw[x, y] = ids[block]
            for c in block:
                prev = seen_in.setdefault(c, block)
                if prev != block:
                    raise SchemeError(
                        f"color {c} occurs in distinct class-pair color sets "
                        f"{sorted(prev)} and {sorted(block)}")
    return raw


def old_is_block(scheme, points):
    """``is_block`` before the row count: in the homogeneous case, whether
    the set is a class of the equivalence generated by its inner colors."""
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
    closed = lattice.generated_closed_set(scheme, inside)
    return tuple(pts) in lattice.closed_set_equivalence(scheme, closed.colors).classes


def circulant_shape(rng, n):
    """Jumps +a and -a for a seeded unit a mod n: isomorphic to the n-cycle."""
    a = rng.choice([a for a in range(1, n // 2) if gcd(a, n) == 1])
    return [(u, (u + j) % n) for u in range(n) for j in (a, n - a)]


def chords_shape(rng, n):
    """A spanning cycle through a seeded vertex order plus n // 2 random chords."""
    order = list(range(n))
    rng.shuffle(order)
    arcs = {(order[i], order[(i + 1) % n]) for i in range(n)}
    while len(arcs) < n + n // 2:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            arcs.add((u, v))
    return sorted(arcs)


def ladder_matrix(make, n, seed=0):
    return digraph_color_matrix(Digraph.from_arcs(n, make(random.Random(seed), n)))


@functools.cache
def ladder_closures_64():
    """The closures of the n = 64 circulant (rank 33, homogeneous) and
    cycle-plus-chords (discrete, rank 4,096) ladder shapes, built once."""
    return tuple(wl_closure(ladder_matrix(make, 64, seed=64))
                 for make in (circulant_shape, chords_shape))


def old_hashed_fixpoint(cur, seed, width):
    """Rounds with two hashes, ranked as one complex128 ``np.unique``:
    the oracle for the partitions that ``_hashed_fixpoint`` reaches."""
    rng = np.random.default_rng(seed)
    while True:
        r = int(cur.max()) + 1
        x1, y1, x2, y2 = rng.integers(1, 1 << width, size=(4, r)).astype(np.float64)
        _, pair = np.unique(np.einsum("uv,vw->uw", x1[cur], y1[cur])
                            + 1j * np.einsum("uv,vw->uw", x2[cur], y2[cur]),
                            return_inverse=True)
        _, inverse = np.unique(cur * cur.size + pair.reshape(cur.shape),
                               return_inverse=True)
        if int(inverse.max()) + 1 == r:
            return cur
        cur = inverse.reshape(cur.shape)


def old_full_rows_fixpoint(cur, seed, width):
    """``_hashed_fixpoint`` with every round over all n rows: the oracle,
    ids included, for its rounds on row 0 of a shift-invariant partition."""
    rng = np.random.default_rng(seed)
    while True:
        r = int(cur.max()) + 1
        x, y = constructions._hash_weights(rng, r, width)
        _, rank = np.unique(np.einsum("uv,vw->uw", x[cur], y[cur]), return_inverse=True)
        k = int(rank.max()) + 1
        _, inverse = np.unique(cur * k + rank.reshape(cur.shape), return_inverse=True)
        if int(inverse.max()) + 1 == r:
            return cur
        cur = inverse.reshape(cur.shape)


# -- checks ------------------------------------------------------------------


def is_power_of(x: int, p: int) -> bool:
    """Whether x = p^k for some k >= 0, by repeated division: the oracle
    of ``is_p_scheme``'s vector test."""
    if x < 1:
        return False
    while x % p == 0:
        x //= p
    return x == 1


def wreath_p_element(rng: random.Random, p: int, k: int) -> tuple[int, ...]:
    """A random element of the iterated wreath product Z_p wr ... wr Z_p
    on the p^k points, as the tuple of images.  Point x has base-p
    digits x_0 (lowest) to x_{k-1}; digit i gains a shift f_i(x mod p^i)
    mod p that depends on the digits below it, f_i a random table."""
    tables = [[rng.randrange(p) for _ in range(p ** i)] for i in range(k)]
    return tuple(sum((x // p ** i + tables[i][x % p ** i]) % p * p ** i for i in range(k))
                 for x in range(p ** k))


def is_transitive(n: int, generators) -> bool:
    """Whether the permutations' images reach every point from 0: one BFS."""
    seen, queue = {0}, [0]
    for u in queue:
        for g in generators:
            if g[u] not in seen:
                seen.add(g[u])
                queue.append(g[u])
    return len(seen) == n


def orbital_matrix(n: int, generators) -> np.ndarray:
    """The canonically recolored orbital coloring of the group the
    permutations generate: its orbits on the n^2 pairs, the components of
    a union-find that joins each pair (u, v) with (g(u), g(v))."""
    parent = list(range(n * n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for g in generators:
        images = [gu * n + gv for gu in g for gv in g]  # pair (u, v) goes to images[u * n + v]
        for a, b in enumerate(images):
            a, b = find(a), find(b)
            if a != b:
                parent[a] = b
    return canonical_recolor(np.array([find(a) for a in range(n * n)]).reshape(n, n))


# (p, k): transitive p-groups of degree p^k, inside Z_p wr ... wr Z_p
ORBITAL_DEGREES = ((2, 3), (2, 4), (3, 2), (2, 5), (3, 3))


def orbital_p_schemes(seed: int = 1, draws: int = 40) -> list[tuple[int, np.ndarray]]:
    """(p, orbital matrix) for every transitive group among ``draws``
    seeded sets of one to three random elements of Z_p wr ... wr Z_p,
    per (p, k) of ``ORBITAL_DEGREES``.  Every transitive p-group of
    degree p^k is conjugate into that product, so the draws reach them
    all up to point labels; each orbital scheme is a p-scheme, with
    valencies |G_x : G_x & G_y|, and its group need not act regularly."""
    rng = random.Random(seed)
    schemes = []
    for p, k in ORBITAL_DEGREES:
        for _ in range(draws):
            generators = [wreath_p_element(rng, p, k) for _ in range(rng.randint(1, 3))]
            if is_transitive(p ** k, generators):
                schemes.append((p, orbital_matrix(p ** k, generators)))
    return schemes


def symmetric_orbital_matrices(seed: int = 1, draws: int = 40) -> list[np.ndarray]:
    """The orbital matrix of every transitive group among ``draws``
    seeded sets of one to three random permutations of S_n, for n = 3 to
    8.  Such groups are mostly 2-transitive or not of prime-power order,
    so their orbital schemes are mostly rank 2 or no p-scheme: negative
    instances beside the p-schemes that small groups still give."""
    rng = random.Random(seed)
    matrices = []
    for n in range(3, 9):
        for _ in range(draws):
            generators = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, 3))]
            if is_transitive(n, generators):
                matrices.append(orbital_matrix(n, generators))
    return matrices


def old_non_diagonal_colors(s):
    """The non-diagonal colors, ascending, as the per-color loops read them."""
    off = np.ones(s.r, dtype=bool)
    off[list(s.diagonal_colors)] = False
    return np.flatnonzero(off).tolist()


def old_is_p_scheme(s, p):
    """The per-color loop that ``is_p_scheme`` replaced."""
    for color in range(s.r):
        if not is_power_of(int(s.sizes[color]), p):
            return PSchemeVerdict(False, color, int(s.sizes[color]))
    return PSchemeVerdict(True)


def old_primitive_rhs(s, p):
    """The rhs and witnesses of ``check_primitive_structure`` as first
    built: each color's basis digraph, Tarjan and its out-degrees."""
    witnesses = {}
    cycles_ok = True
    for color in old_non_diagonal_colors(s):
        g = basis_digraph(s, color)
        if not (g.n == p and is_strongly_connected(g)
                and all(len(out) == 1 for out in g.out_adj)):
            cycles_ok = False
            witnesses["non-cycle-color"] = f"color {color} is not a directed {p}-cycle"
            break
    regular = is_regular(s)
    if not regular:
        witnesses["not-regular"] = "some color has degree > 1"
    if s.n != p:
        witnesses["point-count"] = f"n={s.n} differs from p={p}"
    return regular and s.n == p and cycles_ok, witnesses


def old_size_side(s, p):
    """The p-scheme verdict and its "size-offender" witness, per color."""
    verdict = old_is_p_scheme(s, p)
    if verdict:
        return True, {}
    return False, {"size-offender": f"color {verdict.offender_color} "
                                    f"has size {verdict.offender_size}"}


def old_partite(s, p):
    """lhs, rhs and witnesses of the partite criterion, by per-color loops
    over the all-cells periods."""
    lhs, witnesses = old_size_side(s, p)
    rhs = True
    periods = old_basis_periods(s)
    for color in old_non_diagonal_colors(s):
        if periods[color] % p:
            rhs = False
            witnesses["unpartitioned-color"] = f"color {color} admits no cyclic {p}-partition"
            break
    return lhs, rhs, witnesses


def old_bipartite(s):
    """lhs, rhs and witnesses of the bipartite criterion, by per-color loops
    over the all-cells periods."""
    lhs, witnesses = old_size_side(s, 2)
    rhs = True
    periods = old_basis_periods(s)
    for color in old_non_diagonal_colors(s):
        if periods[color] % 2:
            u, v = s.first_cells[color]
            if s.matrix[u, u] != s.matrix[v, v]:  # u and v in different fibers
                raise SchemeError(f"cross-fiber color {color} produced a non-bipartite graph")
            rhs = False
            witnesses["odd-color"] = f"color {color} has a non-bipartite basis graph"
            break
    return lhs, rhs, witnesses


def old_primitive_loop_rhs(s, p):
    """The rhs and witnesses of ``check_primitive_structure`` by a per-color
    loop over ``degrees`` and the all-cells periods."""
    witnesses = {}
    cycles_ok = True
    periods = old_basis_periods(s)
    for color in old_non_diagonal_colors(s):
        if not (s.n == p and s.degrees[color] == 1 and periods[color] == p):
            cycles_ok = False
            witnesses["non-cycle-color"] = f"color {color} is not a directed {p}-cycle"
            break
    regular = is_regular(s)
    if not regular:
        witnesses["not-regular"] = "some color has degree > 1"
    if s.n != p:
        witnesses["point-count"] = f"n={s.n} differs from p={p}"
    return regular and s.n == p and cycles_ok, witnesses


def old_verify_size_factorization(scheme, e):
    """The per-color loop that ``verify_size_factorization`` replaced: one
    n x n mask and one bincount over the class pairs per color."""
    classes = e.classes
    k = len(classes)
    cls = np.zeros(scheme.n, dtype=np.int64)
    for i, c in enumerate(classes):
        cls[list(c)] = i
    pair_index = np.add.outer(cls * k, cls)
    for color in range(scheme.r):
        counts = np.bincount(pair_index[scheme.matrix == color],
                             minlength=k * k)
        nonzero = counts[counts > 0]
        if nonzero.size == 0:
            raise SchemeError(f"color {color} vanished")
        if nonzero.min() != nonzero.max():
            raise SchemeError(
                f"color {color} has unequal block counts "
                f"{int(nonzero.min())} vs {int(nonzero.max())}")
        if int(nonzero.size) * int(nonzero[0]) != int(scheme.sizes[color]):
            raise SchemeError(
                f"color {color}: {int(nonzero.size)} blocks x {int(nonzero[0])} "
                f"!= size {int(scheme.sizes[color])}")


# -- io ----------------------------------------------------------------------


def old_read_ccm(source):
    """The per-line ``read_ccm`` that the one-call parse replaced; the
    oracle for its matrices and errors."""
    name, lines = _content_lines(source)
    if not lines:
        raise ParseError(name, 1, "empty input")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 3 or parts[0] != "ccm":
        raise ParseError(name, lineno, f"expected header 'ccm <n> <r>', got {header!r}")
    try:
        n, r = int(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError(name, lineno, "non-integer header fields") from None
    if n < 1 or r < 1:
        raise ParseError(name, lineno, f"n and r must be positive, got n={n} r={r}")
    if len(lines) - 1 != n:
        raise ParseError(name, lineno,
                         f"expected {n} matrix rows, found {len(lines) - 1}")
    rows = []
    for lineno, line in lines[1:]:
        rows.append(_ints(name, lineno, line, n))
    matrix = as_color_matrix(np.array(rows, dtype=np.int64))
    actual_r = int(matrix.max()) + 1
    if actual_r != r:
        raise ParseError(name, lines[0][0],
                         f"header says r={r} but the matrix has {actual_r} colors")
    return matrix


# -- benchmark tracer --------------------------------------------------------


TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def trace_targets() -> tuple[tuple[str, str], ...]:
    """The literal value of ``TARGETS`` in the tracer's source, which is
    parsed, not imported, so nothing is written under ``perfbench/``."""
    for node in ast.parse(TRACER.read_text()).body:
        target = node.target if isinstance(node, ast.AnnAssign) else (
            node.targets[0] if isinstance(node, ast.Assign) else None)
        if isinstance(target, ast.Name) and target.id == "TARGETS":
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {TRACER}")
