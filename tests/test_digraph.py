import random
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from asck import (
    CyclicPartition,
    Digraph,
    basis_digraph,
    basis_graph,
    cyclic_table,
    cyclically_p_partite,
    dg_text,
    digraph_color_matrix,
    is_bipartite,
    is_strongly_connected,
    period,
    rank_two_scheme,
    strongly_connected_components,
    thin_scheme,
    validate,
    weakly_connected_components,
    wl_closure,
)
from asck import core, digraph
from asck.core import _shift_invariant, canonical_scheme
from asck.digraph import _forest_defects, basis_periods
from asck.errors import (
    DiagonalColor,
    HasLoops,
    InvalidP,
    NoArcs,
    NotStronglyConnected,
    NotSymmetric,
    SchemeError,
)
from oracles import (
    brute_period,
    check_cyclic_partition,
    chords_shape,
    circulant_shape,
    ladder_closures_64,
    ladder_matrix,
    old_basis_periods,
    old_cyclically_p_partite,
    old_is_bipartite,
    old_period,
    old_potentials,
    old_relabeled,
    old_weakly_connected_components,
    random_strongly_connected_digraph,
)


def cycle(n: int) -> Digraph:
    return Digraph.from_arcs(n, [(u, (u + 1) % n) for u in range(n)])


def disjoint_union(parts: list[Digraph]) -> Digraph:
    arcs, offset = set(), 0
    for h in parts:
        arcs |= {(u + offset, v + offset) for u, v in h.arcs}
        offset += h.n
    return Digraph(offset, frozenset(arcs))


def path(n: int) -> Digraph:
    return Digraph.from_arcs(n, [(u, u + 1) for u in range(n - 1)])


def brute_partite(g: Digraph, p: int) -> bool:
    """Whether one of the p^n labelings puts every arc from class i to
    class i+1 mod p and leaves no class empty."""
    labels = np.indices((p,) * g.n).reshape(g.n, -1).T
    ok = np.ones(len(labels), dtype=bool)
    for u, v in g.arcs:
        ok &= (labels[:, v] - labels[:, u] - 1) % p == 0
    for c in range(p):
        ok &= (labels == c).any(axis=1)
    return bool(ok.any())


def random_small_union(rng: random.Random, n: int) -> Digraph:
    """Paths and cycles on n vertices in all, arcs flipped at random and
    vertices shuffled across components.  A one-vertex path is an
    isolated vertex and a one-vertex cycle is a loop."""
    parts = []
    while sum(h.n for h in parts) < n:
        k = rng.randint(1, min(4, n - sum(h.n for h in parts)))
        arcs = [(u, u + 1) for u in range(k - 1)]
        if rng.random() < 0.5:
            arcs.append((k - 1, 0))
        arcs = [(v, u) if rng.random() < 0.3 else (u, v) for u, v in arcs]
        parts.append(Digraph.from_arcs(k, arcs))
    g = disjoint_union(parts)
    perm = list(range(n))
    rng.shuffle(perm)
    return Digraph.from_arcs(n, [(perm[u], perm[v]) for u, v in g.arcs])


def arcs_strategy(max_n=8):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))))


class TestDigraphType:
    def test_rejects_out_of_range(self):
        with pytest.raises(SchemeError):
            Digraph.from_arcs(2, [(0, 2)])

    def test_rejects_labels_of_wrong_length(self):
        with pytest.raises(SchemeError) as info:
            Digraph.from_arcs(3, [(0, 1)], labels=[0, 1])
        assert type(info.value) is SchemeError
        assert str(info.value) == "labels length differs from vertex count"

    def test_rejects_float_endpoint(self):
        """Before, the arc (0, 1.5) was kept: the cyclic partition read
        it as (0, 1) and ``dg_text`` wrote "0 1.5"."""
        with pytest.raises(SchemeError, match=r"^arc endpoint 1\.5 is not an integer$"):
            Digraph(3, {(0, 1.5), (1, 0), (1, 2), (2, 1)})

    def test_rejects_float_vertex_count(self):
        """Before, n = 2.0 was kept, every function raised TypeError and
        ``dg_text`` wrote the header "dg 2.0 2"."""
        with pytest.raises(SchemeError, match=r"^vertex count must be a non-negative "
                                              r"integer, got 2\.0$"):
            Digraph(2.0, frozenset({(0, 1), (1, 0)}))

    def test_bool_endpoint_is_its_int(self):
        """Before, True was kept as an endpoint, and the color matrix
        indexed by it read [[1, 1], [2, 0]]."""
        g = Digraph(2, frozenset({(0, True), (1, 0)}))
        assert all(type(x) is int for arc in g.arcs for x in arc)
        assert digraph_color_matrix(g).tolist() == [[0, 1], [1, 0]]
        assert dg_text(g) == "dg 2 2\n0 1\n1 0\n"

    def test_from_arcs_does_not_truncate(self):
        """Before, ``from_arcs`` made (0, 1.5) the arc (0, 1)."""
        with pytest.raises(SchemeError, match=r"^arc endpoint 1\.5 is not an integer$"):
            Digraph.from_arcs(3, [(0, 1.5), (1, 0)])

    def test_numpy_integers_stored_as_ints(self):
        g = Digraph.from_arcs(np.int64(3), [(np.int64(0), np.int32(2)), (np.uint8(1), 0)])
        assert type(g.n) is int and g.n == 3
        assert g.arcs == {(0, 2), (1, 0)}
        assert all(type(x) is int for arc in g.arcs for x in arc)
        arcs = frozenset({(0, 1), (1, 2)})
        assert Digraph(3, arcs).arcs is arcs  # int endpoints: the set is kept

    def test_adjacency_sorted(self):
        g = Digraph.from_arcs(3, [(0, 2), (0, 1), (2, 0)])
        assert g.out_adj[0] == (1, 2)
        assert g.m == 3


class TestBasisDigraph:
    def test_shift_color_is_cycle(self):
        s = thin_scheme(cyclic_table(4))
        g = basis_digraph(s, int(s.matrix[0, 1]))
        assert g.n == 4 and g.m == 4
        assert is_strongly_connected(g)
        assert period(g) == 4

    def test_order_two_color_is_two_cycles(self):
        s = thin_scheme(cyclic_table(4))
        g = basis_digraph(s, int(s.matrix[0, 2]))
        assert len(strongly_connected_components(g)) == 2

    def test_diagonal_color_is_reflexive(self):
        s = thin_scheme(cyclic_table(3))
        g = basis_digraph(s, 0)
        assert g.arcs == frozenset((v, v) for v in range(3))

    def test_support_relabeled_with_labels(self):
        s = rank_two_scheme(3)
        g = basis_digraph(s, 1)
        assert g.n == 3 and g.labels == (0, 1, 2)


class TestBasisGraph:
    def test_shift_union_transpose(self):
        s = thin_scheme(cyclic_table(4))
        g = basis_graph(s, int(s.matrix[0, 1]))
        assert g.m == 8
        assert all((v, u) in g.arcs and u != v for u, v in g.arcs)

    def test_self_paired_color_is_matching(self):
        s = thin_scheme(cyclic_table(4))
        g = basis_graph(s, int(s.matrix[0, 2]))
        assert g.arcs == frozenset({(0, 2), (2, 0), (1, 3), (3, 1)})

    def test_rank_two_is_complete(self):
        g = basis_graph(rank_two_scheme(3), 1)
        assert g.m == 6

    def test_diagonal_color_rejected(self):
        with pytest.raises(DiagonalColor):
            basis_graph(rank_two_scheme(3), 0)


def scanned_basis_graph(scheme, color, with_transpose):
    """A basis (di)graph built by scanning all n^2 cells; the oracle for
    the ``cell_array`` reads."""
    mask = scheme.matrix == color
    if with_transpose:
        mask |= scheme.matrix == scheme.transpose(color)
    cells = np.argwhere(mask)
    support = sorted({int(p) for p in cells.ravel()})
    index = {p: i for i, p in enumerate(support)}
    arcs = {(index[int(u)], index[int(v)]) for u, v in cells}
    if with_transpose:
        arcs |= {(b, a) for a, b in arcs}
    return Digraph(len(support), frozenset(arcs), tuple(support))


class TestBasisGraphsMatchScan:
    def test_every_corpus_color(self, corpus):
        for member in corpus:
            s = member.scheme
            for c in range(s.r):
                assert basis_digraph(s, c) == scanned_basis_graph(s, c, False)
                if not s.is_diagonal_color(c):
                    assert basis_graph(s, c) == scanned_basis_graph(s, c, True)

    def test_every_corpus_color_against_set_renumbering(self, corpus):
        """One ``np.unique`` renumbers the support as the set and dict
        version did: the same arc list, in order, and the same labels."""
        for member in corpus:
            s = member.scheme
            for c in range(s.r):
                arcs, support = old_relabeled(s.cell_array(c))
                assert digraph._relabeled(s.cell_array(c)) == (arcs, support)
                assert basis_digraph(s, c) == Digraph(len(support), frozenset(arcs), support)
                if not s.is_diagonal_color(c):
                    both = frozenset(arcs + [(b, a) for a, b in arcs])
                    assert basis_graph(s, c) == Digraph(len(support), both, support)


class TestComponents:
    def test_cycle_is_one_component(self):
        assert strongly_connected_components(cycle(4)) == [(0, 1, 2, 3)]

    def test_two_cycles(self):
        g = Digraph.from_arcs(4, [(0, 2), (2, 0), (1, 3), (3, 1)])
        assert strongly_connected_components(g) == [(0, 2), (1, 3)]

    def test_path_is_singletons(self):
        g = Digraph.from_arcs(3, [(0, 1), (1, 2)])
        assert strongly_connected_components(g) == [(0,), (1,), (2,)]
        assert weakly_connected_components(g) == [(0, 1, 2)]

    @given(arcs_strategy())
    def test_matches_networkx(self, data):
        n, arcs = data
        g = Digraph(n, frozenset(arcs))
        nxg = nx.DiGraph(list(arcs))
        nxg.add_nodes_from(range(n))
        expect = sorted(tuple(sorted(c)) for c in nx.strongly_connected_components(nxg))
        assert sorted(strongly_connected_components(g)) == expect


class TestPeriod:
    def test_directed_cycle(self):
        for p in (2, 3, 5, 7):
            assert period(cycle(p)) == p

    def test_four_cycle_with_chord(self):
        g = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        assert brute_period(g) == 1
        assert period(g) == 1

    def test_loop_vertex(self):
        assert period(Digraph.from_arcs(1, [(0, 0)])) == 1

    def test_requires_strong_connectivity(self):
        with pytest.raises(NotStronglyConnected):
            period(Digraph.from_arcs(3, [(0, 1), (1, 2)]))

    def test_requires_an_arc(self):
        with pytest.raises(NoArcs):
            period(Digraph.from_arcs(1, []))

    def test_against_brute_force(self):
        rng = random.Random(20240814)
        for _ in range(100):
            g = random_strongly_connected_digraph(rng, rng.randint(2, 10))
            assert is_strongly_connected(g)
            assert period(g) == brute_period(g)


class TestCyclicPartition:
    def test_four_cycle_split(self):
        part = cyclically_p_partite(cycle(4), 2)
        assert part.classes == ((0, 2), (1, 3))

    def test_odd_cycle_absent(self):
        assert cyclically_p_partite(cycle(3), 2) is None

    def test_two_two_cycles_present(self):
        g = Digraph.from_arcs(4, [(0, 2), (2, 0), (1, 3), (3, 1)])
        part = cyclically_p_partite(g, 2)
        assert part is not None
        check_cyclic_partition(part, g)

    def test_p_below_two_rejected(self):
        with pytest.raises(InvalidP):
            cyclically_p_partite(cycle(4), 1)

    def test_composite_p_allowed(self):
        assert cyclically_p_partite(cycle(12), 6) is not None
        assert cyclically_p_partite(cycle(12), 8) is None

    def test_shift_cover_across_components(self):
        # one fixed point with a loop cannot advance classes; a loop forces
        # label(v) = label(v)+1, impossible for p >= 2
        g = Digraph.from_arcs(1, [(0, 0)])
        assert cyclically_p_partite(g, 2) is None

    def test_isolated_vertices_fill_classes(self):
        g = Digraph.from_arcs(3, [(0, 1), (1, 0)])
        part = cyclically_p_partite(g, 2)
        assert part is not None
        check_cyclic_partition(part, g)

    def test_needs_enough_vertices(self):
        assert cyclically_p_partite(cycle(2), 3) is None

    def test_residues_short_of_p_classes(self):
        """p <= n and every defect is 0 mod p, but the star's labels span
        only 2 residues, so no third class can be filled."""
        star = Digraph.from_arcs(4, [(0, 1), (0, 2), (0, 3)])
        assert cyclically_p_partite(star, 3) is None
        assert cyclically_p_partite(star, 2).classes == ((0,), (1, 2, 3))

    @pytest.mark.parametrize("p", [4, 10 ** 7, 10 ** 18, 2 ** 64])
    def test_more_classes_than_vertices_allocate_nothing(self, p):
        """p > n is answered before any labeling: no per-class array, and
        no p beyond int64 meets the int64 arc defects."""
        g = path(3)
        tracemalloc.start()
        try:
            part = cyclically_p_partite(g, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert part is None and peak < 2 ** 16
        assert cyclically_p_partite(cycle(3), 3).classes == ((0,), (1,), (2,))

    def test_witness_invariants_enforced(self):
        bad = CyclicPartition(2, ((0,), (1,)))
        with pytest.raises(SchemeError):
            check_cyclic_partition(bad, Digraph.from_arcs(2, [(0, 1), (1, 0), (0, 0)]))

    @given(arcs_strategy(), st.integers(min_value=2, max_value=5))
    def test_any_witness_verifies(self, data, p):
        n, arcs = data
        g = Digraph(n, frozenset(arcs))
        part = cyclically_p_partite(g, p)
        if part is not None:
            check_cyclic_partition(part, g)

    def test_partite_iff_p_divides_period(self):
        rng = random.Random(99)
        for _ in range(60):
            g = random_strongly_connected_digraph(rng, rng.randint(2, 10))
            if g.m == 0:
                continue
            d = period(g)
            for p in (2, 3, 5, 7):
                assert (cyclically_p_partite(g, p) is not None) == (d % p == 0)

    def test_disjoint_union_lemma(self):
        rng = random.Random(7)
        for _ in range(40):
            parts = [random_strongly_connected_digraph(rng, rng.randint(2, 6))
                     for _ in range(rng.randint(1, 3))]
            g = disjoint_union(parts)
            for p in (2, 3):
                whole = cyclically_p_partite(g, p) is not None
                each = all(cyclically_p_partite(h, p) is not None for h in parts)
                assert whole == each

    def test_matches_brute_force_labelings(self):
        rng = random.Random(5)
        seen = set()
        for _ in range(300):
            g = random_small_union(rng, rng.randint(1, 7))
            for p in range(2, 6):
                part = cyclically_p_partite(g, p)
                assert (part is not None) == brute_partite(g, p)
                if part is not None:
                    check_cyclic_partition(part, g)
                seen.add(part is not None)
        assert seen == {True, False}

    @pytest.mark.parametrize("p", [23, 29, 31])
    def test_path_unions_above_twenty(self, p):
        # a directed path on m <= p vertices covers exactly m residues
        rng = random.Random(p)
        for total, present in ((p, True), (p + 3, True), (p - 1, False)):
            for _ in range(5):
                k = rng.randint(4, 9)
                cuts = sorted(rng.sample(range(1, total), k - 1))
                lengths = [b - a for a, b in zip([0] + cuts, cuts + [total])]
                g = disjoint_union([path(m) for m in lengths])
                part = cyclically_p_partite(g, p)
                assert (part is not None) == (sum(lengths) >= p) == present
                if part is not None:
                    check_cyclic_partition(part, g)


class TestBipartite:
    def test_even_cycle(self):
        g = Digraph.from_arcs(4, [(u, (u + 1) % 4) for u in range(4)]
                              + [((u + 1) % 4, u) for u in range(4)])
        zero, one = is_bipartite(g)
        assert set(zero) == {0, 2} and set(one) == {1, 3}

    def test_triangle_absent(self):
        g = Digraph.from_arcs(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])
        assert is_bipartite(g) is None

    def test_matching(self):
        g = Digraph.from_arcs(4, [(0, 2), (2, 0), (1, 3), (3, 1)])
        assert is_bipartite(g) is not None

    def test_isolated_vertices_balance(self):
        g = Digraph.from_arcs(4, [(0, 1), (1, 0)])
        zero, one = is_bipartite(g)
        assert 2 in zero and 3 in one

    def test_single_vertex_cannot_fill_both_classes(self):
        assert is_bipartite(Digraph.from_arcs(1, [])) is None

    def test_requires_symmetric(self):
        with pytest.raises(NotSymmetric):
            is_bipartite(Digraph.from_arcs(2, [(0, 1)]))

    def test_rejects_loops(self):
        with pytest.raises(HasLoops):
            is_bipartite(Digraph.from_arcs(2, [(0, 1), (1, 0), (0, 0)]))

    @given(arcs_strategy())
    def test_two_partite_matches_bipartite(self, data):
        n, arcs = data
        arcs = {(u, v) for u, v in arcs if u != v}
        g = Digraph(n, frozenset(arcs))
        sym = Digraph(n, frozenset(arcs | {(v, u) for u, v in arcs}))
        lhs = cyclically_p_partite(g, 2) is not None
        rhs = is_bipartite(sym) is not None
        assert lhs == rhs


# -- the forest's readers against the previous traversals in tests/oracles.py -


def outcome(f, *args):
    """f's return value, or the type and text of what it raised."""
    try:
        return f(*args)
    except SchemeError as exc:
        return type(exc), str(exc)


def random_digraph(rng: random.Random) -> Digraph:
    """Dense, sparse, looped, symmetric, strongly connected or a union of
    paths and cycles, on at most 11 vertices."""
    n = rng.randint(0, 11)
    style = rng.randrange(4)
    if style == 0 and n:
        return random_strongly_connected_digraph(rng, n)
    if style == 1 and n:
        return random_small_union(rng, n)
    density = rng.choice([0.1, 0.25, 0.5])
    arcs = {(u, v) for u in range(n) for v in range(n)
            if (u != v or rng.random() < 0.2) and rng.random() < density}
    if style == 3:
        arcs |= {(v, u) for u, v in arcs}
        if rng.random() < 0.7:
            arcs = {(u, v) for u, v in arcs if u != v}
    return Digraph(n, frozenset(arcs))


def bit_reversed(n: int) -> list[int]:
    """0..n-1 ordered by their bit reversals over n's bit length."""
    width = (n - 1).bit_length()
    return sorted(range(n), key=lambda v: int(f"{v:0{width}b}"[::-1], 2))


def networkx_components(g: Digraph) -> list[tuple[int, ...]]:
    nxg = nx.DiGraph(list(g.arcs))
    nxg.add_nodes_from(range(g.n))
    return sorted(tuple(sorted(c)) for c in nx.strongly_connected_components(nxg))


class TestDeepComponents:
    """Iterative Tarjan against networkx on walks 20,000 vertices deep,
    and on seeded random digraphs with cross arcs between components."""

    N = 20_000

    def test_path_is_singletons(self):
        g = Digraph.from_arcs(self.N, [(u, u + 1) for u in range(self.N - 1)])
        comps = strongly_connected_components(g)
        assert comps == [(v,) for v in range(self.N)] == networkx_components(g)

    def test_closed_path_is_one_cycle(self):
        g = Digraph.from_arcs(self.N, [(u, (u + 1) % self.N) for u in range(self.N)])
        comps = strongly_connected_components(g)
        assert comps == [tuple(range(self.N))] == networkx_components(g)

    def test_bit_reversal_cycle(self):
        order = bit_reversed(self.N)
        g = Digraph.from_arcs(self.N, zip(order, order[1:] + order[:1]))
        comps = strongly_connected_components(g)
        assert comps == [tuple(range(self.N))] == networkx_components(g)

    def test_seeded_random_digraphs(self):
        rng = random.Random(33)
        merged = 0
        for _ in range(300):
            n = rng.randint(1, 30)
            density = rng.choice([0.03, 0.08, 0.15])
            g = Digraph.from_arcs(n, [(u, v) for u in range(n) for v in range(n)
                                      if rng.random() < density])
            comps = strongly_connected_components(g)
            assert comps == sorted(comps) and comps == networkx_components(g)
            merged += 1 < len(comps) < n
        assert merged > 50


class TestAgainstPreviousTraversals:
    def test_seeded_random_digraphs(self):
        """The witnesses equal the oracles', whose labels come from a
        level BFS and not from the forest: two labelings, one witness."""
        rng = random.Random(31337)
        for _ in range(3000):
            g = random_digraph(rng)
            assert weakly_connected_components(g) == old_weakly_connected_components(g)
            assert outcome(period, g) == outcome(old_period, g)
            assert outcome(is_bipartite, g) == outcome(old_is_bipartite, g)
            for p in (1, 2, 3, 4, 5, 7):
                part = outcome(cyclically_p_partite, g, p)
                assert part == outcome(old_cyclically_p_partite, g, p)
                if isinstance(part, CyclicPartition):
                    check_cyclic_partition(part, g)

    def test_witnesses_ignore_arc_order(self, monkeypatch):
        """Shuffled arc lists hook other arcs into the forest, so the
        labels move by multiples of d; the witnesses do not."""
        rng = random.Random(4242)
        arc_arrays = digraph._arc_arrays

        def shuffled(g):
            tails, heads = arc_arrays(g)
            order = np.array(rng.sample(range(g.m), g.m), dtype=np.int64)
            return tails[order], heads[order]

        graphs = [random_digraph(rng) for _ in range(3000)]
        symmetric = [Digraph(g.n, g.arcs | {(v, u) for u, v in g.arcs if u != v}
                             - {(u, u) for u in range(g.n)}) for g in graphs]
        witnesses = [[outcome(cyclically_p_partite, g, p) for p in (2, 3, 4, 5)]
                     + [outcome(is_bipartite, h)] for g, h in zip(graphs, symmetric)]
        monkeypatch.setattr(digraph, "_arc_arrays", shuffled)
        for _ in range(2):
            assert witnesses == [
                [outcome(cyclically_p_partite, g, p) for p in (2, 3, 4, 5)]
                + [outcome(is_bipartite, h)] for g, h in zip(graphs, symmetric)]


# -- _forest_defects against the FIFO build in tests/oracles.py ----------------


class RoundCounter:
    """numpy for ``asck.digraph``, counting the ``minimum.at`` calls:
    ``_forest_defects`` makes one per hook round."""

    def __init__(self):
        self.rounds = 0
        counter = self

        class Minimum:
            def __call__(self, *args, **kwargs):
                return np.minimum(*args, **kwargs)

            def at(self, *args):
                counter.rounds += 1
                return np.minimum.at(*args)

        self.minimum = Minimum()

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.fixture
def rounds(monkeypatch):
    counter = RoundCounter()
    monkeypatch.setattr(digraph, "np", counter)
    return counter


def component_gcds(comp, tails, defect) -> list[int]:
    """The gcd of each component's arc defects, indexed by its root."""
    out = np.zeros(len(comp), dtype=np.int64)
    np.gcd.at(out, np.asarray(comp, dtype=np.int64)[tails], defect)
    return out.tolist()


def assert_forest_matches_fifo(n, arcs, rounds) -> int:
    """Compare the forest with ``old_potentials`` on the arcs, in the
    order given: equal roots, each root labeled 0, equal per-component
    gcds, labels that differ from the FIFO ones by multiples of that gcd,
    and arcs of defect 0 that span every component (the forest's own
    arcs).  Also bound the hook rounds by 2 log2 n, and return their
    number."""
    tails, heads = np.array(arcs, dtype=np.int64).reshape(-1, 2).T
    comp, fifo_label, fifo = old_potentials(n, tails, heads)
    before = rounds.rounds
    root, label, defect = _forest_defects(n, tails, heads)
    used = rounds.rounds - before
    assert root.tolist() == comp
    assert not label[root == np.arange(n)].any()
    assert (defect == label[tails] + 1 - label[heads]).all()
    gcds = component_gcds(comp, tails, defect)
    assert gcds == component_gcds(comp, tails, fifo)
    for v, (ours, theirs) in enumerate(zip(label.tolist(), fifo_label)):
        assert ours == theirs if gcds[comp[v]] == 0 else (ours - theirs) % gcds[comp[v]] == 0
    tree = Digraph.from_arcs(n, [a for a, d in zip(arcs, defect.tolist()) if d == 0])
    assert old_weakly_connected_components(tree) == old_weakly_connected_components(
        Digraph.from_arcs(n, arcs))
    assert used <= 2 * max(n.bit_length() - 1, 0)
    return used


class TestForestDefects:
    def test_seeded_random_digraphs(self, rounds):
        rng = random.Random(31337)
        for _ in range(3000):
            g = random_digraph(rng)
            arcs = list(g.arcs)
            rng.shuffle(arcs)
            assert_forest_matches_fifo(g.n, arcs, rounds)

    @pytest.mark.parametrize("n", [2, 3, 17, 256, 1000])
    def test_paths_and_cycles_in_any_id_order(self, n, rounds):
        rng = random.Random(n)
        shuffled = list(range(n))
        rng.shuffle(shuffled)
        for ids in (list(range(n)), list(range(n))[::-1], shuffled):
            for closed in (False, True):
                steps = [(ids[i], ids[(i + 1) % n]) for i in range(n if closed else n - 1)]
                for arcs in (steps, [(v, u) for u, v in steps], steps[::-1],
                             rng.sample(steps, len(steps)),
                             [(v, u) if rng.random() < 0.5 else (u, v) for u, v in steps]):
                    assert_forest_matches_fifo(n, arcs, rounds)

    @pytest.mark.parametrize("n", [2, 5, 64, 2000])
    def test_stars(self, n, rounds):
        """Many arcs reach one root in one round.  Leaves listed in
        descending order are the worst case for hooking through the first
        arc; the least root takes two rounds whatever the order."""
        for center in {0, n // 2, n - 1}:
            leaves = [v for v in range(n) if v != center]
            for order in (leaves, leaves[::-1]):
                for arcs in ([(center, v) for v in order], [(v, center) for v in order],
                             [a for v in order for a in ((center, v), (v, center))]):
                    assert assert_forest_matches_fifo(n, arcs, rounds) <= 2

    def test_isolated_vertices_loops_and_both_directions(self, rounds):
        cases = [
            (1, []), (1, [(0, 0)]), (4, []), (4, [(2, 2)]),
            (4, [(v, v) for v in range(4)]),
            (5, [(0, 0), (1, 2), (2, 1), (4, 3), (3, 4), (3, 3)]),
            (6, [(5, 0), (0, 5), (4, 1), (1, 4), (1, 1), (3, 2)]),
            (3, [(2, 1), (1, 2), (1, 0), (0, 1), (2, 0), (0, 2)]),
        ]
        for n, arcs in cases:
            assert_forest_matches_fifo(n, arcs, rounds)

    def test_no_vertices(self, rounds):
        root, label, defect = _forest_defects(0, np.zeros(0, np.int64), np.zeros(0, np.int64))
        assert root.size == label.size == defect.size == 0 and rounds.rounds == 0
        chords = ladder_closures_64()[1]
        assert (chords.sizes == 1).all()  # no color with two off-diagonal cells
        assert basis_periods(chords).tolist() == old_basis_periods(chords).tolist()


def ladder_closures() -> list:
    return [wl_closure(ladder_matrix(make, n, seed=n))
            for make in (circulant_shape, chords_shape) for n in (16, 24)]


def discrete_scheme(n):
    return canonical_scheme(np.arange(n * n).reshape(n, n))


class TestBasisPeriods:
    def test_matches_all_cells_build(self, corpus):
        schemes = [m.scheme for m in corpus] + [*ladder_closures_64(), discrete_scheme(64)]
        schemes += [wl_closure(digraph_color_matrix(Digraph.from_arcs(7, arcs)))
                    for arcs in ([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6)],
                                 [(0, 1), (0, 2), (0, 3), (3, 3), (4, 5), (5, 6)])]
        for s in schemes:
            assert basis_periods(s).tolist() == old_basis_periods(s).tolist()

    def test_relabeled_corpus(self, corpus, relabeled_corpus):
        """Other labels give the forest other hook orders, not other periods."""
        for member, s in zip(corpus, relabeled_corpus):
            periods = basis_periods(s).tolist()
            assert periods == old_basis_periods(s).tolist()
            assert periods == basis_periods(member.scheme).tolist()

    def assert_matches_per_color(self, s):
        periods = basis_periods(s)
        assert periods.shape == (s.r,) and not periods.flags.writeable
        for c in range(s.r):
            g = basis_digraph(s, c)
            if not s.is_diagonal_color(c):
                bipartite = is_bipartite(basis_graph(s, c)) is not None
                assert (periods[c] % 2 == 0) == bipartite
                if s.is_homogeneous:
                    for p in (2, 3, 5, 7, 11):
                        part = cyclically_p_partite(g, p)
                        assert (periods[c] % p == 0) == (part is not None)
                        if part is not None:
                            check_cyclic_partition(part, g)
            if is_strongly_connected(g):
                assert periods[c] == period(g)

    def test_every_corpus_member(self, corpus):
        for member in corpus:
            self.assert_matches_per_color(member.scheme)

    def test_closure_ladder_shapes(self):
        for s in ladder_closures():
            self.assert_matches_per_color(s)

    def test_memoized(self):
        s = thin_scheme(cyclic_table(6))
        assert basis_periods(s) is basis_periods(s)
        assert basis_periods(s).tolist() == [1, 6, 3, 2, 3, 6]

    def test_discrete_configuration_peak_memory(self):
        """Rank 16,384, one arc per color: no Python object per component."""
        n = 128
        s = canonical_scheme(np.arange(n * n).reshape(n, n))
        tracemalloc.start()
        try:
            periods = basis_periods(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert periods.tolist() == [1] * n + [0] * (n * n - n)
        assert peak < 10 * 2 ** 20

    def test_circulant_closure_peak_memory(self):
        """Rank 129 on 256 points: 65,280 arcs in one forest, no Python
        object per vertex (the FIFO build peaked at 11.95 MiB)."""
        s = validate(wl_closure(ladder_matrix(circulant_shape, 256, seed=5)).matrix)  # cold memo
        tracemalloc.start()
        try:
            periods = basis_periods(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert periods.tolist() == old_basis_periods(s).tolist()
        assert peak < 10 * 2 ** 20


def random_circulant_closure(rng: np.random.Generator, n: int):
    """The closure of a seeded random row 0, with its own color on the
    diagonal, spread over all rows by the label shift."""
    row = rng.integers(1, int(rng.integers(2, 6)), size=n)
    row[0] = 0
    circulant = row[(np.arange(n) - np.arange(n)[:, None]) % n]
    return wl_closure(np.unique(circulant, return_inverse=True)[1].reshape(n, n))


def relabeled(s, rng: np.random.Generator):
    """The scheme with its points permuted by a seeded permutation,
    validated afresh."""
    perm = rng.permutation(s.n)
    return validate(s.matrix[np.ix_(perm, perm)])


def cayley_schemes() -> list:
    rng = np.random.default_rng(28)
    schemes = [random_circulant_closure(rng, int(n)) for n in rng.integers(1, 49, size=60)]
    schemes += [thin_scheme(cyclic_table(m)) for m in range(1, 65)]
    return schemes + [ladder_closures_64()[0]]


class TestCayleyPeriods:
    """On a shift-invariant scheme every period comes from row 0; the
    forest builds are the oracles."""

    def test_match_forest_and_relabeled_copies(self):
        rng = np.random.default_rng(2028)
        schemes = cayley_schemes()
        for s in schemes:
            assert _shift_invariant(s.matrix)
            periods = basis_periods(s)
            assert periods.dtype == np.int64 and not periods.flags.writeable
            assert periods.tolist() == old_basis_periods(s).tolist()
            assert periods.tolist() == basis_periods(relabeled(s, rng)).tolist()
        assert max(s.n for s in schemes[:60]) > 40 and min(s.r for s in schemes[:60]) <= 2

    def test_path(self, monkeypatch):
        """No output tells which build ran, so the forest runs are counted:
        none on shift-invariant input, one on a relabeled copy.  The build
        reads the certificate's ``Scheme.circulant`` and makes no shift
        test of its own."""
        calls, shift_tests = [], []
        real = digraph._forest_defects
        monkeypatch.setattr(digraph, "_forest_defects",
                            lambda *args: calls.append(args[0]) or real(*args))
        rng = np.random.default_rng(5)
        s = validate(ladder_closures_64()[0].matrix)  # cold memo
        copy = relabeled(s, rng)
        thin = [validate(thin_scheme(cyclic_table(m)).matrix) for m in (2, 7, 12)]
        assert not _shift_invariant(copy.matrix)
        assert not hasattr(digraph, "_shift_invariant")
        real_shift = core._shift_invariant
        monkeypatch.setattr(core, "_shift_invariant",
                            lambda matrix: shift_tests.append(1) or real_shift(matrix))
        assert basis_periods(s).tolist() == basis_periods(copy).tolist()
        assert len(calls) == 1
        calls.clear()
        for scheme in thin:
            basis_periods(scheme)
        assert calls == [] and shift_tests == []
