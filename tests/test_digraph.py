import random
from math import gcd

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
    is_bipartite,
    is_strongly_connected,
    period,
    rank_two_scheme,
    strongly_connected_components,
    thin_scheme,
    weakly_connected_components,
)
from asck.corpus import random_strongly_connected_digraph
from asck.errors import (
    DiagonalColor,
    HasLoops,
    InvalidP,
    NoArcs,
    NotStronglyConnected,
    NotSymmetric,
    SchemeError,
)


def cycle(n: int) -> Digraph:
    return Digraph.from_arcs(n, [(u, (u + 1) % n) for u in range(n)])


def brute_period(g: Digraph) -> int:
    lengths = [len(c) for c in nx.simple_cycles(nx.DiGraph(list(g.arcs)))]
    return gcd(*lengths)


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

    def test_adjacency_sorted(self):
        g = Digraph.from_arcs(3, [(0, 2), (0, 1), (2, 0)])
        assert g.out_adj[0] == (1, 2)
        assert g.in_adj[0] == (2,)
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
        assert g.m == 8 and g.is_symmetric() and not g.has_loops()

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
        part.check(g)

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
        part.check(g)

    def test_needs_enough_vertices(self):
        assert cyclically_p_partite(cycle(2), 3) is None

    def test_witness_invariants_enforced(self):
        bad = CyclicPartition(2, ((0,), (1,)))
        with pytest.raises(SchemeError):
            bad.check(Digraph.from_arcs(2, [(0, 1), (1, 0), (0, 0)]))

    @given(arcs_strategy(), st.integers(min_value=2, max_value=5))
    def test_any_witness_verifies(self, data, p):
        n, arcs = data
        g = Digraph(n, frozenset(arcs))
        part = cyclically_p_partite(g, p)
        if part is not None:
            part.check(g)

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
                    part.check(g)
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
                    part.check(g)


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
