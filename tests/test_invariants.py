"""Girth, balance, bipartition, cycle enumeration."""

import random

import networkx as nx

from conftest import random_connected_graph, random_cyclic_graph
from sgrank import (
    SignedGraph,
    adjacency_matrix,
    bipartition,
    connected_components,
    cycle_sign,
    cycles_up_to,
    girth_of_adjacency,
    is_balanced,
    is_connected,
    profile,
    shortest_cycle,
    switch,
    switching_potentials,
)
from sgrank.invariants import two_core


def cycle_graph(n, negatives=()):
    edges = []
    for i in range(n):
        j = (i + 1) % n
        s = -1 if (min(i, j), max(i, j)) in negatives else 1
        edges.append((i, j, s))
    return SignedGraph(n, edges)


PETERSEN = SignedGraph(
    10,
    [(u, v, 1) for u, v in
     [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
      (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
      (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]],
)


class TestProfile:
    def test_path_is_a_forest(self):
        g = SignedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        p = profile(g)
        assert p.components == 1
        assert p.cyclomatic == 0
        assert p.girth is None
        assert p.bipartite
        assert p.balanced
        assert p.pendant_count == 2

    def test_odd_cycle(self):
        p = profile(cycle_graph(5))
        assert p.girth == 5
        assert not p.bipartite
        assert p.balanced
        assert p.cyclomatic == 1

    def test_unbalanced_even_cycle(self):
        p = profile(cycle_graph(6, negatives={(0, 1)}))
        assert p.girth == 6
        assert p.bipartite
        assert not p.balanced

    def test_petersen_girth(self):
        p = profile(PETERSEN)
        assert p.girth == 5
        assert p.cyclomatic == 6
        assert not p.bipartite

    def test_complete_bipartite(self):
        g = SignedGraph(6, [(u, v, 1) for u in range(3) for v in range(3, 6)])
        p = profile(g)
        assert p.girth == 4
        assert p.bipartite and p.balanced

    def test_disconnected(self):
        g = SignedGraph(5, [(0, 1, 1), (2, 3, 1), (3, 4, 1), (2, 4, 1)])
        p = profile(g)
        assert p.components == 2
        assert p.girth == 3
        assert not is_connected(g)
        assert connected_components(g.neighbors()) == [[0, 1], [2, 3, 4]]


class TestGirth:
    def test_girth_equals_shortest_enumerated_cycle(self):
        rng = random.Random(23)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(3, 9), extra=0.4)
            girth = girth_of_adjacency(g.neighbors())
            cycles = cycles_up_to(g, g.n)
            if girth is None:
                assert not cycles
            else:
                assert girth == min(c.length for c in cycles)

    def test_trees_hung_on_cyclic_graphs_match_networkx(self):
        # the scan runs on the 2-core only and deletes scanned roots, so
        # tree vertices are interleaved with core vertices in the labels
        rng = random.Random(61)
        for trial in range(300):
            g = random_cyclic_graph(rng, rng.randint(3, 9), extra=rng.choice((0.05, 0.2, 0.5)))
            edges = [(u, v) for u, v, _ in g.edges]
            n = g.n
            for _ in range(rng.randint(0, 8)):
                edges.append((rng.randrange(n), n))
                n += 1
            if trial % 5 == 0:
                # a disjoint path and an isolated vertex
                edges += [(n, n + 1), (n + 1, n + 2)]
                n += 4
            perm = list(range(n))
            rng.shuffle(perm)
            adj = [[] for _ in range(n)]
            nxg = nx.empty_graph(n)
            for u, v in edges:
                adj[perm[u]].append(perm[v])
                adj[perm[v]].append(perm[u])
                nxg.add_edge(perm[u], perm[v])
            expect = nx.girth(nxg)
            assert girth_of_adjacency(adj) == (None if expect == float("inf") else expect)
            core = two_core(adj)
            assert {v for v in range(n) if core[v]} == set(nx.k_core(nxg, 2))

    def test_shortest_cycle_record(self):
        g = cycle_graph(7, negatives={(2, 3)})
        rec = shortest_cycle(g)
        assert rec.length == 7
        assert rec.sign == -1
        assert rec.sign == cycle_sign(g, rec.vertices)

    def test_no_cycle_in_tree(self):
        g = SignedGraph(3, [(0, 1, 1), (1, 2, 1)])
        assert shortest_cycle(g) is None
        assert girth_of_adjacency(g.neighbors()) is None


class TestCycleEnumeration:
    def test_k4_cycle_census(self):
        g = SignedGraph(4, [(u, v, 1) for u in range(4) for v in range(u + 1, 4)])
        cycles = cycles_up_to(g, 4)
        lengths = sorted(c.length for c in cycles)
        assert lengths == [3, 3, 3, 3, 4, 4, 4]

    def test_single_cycle(self):
        cycles = cycles_up_to(cycle_graph(6), 6)
        assert len(cycles) == 1
        assert cycles[0].length == 6
        assert cycles[0].sign == 1

    def test_length_cap_respected(self):
        g = SignedGraph(4, [(u, v, 1) for u in range(4) for v in range(u + 1, 4)])
        assert all(c.length <= 3 for c in cycles_up_to(g, 3))


class TestBalance:
    def test_all_positive_is_balanced(self):
        g = random_connected_graph(random.Random(3), 8, extra=0.5)
        h = SignedGraph(g.n, [(u, v, 1) for u, v, _ in g.edges])
        assert is_balanced(h)

    def test_single_negative_triangle(self):
        assert not is_balanced(cycle_graph(3, negatives={(0, 1)}))

    def test_balance_matches_cycle_signs(self):
        rng = random.Random(9)
        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(3, 8), extra=0.4)
            cycles = cycles_up_to(g, g.n)
            assert is_balanced(g) == all(c.sign == 1 for c in cycles)

    def test_potentials_switch_balanced_to_all_positive(self):
        rng = random.Random(31)
        for _ in range(20):
            base = random_connected_graph(rng, rng.randint(2, 8), extra=0.4)
            pos = SignedGraph(base.n, [(u, v, 1) for u, v, _ in base.edges])
            scrambled = switch(pos, {v for v in range(pos.n) if rng.random() < 0.5})
            pots = switching_potentials(scrambled)
            back = switch(scrambled, [v for v in range(pos.n) if pots[v] == -1])
            assert back == pos


class TestBipartition:
    def test_even_cycle_parts(self):
        parts = bipartition(cycle_graph(6).neighbors())
        assert parts is not None
        left, right = parts
        assert sorted(left + right) == list(range(6))
        assert all(abs(u - v) % 2 == 1 for u in left for v in right)

    def test_odd_cycle_has_none(self):
        assert bipartition(cycle_graph(5).neighbors()) is None

    def test_parts_are_independent(self):
        rng = random.Random(77)
        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(2, 9), extra=0.3)
            adj = adjacency_matrix(g)
            parts = bipartition(g.neighbors())
            p = profile(g)
            assert (parts is not None) == p.bipartite
            if parts:
                for side in parts:
                    for u in side:
                        for v in side:
                            assert adj[u][v] == 0
