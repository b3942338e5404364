"""Sweep machinery: signing enumeration, graph streams, checks, reports."""

import csv
import dataclasses
import json
import random
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product

import networkx as nx
import numpy as np
import pytest

from conftest import rank_of, random_connected_graph
from sgrank import (
    CHECKS,
    DEFAULT_CHECKS,
    Graph6Error,
    SignedGraph,
    SweepConfig,
    accepted_cotree_patterns,
    adjacency_matrix,
    batch_ranks,
    canonical_switching_representative,
    classify_equals_g,
    classify_gminus2,
    dense_graphs,
    enumerate_signings,
    girth_of_adjacency,
    is_balanced,
    parse_graph6,
    parse_sgr,
    profile,
    rank as exact_rank,
    rank_oracle,
    reduced_graph,
    run,
    sparse_graphs,
    switch,
    write_counterexamples_csv,
)
import sgrank.classify as classify_module
import sgrank.sweep as sweep_module
from sgrank.classify import _complete_multipartite_parts, case_shapes, multipartite_parts
from sgrank.invariants import _cotree_pattern, _spanning_cotree
from sgrank.sweep import (
    STAGES,
    _SIGNING_BLOCK,
    _SPOT_CLASSIFY_STRIDE,
    _SPOT_RANK_STRIDE,
    _connected_cyclic,
    _cotree_signing,
    _dense_chunk,
    _edge_table,
    _girth_hints,
    _mask_dtype,
    _mask_edges,
    _matching_pairs,
    _neighbour_masks,
    _run_chunk,
    _signing_block,
    _sparse_chunk,
    _sparse_length,
    _sparse_pieces,
)


K4_EDGES = [(u, v) for u in range(4) for v in range(u + 1, 4)]


class TestSigningEnumeration:
    def test_one_representative_per_class(self):
        reps = list(enumerate_signings(4, K4_EDGES))
        assert len(reps) == 8  # 2^(6-3) switching classes
        assert len(set(reps)) == 8
        assert is_balanced(reps[0])

    def test_covers_every_signing(self):
        reps = {canonical_switching_representative(g)
                for g in enumerate_signings(4, K4_EDGES)}
        seen = set()
        for mask in range(1 << 6):
            edges = [(u, v, -1 if (mask >> i) & 1 else 1)
                     for i, (u, v) in enumerate(K4_EDGES)]
            g = SignedGraph(4, edges)
            rep = canonical_switching_representative(g)
            assert rep in reps
            assert rank_of(rep) == rank_of(g)
            seen.add(rep)
        assert seen == reps

    def test_representative_is_switching_invariant(self):
        rng = random.Random(6)
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(2, 8), extra=0.4)
            subset = {v for v in range(g.n) if rng.random() < 0.5}
            assert (canonical_switching_representative(switch(g, subset))
                    == canonical_switching_representative(g))

    def test_unicyclic_has_two_classes(self):
        reps = list(enumerate_signings(5, [(i, (i + 1) % 5) for i in range(5)]))
        assert len(reps) == 2
        assert is_balanced(reps[0]) and not is_balanced(reps[1])


def _column_order(edges):
    """The edges in graph6 order: by higher end, then by lower end."""
    return sorted(edges, key=lambda e: (max(e), min(e)))


def _sampled_graphs():
    """Sampled dense and sparse graphs, each also in graph6 edge order."""
    rng = random.Random(16)
    dense = [(n, edges) for n in range(3, 7) for _, edges in dense_graphs(n)]
    graphs = rng.sample(dense, 150) + rng.sample(list(sparse_graphs(9, 3)), 150)
    return graphs + [(n, _column_order(edges)) for n, edges in graphs]


class TestOneSpanningTree:
    """Signing enumeration, the switching representative and the
    classifiers' pattern lookup all use the tree of `_spanning_cotree`."""

    def test_cotree_signing_has_its_pattern(self):
        for n, edges in _sampled_graphs():
            cotree = _spanning_cotree(n, edges)
            adj = _adjacency(n, edges)
            for p in range(1 << len(cotree)):
                signs = _cotree_signing(n, edges, cotree, p).sign_map()
                got, _ = _cotree_pattern(
                    adj,
                    [edges[i] for i in cotree],
                    lambda u, v: signs[min(u, v), max(u, v)],
                )
                assert got == p, (n, edges, p)

    def test_representative_of_a_switching_is_the_cotree_signing(self):
        rng = random.Random(17)
        for n, edges in _sampled_graphs():
            for g in enumerate_signings(n, edges):
                subset = [v for v in range(n) if rng.random() < 0.5]
                assert canonical_switching_representative(switch(g, subset)) == g

    def test_tree_does_not_depend_on_the_edge_order(self):
        rng = random.Random(20)
        for n, edges in _sampled_graphs():
            tree = set(edges) - {edges[i] for i in _spanning_cotree(n, edges)}
            shuffled = [
                (v, u) if rng.random() < 0.5 else (u, v)
                for u, v in rng.sample(edges, len(edges))
            ]
            got = set(shuffled) - {shuffled[i] for i in _spanning_cotree(n, shuffled)}
            assert {frozenset(e) for e in got} == {frozenset(e) for e in tree}

    def test_signings_of_an_unsorted_edge_list_are_representatives(self):
        # neighbours of vertex 0 listed as 3, 1: the tree once depended on it
        edges = [(0, 3), (0, 1), (1, 2), (2, 3)]
        signings = list(enumerate_signings(4, edges))
        assert len(signings) == 2
        for g in signings:
            assert canonical_switching_representative(g) == g


class TestDenseStream:
    def test_labeled_count_n4(self):
        # 38 labeled connected graphs on 4 vertices minus 16 trees
        assert sum(1 for _ in dense_graphs(4)) == 22

    def test_all_connected_and_cyclic(self):
        for mask, edges in dense_graphs(4):
            g = nx.Graph(edges)
            g.add_nodes_from(range(4))
            assert nx.is_connected(g)
            assert g.number_of_edges() >= 4

    def test_girth_hints_match_bfs(self):
        from sgrank import girth_of_adjacency

        n = 5
        total = 1 << len(_edge_table(n))
        masks, counts, hints, nb = _dense_chunk(n, 0, total)
        for mask, hint, row in zip(masks.tolist(), hints.tolist(), nb.tolist()):
            edges = [e for i, e in enumerate(_edge_table(n)) if (mask >> i) & 1]
            adj = [[] for _ in range(n)]
            for u, v in edges:
                adj[u].append(v)
                adj[v].append(u)
            assert row == _neighbour_masks(n, edges)
            girth = girth_of_adjacency(adj)
            if hint:
                assert girth == hint
            else:
                assert girth is None or girth >= 5


class TestSparseStream:
    def test_stream_is_stable(self):
        assert sum(1 for _ in sparse_graphs(6, 3)) == 346

    @pytest.mark.filterwarnings("ignore:The hashes produced:UserWarning")
    def test_holds_every_atlas_class(self):
        # every connected graph on 3..7 vertices with cyclomatic number
        # 1..3 in networkx's atlas is isomorphic to a member of the stream
        stream = {}
        for n, edges in sparse_graphs(7, 3):
            g = _graph(n, edges)
            stream.setdefault(nx.weisfeiler_lehman_graph_hash(g), []).append(g)
        classes = 0
        for g in nx.graph_atlas_g():
            n = g.number_of_nodes()
            if 3 <= n and 1 <= g.number_of_edges() - n + 1 <= 3 and nx.is_connected(g):
                same_hash = stream.get(nx.weisfeiler_lehman_graph_hash(g), ())
                assert any(nx.is_isomorphic(g, h) for h in same_hash), sorted(g.edges())
                classes += 1
        assert classes == 280
        assert sum(map(len, stream.values())) == 1742

    def test_members_are_well_formed(self):
        for n, edges in sparse_graphs(7, 2):
            g = nx.Graph(edges)
            g.add_nodes_from(range(n))
            assert n <= 7
            assert nx.is_connected(g)
            c = g.number_of_edges() - n + 1
            assert 1 <= c <= 2

    def test_contains_known_probes(self):
        probes = [
            nx.cycle_graph(3),
            nx.complete_bipartite_graph(2, 3),
            nx.Graph([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]),
        ]
        stream = [(n, edges) for n, edges in sparse_graphs(6, 3)]
        for pg in probes:
            assert any(
                n == pg.number_of_nodes()
                and len(edges) == pg.number_of_edges()
                and nx.is_isomorphic(pg, nx.Graph(edges))
                for n, edges in stream
            )


def _adjacency(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _pattern_test_graphs():
    """Dense n <= 6 and sparse n <= 9, plus the sparse graphs of degrees 2
    and 3 that reach cases g and h: the n=10 graphs (subdivided K4) and
    the n=11 graphs with m = n + 1 (theta(5,5,5))."""
    for n in range(3, 7):
        for _, edges in dense_graphs(n):
            yield n, edges
    yield from sparse_graphs(9, 3)
    for n, edges in sparse_graphs(10, 3):
        if n == 10 and {len(nb) for nb in _adjacency(n, edges)} <= {2, 3}:
            yield n, edges
    for n, edges in sparse_graphs(11, 2):
        degrees = {len(nb) for nb in _adjacency(n, edges)}
        if n == 11 and len(edges) == 12 and degrees <= {2, 3}:
            yield n, edges


class TestAcceptedPatterns:
    def test_classifiers_accept_exactly_the_extremal_ranks(self):
        """Every signing of every graph: classify_gminus2 accepts iff the
        rank is girth-2, and classify_equals_g iff it is the girth, case
        (f) included; the ranks come from the batch kernel."""
        graphs = 0
        cases = set()
        for n, edges in _pattern_test_graphs():
            girth = girth_of_adjacency(_adjacency(n, edges))
            signings = list(enumerate_signings(n, edges))
            ranks = batch_ranks(np.array(
                [adjacency_matrix(g) for g in signings], dtype=np.int8
            )).tolist()
            for g, rank in zip(signings, ranks):
                res = classify_gminus2(g)
                assert (res is not None) == (rank == girth - 2), (n, edges, g)
                if res is not None:
                    cases.add(res.case)
                res = classify_equals_g(g, rank=rank)
                assert (res is not None) == (rank == girth), (n, edges, g)
                if res is not None:
                    cases.add(res.case)
            graphs += 1
        assert cases == set("ABC") | set("abcdefgh")
        assert graphs > 60000


def _yields_a_case(n, edges):
    cotree = lambda: [edges[i] for i in _spanning_cotree(n, edges)]
    return next(classify_module._cases(_adjacency(n, edges), cotree), None) is not None


def _shapes(n, edge_lists):
    nb = [_neighbour_masks(n, edges) for edges in edge_lists]
    girth = [girth_of_adjacency(_adjacency(n, edges)) for edges in edge_lists]
    m = [len(edges) for edges in edge_lists]
    return case_shapes(n, m, nb, girth, multipartite_parts(n, nb)).tolist()


class TestCaseShapes:
    """`case_shapes` is a necessary condition for the case table: every
    graph for which `_cases` yields a case passes it."""

    def _cases(self, n, edge_lists):
        """How many of the graphs have a case; each of them must pass."""
        cases = 0
        for edges, fits in zip(edge_lists, _shapes(n, edge_lists)):
            if _yields_a_case(n, edges):
                assert fits, (n, edges)
                cases += 1
        return cases

    @pytest.mark.parametrize("n", range(3, 8))
    def test_dense_graphs(self, n):
        table = _edge_table(n)
        total = 1 << len(table)
        graphs = passed = 0
        for lo in range(0, total, sweep_module._DENSE_CHUNK_MASKS):
            hi = min(lo + sweep_module._DENSE_CHUNK_MASKS, total)
            masks, m, hints, nb = _dense_chunk(n, lo, hi)
            fits = case_shapes(n, m, nb, hints, multipartite_parts(n, nb)).tolist()
            for mask, fit in zip(masks.tolist(), fits):
                if not fit:
                    edges = [table[i] for i in range(len(table)) if (mask >> i) & 1]
                    assert not _yields_a_case(n, edges), (n, edges)
            graphs += len(fits)
            passed += sum(fits)
        assert 0 < passed and (n < 5 or passed < graphs)

    def test_unicyclic_graphs_of_girth_three(self):
        # at girth 3 only C3 passes, as a complete multipartite graph; a
        # triangle-free unicyclic graph passes with or without a leaf
        c3 = [(0, 1), (1, 2), (0, 2)]
        c4_leaf = [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)]
        assert _shapes(3, [c3]) == [True]
        assert _shapes(4, [PAW_EDGES]) == [False]
        assert _shapes(5, [PAW_EDGES + [(3, 4)], PAW_EDGES + [(2, 4)]]) == [False, False]
        assert _shapes(5, [c4_leaf]) == [True]
        # the hint decides: the paw without a girth-3 hint passes
        paw_nb = [_neighbour_masks(4, PAW_EDGES)]
        paw_parts = multipartite_parts(4, paw_nb)
        assert case_shapes(4, [4], paw_nb, [0], paw_parts).tolist() == [True]

    def test_sparse_graphs_and_the_g_and_h_shapes(self):
        by_order = {}
        for n, edges in sparse_graphs(10, 3):
            by_order.setdefault(n, []).append(edges)
        for n, edges in sparse_graphs(11, 2):
            degrees = {len(nb) for nb in _adjacency(n, edges)}
            if n == 11 and len(edges) == 12 and degrees <= {2, 3}:  # theta(5,5,5)
                by_order.setdefault(n, []).append(edges)
        assert 11 in by_order
        assert sum(self._cases(n, graphs) for n, graphs in by_order.items()) > 0

    def test_sparse_verdicts_per_core_and_hanging(self):
        # the sweep runs `case_shapes` on the sparse stream's rows, over
        # max_n columns: each row's verdict is that of its own graph,
        # unpadded, with the girth searched for
        order, _, m, girth, nb, _ = _sparse_chunk(10, 3, 0, _sparse_length(10, 3))
        got = case_shapes(order, m, nb, girth, multipartite_parts(order, nb)).tolist()
        by_order = {}
        for i, (n, edges) in enumerate(sparse_graphs(10, 3)):
            by_order.setdefault(n, []).append((i, edges))
        for n, items in by_order.items():
            assert [got[i] for i, _ in items] == _shapes(n, [e for _, e in items]), n
        assert set(got) == {True, False}


def _k7_plus_vertex():
    """K7 plus a vertex joined to two of its vertices: 16 co-tree edges."""
    edges = [(u, v) for u in range(7) for v in range(u + 1, 7)]
    return 8, sorted(edges + [(0, 7), (1, 7)])


class TestSigningBlocks:
    def test_blocks_match_cotree_signings(self):
        rng = random.Random(15)
        graphs = [g for n in range(3, 6) for g in
                  ((n, edges) for _, edges in dense_graphs(n))]
        graphs += list(sparse_graphs(8, 3))[::53]
        for n, edges in rng.sample(graphs, 400):
            cotree = _spanning_cotree(n, edges)
            block = _signing_block(n, edges, cotree, 0)
            assert block.shape == (1 << len(cotree), n, n)
            assert block.dtype == np.int8
            for j in rng.sample(range(len(block)), min(len(block), 5)):
                want = adjacency_matrix(_cotree_signing(n, edges, cotree, j))
                assert block[j].tolist() == want

    def test_high_pattern_bits_come_from_the_block_start(self):
        n, edges = _k7_plus_vertex()
        cotree = _spanning_cotree(n, edges)
        assert len(cotree) == 16
        j0 = 1 << 15
        block = _signing_block(n, edges, cotree, j0)
        assert len(block) == 1 << 15
        for off in (0, 1, 2, 12345, (1 << 15) - 1):
            want = adjacency_matrix(_cotree_signing(n, edges, cotree, j0 + off))
            assert block[off].tolist() == want


class TestInducedMatching:
    def test_greedy_matching_is_induced_and_maximal(self):
        graphs = [(n, e) for n in range(3, 7) for _, e in dense_graphs(n)]
        graphs += list(sparse_graphs(9, 3))
        p_seen, k_seen = set(), set()
        for n, edges in graphs:
            adj = _adjacency(n, edges)
            pendant, matched = _matching_pairs(adj)
            paired = [v for pair in pendant + matched for v in pair]
            assert len(set(paired)) == len(paired), (n, edges)
            # a pendant sequence: x has the single neighbour y once the
            # earlier pairs are deleted
            gone = set()
            for x, y in pendant:
                assert [w for w in adj[x] if w not in gone] == [y], (n, edges)
                gone |= {x, y}
            # the deletion ran to the end: no pendant vertex is left
            for v in range(n):
                if v not in gone:
                    assert sum(1 for w in adj[v] if w not in gone) != 1, (n, edges)
            # then an induced matching of G minus those pairs
            present = {frozenset(e) for e in edges}
            pair = {}
            for i, (u, v) in enumerate(matched):
                assert frozenset((u, v)) in present
                pair[u] = pair[v] = i
            for u, v in edges:
                if u in pair and v in pair:
                    assert pair[u] == pair[v], (n, edges, matched)
            # maximal there: no edge of G minus the pairs could join it
            near = set(pair).union(*(adj[v] for v in pair))
            for u, v in edges:
                if u not in gone and v not in gone:
                    assert u in near or v in near, (n, edges, matched)
            p_seen.add(len(pendant))
            k_seen.add(len(matched))
        assert p_seen == {0, 1, 2, 3, 4}
        assert k_seen == {0, 1, 2, 3}


class TestGirthThreeSkipsTheMatching:
    """At girth 3 a graph without a witness is complete tripartite: its
    minimum degree is at least 2 and it has no induced 2K2, so
    `_matching_pairs` gives p = 0 and k = 1.  So the matching bound
    decides no girth-3 graph that the witness leaves, and the sweep runs
    it only above girth 3."""

    @staticmethod
    def _pairs(adj):
        return sum(map(len, _matching_pairs(adj)))

    def test_two_pairs_give_a_witness(self):
        graphs = [(n, e) for n in range(3, 7) for _, e in dense_graphs(n)]
        graphs += [
            _hung_graph(core, hang) for core, hang in _pieces(10, 3)
            if core.girth == 3
        ]
        two_pairs = 0
        for n, edges in graphs:
            if _has_triangle(n, edges) and self._pairs(_adjacency(n, edges)) >= 2:
                assert _witness(n, edges), (n, edges)
                two_pairs += 1
        assert two_pairs == 129_981

    def test_complete_tripartite_graphs_have_one_matched_pair(self):
        # every complete tripartite graph on 3..7 labeled vertices: one per
        # partition of the vertices into 3 parts, S(n, 3) of them
        graphs = 0
        for n in range(3, 8):
            for labels in product(range(3), repeat=n):
                # each partition once: parts numbered by their lowest vertex
                if set(labels) != {0, 1, 2} or not (
                    labels[0] == 0 and labels.index(1) < labels.index(2)
                ):
                    continue
                edges = [(u, v) for u, v in combinations(range(n), 2)
                         if labels[u] != labels[v]]
                assert _tripartite(n, edges), edges
                assert multipartite_parts(n, _masks(n, edges)).tolist() == [3]
                pendant, matched = _matching_pairs(_adjacency(n, edges))
                assert (len(pendant), len(matched)) == (0, 1), edges
                graphs += 1
        assert graphs == 1 + 6 + 25 + 90 + 301

    def test_matching_never_sees_girth_three(self, monkeypatch):
        girths = []
        real = sweep_module._matching_pairs

        def spy(adj):
            girths.append(girth_of_adjacency(adj))
            return real(adj)

        monkeypatch.setattr(sweep_module, "_matching_pairs", spy)
        rep = run(SweepConfig(max_n_dense=6, max_n_sparse=9))
        assert rep.total_failures() == 0
        assert girths and min(girths) == 4


def _graph(n, edges):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


@lru_cache(maxsize=None)
def _quad_witness(quad_edges):
    """Brute force on one 4-vertex induced subgraph, given by its edges:
    whether every signing has rank 4 (by `rank_oracle`)."""
    return min(
        rank_oracle(adjacency_matrix(SignedGraph(4, [
            (u, v, -1 if (signs >> i) & 1 else 1) for i, (u, v) in enumerate(quad_edges)
        ])))
        for signs in range(1 << len(quad_edges))
    ) == 4


def _brute_force_witness(n, edges):
    """Whether some 4 vertices induce a graph whose every signing has
    rank 4, searched over every 4-set."""
    present = {frozenset(e) for e in edges}
    return any(
        _quad_witness(tuple(
            (i, j)
            for (i, u), (j, v) in combinations(enumerate(quad), 2)
            if frozenset((u, v)) in present
        ))
        for quad in combinations(range(n), 4)
    )


def _has_triangle(n, edges):
    nb = _neighbour_masks(n, edges)
    return any(nb[u] & nb[v] for u, v in edges)


def _tripartite(n, edges):
    """Whether the graph is complete tripartite, by the scalar test."""
    parts = _complete_multipartite_parts(_adjacency(n, edges))
    return parts is not None and len(parts) == 3


def _witness(n, edges):
    """The sweep's witness: a triangle, and not complete tripartite."""
    return _has_triangle(n, edges) and not _tripartite(n, edges)


def _hung_graph(core, hang):
    """The sparse stream's graph of a core and a hanging, as (n, sorted
    edges)."""
    return core.n + hang.extra, sorted(core.edges + hang.edges)


def _pieces(max_n, max_cyclomatic, lo=0, hi=None):
    """The (core, hanging) pairs at sparse stream positions [lo, hi)."""
    return [(core, hang) for core, a, b in _sparse_pieces(max_n, max_cyclomatic, lo, hi)
            for hang in core.hangings[a:b]]


def _row_witness(n, nb):
    """The witness of rows of neighbour bitmasks, as `add_batch` takes it:
    a girth hint of 3, and not 3 parts."""
    return (_girth_hints(nb) == 3) & (multipartite_parts(n, nb) != 3)


def _masks(n, edges, width=None):
    """One row of neighbour bitmasks, zero-padded to `width` columns, in
    the sweep's dtype for that width."""
    width = n if width is None else width
    return np.array([_neighbour_masks(width, edges)], dtype=_mask_dtype(width))


def _dense_witness_of(n, edges):
    return bool(_row_witness(n, _masks(n, edges))[0])


def _adjacency_of_row(row):
    """Adjacency lists, ascending, from one row of neighbour bitmasks."""
    return [[w for w in range(len(row)) if (b >> w) & 1] for b in row]


PAW_EDGES = [(0, 1), (0, 2), (1, 2), (0, 3)]


class TestWitnessTable:
    """The graphs on 4 vertices whose every signing has rank 4, by
    `rank_oracle`: 2K2, P4, the paw and K4.  The paw and K4 are the ones
    with a triangle, and no complete tripartite graph induces any of
    them."""

    WITNESSES = (
        nx.Graph([(0, 1), (2, 3)]), nx.path_graph(4), nx.Graph(PAW_EDGES),
        nx.complete_graph(4),
    )

    def test_every_labeled_graph_on_four_vertices(self):
        triangles = 0
        for mask in range(1 << 6):
            edges = [e for i, e in enumerate(_edge_table(4)) if (mask >> i) & 1]
            g = _graph(4, edges)
            found = _quad_witness(tuple(edges))
            assert found == any(nx.is_isomorphic(g, h) for h in self.WITNESSES), edges
            if nx.is_connected(g) and _has_triangle(4, edges):
                assert _witness(4, edges) == found, edges
                triangles += 1
        assert triangles == 12 + 6 + 1  # paws, diamonds and K4

    def test_exactly_2k2_p4_the_paw_and_k4(self):
        graphs = [g for g in nx.graph_atlas_g() if g.number_of_nodes() == 4]
        assert len(graphs) == 11
        found = [
            g for g in graphs
            if _quad_witness(tuple(sorted(tuple(sorted(e)) for e in g.edges())))
        ]
        assert len(found) == 4
        for h in self.WITNESSES:
            assert sum(nx.is_isomorphic(g, h) for g in found) == 1
        with_triangle = [g for g in found if any(nx.triangles(g).values())]
        assert sorted(g.number_of_edges() for g in with_triangle) == [4, 6]

    def test_no_witness_in_complete_tripartite_graphs(self):
        for sizes in combinations_with_replacement(range(1, 4), 3):
            g = nx.complete_multipartite_graph(*sizes)
            n, edges = g.number_of_nodes(), sorted(g.edges())
            assert not _brute_force_witness(n, edges), sizes
            assert not _witness(n, edges)
            assert not _dense_witness_of(n, edges)  # uint16 masks from n = 9


class TestInducedForestWitness:
    """The sweep's girth-3 witness, a triangle and not complete
    tripartite, against a brute-force search over 4-vertex subsets with
    `rank_oracle`."""

    def test_atlas_graphs(self):
        seen = set()
        for g in nx.graph_atlas_g()[1:]:
            if not nx.is_connected(g):
                continue
            n, edges = g.number_of_nodes(), sorted(g.edges())
            girth = girth_of_adjacency(_adjacency(n, edges))
            assert _has_triangle(n, edges) == (girth == 3), edges
            if girth == 3:
                got = _witness(n, edges)
                assert got == _brute_force_witness(n, edges), edges
                seen.add(got)
        assert seen == {True, False}

    def test_labeled_dense_graphs(self):
        found = 0
        for n in range(3, 7):
            for _, edges in dense_graphs(n):
                if _has_triangle(n, edges):
                    got = _witness(n, edges)
                    assert got == _brute_force_witness(n, edges), (n, edges)
                    found += got
        assert found > 0

    @pytest.mark.parametrize(
        "n, edges, want",
        [
            (4, [(0, 1), (1, 2), (2, 3)], True),  # P4
            (4, [(0, 1), (2, 3)], True),  # 2K2
            (4, [(0, 1), (1, 2), (2, 3), (0, 3)], False),  # C4
            (4, K4_EDGES, True),
            (5, [(u, v) for u in (0, 1) for v in (2, 3, 4)], False),  # K_{2,3}
            (4, PAW_EDGES, True),  # the paw
            (5, PAW_EDGES + [(3, 4)], True),  # a paw and a P4
            (3, [(0, 1), (0, 2), (1, 2)], False),  # K3
            (4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)], False),  # K_{1,1,2}
            (5, [(0, v) for v in range(1, 5)] + [(1, 2), (2, 3), (3, 4), (1, 4)],
             False),  # the wheel W4, K_{1,2,2}
            (5, [(u, v) for u in range(5) for v in range(u + 1, 5) if (u, v) != (3, 4)],
             True),  # K5 minus an edge, K_{1,1,1,2}
        ],
    )
    def test_hand_cases(self, n, edges, want):
        assert _brute_force_witness(n, edges) is want
        if _has_triangle(n, edges):  # the sweep's witness is for girth 3
            assert _witness(n, edges) is want
            assert _dense_witness_of(n, edges) is want

    def test_paw_is_decided_by_its_pendant_pairs(self):
        # a triangle with a pendant vertex: no induced P4 or 2K2, only
        # the paw itself; two pendant pairs also give 2(p + k) = 4 =
        # girth + 1
        assert _witness(4, PAW_EDGES)
        pendant, matched = _matching_pairs(_adjacency(4, PAW_EDGES))
        assert 2 * (len(pendant) + len(matched)) == 4


class TestDenseWitness:
    """The witness of a whole chunk of rows, from the part counts of
    `multipartite_parts`, against the per-graph witness, from
    `_complete_multipartite_parts`."""

    @pytest.mark.parametrize("n", range(3, 8))
    def test_equals_the_scalar_witness_on_every_dense_graph(self, n):
        total = 1 << len(_edge_table(n))
        found = 0
        for lo in range(0, total, sweep_module._DENSE_CHUNK_MASKS):
            hi = min(lo + sweep_module._DENSE_CHUNK_MASKS, total)
            _, _, hints, nb = _dense_chunk(n, lo, hi)
            parts = multipartite_parts(n, nb)
            got = _row_witness(n, nb)
            assert got.dtype == bool
            for i, (row, hint, count, witness) in enumerate(
                zip(nb.tolist(), hints.tolist(), parts.tolist(), got.tolist())
            ):
                scalar = _complete_multipartite_parts(_adjacency_of_row(row))
                assert count == (0 if scalar is None else len(scalar)), (n, i)
                assert witness == (hint == 3 and count != 3), (n, i)
            found += int(got.sum())
        assert (found > 0) == (n >= 4)  # the paw and K4 from n = 4 on


class TestPaddedRows:
    """A row may be zero-padded past its graph's order: a padded column
    counts as no vertex."""

    def test_padded_dense_rows_give_the_same_results(self):
        rows = multipartite = by_degree = 0
        for n in range(3, 7):
            total = 1 << len(_edge_table(n))
            masks, m, hints, nb = _dense_chunk(n, 0, total)
            parts = multipartite_parts(n, nb)
            shapes = case_shapes(n, m, nb, hints, parts)
            # every labeled graph on n vertices, for the connectivity test
            every = np.array(
                [_neighbour_masks(n, _mask_edges(n, mask)) for mask in range(total)],
                dtype=np.uint8,
            )
            every_m = np.array([bin(mask).count("1") for mask in range(total)])
            for width in (8, 9, 16):
                padded = np.zeros((len(nb), width), dtype=_mask_dtype(width))
                padded[:, :n] = nb
                order = np.full(len(nb), n)
                got = multipartite_parts(order, padded)
                assert (got == parts).all(), (n, width)
                assert (case_shapes(order, m, padded, hints, got) == shapes).all(), (n, width)
                assert (_girth_hints(padded) == hints).all(), (n, width)
                wide = np.zeros((total, width), dtype=_mask_dtype(width))
                wide[:, :n] = every
                keep = _connected_cyclic(np.full(total, n), every_m, wide)
                assert np.flatnonzero(keep).tolist() == masks.tolist(), (n, width)
            rows += len(nb)
            # rows that a padded column would turn round: complete
            # multipartite ones, and ones in a case shape by their degrees
            multipartite += int((parts > 0).sum())
            by_degree += int((shapes & (parts == 0) & (m > n)).sum())
        # the connected labeled graphs with a cycle on 3..6 vertices
        assert rows == 26_034
        assert multipartite > 0 and by_degree > 0


_IFF_CHECKS = ("girth_minus_2_iff_classified", "equals_girth_iff_classified")


def _iff_sweep():
    return run(SweepConfig(max_n_dense=5, max_n_sparse=7,
                           checks=_IFF_CHECKS, max_counterexamples=10**6))


@lru_cache(maxsize=None)
def _sparse_stream(max_n, max_cyclomatic):
    return list(sparse_graphs(max_n, max_cyclomatic))


def _replay(ce, sparse_n=7):
    """The counterexample's graph, checked against its .sgr record, its
    reported rank and girth, and its source and signing index (a sparse
    key indexes `sparse_graphs(sparse_n, 3)`)."""
    g = parse_sgr(ce["sgr"])
    assert rank_of(g) == ce["rank"]
    assert profile(g).girth == ce["girth"]
    source, key = ce["source"].split(":")
    if source == "dense":
        table = _edge_table(ce["n"])
        edges = [e for i, e in enumerate(table) if (int(key) >> i) & 1]
    else:
        edges = _sparse_stream(sparse_n, 3)[int(key)][1]
    assert list(enumerate_signings(ce["n"], edges))[ce["signing_index"]] == g
    return g


class TestIffChecksAreLive:
    def test_dropped_pattern_is_reported(self, monkeypatch):
        dropped = {"gm2": 0, "eqg": 0}

        def drop_one(adj, cotree):
            gm2, eqg = accepted_cotree_patterns(adj, cotree)
            dropped["gm2"] += bool(gm2)
            # at girth 4 case (f) accepts a rank-4 pattern on its rank alone
            dropped["eqg"] += bool(eqg) and girth_of_adjacency(adj) != 4
            return gm2 - {min(gm2, default=0)}, eqg - {min(eqg, default=0)}

        monkeypatch.setattr(sweep_module, "accepted_cotree_patterns", drop_one)
        rep = _iff_sweep()
        assert dropped["gm2"] > 0 and dropped["eqg"] > 0
        assert rep.failures[_IFF_CHECKS[0]] == dropped["gm2"]
        assert rep.failures[_IFF_CHECKS[1]] == dropped["eqg"]
        assert len(rep.counterexamples) == rep.total_failures()
        for ce in rep.counterexamples:
            g = _replay(ce)
            if ce["check"] == _IFF_CHECKS[0]:
                assert ce["rank"] == ce["girth"] - 2
                assert classify_gminus2(g) is not None
            else:
                assert ce["rank"] == ce["girth"] != 4
                assert classify_equals_g(g) is not None

    def test_added_pattern_at_girth_four_is_reported(self, monkeypatch):
        def add_balanced(adj, cotree):
            gm2, eqg = accepted_cotree_patterns(adj, cotree)
            if girth_of_adjacency(adj) == 4:
                eqg = eqg | {0}
            return gm2, eqg

        monkeypatch.setattr(sweep_module, "accepted_cotree_patterns", add_balanced)
        rep = _iff_sweep()
        assert rep.failures.get(_IFF_CHECKS[0], 0) == 0
        assert rep.failures[_IFF_CHECKS[1]] > 0
        for ce in rep.counterexamples:
            assert ce["check"] == _IFF_CHECKS[1]
            g = _replay(ce)
            assert (ce["girth"], ce["signing_index"]) == (4, 0)
            assert ce["rank"] != 4
            assert classify_equals_g(g, rank=ce["rank"]) is None


def _girth_four_sweep():
    return run(SweepConfig(max_n_dense=6, max_n_sparse=0,
                           checks=("girth_four_consequences",),
                           max_counterexamples=10**6))


@lru_cache(maxsize=None)
def _girth_four_hits():
    """The reduced order of every girth-4 rank-4 instance of dense n <= 6,
    found apart from the sweep: every co-tree signing, ranked by
    `batch_ranks` and twin-reduced by `reduced_graph`."""
    orders = []
    for n in range(4, 7):
        for _, edges in dense_graphs(n):
            if girth_of_adjacency(_adjacency(n, edges)) != 4:
                continue
            signings = list(enumerate_signings(n, edges))
            mats = np.array([adjacency_matrix(g) for g in signings], dtype=np.int8)
            for g, r in zip(signings, batch_ranks(mats).tolist()):
                if r == 4:
                    orders.append(reduced_graph(g).n)
    return orders


class TestGirthFourConsequencesAreLive:
    def test_every_hit_is_checked(self):
        rep = _girth_four_sweep()
        assert rep.checked["girth_four_consequences"] == len(_girth_four_hits()) > 0
        assert rep.total_failures() == 0

    def test_non_bipartite_graphs_are_reported(self, monkeypatch):
        monkeypatch.setattr(sweep_module, "bipartition", lambda adj: None)
        rep = _girth_four_sweep()
        checked = rep.checked["girth_four_consequences"]
        assert rep.failures["girth_four_consequences"] == checked > 0
        assert len(rep.counterexamples) == checked
        for ce in rep.counterexamples:
            assert (ce["check"], ce["girth"], ce["rank"]) == ("girth_four_consequences", 4, 4)
            assert "(underlying graph not bipartite)" in ce["sgr"]

    def test_wrong_reduced_rank_is_reported(self, monkeypatch):
        orders = _girth_four_hits()
        order = max(set(orders), key=orders.count)

        def wrong_at_one_order(matrix):
            report = exact_rank(matrix)
            if len(matrix) != order:
                return report
            return dataclasses.replace(report, rank=report.rank + 1)

        monkeypatch.setattr(sweep_module, "exact_rank", wrong_at_one_order)
        rep = _girth_four_sweep()
        assert rep.failures["girth_four_consequences"] == orders.count(order) > 0
        assert len(rep.counterexamples) == orders.count(order)
        for ce in rep.counterexamples:
            assert "(twin-reduced rank 5 != 4)" in ce["sgr"]
            assert reduced_graph(parse_sgr(ce["sgr"])).n == order


class TestDecidedAtIntake:
    """Graphs whose pendant pairs and matching already give 2(p + k) >=
    girth + 1, and graphs of girth 3 with an induced graph of the witness
    table (P4, 2K2, the paw or K4), are checked without building or
    ranking any signing."""

    def test_forced_decisions_fail_once_per_accepted_pattern(self, monkeypatch):
        accepted = [0, 0]

        def count(adj, cotree):
            gm2, eqg = accepted_cotree_patterns(adj, cotree)
            accepted[0] += len(gm2)
            accepted[1] += len(eqg)
            return gm2, eqg

        monkeypatch.setattr(sweep_module, "accepted_cotree_patterns", count)
        def all_pendant(adj):
            # n pendant pairs: 2(p + k) >= girth + 1 decides every graph
            # of girth >= 4
            return [(v, v) for v in range(len(adj))], []

        monkeypatch.setattr(sweep_module, "_matching_pairs", all_pendant)
        # and a witness every graph of girth 3, in every stream: no graph
        # is complete tripartite to the witness, while `case_shapes` still
        # sees the complete multipartite graphs
        real_parts = sweep_module.multipartite_parts

        def four_parts(n, nb):
            parts = real_parts(n, nb)
            return np.where(parts == 3, 4, parts)

        monkeypatch.setattr(sweep_module, "multipartite_parts", four_parts)
        rep = _iff_sweep()
        assert rep.decided_instances == rep.instances
        assert accepted[0] > 0 and accepted[1] > 0
        assert [rep.failures.get(name, 0) for name in _IFF_CHECKS] == accepted
        assert len(rep.counterexamples) == sum(accepted)
        for ce in rep.counterexamples:
            # the sweep saw rank girth + 1; the record holds the exact rank
            g = _replay(ce)
            assert ce["rank_capped"] and ce["rank"] <= ce["girth"]
            if ce["check"] == _IFF_CHECKS[0]:
                assert classify_gminus2(g) is not None
            else:
                assert classify_equals_g(g) is not None

    def test_decided_graphs_have_rank_above_girth(self):
        rep, decided = _quick_sweep()
        assert sum(g.instances for g in decided) == rep.decided_instances > 0
        assert any(g.counted for g in decided)
        # a witness decides graphs that the matching bound would leave
        assert any(
            g.witness and 2 * sum(map(len, _matching_pairs(_adjacency(g.n, g.edges)))) <= 3
            for g in decided
        )
        by_order = {}
        for g in decided:
            cotree = _spanning_cotree(g.n, g.edges)
            for j0 in range(0, 1 << len(cotree), _SIGNING_BLOCK):
                block = _signing_block(g.n, g.edges, cotree, j0)
                by_order.setdefault(g.n, []).append((block, g.girth))
        assert set(by_order) == set(range(4, 10))
        for items in by_order.values():
            stack = np.concatenate([block for block, _ in items])
            girths = np.repeat([g for _, g in items], [len(block) for block, _ in items])
            assert (batch_ranks(stack) > girths).all()

    def test_witness_decides_beyond_the_matching_bound(self):
        rep, decided = _quick_sweep()
        assert 0 < rep.decided_by_witness < rep.decided_instances
        witnessed = [g for g in decided if g.witness]
        assert sum(g.instances for g in witnessed) == rep.decided_by_witness
        # each rule decides where it holds: a witness at girth 3, the
        # matching bound 2(p + k) >= girth + 1 above it
        for g in decided:
            if g.witness:
                assert _witness(g.n, list(g.edges)), g
            else:
                pairs = _matching_pairs(_adjacency(g.n, g.edges))
                assert 2 * sum(map(len, pairs)) > g.girth > 3, g
        # some witnessed graphs have 2(p + k) <= girth: the matching
        # bound misses them
        assert any(
            2 * sum(map(len, _matching_pairs(_adjacency(g.n, g.edges)))) <= 3
            for g in witnessed
        )
        totals = rep.to_json_dict()["totals"]
        assert totals["decided_by_witness"] == rep.decided_by_witness
        assert "decided_by_forest" not in totals

    def test_cotree_and_record_only_where_needed(self, monkeypatch):
        # on the quick config, the spanning tree is built only for graphs
        # that are ranked, spot-sampled or accept a pattern, and a decided
        # graph leaves nothing behind unless it is one of those
        trees = []
        real_tree = _spanning_cotree
        for module in (sweep_module, classify_module):
            def tree(n, edges, module=module):
                trees.append((module, n, frozenset(map(frozenset, edges))))
                return real_tree(n, edges)

            monkeypatch.setattr(module, "_spanning_cotree", tree)
        ranked, sampled, accepting = {}, {}, {}  # id -> meta
        records = []
        decided_keys = []

        def graph(meta):
            return meta.n, frozenset(map(frozenset, meta.edges))

        real_meta = sweep_module._GraphMeta.__init__
        real_append = sweep_module._Engine._append_block
        real_spot = sweep_module._Engine._spot_checks
        real_fail = sweep_module._Engine._fail
        real_finish = sweep_module._Engine.finish

        def meta_init(self, *args):
            real_meta(self, *args)
            records.append(self)

        def append(self, key, meta, *args):
            ranked[id(meta)] = meta
            real_append(self, key, meta, *args)

        def spot(self, segments, starts, ranks):
            if ranks is None:  # a decided graph holding a sample
                sampled[id(segments[0].meta)] = segments[0].meta
            real_spot(self, segments, starts, ranks)

        def fail(self, name, meta, *args):
            accepting[id(meta)] = meta
            real_fail(self, name, meta, *args)

        def finish(self):
            decided_keys.append(len(self.decided))
            return real_finish(self)

        monkeypatch.setattr(sweep_module._GraphMeta, "__init__", meta_init)
        monkeypatch.setattr(sweep_module._Engine, "_append_block", append)
        monkeypatch.setattr(sweep_module._Engine, "_spot_checks", spot)
        monkeypatch.setattr(sweep_module._Engine, "_fail", fail)
        monkeypatch.setattr(sweep_module._Engine, "finish", finish)
        rep = run(SweepConfig(max_n_dense=6, max_n_sparse=9))
        assert rep.total_failures() == 0 and not accepting
        # each sampled graph holds one of the stride's samples at least
        assert 0 < len(sampled) <= rep.checked["spot_check_exact_rank"]
        needed = {
            graph(meta) for group in (ranked, sampled, accepting) for meta in group.values()
        }
        seen = {module: [] for module in (sweep_module, classify_module)}
        for module, n, edges in trees:
            assert (n, edges) in needed
            seen[module].append((n, edges))
        # one tree per ranked or sampled graph in the engine; the
        # classifiers, run on sampled instances only, build their own
        assert len(seen[sweep_module]) == len(records) == len(ranked) + len(sampled)
        assert seen[classify_module]
        assert len(records) < rep.graphs // 4
        # the running sums hold one entry per (order, girth)
        histogram = rep.to_json_dict()["rank_histogram"]
        assert max(decided_keys) <= len({(n, g) for n, g, _, _ in histogram})

    def test_quick_histogram_is_pinned(self):
        rep, _ = _quick_sweep()
        data = rep.to_json_dict()
        assert data["rank_histogram"] == QUICK_HISTOGRAM
        assert sum(row[3] for row in QUICK_HISTOGRAM) == rep.instances == 675_550
        assert rep.total_failures() == 0

    def test_capped_and_uncapped_runs_agree(self, monkeypatch):
        cfg = SweepConfig(max_n_dense=5, max_n_sparse=7)
        capped = run(cfg).to_json_dict()
        kernel_calls = []
        kernel = sweep_module.capped_ranks

        def spy(stack, cap):
            kernel_calls.append((len(stack), stack.shape[1], cap))
            return kernel(stack, cap)

        monkeypatch.setattr(sweep_module, "capped_ranks", spy)
        # an instance check needs full ranks, so the engine runs uncapped
        checks = DEFAULT_CHECKS + ("twin_deletion_rank",)
        full = run(dataclasses.replace(cfg, checks=checks)).to_json_dict()
        totals = full["totals"]
        assert totals["decided_instances"] == 0 < capped["totals"]["decided_instances"]
        assert all(cap == n for _, n, cap in kernel_calls)
        assert sum(size for size, _, _ in kernel_calls) == totals["instances"]
        assert totals["instances"] == capped["totals"]["instances"]
        assert full["rank_histogram"] == capped["rank_histogram"]
        for name in DEFAULT_CHECKS:
            assert full["checks"][name] == capped["checks"][name], name
        assert full["totals"]["failures"] == capped["totals"]["failures"] == 0


# (order, girth, min(rank, girth + 1), instances) over the quick config,
# dense n <= 6 and sparse n <= 9, computed with the full rank of every
# instance before the sweep capped any rank
QUICK_HISTOGRAM = [
    [3, 3, 3, 4], [4, 3, 3, 18], [4, 3, 4, 64], [4, 4, 2, 4], [4, 4, 4, 4],
    [5, 3, 3, 58], [5, 3, 4, 3324], [5, 4, 2, 11], [5, 4, 4, 161], [5, 5, 5, 26],
    [6, 3, 3, 180], [6, 3, 4, 430334], [6, 4, 2, 26], [6, 4, 4, 2431],
    [6, 4, 5, 3447], [6, 5, 6, 730], [6, 6, 4, 61], [6, 6, 6, 61], [7, 3, 4, 7846],
    [7, 4, 4, 83], [7, 4, 5, 709], [7, 5, 6, 52], [7, 6, 6, 12], [7, 7, 7, 2],
    [8, 3, 4, 36212], [8, 4, 4, 109], [8, 4, 5, 4965], [8, 5, 6, 284],
    [8, 6, 6, 30], [8, 6, 7, 28], [8, 7, 8, 14], [8, 8, 6, 1], [8, 8, 8, 1],
    [9, 3, 4, 154174], [9, 4, 4, 117], [9, 4, 5, 27803], [9, 5, 6, 1812],
    [9, 6, 6, 49], [9, 6, 7, 215], [9, 7, 8, 70], [9, 8, 8, 16], [9, 9, 9, 2],
]


@dataclasses.dataclass(frozen=True)
class _Decided:
    n: int
    edges: tuple
    girth: int
    witness: bool  # decided by a witness (at girth 3), else by 2(p + k)
    counted: bool  # only counted, with no per-graph intake

    @property
    def instances(self):
        return 1 << (len(self.edges) - self.n + 1)


@lru_cache(maxsize=None)
def _quick_sweep():
    """The quick config's report, and the graphs it decided at intake:
    the graphs `_Engine._decide` took, each marked as decided by a
    witness when its girth is 3, and the ones it only counted, which are
    the girth-3 graphs of the quick config's streams with a witness that
    `_decide` did not see."""
    decided = []
    seen = set()
    decide = sweep_module._Engine._decide

    def spy(self, source, key, n, edges, adj, girth, shape, start):
        decided.append(_Decided(n, tuple(edges), girth, girth == 3, False))
        seen.add((source, n, key))  # a dense key is a mask: it needs n
        decide(self, source, key, n, edges, adj, girth, shape, start)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep_module._Engine, "_decide", spy)
        rep = run(SweepConfig(max_n_dense=6, max_n_sparse=9))
    graphs = [
        ("dense", mask, n, edges) for n in range(3, 7) for mask, edges in dense_graphs(n)
    ]
    graphs += [
        ("sparse", key, n, edges) for key, (n, edges) in enumerate(sparse_graphs(9, 3))
    ]
    for source, key, n, edges in graphs:
        if (source, n, key) not in seen and _has_triangle(n, edges):
            if _witness(n, edges):
                decided.append(_Decided(n, tuple(edges), 3, True, True))
    return rep, decided


class TestGraph6:
    def test_reads_networkx_output(self):
        graphs = [nx.path_graph(4), nx.cycle_graph(5), nx.complete_graph(4)]
        text = b"".join(nx.to_graph6_bytes(g) for g in graphs).decode()
        out = parse_graph6(text)
        assert [n for n, _ in out] == [4, 5, 4]
        for (n, edges), g in zip(out, graphs):
            assert nx.is_isomorphic(nx.Graph(edges), g)

    def test_header_and_blank_lines(self):
        assert parse_graph6(">>graph6<<C~\n\n") == [
            (4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)])
        ]

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("Dhd\n", "padding"),
            ("D\n", "expected 2 data characters"),
            ("C!\n", "printable graph6 range"),
        ],
    )
    def test_malformed_records(self, text, fragment):
        with pytest.raises(Graph6Error, match=fragment):
            parse_graph6(text)

    def test_error_survives_pickling(self):
        import pickle

        err = pickle.loads(pickle.dumps(Graph6Error("bad", 3)))
        assert type(err) is Graph6Error
        assert (str(err), err.record) == ("graph6 record 3: bad", 3)
        err = pickle.loads(pickle.dumps(Graph6Error("bad", 3, "in.g6")))
        assert (str(err), err.path) == ("in.g6: graph6 record 3: bad", "in.g6")

    def test_order_cap(self):
        assert parse_graph6(nx.to_graph6_bytes(nx.path_graph(16)).decode())[0][0] == 16
        big = nx.to_graph6_bytes(nx.path_graph(17)).decode()
        with pytest.raises(Graph6Error, match="order 17"):
            parse_graph6(big)


class TestSparseGirthHint:
    def test_hint_is_the_girth(self):
        graphs = []
        for core, hang in _pieces(10, 3):
            n, edges = _hung_graph(core, hang)
            assert core.girth == girth_of_adjacency(_adjacency(n, edges)), (n, edges)
            graphs.append((n, edges))
        assert graphs == list(sparse_graphs(10, 3))


class TestSparseChunks:
    """Each sparse chunk builds its own slice of the stream from the core
    table and the hangings cached per core order."""

    @pytest.mark.parametrize("max_n", [8, 10])
    def test_slices_join_to_the_full_stream(self, max_n):
        full = _pieces(max_n, 3)
        assert _sparse_length(max_n, 3) == len(full)
        graphs = [_hung_graph(core, hang) for core, hang in full]
        assert graphs == list(sparse_graphs(max_n, 3))
        assert all(edges == sorted(edges) for _, edges in graphs)
        # a step of 97 puts slice boundaries inside cores
        joined = []
        for lo in range(0, len(full) + 97, 97):
            joined += _pieces(max_n, 3, lo, lo + 97)
        assert joined == full
        assert _pieces(max_n, 3, 97) == full[97:]

    def test_small_chunks_report_the_same_failures(self, monkeypatch):
        cfg = SweepConfig(max_n_dense=0, max_n_sparse=8,
                          checks=("rank_ge_girth_minus_1",), max_counterexamples=10**6)
        want = run(cfg)
        monkeypatch.setattr(sweep_module, "_SPARSE_CHUNK_GRAPHS", 97)
        got = run(cfg)
        assert got.total_failures() == want.total_failures() > 0
        assert len(got.counterexamples) == got.total_failures()
        for ce in got.counterexamples:
            _replay(ce, sparse_n=8)

    def test_batch_witness_on_every_sparse_row(self):
        # the witness `add_batch` takes from a sparse row, its core's
        # girth 3 and not 3 parts, is "a triangle and not complete
        # tripartite" of the row's graph
        order, keys, m, girth, nb, edges_of = _sparse_chunk(10, 3, 0, _sparse_length(10, 3))
        got = ((girth == 3) & (multipartite_parts(order, nb) != 3)).tolist()
        witnessed = 0
        for (n, edges), found in zip(sparse_graphs(10, 3), got):
            assert found == _witness(n, edges), (n, edges)
            witnessed += found
        # 112,137 hung graphs of girth 3, and the bare cores of girth 3
        # other than the 8 complete tripartite ones
        assert len(got) == 144_104 and witnessed == 114_028
        rep = run(SweepConfig(max_n_dense=0, max_n_sparse=9))
        assert rep.decided_by_witness == 199_958

    @pytest.mark.parametrize("max_n", [8, 10])
    def test_rows_are_the_stream_graphs(self, max_n):
        # rows built a chunk at a time, from the core's masks ORed into
        # the cached masks of its hanging, padded to max_n columns; a
        # step of 97 puts chunk boundaries inside cores
        stream = list(sparse_graphs(max_n, 3))
        total = _sparse_length(max_n, 3)
        for lo in range(0, total, 97):
            order, keys, m, girth, nb, edges_of = _sparse_chunk(max_n, 3, lo, min(lo + 97, total))
            assert nb.dtype == _mask_dtype(max_n) and nb.shape[1] == max_n
            assert keys.tolist() == list(range(lo, lo + len(keys)))
            for key, n, edges_m, row in zip(keys.tolist(), order.tolist(), m.tolist(),
                                            nb.tolist()):
                n_want, edges = stream[key]
                assert (n, edges_m) == (n_want, len(edges))
                assert row == _neighbour_masks(max_n, edges), (n, edges)
                assert edges_of(key) == edges
        assert lo + len(keys) == len(stream)


class TestSweepRuns:
    def test_small_run_is_clean(self):
        rep = run(SweepConfig(max_n_dense=5, max_n_sparse=6))
        assert rep.total_failures() == 0
        assert rep.graphs > 900
        assert rep.instances > 5000
        for name in DEFAULT_CHECKS:
            assert rep.checked.get(name, 0) >= 0
        assert rep.checked["rank_ge_girth_minus_2"] == rep.instances

    def test_deterministic_across_jobs(self):
        r1 = run(SweepConfig(max_n_dense=5, max_n_sparse=6, jobs=1))
        r2 = run(SweepConfig(max_n_dense=5, max_n_sparse=6, jobs=3))
        d1, d2 = r1.to_json_dict(), r2.to_json_dict()
        for d in (d1, d2):
            d["config"]["jobs"] = 0
            d["elapsed_seconds"] = 0
            d["stages"] = {}
        assert d1 == d2

    def test_no_more_workers_than_chunks(self, monkeypatch):
        sizes = []
        real = sweep_module.get_context

        class Context:
            def __init__(self, method):
                self.ctx = real(method)

            def Pool(self, processes):
                sizes.append(processes)
                return self.ctx.Pool(processes)

        monkeypatch.setattr(sweep_module, "get_context", Context)
        cfg = SweepConfig(max_n_dense=4, max_n_sparse=0, jobs=4)
        chunks = len(sweep_module._plan_chunks(cfg))
        assert chunks == 2
        got = run(cfg).to_json_dict()
        want = run(SweepConfig(max_n_dense=4, max_n_sparse=0)).to_json_dict()
        assert sizes == [chunks]
        for d in (got, want):
            d["config"]["jobs"] = 0
            d["elapsed_seconds"] = 0
            d["stages"] = {}
        assert got == want

    def test_buffers_stay_under_one_cap_across_keys(self, monkeypatch):
        cfg = SweepConfig(max_n_dense=5, max_n_sparse=7)
        want = run(cfg)
        cap = 256
        monkeypatch.setattr(sweep_module, "_BUFFER_INSTANCES", cap)
        append = sweep_module._Engine._append_block
        keys = set()

        def spy(self, key, *args):
            append(self, key, *args)
            assert self.total_buffered == sum(self.buffered.values()) < cap
            keys.add(key)

        monkeypatch.setattr(sweep_module._Engine, "_append_block", spy)
        got = run(cfg)
        # every (order, girth) of a ranked graph of this config
        assert len(keys) == 12
        assert (got.graphs, got.instances) == (want.graphs, want.instances)
        assert got.total_failures() == want.total_failures() == 0
        for name in DEFAULT_CHECKS:
            if CHECKS[name].kind == "vector":
                assert got.checked[name] == want.checked[name], name
        assert got.checked["rank_ge_girth_minus_2"] == got.instances

    def test_no_kernel_batch_exceeds_the_buffer_cap(self, monkeypatch):
        # blocks of up to 1024 signings against a small cap: the buffers
        # cross it often, and a batch may only pass it as one large block.
        # Few graphs are ranked once the witnesses decide the rest, so the
        # cap is small enough for them to cross it often
        cap = 64
        monkeypatch.setattr(sweep_module, "_BUFFER_INSTANCES", cap)
        flushed = []
        flush = sweep_module._Engine._flush

        def spy(self, key):
            flushed.append((self.buffered[key], [len(b) for b in self.buffers[key]]))
            flush(self, key)

        monkeypatch.setattr(sweep_module._Engine, "_flush", spy)
        cfg = SweepConfig(max_n_dense=6, max_n_sparse=0)
        rep = run(cfg)
        chunk = _run_chunk(cfg, ("dense", 7, 0, 1 << 16))
        ranked = (rep.instances - rep.decided_instances) + (
            chunk.instances - chunk.decided_instances
        )
        assert sum(size for size, _ in flushed) == ranked
        assert sum(size > cap // 2 for size, _ in flushed) > 100
        for size, blocks in flushed:
            assert size < cap or blocks == [size], (size, blocks)

    def test_self_test_check_reports_counterexamples(self, tmp_path):
        cfg = SweepConfig(
            max_n_dense=4,
            max_n_sparse=5,
            checks=("rank_ge_girth_minus_1",),
            max_counterexamples=6,
        )
        rep = run(cfg)
        assert rep.total_failures() > 0
        assert 0 < len(rep.counterexamples) <= 6
        ce = rep.counterexamples[0]
        from sgrank import parse_sgr, profile

        g = parse_sgr(ce["sgr"])
        assert rank_of(g) == ce["rank"] < profile(g).girth - 1

        out = tmp_path / "ces.csv"
        write_counterexamples_csv(rep, out)
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "check"
        assert len(rows) == len(rep.counterexamples) + 1

    def test_graph6_source(self, tmp_path):
        graphs = [
            nx.cycle_graph(5),
            nx.complete_graph(4),
            nx.cycle_graph(16),               # the kernel's largest order
            nx.path_graph(4),                 # acyclic: skipped
            nx.disjoint_union(nx.cycle_graph(3), nx.cycle_graph(3)),  # skipped
        ]
        path = tmp_path / "in.g6"
        path.write_bytes(b"".join(nx.to_graph6_bytes(g) for g in graphs))
        cfg = SweepConfig(max_n_dense=0, max_n_sparse=0,
                          graph6_paths=(str(path),))
        rep = run(cfg)
        assert rep.graphs == 3
        assert rep.skipped_graph6_records == 2
        assert rep.instances == 2 + 8 + 2  # C5: 2 classes, K4: 8, C16: 2
        assert rep.total_failures() == 0

    def test_graph6_record_with_too_many_signings_is_refused(self, tmp_path):
        path = tmp_path / "in.g6"
        path.write_bytes(  # K10 has 36 co-tree edges: 2^36 signings
            nx.to_graph6_bytes(nx.cycle_graph(5), header=False)
            + nx.to_graph6_bytes(nx.complete_graph(10), header=False)
        )
        for jobs in (1, 2):
            cfg = SweepConfig(max_n_dense=0, max_n_sparse=0,
                              graph6_paths=(str(path),), jobs=jobs)
            with pytest.raises(Graph6Error, match="record 1: .*36 co-tree edges"):
                run(cfg)

    def test_large_graph6_records_state_girth_and_witness(self, tmp_path, monkeypatch):
        # the girth and witness `add_batch` hands on for records of order
        # > 7, against the girth search and the brute-force witness search.
        # With a case shape on every row, no row is only counted: a row
        # with a witness goes to `_decide` at girth 3, and every other to
        # `_match_or_rank`, which may pass it to `_decide` at girth >= 4
        rng = random.Random(29)
        graphs = [
            nx.gnp_random_graph(n, 3.0 / n, seed=rng.randrange(10**6))
            for n in range(8, 12) for _ in range(25)
        ]
        graphs += [nx.complete_multipartite_graph(1, 1, 6), nx.cycle_graph(9)]
        path = _graph6_file(tmp_path / "large.g6", graphs)
        stated = {}
        decide = sweep_module._Engine._decide
        match_or_rank = sweep_module._Engine._match_or_rank

        def state(key, n, edges, girth, witness):
            assert key not in stated
            assert girth == girth_of_adjacency(_adjacency(n, edges)), edges
            assert witness == (girth == 3 and _brute_force_witness(n, edges)), edges
            stated[key] = (girth, witness)

        def decide_spy(self, source, key, n, edges, adj, girth, *args):
            if girth == 3:
                state(key, n, edges, girth, True)
            decide(self, source, key, n, edges, adj, girth, *args)

        def match_spy(self, source, key, n, edges, adj, girth, *args):
            state(key, n, edges, girth, False)
            match_or_rank(self, source, key, n, edges, adj, girth, *args)

        monkeypatch.setattr(sweep_module, "case_shapes",
                            lambda n, m, *_: np.ones(len(m), dtype=bool))
        monkeypatch.setattr(sweep_module._Engine, "_decide", decide_spy)
        monkeypatch.setattr(sweep_module._Engine, "_match_or_rank", match_spy)
        rep = run(SweepConfig(max_n_dense=0, max_n_sparse=0, graph6_paths=(path,)))
        assert rep.total_failures() == 0
        assert len(stated) == rep.graphs == len(graphs) - rep.skipped_graph6_records
        assert {(3, True), (3, False), (4, False), (9, False)} <= set(stated.values())

    def test_complete_tripartite_records_reach_the_kernel(self, tmp_path):
        # no witness, and two switching classes of rank 3 (case (c)): every
        # record of order 8 to 10 is ranked, capped or not
        sizes = [(1, 1, 6), (2, 2, 4), (2, 3, 3), (1, 1, 7), (1, 2, 6), (1, 1, 8)]
        graphs = [nx.complete_multipartite_graph(*s) for s in sizes]
        path = _graph6_file(tmp_path / "tripartite.g6", graphs)
        instances = sum(1 << (g.number_of_edges() - len(g) + 1) for g in graphs)
        # an instance check needs full ranks, so the second run is uncapped
        for checks in (DEFAULT_CHECKS, DEFAULT_CHECKS + ("nullity_cyclomatic_bound",)):
            rep = run(SweepConfig(max_n_dense=0, max_n_sparse=0,
                                  graph6_paths=(path,), checks=checks))
            assert rep.total_failures() == 0
            assert (rep.graphs, rep.instances) == (len(graphs), instances)
            assert rep.decided_instances == rep.decided_by_witness == 0
            histogram = rep.to_json_dict()["rank_histogram"]
            assert {n for n, _, _, _ in histogram} == {8, 9, 10}
            assert {(n, girth) for n, girth, _, _ in histogram} == {(8, 3), (9, 3), (10, 3)}
            rank_three = {n: count for n, _, rank, count in histogram if rank == 3}
            assert rank_three == {8: 2 * 3, 9: 2 * 2, 10: 2 * 1}

    def test_disconnected_graph6_record_is_skipped_whatever_its_size(self, tmp_path):
        path = tmp_path / "in.g6"
        big = nx.disjoint_union(nx.complete_graph(9), nx.complete_graph(1))
        path.write_bytes(nx.to_graph6_bytes(big, header=False))
        rep = run(SweepConfig(max_n_dense=0, max_n_sparse=0,
                              graph6_paths=(str(path),)))
        assert (rep.graphs, rep.skipped_graph6_records) == (0, 1)

    @pytest.mark.parametrize("data", [b"\xffC~\n", b"Bw\x85\nC~\n"])
    def test_graph6_byte_outside_the_range_is_located(self, tmp_path, data):
        # records split on line ends only, so no byte is taken as one
        path = tmp_path / "in.g6"
        path.write_bytes(data)
        cfg = SweepConfig(max_n_dense=0, max_n_sparse=0, graph6_paths=(str(path),))
        with pytest.raises(Graph6Error, match="printable graph6 range") as err:
            run(cfg)
        assert err.value.record == 0

    def test_graph6_file_is_reread_by_each_run(self, tmp_path):
        path = tmp_path / "in.g6"
        cfg = SweepConfig(max_n_dense=0, max_n_sparse=0,
                          graph6_paths=(str(path),))
        path.write_text("Bw\n")  # K3: 2 switching classes
        assert run(cfg).instances == 2
        path.write_text("C~\n")  # K4: 8 switching classes
        assert run(cfg).instances == 8

    def test_json_report_shape(self):
        rep = run(SweepConfig(max_n_dense=4, max_n_sparse=4))
        data = json.loads(rep.to_json())
        assert data["schema"] == 3
        assert data["totals"]["graphs"] == rep.graphs
        assert data["totals"]["decided_by_witness"] == rep.decided_by_witness
        assert list(data["stages"]) == sorted(STAGES)
        assert rep.stages["plan"] > 0
        assert set(data["checks"]) == set(DEFAULT_CHECKS)

    def test_instance_checks_run_clean(self):
        names = (
            "pendant_identity",
            "vertex_deletion_bounds",
            "nullity_cyclomatic_bound",
            "outside_vertex_girth",
            "switching_invariance",
            "twin_deletion_rank",
        )
        rep = run(SweepConfig(max_n_dense=5, max_n_sparse=5,
                              checks=DEFAULT_CHECKS + names))
        assert rep.total_failures() == 0
        for name in names:
            assert rep.checked[name] > 0


def _graph6_file(path, graphs):
    path.write_bytes(b"".join(nx.to_graph6_bytes(g, header=False) for g in graphs))
    return str(path)


class TestWholeChunkIntake:
    """Every chunk goes through numpy at once; the spot strides sample by
    chunk-local stream position."""

    def test_graph6_records_match_the_dense_stream(self, tmp_path, monkeypatch):
        graphs = [
            _graph(n, edges) for n in range(3, 6) for _, edges in dense_graphs(n)
        ]
        path = _graph6_file(tmp_path / "dense.g6", graphs)
        checks = DEFAULT_CHECKS + ("rank_ge_girth_minus_1",)
        dense = run(SweepConfig(max_n_dense=5, max_n_sparse=0, checks=checks,
                                max_counterexamples=10**6))
        monkeypatch.setattr(sweep_module, "_GRAPH6_CHUNK_RECORDS", 97)
        g6 = run(SweepConfig(max_n_dense=0, max_n_sparse=0, graph6_paths=(path,),
                             checks=checks, max_counterexamples=10**6))
        want, got = dense.to_json_dict(), g6.to_json_dict()
        assert got["totals"] == want["totals"]
        assert got["totals"]["decided_by_witness"] > 0
        assert got["rank_histogram"] == want["rank_histogram"]
        for name in checks:
            if CHECKS[name].kind == "vector":
                assert got["checks"][name] == want["checks"][name], name
        assert g6.failures["rank_ge_girth_minus_1"] > 0
        for ce in g6.counterexamples:
            index = int(ce["source"].split(":")[1])
            g = parse_sgr(ce["sgr"])
            assert nx.is_isomorphic(_graph(g.n, [(u, v) for u, v, _ in g.edges]),
                                    graphs[index])

    def test_spot_counts_follow_the_chunk_sizes(self, tmp_path, monkeypatch):
        rng = random.Random(23)
        graphs = [
            nx.gnp_random_graph(n, min(0.6, 3.5 / n), seed=rng.randrange(10**6))
            for n in (4, 9, 5, 6, 11, 7, 3) for _ in range(40)
        ]
        # no witness and 16 co-tree edges: ranked in two signing blocks
        graphs.insert(100, nx.complete_multipartite_graph(2, 2, 5))
        path = _graph6_file(tmp_path / "mixed.g6", graphs)
        monkeypatch.setattr(sweep_module, "_GRAPH6_CHUNK_RECORDS", 40)
        chunks = []
        merge = sweep_module._merge

        def spy(report, res):
            chunks.append(res.instances)
            merge(report, res)

        monkeypatch.setattr(sweep_module, "_merge", spy)
        reports = []
        for jobs in (1, 3):
            chunks.clear()
            rep = run(SweepConfig(max_n_dense=5, max_n_sparse=7,
                                  graph6_paths=(path,), jobs=jobs))
            assert rep.total_failures() == 0 and rep.skipped_graph6_records > 0
            assert len(chunks) > 10
            for name, stride in (("spot_check_exact_rank", _SPOT_RANK_STRIDE),
                                 ("spot_check_classifier", _SPOT_CLASSIFY_STRIDE)):
                want = sum(-(-count // stride) for count in chunks)
                assert rep.checked[name] == want, name
            data = rep.to_json_dict()
            data["config"]["jobs"] = 0
            data["elapsed_seconds"] = 0
            data["stages"] = {}
            reports.append(data)
        assert reports[0] == reports[1]


class TestMixedOrderChunks:
    """A graph6 chunk of any orders goes to `add_batch` in one call, its
    rows padded to the chunk's widest order."""

    def test_one_record_per_chunk_gives_the_same_report(self, tmp_path, monkeypatch):
        rng = random.Random(31)
        graphs = []
        for n in range(3, 17):
            graphs.append(nx.gnp_random_graph(n, min(0.9, 3.0 / n), seed=rng.randrange(10**6)))
            graphs.append(nx.random_labeled_tree(n, seed=rng.randrange(10**6)))
        graphs += [
            nx.complete_multipartite_graph(*sizes)
            for sizes in [(1, 1, 1), (1, 2, 2), (2, 2, 3), (1, 1, 6), (2, 3, 3), (2, 2, 5)]
        ]
        graphs += [
            nx.disjoint_union(nx.cycle_graph(4), nx.cycle_graph(4)),
            nx.disjoint_union(nx.complete_graph(5), nx.cycle_graph(11)),
            nx.cycle_graph(16),
            nx.empty_graph(2),
        ]
        rng.shuffle(graphs)
        path = _graph6_file(tmp_path / "mixed.g6", graphs)
        widths = set()
        chunk = sweep_module._graph6_chunk

        def spy(lo, records):
            out = chunk(lo, records)
            widths.add(out[3].shape[1])
            return out

        monkeypatch.setattr(sweep_module, "_graph6_chunk", spy)
        # the spot checks sample by chunk-local position, so they follow
        # the chunk size; every other check is kept
        checks = [name for name in DEFAULT_CHECKS if CHECKS[name].kind != "spot"]
        cfg = SweepConfig(max_n_dense=0, max_n_sparse=0, graph6_paths=(path,),
                          checks=(*checks, "rank_ge_girth_minus_1"),
                          max_counterexamples=10**6)
        reports = []
        for records in (1024, 1):
            monkeypatch.setattr(sweep_module, "_GRAPH6_CHUNK_RECORDS", records)
            data = run(cfg).to_json_dict()
            data["elapsed_seconds"] = 0
            data["stages"] = {}
            reports.append(data)
        totals = reports[0]["totals"]
        kept = [g for g in graphs
                if len(g) and nx.is_connected(g) and g.number_of_edges() >= len(g)]
        assert totals["graphs"] == len(kept) < len(graphs) - 14 - 3
        assert totals["skipped_graph6_records"] == len(graphs) - len(kept)
        assert totals["instances"] == sum(
            1 << (g.number_of_edges() - len(g) + 1) for g in kept
        )
        assert 0 < totals["decided_by_witness"] < totals["instances"]
        assert reports[0]["checks"]["rank_ge_girth_minus_1"]["failures"] > 0
        assert {3, 8, 9, 16} <= widths  # uint8 and uint16 columns
        assert reports[0] == reports[1]


class TestConfigValidation:
    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            run(SweepConfig(max_n_dense=8))
        with pytest.raises(ValueError):
            run(SweepConfig(max_n_sparse=13))
        with pytest.raises(ValueError):
            run(SweepConfig(max_cyclomatic=0))
        with pytest.raises(ValueError):
            run(SweepConfig(jobs=0))

    def test_negative_max_counterexamples(self):
        with pytest.raises(ValueError, match="max_counterexamples"):
            run(SweepConfig(max_counterexamples=-1))
        SweepConfig(max_counterexamples=0).validate()

    def test_unknown_check(self):
        with pytest.raises(ValueError, match="unknown checks"):
            run(SweepConfig(checks=("no_such_check",)))

    def test_duplicate_check(self):
        checks = ("rank_ge_girth_minus_2", "rank_ne_girth_minus_1", "rank_ge_girth_minus_2")
        with pytest.raises(ValueError, match=r"duplicate checks \['rank_ge_girth_minus_2'\]"):
            run(SweepConfig(checks=checks))

    def test_registry_consistency(self):
        assert set(DEFAULT_CHECKS) <= set(CHECKS)
        assert "rank_ge_girth_minus_1" in CHECKS
        assert "rank_ge_girth_minus_1" not in DEFAULT_CHECKS
