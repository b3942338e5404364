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
from sgrank.classify import _complete_multipartite_parts, multipartite_parts, row_cases
from sgrank.invariants import _cotree_pattern, _cotree_signing, _spanning_cotree
from sgrank.sweep import (
    COUNTERS,
    STAGES,
    _BASES,
    _MAX_ORDER,
    _SIGNING_BLOCK,
    _SPOT_CLASSIFY_STRIDE,
    _SPOT_RANK_STRIDE,
    _connected_cyclic,
    _core_table,
    _decode_graph6,
    _dense_chunk,
    _edge_table,
    _girth_hints,
    _graph6_chunk,
    _mask_dtype,
    _mask_pairs,
    _matching_bounds,
    _rooted_trees,
    _row_cotrees,
    _run_chunk,
    _signing_blocks,
    _sparse_chunk,
    _sparse_length,
    _subdivision_tuples,
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


def _neighbour_masks(n, edges):
    """Bit w of entry v is set when w is a neighbour of v."""
    nb = [0] * n
    for u, v in edges:
        nb[u] |= 1 << v
        nb[v] |= 1 << u
    return nb


def _mask_edges(n, mask):
    """The edges of a dense stream mask, in edge table order."""
    table = _edge_table(n)
    return [table[i] for i in range(len(table)) if (mask >> i) & 1]


# The sparse stream built one graph at a time from edge lists: the
# oracle for `_core_table`, `_hanging_rows` and `sparse_graphs`.


def _subdivide(k, links, subdiv):
    """A base's links laid down as chains through their interior
    vertices, numbered on from k, each edge written along its chain."""
    edges = []
    nxt = k
    for (u, v), s in zip(links, subdiv):
        chain = [u] + list(range(nxt, nxt + s)) + [v]
        nxt += s
        edges.extend((chain[i], chain[i + 1]) for i in range(len(chain) - 1))
    return edges


def _attach_tree(edges, root, shape, nxt):
    for child in shape:
        edges.append((root, nxt))
        child_root = nxt
        nxt += 1
        nxt = _attach_tree(edges, child_root, child, nxt)
    return nxt


def _tree_assignments(k, budget):
    """All k-tuples of rooted tree shapes with total extra vertices <= budget."""

    def rec(i, left, acc):
        if i == k:
            yield tuple(acc)
            return
        for extra in range(left + 1):
            for shape in _rooted_trees(extra + 1):
                acc.append(shape)
                yield from rec(i + 1, left - extra, acc)
                acc.pop()

    yield from rec(0, budget, [])


@lru_cache(maxsize=None)
def _oracle_hangings(core_n, budget):
    """(hung vertex count, edges) of every way to hang trees on a core."""
    out = []
    for shapes in _tree_assignments(core_n, budget):
        edges = []
        nxt = core_n
        for root, shape in enumerate(shapes):
            nxt = _attach_tree(edges, root, shape, nxt)
        out.append((nxt - core_n, edges))
    return out


def _oracle_cores(max_n, max_cyclomatic):
    """(order, written edges) of each subdivided core, in stream order."""
    return [
        (k + sum(subdiv), _subdivide(k, links, subdiv))
        for c in range(1, max_cyclomatic + 1)
        for _, k, links in _BASES[c]
        for subdiv in _subdivision_tuples(links, max_n - k)
    ]


@lru_cache(maxsize=None)
def _oracle_stream(max_n, max_cyclomatic):
    """(n, edges) of each graph of the sparse stream, each edge as
    (min, max), sorted."""
    return [
        (n + extra, sorted((min(e), max(e)) for e in edges + hung))
        for n, edges in _oracle_cores(max_n, max_cyclomatic)
        for extra, hung in _oracle_hangings(n, max_n - n)
    ]


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

    def test_edges_are_the_edge_table_pairs(self):
        # read off the rows: sorted (u, v), u < v, as the mask's bits list them
        for n in range(3, 7):
            assert all(edges == _mask_edges(n, mask) for mask, edges in dense_graphs(n))

    def test_girth_hints_match_bfs(self):
        from sgrank import girth_of_adjacency

        n = 5
        total = 1 << len(_edge_table(n))
        order, masks, counts, hints, nb = _dense_chunk(n, 0, total)
        assert (order == n).all()
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


def _no_cotree():
    raise AssertionError("a row that row_cases does not mark per_graph read its co-tree")


def _check_row_cases(order, m, hints, nb, edge_lists):
    """`row_cases` on rows against the per-graph case table, row by row:
    on a row it does not mark per_graph, its masks are the sets of
    `accepted_cotree_patterns`, which never reads the co-tree there; on a
    marked row both masks are 0; and a unicyclic row's girth is its
    girth.  Returns the rows with a pattern, and the marked rows."""
    rows = len(edge_lists)
    order, m, hints = (np.broadcast_to(np.asarray(x), (rows,)) for x in (order, m, hints))
    gm2, eqg, per_graph, girth = row_cases(order, m, nb, hints, multipartite_parts(order, nb))
    assert (girth[m > order] == hints[m > order]).all()
    patterns = marked = 0
    for i, edges in enumerate(edge_lists):
        n = int(order[i])
        adj = _adjacency(n, edges)
        if m[i] == n:
            assert girth[i] == girth_of_adjacency(adj), (n, edges)
        if per_graph[i]:
            assert gm2[i] == eqg[i] == 0
            marked += 1
            continue
        got = (classify_module._PATTERN_SETS[gm2[i]], classify_module._PATTERN_SETS[eqg[i]])
        assert got == accepted_cotree_patterns(adj, _no_cotree), (n, edges)
        patterns += bool(gm2[i] or eqg[i])
    return patterns, marked


def _shapes(n, edge_lists):
    """Per graph, whether `row_cases` gives it a pattern or marks it."""
    nb = [_neighbour_masks(n, edges) for edges in edge_lists]
    girth = [girth_of_adjacency(_adjacency(n, edges)) for edges in edge_lists]
    m = [len(edges) for edges in edge_lists]
    gm2, eqg, per_graph, _ = row_cases(n, m, nb, girth, multipartite_parts(n, nb))
    return (((gm2 | eqg) != 0) | per_graph).tolist()


def _unicyclic_graphs():
    """Unicyclic graphs of orders 3..16, randomly labeled: pendant leaves
    on the cycle (the shape of case (d)), a star hung on one cycle vertex
    (of case (e)), and trees hung anywhere."""
    rng = random.Random(37)
    graphs = []
    for length in range(3, 16):
        for _ in range(8):
            leaves, star, trees = (nx.cycle_graph(length) for _ in range(3))
            for _ in range(rng.randrange(1, 17 - length)):
                leaves.add_edge(rng.randrange(length), len(leaves))
            star.add_edge(rng.randrange(length), length)
            for _ in range(rng.randrange(1, 16 - length) if length < 15 else 0):
                star.add_edge(length, len(star))
            for _ in range(rng.randrange(17 - length)):
                trees.add_edge(rng.randrange(len(trees)), len(trees))
            for g in (leaves, star, trees):
                graphs.append(nx.relabel_nodes(g, dict(zip(g, rng.sample(range(len(g)), len(g))))))
    return graphs


def _graph6_rows(path):
    """The rows `add_batch` takes for a graph6 file, in one chunk, and
    their edge lists."""
    with open(path, encoding="latin-1") as fh:
        order, m, nb = _decode_graph6(sweep_module._graph6_records(fh.read()))
    order, _, m, hints, nb, _ = _graph6_chunk(0, order, m, nb)
    return order, m, hints, nb, _mask_pairs(nb)


class TestCaseShapes:
    """`row_cases`, the case table on rows, against the per-graph case
    table: on every row it does not mark per_graph its pattern sets are
    those of `accepted_cotree_patterns`, and a unicyclic row's girth is
    its girth."""

    @pytest.mark.parametrize("n", range(3, 8))
    def test_dense_graphs(self, n):
        table = _edge_table(n)
        total = 1 << len(table)
        patterns = marked = rows = 0
        for lo in range(0, total, sweep_module._DENSE_CHUNK_MASKS):
            hi = min(lo + sweep_module._DENSE_CHUNK_MASKS, total)
            _, masks, m, hints, nb = _dense_chunk(n, lo, hi)
            got = _check_row_cases(n, m, hints, nb, _mask_pairs(nb))
            patterns, marked = patterns + got[0], marked + got[1]
            rows += len(nb)
        # C3, the only graph on 3 vertices, is marked as complete tripartite
        assert 0 < marked and (n == 3 or 0 < patterns < rows)

    def test_unicyclic_graphs_of_girth_three(self):
        # at girth 3 only C3 has a case, and it is marked, as complete
        # tripartite; a triangle-free unicyclic graph is looked up in numpy
        c3 = [(0, 1), (1, 2), (0, 2)]
        c4_leaf = [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)]
        c6_leaf = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 6)]
        assert _shapes(3, [c3]) == [True]
        assert _shapes(4, [PAW_EDGES]) == [False]
        assert _shapes(5, [PAW_EDGES + [(3, 4)], PAW_EDGES + [(2, 4)]]) == [False, False]
        assert _shapes(5, [c4_leaf]) == [True]
        assert _shapes(7, [c6_leaf]) == [True]
        nb = [_neighbour_masks(7, c6_leaf)]
        gm2, eqg, per_graph, girth = row_cases(7, [7], nb, [0], multipartite_parts(7, nb))
        # case (d), one centre: a wrap-around gap of 5, at either signing
        assert (gm2.tolist(), eqg.tolist(), per_graph.tolist(), girth.tolist()) == (
            [0], [0b11], [False], [6]
        )

    def test_theta_and_subdivided_k4_need_no_girth_three_or_four(self):
        # cases (g) and (h) have girth 6 or 8: with m in {n + 1, n + 2},
        # minimum degree 2 and not complete multipartite, a girth hint of
        # 3 or 4 is not marked, and hint 0 ("5 or more, unknown") is
        theta = {  # paths of 1, 2, 3 edges; of 2, 2, 3; of 2, 4, 4 (case (g))
            3: (5, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (1, 4)]),
            4: (6, [(0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (4, 5), (1, 5)]),
            6: (9, [(0, 2), (1, 2), (0, 3), (3, 4), (4, 5), (1, 5),
                    (0, 6), (6, 7), (7, 8), (1, 8)]),
        }
        # K4 with one edge subdivided: girth 3
        k4 = (5, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 4)])
        for girth, (n, edges) in [*theta.items(), (3, k4)]:
            nb = [_neighbour_masks(n, edges)]
            parts = multipartite_parts(n, nb)
            assert parts.tolist() == [0] and len(edges) - n in (1, 2)
            assert girth_of_adjacency(_adjacency(n, edges)) == girth
            marked = row_cases(n, [len(edges)], nb, [girth], parts)[2].tolist()
            assert marked == [girth not in (3, 4)], girth
            assert row_cases(n, [len(edges)], nb, [0], parts)[2].tolist() == [True]
        assert _yields_a_case(*theta[6])

    def test_sparse_graphs_and_the_g_and_h_shapes(self):
        by_order = {}
        for n, edges in sparse_graphs(11, 2):
            degrees = {len(nb) for nb in _adjacency(n, edges)}
            if n == 11 and len(edges) == 12 and degrees <= {2, 3}:  # theta(5,5,5)
                by_order.setdefault(n, []).append(edges)
        assert 11 in by_order
        for n, graphs in by_order.items():
            nb = [_neighbour_masks(n, edges) for edges in graphs]
            hints = [girth_of_adjacency(_adjacency(n, edges)) for edges in graphs]
            _, marked = _check_row_cases(n, [len(e) for e in graphs], hints, nb, graphs)
            # the theta graphs of girth 5 or more are marked, and case
            # (g) is among them
            assert marked == sum(girth >= 5 for girth in hints) > 0
            assert any(_yields_a_case(n, edges) for edges in graphs)

    def test_sparse_verdicts_per_core_and_hanging(self):
        # every row of the sparse stream n <= 10, over max_n columns, with
        # the core's girth as its hint
        order, _, m, girth, nb = _sparse_chunk(10, 3, 0, _sparse_length(10, 3))
        patterns, marked = _check_row_cases(order, m, girth, nb, _mask_pairs(nb))
        assert patterns > 0 and marked > 0

    def test_mixed_order_graph6_rows(self, tmp_path):
        # rows of orders 3..16 in one chunk, padded to 16 columns, with
        # hint 0 on the unicyclic rows of girth >= 5
        graphs = _mixed_order_graphs() + _unicyclic_graphs()
        order, m, hints, nb, edges = _graph6_rows(_graph6_file(tmp_path / "mixed.g6", graphs))
        assert nb.shape[1] == 16 and set(order.tolist()) == set(range(3, 17))
        assert ((m == order) & (hints == 0)).sum() > 100
        patterns, marked = _check_row_cases(order, m, hints, nb, edges)
        assert patterns > 50 and marked > 0
        # cases (d) and (e) both occur, at orders past 7
        eqg = row_cases(order, m, nb, hints, multipartite_parts(order, nb))[1]
        shaped = (m == order) & (eqg != 0) & (order > 7)
        assert {1, 2, 3} <= set(eqg[shaped].tolist())


class TestRowCotrees:
    """`_row_cotrees` builds the tree of `_spanning_cotree` for a whole
    chunk, and gives its co-tree edges as indexes into `_mask_pairs`."""

    def _check(self, order, nb):
        marks, positions = _row_cotrees(nb)
        edge_lists = _mask_pairs(nb)
        assert len(positions) == len(edge_lists) == len(nb)
        for n, edges, cotree, mark in zip(order.tolist(), edge_lists, positions, marks):
            assert cotree == _spanning_cotree(n, edges), (n, edges)
            assert [edges[i] for i in cotree] == list(zip(*np.nonzero(mark)))
        return len(nb)

    def test_dense_rows(self):
        rows = 0
        for n in range(3, 7):
            order, _, _, _, nb = _dense_chunk(n, 0, 1 << len(_edge_table(n)))
            rows += self._check(order, nb)
        assert rows == 26_034

    def test_sparse_rows(self):
        order, _, _, _, nb = _sparse_chunk(9, 3, 0, _sparse_length(9, 3))
        assert self._check(order, nb) == 34_899

    def test_mixed_order_graph6_rows(self, tmp_path):
        graphs = _mixed_order_graphs() + _unicyclic_graphs()
        order, _, _, nb, _ = _graph6_rows(_graph6_file(tmp_path / "mixed.g6", graphs))
        assert self._check(order, nb) > 300


def _k7_plus_vertex():
    """K7 plus a vertex joined to two of its vertices: 16 co-tree edges."""
    edges = [(u, v) for u in range(7) for v in range(u + 1, 7)]
    return 8, sorted(edges + [(0, 7), (1, 7)])


def _blocks_of(n, edges, j0=0):
    """The signing block of one graph from j0 on, through the group
    builder `_signing_blocks`, with its `_row_cotrees` co-tree."""
    nb = np.array([_neighbour_masks(n, edges)], dtype=np.uint16)
    return _signing_blocks(n, nb, _row_cotrees(nb)[0], j0)[0]


class TestSigningBlocks:
    def test_blocks_match_cotree_signings(self):
        rng = random.Random(15)
        graphs = [g for n in range(3, 6) for g in
                  ((n, edges) for _, edges in dense_graphs(n))]
        graphs += list(sparse_graphs(8, 3))[::53]
        sample = rng.sample(graphs, 400)
        # the graphs of one (order, co-tree size) in one call, as the
        # engine builds them
        groups = {}
        for n, edges in sample:
            groups.setdefault((n, len(edges)), []).append(edges)
        assert max(map(len, groups.values())) > 10
        for (n, m), edge_lists in groups.items():
            nb = np.array([_neighbour_masks(n, edges) for edges in edge_lists],
                          dtype=np.uint8)
            blocks = _signing_blocks(n, nb, _row_cotrees(nb)[0])
            assert blocks.shape == (len(edge_lists), 1 << (m - n + 1), n, n)
            assert blocks.dtype == np.int8
            for edges, block in zip(edge_lists, blocks):
                cotree = _spanning_cotree(n, edges)
                for j in rng.sample(range(len(block)), min(len(block), 5)):
                    want = adjacency_matrix(_cotree_signing(n, edges, cotree, j))
                    assert block[j].tolist() == want

    def test_high_pattern_bits_come_from_the_block_start(self):
        n, edges = _k7_plus_vertex()
        cotree = _spanning_cotree(n, edges)
        assert len(cotree) == 16
        j0 = 1 << 15
        block = _blocks_of(n, edges, j0)
        assert len(block) == 1 << 15
        for off in (0, 1, 2, 12345, (1 << 15) - 1):
            want = adjacency_matrix(_cotree_signing(n, edges, cotree, j0 + off))
            assert block[off].tolist() == want

    def test_rows_in_order_take_their_blocks_in_runs(self):
        # one run per _SIGNING_BLOCK signings, grouped by order and co-tree
        # size, and the 16-edge co-tree's two blocks one at a time
        big = _k7_plus_vertex()
        graphs = [(n, edges) for n in (4, 5) for _, edges in dense_graphs(n)][::3]
        graphs = graphs[:40] + [big] + graphs[40:]
        order = np.array([n for n, _ in graphs])
        k = np.array([len(edges) - n + 1 for n, edges in graphs])
        nb = np.zeros((len(graphs), 8), dtype=np.uint8)
        for i, (n, edges) in enumerate(graphs):
            nb[i, :n] = _neighbour_masks(n, edges)
        marks = _row_cotrees(nb)[0]
        got = list(sweep_module._blocks_in_order(order, k, nb, marks))
        assert len(got) == len(graphs)
        for (n, edges), pairs in zip(graphs, got):
            pairs = list(pairs)
            assert [j0 for j0, _ in pairs] == list(range(0, 1 << (len(edges) - n + 1),
                                                          _SIGNING_BLOCK))
            for j0, block in pairs:
                assert (block == _blocks_of(n, edges, j0)).all()


def _matching_pairs(adj):
    """The p iterated pendant pairs and the k matched pairs of a graph, as
    two lists of (x, y), one graph at a time: the oracle for
    `_matching_bounds`.  A pendant pair is a vertex x of degree 1 in what
    is left, then its neighbour y; the matched pairs are the edges of a
    greedy maximal induced matching of the remainder, visiting vertices
    and their neighbours lowest remaining degree first.  With ascending
    adjacency lists it takes the vertices in the sweep's order."""
    n = len(adj)
    degree = [len(nb) for nb in adj]  # once the pendant pairs are deleted
    free = [True] * n  # neither paired nor adjacent to a matched vertex
    pendant = []
    leaves = [v for v in range(n) if degree[v] == 1]
    while leaves:
        x = leaves.pop()
        if not free[x] or degree[x] != 1:
            continue
        y = next(w for w in adj[x] if free[w])
        pendant.append((x, y))
        free[x] = free[y] = False
        for w in adj[y]:
            if free[w]:
                degree[w] -= 1
                if degree[w] == 1:
                    leaves.append(w)
    matched = []
    for u in sorted(range(n), key=degree.__getitem__):
        if free[u]:
            for v in sorted(adj[u], key=degree.__getitem__):
                if free[v]:
                    matched.append((u, v))
                    for w in (*adj[u], *adj[v]):
                        free[w] = False
                    break
    return pendant, matched


def _pairs_of_row(n, row):
    """The oracle's p + k for one row of neighbour bitmasks."""
    return sum(map(len, _matching_pairs(_adjacency_of_row(row[:n]))))


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


class TestMatchingBounds:
    """`_matching_bounds`, over whole chunks of rows, against the p + k
    of the oracle `_matching_pairs`, one graph at a time."""

    @staticmethod
    def _check(order, nb):
        got = _matching_bounds(order, nb)
        assert got.shape == (len(nb),)
        orders = np.broadcast_to(order, (len(nb),))
        want = [_pairs_of_row(n, row) for n, row in zip(orders.tolist(), nb.tolist())]
        assert got.tolist() == want
        return got

    def test_sparse_rows(self):
        order, _, _, _, nb = _sparse_chunk(10, 3, 0, _sparse_length(10, 3))
        assert len(nb) == 144_104
        got = self._check(order, nb)
        assert set(got.tolist()) == {1, 2, 3, 4, 5}

    @pytest.mark.parametrize("n, hi", [(3, None), (4, None), (5, None), (6, None),
                                       (7, 1 << 16)])
    def test_dense_rows_padded_or_not(self, n, hi):
        *_, nb = _dense_chunk(n, 0, hi or 1 << len(_edge_table(n)))
        got = self._check(n, nb)
        padded = np.zeros((len(nb), 16), dtype=np.uint16)
        padded[:, :n] = nb
        assert (_matching_bounds(np.full(len(nb), n), padded) == got).all()
        assert (_matching_bounds(n, padded) == got).all()

    def test_mixed_order_rows(self):
        records = [nx.to_graph6_bytes(g, header=False).decode().strip()
                   for g in _mixed_order_graphs()]
        order, _, _, _, nb, _ = _graph6_chunk(0, *_decode_graph6(records))
        assert nb.shape[1] == 16 and (order.min(), order.max()) == (3, 16)
        self._check(order, nb)


class TestGirthThreeSkipsTheMatching:
    """At girth 3 a graph without a witness is complete tripartite: its
    minimum degree is at least 2 and it has no induced 2K2, so
    `_matching_pairs` gives p = 0 and k = 1.  So the matching bound
    decides no girth-3 graph that the witness leaves, and the sweep runs
    `_matching_bounds` only on rows whose girth hint is not 3."""

    @staticmethod
    def _pairs(adj):
        return sum(map(len, _matching_pairs(adj)))

    def test_two_pairs_give_a_witness(self):
        graphs = [(n, e) for n in range(3, 7) for _, e in dense_graphs(n)]
        order, _, _, girth, nb = _sparse_chunk(10, 3, 0, _sparse_length(10, 3))
        rows = np.flatnonzero(girth == 3)
        graphs += zip(order[rows].tolist(), _mask_pairs(nb[rows]))
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
        real = sweep_module._matching_bounds

        def spy(order, nb):
            # no row with a girth hint of 3 (a triangle) comes here
            assert (_girth_hints(nb) != 3).all()
            girths.extend(
                girth_of_adjacency(_adjacency_of_row(row[:n]))
                for n, row in zip(order.tolist(), nb.tolist())
            )
            return real(order, nb)

        monkeypatch.setattr(sweep_module, "_matching_bounds", spy)
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


def _chunk_graphs(max_n, max_cyclomatic, lo, hi):
    """The (n, edges) of the sparse chunk [lo, hi), read off its rows."""
    order, _, _, _, nb = _sparse_chunk(max_n, max_cyclomatic, lo, hi)
    return list(zip(order.tolist(), _mask_pairs(nb)))


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
            *_, hints, nb = _dense_chunk(n, lo, hi)
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
        # all of n = 3..6 and the first 2^16 masks of n = 7, which hold
        # theta graphs of girth 5: rows that `row_cases` marks by their
        # degrees, which it marks at no girth of 3 or 4
        for n, total in [*((n, 1 << len(_edge_table(n))) for n in range(3, 7)),
                         (7, 1 << 16)]:
            _, masks, m, hints, nb = _dense_chunk(n, 0, total)
            parts = multipartite_parts(n, nb)
            cases = row_cases(n, m, nb, hints, parts)
            shapes = cases[2]
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
                for want, have in zip(cases, row_cases(order, m, padded, hints, got)):
                    assert (have == want).all(), (n, width)
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
        # the connected labeled graphs with a cycle on 3..6 vertices, and
        # those among the first 2^16 masks on 7
        assert rows == 26_034 + 38_759
        assert multipartite > 0 and by_degree > 0


_IFF_CHECKS = ("girth_minus_2_iff_classified", "equals_girth_iff_classified")


def _iff_sweep():
    return run(SweepConfig(max_n_dense=5, max_n_sparse=7,
                           checks=_IFF_CHECKS, max_counterexamples=10**6))


@lru_cache(maxsize=None)
def _sparse_stream(max_n, max_cyclomatic):
    return list(sparse_graphs(max_n, max_cyclomatic))


def _replay(ce, sparse_n=7, graph6=None):
    """The counterexample's graph, checked against its .sgr record, its
    reported rank and girth, and its source and signing index (a sparse
    key indexes `sparse_graphs(sparse_n, 3)`, a graph6 key the records of
    the text `graph6` as `parse_graph6` reads them)."""
    g = parse_sgr(ce["sgr"])
    assert rank_of(g) == ce["rank"]
    assert profile(g).girth == ce["girth"]
    source, key = ce["source"].split(":")
    if source == "dense":
        table = _edge_table(ce["n"])
        edges = [e for i, e in enumerate(table) if (int(key) >> i) & 1]
    elif source == "sparse":
        edges = _sparse_stream(sparse_n, 3)[int(key)][1]
    else:
        assert source == "graph6[0]"
        edges = parse_graph6(graph6)[int(key)][1]
    assert list(enumerate_signings(ce["n"], edges))[ce["signing_index"]] == g
    return g


def _change_patterns(monkeypatch, change):
    """Apply change(girth, gm2, eqg) -> (gm2, eqg), on pattern sets, on
    both routes by which the sweep takes a graph's pattern sets: the
    per-graph case table (`accepted_cotree_patterns`), and the case table
    on rows (`row_cases`), on each row it does not mark per_graph.  A
    row's girth is 0 there when only a search finds it, at 5 or more."""
    table = accepted_cotree_patterns
    on_rows = sweep_module.row_cases

    def per_graph_sets(adj, cotree):
        return change(girth_of_adjacency(adj), *table(adj, cotree))

    def row_sets(*args):
        gm2, eqg, per_graph, girth = on_rows(*args)
        gm2, eqg = gm2.copy(), eqg.copy()
        sets = classify_module._PATTERN_SETS
        for i in np.flatnonzero(~per_graph).tolist():
            got = change(int(girth[i]), sets[gm2[i]], sets[eqg[i]])
            gm2[i], eqg[i] = (sum(1 << p for p in patterns) for patterns in got)
        return gm2, eqg, per_graph, girth

    monkeypatch.setattr(sweep_module, "accepted_cotree_patterns", per_graph_sets)
    monkeypatch.setattr(sweep_module, "row_cases", row_sets)


class TestIffChecksAreLive:
    def test_dropped_pattern_is_reported(self, monkeypatch):
        dropped = {"gm2": 0, "eqg": 0}

        def drop_one(girth, gm2, eqg):
            dropped["gm2"] += bool(gm2)
            # at girth 4 case (f) accepts a rank-4 pattern on its rank alone
            dropped["eqg"] += bool(eqg) and girth != 4
            return gm2 - {min(gm2, default=0)}, eqg - {min(eqg, default=0)}

        _change_patterns(monkeypatch, drop_one)
        rep = _iff_sweep()
        # as many graphs as when every one went through the per-graph table
        assert dropped == {"gm2": 17, "eqg": 61}
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
        def add_balanced(girth, gm2, eqg):
            return gm2, eqg | {0} if girth == 4 else eqg

        _change_patterns(monkeypatch, add_balanced)
        rep = _iff_sweep()
        assert rep.failures.get(_IFF_CHECKS[0], 0) == 0
        assert rep.failures[_IFF_CHECKS[1]] > 0
        for ce in rep.counterexamples:
            assert ce["check"] == _IFF_CHECKS[1]
            g = _replay(ce)
            assert (ce["girth"], ce["signing_index"]) == (4, 0)
            assert ce["rank"] != 4
            assert classify_equals_g(g, rank=ce["rank"]) is None

    def test_dense_and_graph6_streams_fail_alike(self, tmp_path, monkeypatch):
        # the dense n <= 5 graphs, in stream order, as a graph6 file.  Each
        # graph's highest accepted pattern is dropped, so failures land on
        # nonzero signing indices of graphs with 2 or more co-tree edges,
        # which follow the edge order: both streams must read the same
        # edge list off a graph's row
        def drop_highest(girth, gm2, eqg):
            return gm2 - {max(gm2, default=0)}, eqg - {max(eqg, default=0)}

        _change_patterns(monkeypatch, drop_highest)
        graphs = [_graph(n, edges) for n in range(3, 6) for _, edges in dense_graphs(n)]
        path = _graph6_file(tmp_path / "dense.g6", graphs)
        common = dict(max_n_sparse=0, checks=_IFF_CHECKS, max_counterexamples=10**6)
        dense = run(SweepConfig(max_n_dense=5, **common)).counterexamples
        g6 = run(SweepConfig(max_n_dense=0, graph6_paths=(path,), **common)).counterexamples
        assert len(dense) == 57
        assert sum(ce["signing_index"] > 0 for ce in dense) == 44
        assert any(ce["signing_index"] > 0 and ce["m"] - ce["n"] + 1 >= 2 for ce in dense)
        assert [ce["source"].split(":")[0] for ce in g6] == ["graph6[0]"] * len(dense)
        fields = [{k: v for k, v in ce.items() if k != "source"} for ce in dense]
        assert [{k: v for k, v in ce.items() if k != "source"} for ce in g6] == fields
        text = (tmp_path / "dense.g6").read_text()
        for ce in dense + g6:
            _replay(ce, graph6=text)


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
        histogram = _iff_sweep().to_json_dict()["rank_histogram"]  # not forced
        accepted = [0, 0]

        def count(girth, gm2, eqg):
            accepted[0] += len(gm2)
            accepted[1] += len(eqg)
            return gm2, eqg

        # p + k = n: 2(p + k) >= girth + 1 decides every graph of girth >= 4
        monkeypatch.setattr(sweep_module, "_matching_bounds", lambda order, nb: order)
        # and a witness every graph of girth 3, in every stream: no graph
        # is complete tripartite to the witness, while `row_cases` still
        # sees the complete multipartite graphs, and marks the tripartite
        # ones for the per-graph table
        real_parts = sweep_module.multipartite_parts
        real_cases = sweep_module.row_cases

        def four_parts(n, nb):
            parts = real_parts(n, nb)
            return np.where(parts == 3, 4, parts)

        def cases(n, m, nb, girth, parts):
            return real_cases(n, m, nb, girth, real_parts(n, nb))

        monkeypatch.setattr(sweep_module, "multipartite_parts", four_parts)
        monkeypatch.setattr(sweep_module, "row_cases", cases)
        _change_patterns(monkeypatch, count)
        rep = _iff_sweep()
        assert rep.decided_instances == rep.instances
        assert accepted[0] > 0 and accepted[1] > 0
        # case (c): two patterns on each complete tripartite graph, the
        # rank-3 classes, all of girth 3
        assert rep.counters["case_table_calls"] > 0
        assert sum(ce["girth"] == 3 for ce in rep.counterexamples) == sum(
            count for _, girth, rank, count in histogram if girth == rank == 3
        ) > 0
        # every instance of rank girth - 2 is accepted by classify_gminus2,
        # so each graph with one still reaches the case table
        assert accepted[0] == sum(
            count for _, girth, rank, count in histogram if rank == girth - 2
        )
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
        # both rules leave rows that are only counted
        assert {g.witness for g in decided if g.counted} == {True, False}
        # a witness decides graphs that the matching bound would leave
        assert any(
            g.witness and 2 * sum(map(len, _matching_pairs(_adjacency(g.n, g.edges)))) <= 3
            for g in decided
        )
        # every signing, built per (order, edge count) as the engine builds
        # the blocks of the graphs it ranks
        assert max(g.instances for g in decided) <= _SIGNING_BLOCK
        groups = {}
        for g in decided:
            groups.setdefault((g.n, len(g.edges)), []).append(g)
        by_order = {}
        for (n, _), graphs in groups.items():
            nb = np.array([_neighbour_masks(n, g.edges) for g in graphs], dtype=np.uint16)
            blocks = _signing_blocks(n, nb, _row_cotrees(nb)[0])
            girths = np.repeat([g.girth for g in graphs], blocks.shape[1])
            by_order.setdefault(n, []).append((blocks.reshape(-1, n, n), girths))
        assert set(by_order) == set(range(4, 10))
        for items in by_order.values():
            stack = np.concatenate([blocks for blocks, _ in items])
            girths = np.concatenate([girths for _, girths in items])
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
        # on the quick config, the co-trees of a chunk come from its rows
        # (`_row_cotrees`), only for rows that are not only counted, and
        # the per-graph spanning tree only from the classifiers, run on
        # sampled instances; a decided graph leaves nothing behind unless
        # it is sampled or accepts a pattern
        assert not hasattr(sweep_module, "_spanning_cotree")
        trees = []
        real_tree = classify_module._spanning_cotree

        def tree(n, edges):
            trees.append((n, frozenset(map(frozenset, edges))))
            return real_tree(n, edges)

        monkeypatch.setattr(classify_module, "_spanning_cotree", tree)
        row_trees = []
        real_rows = sweep_module._row_cotrees

        def rows(nb):
            row_trees.append(len(nb))
            return real_rows(nb)

        monkeypatch.setattr(sweep_module, "_row_cotrees", rows)
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
        # one record per ranked or sampled graph, with the co-tree of
        # `_spanning_cotree`; the classifiers build their own trees
        assert len(records) == len(ranked) + len(sampled)
        for meta in records:
            assert meta.cotree == real_tree(meta.n, meta.edges)
        assert trees and set(trees) <= needed
        assert len(records) < rep.graphs // 4
        # the rows' co-trees: only the rows not summed in numpy
        counters = rep.counters
        assert sum(row_trees) == rep.graphs - counters["bulk_rows"] < rep.graphs // 4
        # the running sums hold one entry per (order, girth)
        histogram = rep.to_json_dict()["rank_histogram"]
        assert max(decided_keys) <= len({(n, g) for n, g, _, _ in histogram})

    def test_quick_histogram_is_pinned(self):
        rep, _ = _quick_sweep()
        data = rep.to_json_dict()
        assert data["rank_histogram"] == QUICK_HISTOGRAM
        assert sum(row[3] for row in QUICK_HISTOGRAM) == rep.instances == 675_550
        assert rep.total_failures() == 0
        assert data["counters"] == QUICK_COUNTERS
        # every graph is summed in bulk, ranked, or decided on its own
        counters = rep.counters
        alone = rep.graphs - counters["bulk_rows"] - counters["ranked_graphs"]
        assert 0 < alone <= counters["per_graph_rows"]
        assert counters["spot_samples"] == rep.checked["spot_check_exact_rank"]

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


# the work counters of the quick config: how many rows each path took
QUICK_COUNTERS = {
    "bulk_rows": 57_816, "per_graph_rows": 544, "ranked_graphs": 2_769,
    "case_table_calls": 215, "spot_samples": 335,
}


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
    witness when its girth is 3, and the ones it only counted.  Those are
    the graphs of the quick config's streams that `_decide` did not see
    and that a rule decides, rebuilt here: a witness at girth 3, and
    2(p + k) >= girth + 1 by the oracle `_matching_pairs` above it."""
    decided = []
    seen = set()
    decide = sweep_module._Engine._decide

    def spy(self, source, key, n, edges, adj, girth, *args):
        decided.append(_Decided(n, tuple(edges), girth, girth == 3, False))
        seen.add((source, n, key))  # a dense key is a mask: it needs n
        decide(self, source, key, n, edges, adj, girth, *args)

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
        if (source, n, key) in seen:
            continue
        if _has_triangle(n, edges):
            if _witness(n, edges):
                decided.append(_Decided(n, tuple(edges), 3, True, True))
        else:
            adj = _adjacency(n, edges)
            girth = girth_of_adjacency(adj)
            if 2 * sum(map(len, _matching_pairs(adj))) > girth:
                decided.append(_Decided(n, tuple(edges), girth, False, True))
    return rep, decided


def _decode_graph6_record(line, record):
    """One graph6 record decoded on its own, character by character: the
    oracle for `_decode_graph6` and its messages."""
    data = [ord(ch) - 63 for ch in line]
    if any(x < 0 or x > 63 for x in data):
        raise Graph6Error("byte outside the printable graph6 range", record)
    if not data:
        raise Graph6Error("empty record", record)
    if data[0] < 63:
        n, body = data[0], data[1:]
    elif len(data) >= 4 and data[1] < 63:
        n, body = (data[1] << 12) | (data[2] << 6) | data[3], data[4:]
    elif len(data) >= 8:
        n = 0
        for x in data[2:8]:
            n = (n << 6) | x
        body = data[8:]
    else:
        raise Graph6Error("truncated vertex count", record)
    if n > _MAX_ORDER:
        raise Graph6Error(
            f"order {n} exceeds the exact batch kernel limit of {_MAX_ORDER}", record
        )
    pairs = n * (n - 1) // 2
    need = (pairs + 5) // 6
    if len(body) != need:
        raise Graph6Error(
            f"expected {need} data characters for order {n}, got {len(body)}", record
        )
    bits = [(x >> (5 - i)) & 1 for x in body for i in range(6)]
    if any(bits[pairs:]):
        raise Graph6Error("nonzero padding bits", record)
    column = [(u, v) for v in range(1, n) for u in range(v)]
    return n, sorted(pair for pair, bit in zip(column, bits) if bit)


def _g6_count(n, chars):
    """n in `chars` graph6 characters, 6 bits each, highest first."""
    return "".join(chr(63 + ((n >> (6 * i)) & 63)) for i in reversed(range(chars)))


# malformed graph6 records, by the test each fails first
_MALFORMED = {
    "byte": ["C!", "C\u0100", "\x7fC"],
    "empty": [""],
    "count": ["~", "~?", "~??", "~~????", "~~?????"],
    "order": ["Q", "~?@?", "~~?????R"],
    "length": ["D", "C~~", "~??C"],
    "padding": ["Dhd", "A@"],
}


class TestGraph6:
    def test_round_trips_at_every_order(self):
        # every order 1..16 in the one-character vertex count networkx
        # writes, and the same records in the 18-bit and 36-bit counts
        rng = random.Random(5)
        records, want = [], []
        for n in range(1, _MAX_ORDER + 1):
            for p in (0.0, 0.3, 0.7, 1.0):
                g = nx.gnp_random_graph(n, p, seed=rng.randrange(10**6))
                line = nx.to_graph6_bytes(g, header=False).decode().strip()
                for head in (line[0], "~" + _g6_count(n, 3), "~~" + _g6_count(n, 6)):
                    records.append(head + line[1:])
                    want.append((n, sorted((min(e), max(e)) for e in g.edges())))
        assert parse_graph6("\n".join(records)) == want
        assert [_decode_graph6_record(line, i) for i, line in enumerate(records)] == want
        order, m, nb = _decode_graph6(records)
        assert order.tolist() == [n for n, _ in want]
        assert m.tolist() == [len(edges) for _, edges in want]
        assert nb.dtype == np.uint16
        assert nb.tolist() == [_neighbour_masks(_MAX_ORDER, edges) for _, edges in want]
        # a chunk reads the same edge lists off its rows, and hints 3 and 4
        # exactly at girths 3 and 4
        _, keys, _, hints, nb, _ = _graph6_chunk(0, order, m, nb)
        assert _mask_pairs(nb) == [want[k][1] for k in keys.tolist()]
        girths = [girth_of_adjacency(_adjacency(*want[k])) for k in keys.tolist()]
        assert hints.tolist() == [g if g in (3, 4) else 0 for g in girths]
        assert {3, 4} <= set(girths)

    @pytest.mark.parametrize("first", sorted(_MALFORMED))
    def test_the_first_malformed_record_is_named(self, first):
        # two malformed records among good ones: the error names the
        # first, with the message it gives on its own, whatever the second
        for bad, worse in product(_MALFORMED[first], sum(_MALFORMED.values(), [])):
            records = ["Bw", bad, "C~", worse, "Bw"]
            with pytest.raises(Graph6Error) as want:
                _decode_graph6_record(bad, 1)
            with pytest.raises(Graph6Error) as got:
                _decode_graph6(records)
            assert (str(got.value), got.value.record) == (str(want.value), 1)
            if bad and worse:  # a blank line is no record
                with pytest.raises(Graph6Error) as got:
                    parse_graph6("\r\n".join(records))
                assert (str(got.value), got.value.record) == (str(want.value), 1)

    def test_reads_networkx_output(self):
        graphs = [nx.path_graph(4), nx.cycle_graph(5), nx.complete_graph(4)]
        text = b"".join(nx.to_graph6_bytes(g) for g in graphs).decode()
        out = parse_graph6(text)
        assert [n for n, _ in out] == [4, 5, 4]
        for (n, edges), g in zip(out, graphs):
            assert nx.is_isomorphic(nx.Graph(edges), g)

    def test_header_and_blank_lines(self):
        assert parse_graph6(">>graph6<<C~\n\n") == [
            (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
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
        total = _sparse_length(10, 3)
        _, _, _, girth, _ = _sparse_chunk(10, 3, 0, total)
        graphs = _chunk_graphs(10, 3, 0, total)
        for (n, edges), hint in zip(graphs, girth.tolist()):
            assert hint == girth_of_adjacency(_adjacency(n, edges)), (n, edges)
        assert graphs == _oracle_stream(10, 3)


class TestCoreTable:
    """The array core table and the stream against the oracle, which
    builds the edge lists of each core and each hanging."""

    @pytest.mark.parametrize("max_n, max_cyclomatic, cores",
                             [(9, 3, 1629), (10, 3, 3262), (11, 2, 285)])
    def test_cores_match_the_oracle(self, max_n, max_cyclomatic, cores):
        order, m, girth, nb = _core_table(max_n, max_cyclomatic)
        want = _oracle_cores(max_n, max_cyclomatic)
        assert len(want) == cores
        assert nb.dtype == _mask_dtype(max_n)
        assert order.tolist() == [n for n, _ in want]
        assert m.tolist() == [len(edges) for _, edges in want]
        assert girth.tolist() == [
            girth_of_adjacency(_adjacency(n, edges)) for n, edges in want
        ]
        assert nb.tolist() == [_neighbour_masks(max_n, edges) for _, edges in want]

    @pytest.mark.parametrize("max_n, max_cyclomatic", [(9, 3), (10, 3), (11, 2)])
    def test_stream_matches_the_oracle(self, max_n, max_cyclomatic):
        assert list(sparse_graphs(max_n, max_cyclomatic)) == _oracle_stream(
            max_n, max_cyclomatic
        )


class TestSparseChunks:
    """Each sparse chunk builds its own slice of the stream from the core
    table and the hanging rows of each core order."""

    @pytest.mark.parametrize("max_n", [8, 10])
    def test_slices_join_to_the_full_stream(self, max_n):
        full = _oracle_stream(max_n, 3)
        assert _sparse_length(max_n, 3) == len(full)
        assert _chunk_graphs(max_n, 3, 0, len(full)) == full
        assert all(edges == sorted(edges) and all(u < v for u, v in edges)
                   for _, edges in full)
        # a step of 97 puts slice boundaries inside cores
        joined = []
        for lo in range(0, len(full) + 97, 97):
            joined += _chunk_graphs(max_n, 3, lo, min(lo + 97, len(full)))
        assert joined == full
        assert _chunk_graphs(max_n, 3, 97, len(full)) == full[97:]

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
        order, keys, m, girth, nb = _sparse_chunk(10, 3, 0, _sparse_length(10, 3))
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
        # the masks of its hanging, padded to max_n columns; a step of 97
        # puts chunk boundaries inside cores
        stream = _oracle_stream(max_n, 3)
        total = _sparse_length(max_n, 3)
        for lo in range(0, total, 97):
            order, keys, m, girth, nb = _sparse_chunk(
                max_n, 3, lo, min(lo + 97, total)
            )
            assert nb.dtype == _mask_dtype(max_n) and nb.shape[1] == max_n
            assert keys.tolist() == list(range(lo, lo + len(keys)))
            for key, n, edges_m, row in zip(keys.tolist(), order.tolist(), m.tolist(),
                                            nb.tolist()):
                n_want, edges = stream[key]
                assert (n, edges_m) == (n_want, len(edges))
                assert row == _neighbour_masks(max_n, edges), (n, edges)
            # any rows, in any order
            rows = np.arange(len(keys))[::-3]
            assert _mask_pairs(nb[rows]) == [stream[lo + i][1] for i in rows.tolist()]
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
        # With every row marked for the per-graph case table, no row is
        # only counted: a row that a rule decides goes to `_decide`, at
        # girth 3 by its witness and above by its matching bound, and
        # every other to `_rank`
        rng = random.Random(29)
        graphs = [
            nx.gnp_random_graph(n, 3.0 / n, seed=rng.randrange(10**6))
            for n in range(8, 12) for _ in range(25)
        ]
        # a 4-cycle with a pendant vertex at each: 2(p + k) = 8 > 4
        sunlet = nx.Graph([(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 5), (2, 6), (3, 7)])
        graphs += [nx.complete_multipartite_graph(1, 1, 6), nx.cycle_graph(9), sunlet]
        path = _graph6_file(tmp_path / "large.g6", graphs)
        stated = {}
        by_bound = []  # per decided row: by its matching bound
        decide = sweep_module._Engine._decide
        rank = sweep_module._Engine._rank
        real_cases = sweep_module.row_cases

        def state(key, n, edges, girth, witness):
            assert key not in stated
            assert girth == girth_of_adjacency(_adjacency(n, edges)), edges
            assert witness == (girth == 3 and _brute_force_witness(n, edges)), edges
            stated[key] = (girth, witness)

        def decide_spy(self, source, key, n, edges, adj, girth, *args):
            if girth > 3:
                assert 2 * sum(map(len, _matching_pairs(_adjacency(n, edges)))) > girth
            state(key, n, edges, girth, girth == 3)
            by_bound.append(girth > 3)
            decide(self, source, key, n, edges, adj, girth, *args)

        def rank_spy(self, source, key, n, edges, adj, girth, *args):
            state(key, n, edges, girth, False)
            rank(self, source, key, n, edges, adj, girth, *args)

        def every_row(*args):
            gm2, eqg, per_graph, girth = real_cases(*args)
            return 0 * gm2, 0 * eqg, per_graph | True, girth

        monkeypatch.setattr(sweep_module, "row_cases", every_row)
        monkeypatch.setattr(sweep_module._Engine, "_decide", decide_spy)
        monkeypatch.setattr(sweep_module._Engine, "_rank", rank_spy)
        rep = run(SweepConfig(max_n_dense=0, max_n_sparse=0, graph6_paths=(path,)))
        assert rep.total_failures() == 0
        assert len(stated) == rep.graphs == len(graphs) - rep.skipped_graph6_records
        assert rep.counters["case_table_calls"] == rep.graphs
        assert {(3, True), (3, False), (4, False), (9, False)} <= set(stated.values())
        assert set(by_bound) == {True, False}

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
        assert data["schema"] == 4
        assert data["totals"]["graphs"] == rep.graphs
        assert data["totals"]["decided_by_witness"] == rep.decided_by_witness
        assert list(data["stages"]) == sorted(STAGES)
        assert rep.stages["plan"] > 0
        assert set(data["checks"]) == set(DEFAULT_CHECKS)
        assert list(data["counters"]) == sorted(COUNTERS)
        assert all(isinstance(count, int) for count in data["counters"].values())

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
        # sparse n <= 9 has rows of girth >= 4, decided by the matching
        # bound, that hold a sample
        for sparse_n in (7, 9):
            reports = []
            for jobs in (1, 3):
                chunks.clear()
                rep = run(SweepConfig(max_n_dense=5, max_n_sparse=sparse_n,
                                      graph6_paths=(path,), jobs=jobs))
                assert rep.total_failures() == 0 and rep.skipped_graph6_records > 0
                assert len(chunks) > 10
                for name, stride in (("spot_check_exact_rank", _SPOT_RANK_STRIDE),
                                     ("spot_check_classifier", _SPOT_CLASSIFY_STRIDE)):
                    want = sum(-(-count // stride) for count in chunks)
                    assert rep.checked[name] == want, (sparse_n, name)
                data = rep.to_json_dict()
                data["config"]["jobs"] = 0
                data["elapsed_seconds"] = 0
                data["stages"] = {}
                reports.append(data)
            assert reports[0] == reports[1], sparse_n


def _mixed_order_graphs():
    """Random graphs and trees of orders 3..16, complete tripartite and
    disconnected graphs, shuffled."""
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
    return graphs


class TestMixedOrderChunks:
    """A graph6 chunk of any orders goes to `add_batch` in one call, its
    rows padded to the chunk's widest order."""

    def test_one_record_per_chunk_gives_the_same_report(self, tmp_path, monkeypatch):
        graphs = _mixed_order_graphs()
        path = _graph6_file(tmp_path / "mixed.g6", graphs)
        widths = set()
        chunk = sweep_module._graph6_chunk

        def spy(lo, order, m, nb):
            out = chunk(lo, order, m, nb)
            widths.add(out[4].shape[1])
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
