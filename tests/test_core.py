"""Signed graph container, switching, twins and the .sgr format."""

import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import random_connected_graph, rank_of
from sgrank import (
    SgrParseError,
    SignedGraph,
    adjacency_matrix,
    delete_vertices,
    dense_graphs,
    find_twins,
    induced_subgraph,
    is_balanced,
    load_sgr,
    parse_sgr,
    reduced_graph,
    reduced_vertices,
    save_sgr,
    switch,
    write_sgr,
)


class TestSignedGraph:
    def test_normalizes_edge_orientation(self):
        g = SignedGraph(3, [(2, 0, 1), (1, 2, -1)])
        assert g.edges == ((0, 2, 1), (1, 2, -1))

    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            SignedGraph(2, [(0, 0, 1)])

    def test_rejects_parallel_edges(self):
        with pytest.raises(ValueError):
            SignedGraph(3, [(0, 1, 1), (1, 0, -1)])

    def test_rejects_bad_signs(self):
        with pytest.raises(ValueError):
            SignedGraph(2, [(0, 1, 2)])

    def test_rejects_out_of_range_vertices(self):
        with pytest.raises(ValueError):
            SignedGraph(2, [(0, 2, 1)])
        with pytest.raises(ValueError):
            SignedGraph(-1, [])

    def test_basic_accessors(self):
        g = SignedGraph(4, [(0, 1, 1), (1, 2, -1), (2, 3, 1)])
        assert g.m == 3
        assert g.degrees() == [1, 2, 2, 1]
        assert g.sign_of(1, 2) == -1
        assert g.sign_of(2, 1) == -1
        assert g.neighbors() == [[1], [0, 2], [1, 3], [2]]

    def test_adjacency_is_symmetric_with_zero_diagonal(self):
        g = random_connected_graph(random.Random(5), 8)
        a = adjacency_matrix(g)
        for i in range(g.n):
            assert a[i][i] == 0
            for j in range(g.n):
                assert a[i][j] == a[j][i]


class TestSwitching:
    def test_switch_flips_cut_edges_only(self):
        g = SignedGraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        h = switch(g, {0})
        assert h.sign_of(0, 1) == -1
        assert h.sign_of(0, 2) == -1
        assert h.sign_of(1, 2) == 1

    def test_switch_is_involutive(self):
        g = random_connected_graph(random.Random(1), 7)
        assert switch(switch(g, {0, 3}), {0, 3}) == g

    def test_switch_preserves_rank_and_balance(self):
        rng = random.Random(11)
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(2, 9))
            subset = {v for v in range(g.n) if rng.random() < 0.5}
            h = switch(g, subset)
            assert rank_of(h) == rank_of(g)
            assert is_balanced(h) == is_balanced(g)

    def test_switch_by_all_vertices_is_identity(self):
        g = random_connected_graph(random.Random(3), 6)
        assert switch(g, range(g.n)) == g


class TestTwins:
    def test_balanced_k33_reduces_to_single_edge(self):
        edges = [(u, v, 1) for u in range(3) for v in range(3, 6)]
        g = SignedGraph(6, edges)
        assert find_twins(g)
        h = reduced_graph(g)
        assert h.n == 2 and h.m == 1
        assert rank_of(h) == rank_of(g) == 2

    def test_negated_twin_detected(self):
        # vertex 3 sees exactly what vertex 0 sees, with opposite signs
        g = SignedGraph(4, [(0, 1, 1), (0, 2, -1), (1, 3, -1), (2, 3, 1)])
        pairs = {(t.x, t.y): t.ratio for t in find_twins(g)}
        assert pairs.get((0, 3)) == -1

    def test_twin_deletion_preserves_rank(self):
        rng = random.Random(17)
        for _ in range(20):
            base = random_connected_graph(rng, rng.randint(2, 7))
            # plant a twin: copy a vertex's row with a random ratio
            v = rng.randrange(base.n)
            ratio = rng.choice((1, -1))
            edges = list(base.edges)
            for u in base.neighbors()[v]:
                edges.append((u, base.n, ratio * base.sign_of(u, v)))
            g = SignedGraph(base.n + 1, edges)
            assert rank_of(reduced_graph(g)) == rank_of(g)

    def test_one_pass_equals_deleting_pair_by_pair(self):
        # every signing of the dense graphs on up to 5 vertices, and 16
        # signings of each dense graph on 6 vertices with two equal
        # neighbour sets (without one no signing has twins)
        def pair_by_pair(g):
            while True:
                pairs = find_twins(g)
                if not pairs:
                    return g
                g = delete_vertices(g, [pairs[0].y])

        def signed(n, edges, signs):
            return SignedGraph(n, [(u, v, s) for (u, v), s in zip(edges, signs)])

        rng = random.Random(23)
        reduced = 0
        for n in range(3, 7):
            for _, edges in dense_graphs(n):
                m = len(edges)
                if n < 6:
                    signings = [
                        [-1 if (p >> i) & 1 else 1 for i in range(m)]
                        for p in range(1 << m)
                    ]
                else:
                    nbrs = [frozenset(w for e in edges for w in e if v in e and w != v)
                            for v in range(n)]
                    if len(set(nbrs)) == n:
                        continue
                    signings = [[rng.choice((1, -1)) for _ in edges] for _ in range(16)]
                for signs in signings:
                    g = signed(n, edges, signs)
                    want = pair_by_pair(g)
                    assert reduced_graph(g) == want, g
                    reduced += want.n < n
        assert reduced > 10_000

    def test_batched_mask_equals_deleting_pair_by_pair(self):
        # planted chains of twins (each a copy of the one before, ratio
        # +-1) on random bases up to order 16, randomly relabeled, and
        # signed K_{8,8}s.  Rows of 40 or more entries need two base-3
        # codes: K_{20,20}, and a graph whose rows 0 and 1 differ only in
        # column 40
        def kept_pair_by_pair(g):
            labels = list(range(g.n))
            while True:
                pairs = find_twins(g)
                if not pairs:
                    return labels
                g = delete_vertices(g, [pairs[0].y])
                del labels[pairs[0].y]

        def planted(rng):
            g = random_connected_graph(rng, rng.randint(2, 8))
            n, edges = g.n, list(g.edges)
            for _ in range(rng.randint(1, 3)):
                v = rng.randrange(n)
                for _ in range(rng.randint(2, 4)):
                    if n == 16:
                        break
                    ratio = rng.choice((1, -1))
                    edges += [(u if w == v else w, n, ratio * s)
                              for u, w, s in edges if v in (u, w)]
                    v, n = n, n + 1
            perm = list(range(n))
            rng.shuffle(perm)
            return SignedGraph(n, [(perm[u], perm[w], s) for u, w, s in edges])

        def bipartite(a, b, sign):
            return SignedGraph(a + b, [(u, v, sign(u, v)) for u in range(a)
                                       for v in range(a, a + b)])

        rng = random.Random(31)
        graphs = [planted(rng) for _ in range(300)]
        patterns = [[rng.choice((1, -1)) for _ in range(8)] for _ in range(3)]
        rows = [rng.randrange(3) for _ in range(8)]
        graphs += [
            bipartite(8, 8, lambda u, v: 1),
            bipartite(8, 8, lambda u, v: rng.choice((1, -1))),
            bipartite(8, 8, lambda u, v: (-1) ** u * patterns[rows[u]][v - 8]),
            bipartite(20, 20, lambda u, v: (-1) ** (u * v)),
            SignedGraph(41, [(u, v, 1) for u in (0, 1) for v in range(2, 41)
                             if (u, v) != (1, 40)]),
        ]
        by_order = {}
        for g in graphs:
            by_order.setdefault(g.n, []).append(g)
        deleted = 0
        for n, group in by_order.items():
            mats = np.array([adjacency_matrix(g) for g in group], dtype=np.int8)
            keep = reduced_vertices(mats.reshape(len(group), n, n))
            for g, row in zip(group, keep):
                want = kept_pair_by_pair(g)
                assert np.flatnonzero(row).tolist() == want, g
                deleted += g.n - len(want)
        assert deleted > 600
        assert len(kept_pair_by_pair(graphs[-5])) == 2
        assert len(kept_pair_by_pair(graphs[-2])) == 4
        assert kept_pair_by_pair(graphs[-1]) == [0, 1, 2, 40]

    def test_induced_subgraph_relabels(self):
        g = SignedGraph(5, [(0, 1, 1), (1, 2, -1), (2, 3, 1), (3, 4, -1)])
        h = induced_subgraph(g, [1, 2, 3])
        assert h.n == 3
        assert h.edges == ((0, 1, -1), (1, 2, 1))


class TestSgrFormat:
    def test_round_trip(self):
        g = SignedGraph(4, [(0, 1, 1), (1, 2, -1), (0, 3, 1)])
        assert parse_sgr(write_sgr(g)) == g

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\n3 2\n0 1 +\n\n# mid comment\n1 2 -\n"
        g = parse_sgr(text)
        assert g == SignedGraph(3, [(0, 1, 1), (1, 2, -1)])

    def test_sign_tokens_are_strict(self):
        with pytest.raises(SgrParseError):
            parse_sgr("2 1\n0 1 -1\n")
        with pytest.raises(SgrParseError, match="0 <= u < v"):
            parse_sgr("3 1\n2 1 +\n")

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("", "header"),
            ("2\n", "header"),
            ("x y\n", "header"),
            ("2 1\n", "declares 1 edges"),
            ("2 1\n0 1 +\n1 0 -\n", "line 3"),
            ("2 1\n0 1 ?\n", "line 2"),
            ("2 1\n0 5 +\n", "line 2"),
            ("2 1\n0 0 +\n", "line 2"),
        ],
    )
    def test_parse_errors_carry_line_info(self, text, fragment):
        with pytest.raises(SgrParseError) as err:
            parse_sgr(text)
        assert fragment in str(err.value)

    def test_file_round_trip(self, tmp_path):
        g = random_connected_graph(random.Random(2), 6)
        path = tmp_path / "g.sgr"
        save_sgr(g, path, comments=["demo graph"])
        assert load_sgr(path) == g
        assert path.read_text().startswith("# demo graph")

    @given(
        st.integers(min_value=1, max_value=10),
        st.randoms(use_true_random=False),
    )
    def test_round_trip_random(self, n, pyrandom):
        g = random_connected_graph(random.Random(pyrandom.random()), n)
        assert parse_sgr(write_sgr(g)) == g
