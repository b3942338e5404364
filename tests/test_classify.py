"""Extremal-family classifiers for rank == girth-2 and rank == girth."""

import random

import pytest

from conftest import rank_of
from sgrank import (
    BalancedCompleteBipartite,
    CanonicalUnicyclic,
    Cycle,
    CycleStar,
    SignedGraph,
    SubdividedK4,
    Theta,
    TripartiteRank3,
    classify_equals_g,
    classify_gminus2,
    generate,
    is_extremal_canonical_unicyclic,
    is_rank3_tripartite,
    profile,
    subdivided_k4_all_negative_six_cycle_signs,
    switch,
)


def theta_with_negative_short_cycles():
    g = generate(Theta(5, 3, 5))
    # both 6-cycles run through the middle path, so flipping one middle
    # edge turns them both negative at once
    deg = g.degrees()
    branches = {v for v in range(g.n) if deg[v] == 3}
    nbrs = g.neighbors()
    middle = next(v for v in range(g.n)
                  if deg[v] == 2 and branches.issuperset(nbrs[v]))
    flip = (min(middle, min(branches)), max(middle, min(branches)))
    edges = [(u, v, -1 if (u, v) == flip else s) for u, v, s in g.edges]
    return SignedGraph(g.n, edges)


class TestGirthMinusTwo:
    def test_balanced_complete_bipartite(self):
        res = classify_gminus2(generate(BalancedCompleteBipartite(2, 3)))
        assert res is not None and res.case == "A"
        sides = res.certificate["sides"]
        assert sorted(len(s) for s in sides) == [2, 3]

    def test_switching_scrambled_bipartite_still_accepted(self):
        g = switch(generate(BalancedCompleteBipartite(3, 3)), {0, 4})
        res = classify_gminus2(g)
        assert res is not None and res.case == "A"

    def test_balanced_cycle_len_divisible_by_four(self):
        res = classify_gminus2(generate(Cycle(8, balanced=True)))
        assert res is not None and res.case == "B"

    def test_unbalanced_cycle_len_two_mod_four(self):
        res = classify_gminus2(generate(Cycle(6, balanced=False)))
        assert res is not None and res.case == "C"

    @pytest.mark.parametrize(
        "build",
        [
            lambda: generate(Cycle(5)),                      # odd cycle
            lambda: generate(Cycle(8, balanced=False)),      # wrong parity
            lambda: generate(Cycle(6, balanced=True)),
            lambda: SignedGraph(5, [(u, v, 1 if (u, v) != (0, 3) else -1)
                                    for u in range(2) for v in range(2, 5)]),
            lambda: generate(SubdividedK4()),
        ],
    )
    def test_rejections(self, build):
        g = build()
        res = classify_gminus2(g)
        assert res is None
        assert rank_of(g) > profile(g).girth - 2

    def test_acceptance_tracks_rank(self):
        # every accepted instance really sits at girth-2
        for spec in (BalancedCompleteBipartite(2, 2), Cycle(4), Cycle(12),
                     Cycle(6, balanced=False), Cycle(10, balanced=False)):
            g = generate(spec)
            res = classify_gminus2(g)
            assert res is not None
            assert rank_of(g) == profile(g).girth - 2

    def test_forest_raises(self):
        with pytest.raises(ValueError):
            classify_gminus2(SignedGraph(3, [(0, 1, 1), (1, 2, 1)]))

    def test_disconnected_raises(self):
        g = SignedGraph(6, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1)])
        with pytest.raises(ValueError):
            classify_gminus2(g)


class TestEqualsGirth:
    def test_odd_cycle_any_signing(self):
        for sign in (1, -1):
            edges = [(i, (i + 1) % 5, 1) for i in range(4)] + [(0, 4, sign)]
            res = classify_equals_g(SignedGraph(5, edges))
            assert res is not None and res.case == "a"

    def test_even_cycle_wrong_parity_for_deficiency(self):
        res = classify_equals_g(generate(Cycle(6, balanced=True)))
        assert res is not None and res.case == "b"
        res = classify_equals_g(generate(Cycle(8, balanced=False)))
        assert res is not None and res.case == "b"

    def test_deficient_cycles_rejected(self):
        assert classify_equals_g(generate(Cycle(8, balanced=True))) is None
        assert classify_equals_g(generate(Cycle(6, balanced=False))) is None

    def test_rank3_tripartite(self):
        g = generate(TripartiteRank3((2, 1, 1), (1, -1, 1, 1), (1, -1, 1)))
        res = classify_equals_g(g)
        assert res is not None and res.case == "c"

    def test_extremal_unicyclic(self):
        res = classify_equals_g(generate(CanonicalUnicyclic(4, {0: 2})))
        assert res is not None and res.case == "d"
        assert res.certificate["gaps"] == [3]

    def test_cycle_star(self):
        res = classify_equals_g(generate(CycleStar(4, 2, balanced=True)))
        assert res is not None and res.case == "e"
        res = classify_equals_g(generate(CycleStar(6, 1, balanced=False)))
        assert res is not None and res.case == "e"
        assert classify_equals_g(generate(CycleStar(6, 1, balanced=True))) is None

    def test_girth_four_rank_four(self):
        # unbalanced complete bipartite: rank 4, deferred to the figure atlas
        g = SignedGraph(5, [(u, v, 1 if (u, v) != (0, 3) else -1)
                            for u in range(2) for v in range(2, 5)])
        assert rank_of(g) == 4
        res = classify_equals_g(g)
        assert res is not None and res.case == "f"
        assert res.figure_deferred
        # passing the precomputed rank short-circuits the elimination
        assert classify_equals_g(g, rank=4).case == "f"
        assert classify_equals_g(g, rank=2) is None

    def test_girth_four_rank_two_rejected(self):
        assert classify_equals_g(generate(BalancedCompleteBipartite(2, 3))) is None

    def test_theta_five_three_five(self):
        res = classify_equals_g(theta_with_negative_short_cycles())
        assert res is not None and res.case == "g"

    def test_theta_five_five_five_balanced(self):
        res = classify_equals_g(generate(Theta(5, 5, 5)))
        assert res is not None and res.case == "g"

    def test_theta_rejections(self):
        assert classify_equals_g(generate(Theta(5, 3, 5))) is None
        g = generate(Theta(5, 5, 5, signs=tuple([-1] + [1] * 11)))
        assert classify_equals_g(g) is None

    def test_subdivided_k4(self):
        signs = subdivided_k4_all_negative_six_cycle_signs()
        res = classify_equals_g(generate(SubdividedK4(signs)))
        assert res is not None and res.case == "h"
        assert classify_equals_g(generate(SubdividedK4())) is None

    def test_forest_raises(self):
        with pytest.raises(ValueError):
            classify_equals_g(SignedGraph(2, [(0, 1, 1)]))


class TestTripartiteCertificate:
    def test_certificate_regenerates_signs(self):
        rng = random.Random(5)
        for _ in range(15):
            sizes = tuple(rng.randint(1, 3) for _ in range(3))
            n = sum(sizes)
            spec = TripartiteRank3(
                sizes,
                tuple(rng.choice((1, -1)) for _ in range(n)),
                tuple(rng.choice((1, -1)) for _ in range(3)),
            )
            g = generate(spec)
            cert = is_rank3_tripartite(g)
            assert cert is not None
            parts = cert["parts"]
            pol = cert["polarities"]
            pair = cert["pair_signs"]
            part_of = {}
            for i, part in enumerate(parts):
                for v in part:
                    part_of[v] = i
            for u, v, s in g.edges:
                i, j = sorted((part_of[u], part_of[v]))
                tau = pair[{(0, 1): 0, (0, 2): 1, (1, 2): 2}[(i, j)]]
                assert s == pol[u] * pol[v] * tau

    def test_rejects_unbalanced_bipartite(self):
        g = SignedGraph(5, [(u, v, 1 if (u, v) != (0, 3) else -1)
                            for u in range(2) for v in range(2, 5)])
        assert is_rank3_tripartite(g) is None

    def test_rejects_non_multipartite(self):
        # triangle with a pendant: complement is a path, not cliques
        g = SignedGraph(4, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (0, 3, 1)])
        assert is_rank3_tripartite(g) is None

    def test_accepts_triangle(self):
        assert is_rank3_tripartite(generate(Cycle(3))) is not None


class TestUnicyclicClassifier:
    def test_accepts_all_odd_gaps(self):
        cert = is_extremal_canonical_unicyclic(
            generate(CanonicalUnicyclic(6, {0: 1, 2: 2}))
        )
        assert cert is not None
        assert sorted(cert["gaps"]) == [1, 3]

    def test_rejects_even_gap(self):
        assert is_extremal_canonical_unicyclic(
            generate(CanonicalUnicyclic(6, {0: 1, 3: 1}))
        ) is None

    def test_rejects_non_star_attachment(self):
        # a path of length 2 hanging off the cycle is not a pendant star
        edges = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1), (0, 4, 1), (4, 5, 1)]
        assert is_extremal_canonical_unicyclic(SignedGraph(6, edges)) is None

    def test_bare_cycle_raises(self):
        with pytest.raises(ValueError):
            is_extremal_canonical_unicyclic(generate(Cycle(5)))

    def test_non_unicyclic_raises(self):
        with pytest.raises(ValueError):
            is_extremal_canonical_unicyclic(generate(Theta(3, 3, 3)))

    def test_signing_blind(self):
        # centers opposite on a 4-cycle: gaps 1,1 all odd, any signing
        rng = random.Random(8)
        g = generate(CanonicalUnicyclic(4, {0: 2, 2: 1}))
        edges = [(u, v, rng.choice((1, -1))) for u, v, _ in g.edges]
        h = SignedGraph(g.n, edges)
        assert is_extremal_canonical_unicyclic(h) is not None
        assert rank_of(h) == 4


class TestClassifierRankAgreement:
    def test_random_cyclic_graphs(self):
        # classifier accept/reject must match the computed rank on arbitrary
        # connected cyclic graphs
        rng = random.Random(314)
        from conftest import random_cyclic_graph

        girth_four = 0
        for _ in range(150):
            g = random_cyclic_graph(rng, rng.randint(3, 8), extra=0.4)
            p = profile(g)
            r = rank_of(g)
            got2 = classify_gminus2(g)
            assert (got2 is not None) == (r == p.girth - 2)
            gotg = classify_equals_g(g, rank=r)
            assert (gotg is not None) == (r == p.girth)
            girth_four += p.girth == 4
        assert girth_four >= 5
