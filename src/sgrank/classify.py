"""Structural classifiers for the two extremal rank levels.

A connected signed graph with a cycle has rank at least girth-2, and rank
girth-1 never occurs.  The graphs attaining rank girth-2 fall into three
cases (A: balanced complete bipartite, B/C: cycles of the right residue),
and those attaining rank girth fall into eight (a-h).  `classify_gminus2`
and `classify_equals_g` test the cases in order and return the first
match, or None when the instance is not extremal.  Certificates carry
enough structure to rebuild the match by hand.

Each case is a signing-independent shape of the underlying graph (a
`_`-prefixed function on adjacency lists) plus a condition on cycle
signs.  `accepted_cotree_patterns` evaluates those conditions once per
underlying graph: with spanning-tree edges positive, a cycle's sign is
the parity of the co-tree edges it uses, so each case accepts a small set
of co-tree sign patterns, one per switching class.  The verification
sweep checks its ranks against these sets.

Girth-4 graphs of rank 4 are accepted as case (f) on the rank value
alone; pinning down the finite reduced-graph catalog behind them is
deliberately out of scope (`figure_deferred` marks this).  Case (f) has
no sign pattern set: it depends on the rank, not on the shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Sequence

from .core import SignedGraph, adjacency_matrix
from .exact import rank as exact_rank
from .invariants import (
    cycle_sign,
    girth_of_adjacency,
    is_balanced,
    is_connected,
    two_core,
)


@dataclass
class Classification:
    target: str  # "rank_girth_minus_two" or "rank_girth"
    case: str
    certificate: dict = field(default_factory=dict)
    figure_deferred: bool = False


def _require_cyclic_connected(g: SignedGraph) -> None:
    if not is_connected(g):
        raise ValueError("classification needs a connected graph")
    if g.m < g.n:
        raise ValueError("classification needs a graph with a cycle")


_BIT = (1).__lshift__  # u -> 1 << u


def _complete_multipartite_parts(adj: list[list[int]]) -> Optional[list[list[int]]]:
    """Parts of a complete multipartite graph, lowest vertex first, or
    None.  A graph is complete multipartite iff non-adjacent vertices
    always have equal neighborhoods; the part of v is then v with its
    non-neighbors.  Neighborhoods are compared as bitmasks, built only for
    the vertices visited, so most graphs are rejected after a few."""
    n = len(adj)
    rest = (1 << n) - 1  # vertices not yet in a part
    parts = []
    while rest:
        v = (rest & -rest).bit_length() - 1
        mask = sum(map(_BIT, adj[v]))
        part = [u for u in range(n) if not (mask >> u) & 1]
        for u in part:
            if u != v and (
                len(adj[u]) != len(adj[v]) or sum(map(_BIT, adj[u])) != mask
            ):
                return None
        rest &= mask
        parts.append(part)
    return parts


def is_rank3_tripartite(g: SignedGraph) -> Optional[dict]:
    """Certificate when g is complete tripartite signed so that every
    vertex's signed neighborhood matches its part leader's exactly or
    exactly swapped.  These signings are precisely the rank-3 ones."""
    parts = _complete_multipartite_parts(g.neighbors())
    if parts is None or len(parts) != 3:
        return None
    signs = g.sign_map()

    def sig(u: int, others) -> tuple[int, ...]:
        return tuple(signs[(min(u, z), max(u, z))] for z in others)

    polarity = [0] * g.n
    for part in parts:
        outside = [z for z in range(g.n) if z not in part]
        leader_sig = sig(part[0], outside)
        flipped = tuple(-s for s in leader_sig)
        for u in part:
            s = sig(u, outside)
            if s == leader_sig:
                polarity[u] = 1
            elif s == flipped:
                polarity[u] = -1
            else:
                return None
    leaders = [part[0] for part in parts]
    pair_signs = tuple(
        signs[(min(leaders[i], leaders[j]), max(leaders[i], leaders[j]))]
        for i, j in ((0, 1), (0, 2), (1, 2))
    )
    return {"parts": parts, "polarities": polarity, "pair_signs": list(pair_signs)}


def _unicyclic_cycle_order(adj: list[list[int]]) -> list[int]:
    """Walk order of the unique cycle of a connected graph with m == n;
    for a cycle (every degree 2) the walk starts at 0 toward adj[0][0]."""
    alive = two_core(adj)
    start = alive.index(True)
    order = [start]
    prev = -1
    while True:
        cur = order[-1]
        nxt = next(u for u in adj[cur] if alive[u] and u != prev)
        if nxt == start:
            break
        order.append(nxt)
        prev = cur
    return order


def _is_cycle(adj: list[list[int]]) -> bool:
    """Every degree 2: a connected graph that is one cycle."""
    return all(len(nb) == 2 for nb in adj)


def _extremal_pendant_stars(adj: list[list[int]]) -> Optional[dict]:
    """Shape of case (d) on a connected unicyclic non-cycle graph: the
    certificate when every off-cycle vertex is a leaf on a cycle vertex
    and every cyclic gap between consecutive star centers is odd (single
    center: the wrap-around gap girth-1), else None."""
    cycle = _unicyclic_cycle_order(adj)
    on_cycle = set(cycle)
    leaf_counts: dict[int, int] = {}
    for v, nb in enumerate(adj):
        if v not in on_cycle:
            if len(nb) != 1 or nb[0] not in on_cycle:
                return None
            leaf_counts[nb[0]] = leaf_counts.get(nb[0], 0) + 1
    position = {v: i for i, v in enumerate(cycle)}
    length = len(cycle)
    centers = sorted(leaf_counts, key=position.get)
    gaps = []
    for i, c in enumerate(centers):
        nxt = centers[(i + 1) % len(centers)]
        gap = (position[nxt] - position[c] - 1) % length
        if len(centers) == 1:
            gap = length - 1
        gaps.append(gap)
    if any(gap % 2 == 0 for gap in gaps):
        return None
    return {
        "cycle": cycle,
        "centers": centers,
        "leaf_counts": leaf_counts,
        "gaps": gaps,
    }


def is_extremal_canonical_unicyclic(g: SignedGraph) -> Optional[dict]:
    """Decide rank == girth for a unicyclic non-cycle graph whose off-cycle
    part is pendant leaf stars on cycle vertices.  The decision is
    signing-independent: extremal iff every cyclic gap between consecutive
    star centers is odd (single center: the wrap-around gap girth-1).

    Returns the certificate when extremal, None when the graph is in the
    family but not extremal or not of the pendant-star shape.  Raises
    ValueError for cycles and non-unicyclic input.
    """
    if not is_connected(g) or g.m != g.n:
        raise ValueError("need a connected unicyclic graph")
    if all(d == 2 for d in g.degrees()):
        raise ValueError("plain cycles are classified separately")
    return _extremal_pendant_stars(g.neighbors())


def _theta_paths(adj: list[list[int]]) -> Optional[list[list[int]]]:
    """Vertex lists of the three branch paths of a theta graph (two
    degree-3 vertices joined by three internally disjoint paths), each
    from the lower branch vertex to the higher, or None."""
    if sum(map(len, adj)) != 2 * (len(adj) + 1):
        return None
    deg = [len(nb) for nb in adj]
    if any(d not in (2, 3) for d in deg):
        return None
    # degrees 2 and 3 summing to 2n + 2: exactly two degree-3 vertices
    b0, b1 = [v for v, d in enumerate(deg) if d == 3]
    paths = []
    for first in adj[b0]:
        path = [b0, first]
        while deg[path[-1]] == 2:
            prev, cur = path[-2], path[-1]
            path.append(adj[cur][0] if adj[cur][0] != prev else adj[cur][1])
        if path[-1] != b1:
            return None  # two-cycles-and-a-bridge shape, not theta
        paths.append(path)
    if sum(map(len, paths)) - 4 != len(adj):
        return None
    return paths


def _subdivided_k4_midpoints(adj: list[list[int]]):
    """(branch vertices, midpoint of each branch pair) when the graph is
    K4 with every edge subdivided once, else None."""
    if len(adj) != 10:
        return None
    deg = [len(nb) for nb in adj]
    if sorted(deg) != [2] * 6 + [3] * 4:
        return None
    mid = {}
    for v, nb in enumerate(adj):
        if deg[v] == 2:
            x, y = sorted(nb)
            if deg[x] != 3 or deg[y] != 3 or (x, y) in mid:
                return None
            mid[(x, y)] = v
    return [v for v, d in enumerate(deg) if d == 3], mid


def _path_sign(signs: dict, path: list[int]) -> int:
    """Product of the edge signs along consecutive vertices of `path`."""
    prod = 1
    for u, v in zip(path, path[1:]):
        prod *= signs[(min(u, v), max(u, v))]
    return prod


def _cycle_star(adj: list[list[int]]):
    """Shape of case (e) on a connected unicyclic graph: (cycle order,
    center, leaves) when the graph is its cycle joined by one edge to the
    center of a pendant star, else None."""
    cycle = _unicyclic_cycle_order(adj)
    on_cycle = set(cycle)
    off = [v for v in range(len(adj)) if v not in on_cycle]
    centers = [v for v in off if len(adj[v]) >= 2]
    if len(centers) != 1:
        return None
    center = centers[0]
    cycle_neighbors = [u for u in adj[center] if u in on_cycle]
    leaves = [u for u in adj[center] if u not in on_cycle]
    if len(cycle_neighbors) != 1 or not leaves:
        return None
    for leaf in off:
        if leaf != center and (len(adj[leaf]) != 1 or adj[leaf][0] != center):
            return None
    return cycle, center, leaves


def classify_gminus2(g: SignedGraph) -> Optional[Classification]:
    """First matching case with rank girth-2, or None.

    A: balanced complete bipartite (girth 4, rank 2)
    B: balanced cycle of length divisible by 4
    C: unbalanced cycle of length 2 mod 4
    """
    _require_cyclic_connected(g)
    balanced = is_balanced(g)
    adj = g.neighbors()

    sides = _complete_multipartite_parts(adj)
    if sides is not None and len(sides) == 2 and balanced:
        return Classification("rank_girth_minus_two", "A", {"sides": sides})

    if _is_cycle(adj):
        cyc = _unicyclic_cycle_order(adj)
        if g.n % 4 == 0 and balanced:
            return Classification("rank_girth_minus_two", "B", {"cycle": cyc})
        if g.n % 4 == 2 and not balanced:
            return Classification("rank_girth_minus_two", "C", {"cycle": cyc})
    return None


def classify_equals_g(
    g: SignedGraph, *, rank: Optional[int] = None
) -> Optional[Classification]:
    """First matching case with rank equal to girth, or None.

    a: odd cycle (any signing)
    b: balanced cycle of length 2 mod 4, or unbalanced of length 0 mod 4
    c: rank-3 signing of a complete tripartite graph
    d: extremal pendant-star unicyclic graph (all center gaps odd)
    e: cycle plus off-cycle star center, cycle sign matching girth residue
    f: girth 4 with rank 4 (catalog membership deferred; rank is checked)
    g: theta(5,3,5) with both 6-cycles negative, or balanced theta(5,5,5)
    h: subdivided K4 with all four 6-cycles negative
    """
    _require_cyclic_connected(g)
    target = "rank_girth"
    adj = g.neighbors()

    if _is_cycle(adj):
        cyc = _unicyclic_cycle_order(adj)
        if g.n % 2 == 1:
            return Classification(target, "a", {"cycle": cyc})
        balanced = is_balanced(g)
        if (balanced and g.n % 4 == 2) or (not balanced and g.n % 4 == 0):
            return Classification(
                target, "b", {"cycle": cyc, "balanced": balanced}
            )
        return None

    cert = is_rank3_tripartite(g)
    if cert is not None:
        return Classification(target, "c", cert)

    if g.m == g.n:  # connected, unicyclic, not a cycle
        ucert = _extremal_pendant_stars(adj)
        if ucert is not None:
            return Classification(target, "d", ucert)

        star = _cycle_star(adj)
        if star is not None:
            cycle, center, leaves = star
            csign = cycle_sign(g, cycle)
            length = len(cycle)
            if (csign == 1 and length % 4 == 0) or (csign == -1 and length % 4 == 2):
                return Classification(
                    target,
                    "e",
                    {
                        "cycle": cycle,
                        "center": center,
                        "leaves": leaves,
                        "cycle_sign": csign,
                    },
                )

    girth = girth_of_adjacency(adj)
    if girth == 4:
        r = rank if rank is not None else exact_rank(adjacency_matrix(g)).rank
        if r == 4:
            return Classification(
                target, "f", {"rank": 4}, figure_deferred=True
            )

    signs = g.sign_map()
    paths = _theta_paths(adj)
    if paths is not None:
        orders = sorted(map(len, paths))
        if orders == [3, 5, 5]:
            s3 = next(_path_sign(signs, p) for p in paths if len(p) == 3)
            fives = [_path_sign(signs, p) for p in paths if len(p) == 5]
            if s3 * fives[0] == -1 and s3 * fives[1] == -1:
                return Classification(
                    target,
                    "g",
                    {"orders": [5, 3, 5], "six_cycle_signs": [-1, -1]},
                )
        elif orders == [5, 5, 5]:
            prods = [_path_sign(signs, p) for p in paths]
            if prods[0] == prods[1] == prods[2]:
                return Classification(
                    target, "g", {"orders": [5, 5, 5], "balanced": True}
                )

    k4 = _subdivided_k4_midpoints(adj)
    if k4 is not None:
        branches, mid = k4
        six_signs = [
            _path_sign(signs, [x, mid[(x, y)], y, mid[(y, z)], z, mid[(x, z)], x])
            for x, y, z in combinations(branches, 3)
        ]
        if all(s == -1 for s in six_signs):
            return Classification(
                target,
                "h",
                {"branch_vertices": branches, "six_cycle_signs": six_signs},
            )
    return None


# ---------------------------------------------------------------------------
# accepted sign patterns, once per underlying graph

_NO_PATTERNS: frozenset[int] = frozenset()
_BALANCED = frozenset((0,))
_UNBALANCED = frozenset((1,))
_BOTH = frozenset((0, 1))


def _patterns_with_sign(
    cotree: Sequence[tuple[int, int]], walks: list[list[int]], sign: int
) -> frozenset[int]:
    """Co-tree patterns under which every closed walk in `walks` (first
    vertex repeated at the end) has the given sign: tree edges are
    positive, so a walk's sign is the parity of the pattern on the
    co-tree edges it uses."""
    bit = {}
    for t, (u, v) in enumerate(cotree):
        bit[(u, v)] = bit[(v, u)] = 1 << t
    masks = []
    for walk in walks:
        mask = 0
        for u, v in zip(walk, walk[1:]):
            mask ^= bit.get((u, v), 0)
        masks.append(mask)
    odd = sign == -1
    return frozenset(
        p
        for p in range(1 << len(cotree))
        if all(((p & mask).bit_count() & 1) == odd for mask in masks)
    )


def _all_negative_pattern(
    adj: list[list[int]], cotree: Sequence[tuple[int, int]]
) -> int:
    """Co-tree pattern of the all-negative signing's switching class.  A
    fundamental cycle is odd, hence negative, exactly when its co-tree
    edge joins two vertices of one colour of the spanning tree."""
    off_tree = set(cotree) | {(v, u) for u, v in cotree}
    colour = [-1] * len(adj)
    colour[0] = 0
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if colour[v] < 0 and (u, v) not in off_tree:
                colour[v] = colour[u] ^ 1
                stack.append(v)
    return sum(
        1 << t for t, (u, v) in enumerate(cotree) if colour[u] == colour[v]
    )


def _unicyclic_patterns(
    adj: list[list[int]],
) -> tuple[frozenset[int], frozenset[int]]:
    """`accepted_cotree_patterns` for m == n: the one co-tree edge lies on
    the cycle, so pattern 0 is balanced and pattern 1 unbalanced."""
    if _is_cycle(adj):
        length = len(adj)
        if length % 2:
            return _NO_PATTERNS, _BOTH  # a
        if length % 4 == 0:
            return _BALANCED, _UNBALANCED  # B; b
        return _UNBALANCED, _BALANCED  # C; b
    if _extremal_pendant_stars(adj) is not None:
        return _NO_PATTERNS, _BOTH  # d
    star = _cycle_star(adj)
    if star is not None:
        length = len(star[0])
        if length % 4 == 0:
            return _NO_PATTERNS, _BALANCED  # e
        if length % 4 == 2:
            return _NO_PATTERNS, _UNBALANCED  # e
    return _NO_PATTERNS, _NO_PATTERNS


def accepted_cotree_patterns(
    adj: list[list[int]], cotree: Sequence[tuple[int, int]]
) -> tuple[frozenset[int], frozenset[int]]:
    """The signings of one underlying graph accepted by `classify_gminus2`,
    and those accepted by `classify_equals_g` as a case other than (f).

    `adj` holds the adjacency lists of a connected graph with a cycle and
    `cotree` its edges outside one spanning tree.  Pattern p stands for the
    signing with every tree edge positive and edge cotree[t] negative
    exactly when bit t of p is set: one signing per switching class.  Every
    case's sign condition is a condition on cycle signs, and a cycle's sign
    under p is the parity of p on the cycle's co-tree edges, so both sets
    follow from the signing-independent shape of the graph:

    A (balanced complete bipartite), B, g(5,5,5): pattern 0;
    C, b, e: one parity of the single co-tree bit;
    a, d: both patterns;
    c: patterns 0 and that of the all-negative signing, the part-constant
       signing with triangle sign -1 (the only other rank-3 class);
    g(5,3,5), h: two or four 6-cycles negative.
    """
    if sum(map(len, adj)) == 2 * len(adj):  # m == n
        return _unicyclic_patterns(adj)
    gm2 = eqg = _NO_PATTERNS
    parts = _complete_multipartite_parts(adj)
    if parts is not None and len(parts) == 2:
        gm2 = _BALANCED  # A
    elif parts is not None and len(parts) == 3:
        eqg = frozenset((0, _all_negative_pattern(adj, cotree)))  # c
    paths = _theta_paths(adj)
    if paths is not None:
        paths.sort(key=len)
        # g: theta(5,3,5) with both 6-cycles negative, balanced theta(5,5,5)
        sign = {(3, 5, 5): -1, (5, 5, 5): 1}.get(tuple(map(len, paths)))
        if sign is not None:
            cycles = [paths[0] + p[-2::-1] for p in paths[1:]]
            eqg |= _patterns_with_sign(cotree, cycles, sign)
    k4 = _subdivided_k4_midpoints(adj)
    if k4 is not None:
        branches, mid = k4
        eqg |= _patterns_with_sign(
            cotree,
            [
                [x, mid[(x, y)], y, mid[(y, z)], z, mid[(x, z)], x]
                for x, y, z in combinations(branches, 3)
            ],
            -1,
        )
    return gm2, eqg
