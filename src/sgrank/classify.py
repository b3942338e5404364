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
signs, and a switching class is fixed by its cycle signs.  With the edges
of one spanning tree positive, a cycle's sign is the parity of the co-tree
edges it uses, so each case's condition is a set of co-tree sign
patterns, one per accepted switching class.  `_cases` lists every case of
one underlying graph with its pattern set, and it is the only place that
states a sign condition.  Most of those sets do not depend on the tree;
only cases (c), (g) and (h) ask for the co-tree edges, so the caller
passes them as a function and a graph of no such shape never builds its
tree.  `accepted_cotree_patterns` takes the union of those sets, once
per underlying graph, for the verification sweep; the classifiers find
the pattern of the signing at hand and return the first case whose set
holds it.  `case_shapes` widens those shapes to a test on edge counts
and neighbour bitmasks that numpy runs over many graphs at once: a graph
that fails it has no case, so the sweep skips its table.  It reads the
part counts of `multipartite_parts`, which the sweep also takes for its
girth-3 witness: a graph with a triangle that is not complete
tripartite.

Girth-4 graphs of rank 4 are accepted as case (f) on the rank value
alone; pinning down the finite reduced-graph catalog behind them is
deliberately out of scope (`figure_deferred` marks this).  Case (f) has
no sign pattern set: it depends on the rank, not on the shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Optional, Sequence

import numpy as np

from .core import SignedGraph, adjacency_matrix
from .exact import rank as exact_rank
from .invariants import (
    _cotree_pattern,
    _spanning_cotree,
    girth_of_adjacency,
    is_connected,
    two_core,
)


@dataclass
class Classification:
    target: str  # "rank_girth_minus_two" or "rank_girth"
    case: str
    certificate: dict = field(default_factory=dict)
    figure_deferred: bool = False


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
    from the lower branch vertex to the higher, or None.  Needs m == n + 1."""
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


# ---------------------------------------------------------------------------
# the case table

_GM2 = "rank_girth_minus_two"
_EQG = "rank_girth"
_NO_PATTERNS: frozenset[int] = frozenset()
_BALANCED = frozenset((0,))
_UNBALANCED = frozenset((1,))  # the single co-tree bit of a unicyclic graph
_BOTH = frozenset((0, 1))


def _negative_on(
    cotree: Sequence[tuple[int, int]], walks: list[list[int]]
) -> frozenset[int]:
    """Co-tree patterns under which every closed walk in `walks` (first
    vertex repeated at the end) is negative: tree edges are positive, so a
    walk's sign is the parity of the pattern on the co-tree edges it uses."""
    bit = {}
    for t, (u, v) in enumerate(cotree):
        bit[(u, v)] = bit[(v, u)] = 1 << t
    masks = []
    for walk in walks:
        mask = 0
        for u, v in zip(walk, walk[1:]):
            mask ^= bit.get((u, v), 0)
        masks.append(mask)
    return frozenset(
        p
        for p in range(1 << len(cotree))
        if all((p & mask).bit_count() & 1 for mask in masks)
    )


_Cotree = Callable[[], Sequence[tuple[int, int]]]


def _cases(adj: Sequence[Sequence[int]], cotree: _Cotree):
    """The extremal cases of one connected graph with a cycle, in the
    order the classifiers report them, as (target, case, certificate,
    patterns): `patterns` holds the co-tree patterns (see
    `accepted_cotree_patterns`) of the signings the case accepts, which is
    the case's sign condition.  `cotree()` gives the co-tree edges; only
    the sign conditions of cases (c), (g) and (h) call it, since the
    others accept pattern 0, pattern 1 of a unicyclic graph's single
    co-tree edge, or both.  Certificate values that depend on the
    signing are those of the co-tree signing; only case (c) has any, its
    polarities, which `_first_case` switches to the signing at hand."""
    n = len(adj)
    m = sum(map(len, adj)) // 2
    # among unicyclic graphs only C3 and C4 are complete multipartite
    parts = _complete_multipartite_parts(adj) if m > n or n <= 4 else None
    if parts is not None and len(parts) == 2:
        yield _GM2, "A", {"sides": parts}, _BALANCED
    cycle = m == n and _is_cycle(adj)
    if cycle:
        order = _unicyclic_cycle_order(adj)
        if n % 2:
            yield _EQG, "a", {"cycle": order}, _BOTH
        elif n % 4 == 0:
            yield _GM2, "B", {"cycle": order}, _BALANCED
            yield _EQG, "b", {"cycle": order, "balanced": False}, _UNBALANCED
        else:
            yield _GM2, "C", {"cycle": order}, _UNBALANCED
            yield _EQG, "b", {"cycle": order, "balanced": True}, _BALANCED
    if parts is not None and len(parts) == 3:
        # rank 3: the balanced class, and the part-constant signing with
        # triangle sign -1, whose class holds the all-negative signing
        negative, depth_parity = _cotree_pattern(adj, cotree(), lambda u, v: -1)
        yield _EQG, "c", {
            "parts": parts, "polarities": [1] * n, "pair_signs": [1, 1, 1]
        }, _BALANCED
        yield _EQG, "c", {
            "parts": parts, "polarities": depth_parity, "pair_signs": [-1, -1, -1]
        }, frozenset((negative,))
    if m == n and not cycle:
        stars = _extremal_pendant_stars(adj)
        star = None if stars else _cycle_star(adj)  # (d) takes every signing
        if stars is not None:
            yield _EQG, "d", stars, _BOTH
        elif star is not None and len(star[0]) % 2 == 0:
            # the cycle's sign matches its length: + at 0 mod 4, - at 2 mod 4
            cycle_sign = 1 if len(star[0]) % 4 == 0 else -1
            yield _EQG, "e", {
                "cycle": star[0],
                "center": star[1],
                "leaves": star[2],
                "cycle_sign": cycle_sign,
            }, _BALANCED if cycle_sign == 1 else _UNBALANCED
    paths = _theta_paths(adj) if m == n + 1 else None
    if paths is not None:
        paths.sort(key=len)
        orders = [len(p) for p in paths]
        if orders == [3, 5, 5]:  # both 6-cycles negative
            six_cycles = [paths[0] + p[-2::-1] for p in paths[1:]]
            yield _EQG, "g", {
                "orders": [5, 3, 5], "six_cycle_signs": [-1, -1]
            }, _negative_on(cotree(), six_cycles)
        elif orders == [5, 5, 5]:
            yield _EQG, "g", {"orders": [5, 5, 5], "balanced": True}, _BALANCED
    k4 = _subdivided_k4_midpoints(adj)
    if k4 is not None:  # all four 6-cycles negative
        branches, mid = k4
        six_cycles = [
            [x, mid[(x, y)], y, mid[(y, z)], z, mid[(x, z)], x]
            for x, y, z in combinations(branches, 3)
        ]
        yield _EQG, "h", {
            "branch_vertices": branches, "six_cycle_signs": [-1] * 4
        }, _negative_on(cotree(), six_cycles)


def multipartite_parts(n, nb) -> np.ndarray:
    """Per graph, given by neighbour bitmasks nb (one row per graph, one
    integer column per vertex, bit w of nb[i, v] set when w is a
    neighbour of v) and its order n (per row, or one for all): its number
    of parts when it is complete multipartite, else 0.  A row may be
    zero-padded past its order, and a padded column counts as no vertex.
    The vectorized form of `_complete_multipartite_parts`: a graph is
    complete multipartite iff non-adjacent vertices have equal masks, and
    then a part's lowest vertex is the one that sees every vertex below
    it."""
    cols = np.ascontiguousarray(np.asarray(nb).T)  # one array per vertex
    multipartite = np.ones(cols.shape[1], dtype=bool)
    parts = np.zeros(cols.shape[1], dtype=np.int64)
    for u, col in enumerate(cols):
        if not multipartite.any():
            break  # every count is 0
        below = (1 << u) - 1
        parts += (col & below) == below  # False on a padded column, all 0
        for v in range(u + 1, len(cols)):
            multipartite &= ((col & (1 << v)) != 0) | (col == cols[v]) | (v >= n)
    return np.where(multipartite, parts, 0)


def case_shapes(n, m, nb, girth, parts) -> np.ndarray:
    """Per graph, whether `_cases` may yield anything for it: a necessary
    condition, vectorized over connected graphs with a cycle, with orders
    n, edge counts m, neighbour bitmasks nb (as `multipartite_parts` takes
    them, padding included), girth hints (3 exactly for a graph with a
    triangle) and the part counts of `multipartite_parts`; element by
    element, and n, m and girth may be one value for all rows.  It widens
    each shape `_cases` tests:

    * cycles and the graphs of cases (d) and (e) are unicyclic: m == n.
      Apart from C3, no unicyclic graph of girth 3 has a case: case (d)
      needs every gap between consecutive star centers odd, which a
      triangle cannot give, and case (e) needs an even cycle.  C3 is
      complete multipartite, so m == n counts only for a triangle-free
      graph;
    * case (g)'s theta graphs and case (h)'s subdivided K4 have degrees 2
      and 3, and m == n + 1 and m == n + 2;
    * the graphs of cases (A) and (c) are complete multipartite."""
    nb = np.asarray(nb)
    min_degree_two = np.ones(len(nb), dtype=bool)
    for u in range(nb.shape[1]):
        col = nb[:, u]
        min_degree_two &= ((col & (col - 1)) != 0) | (u >= n)  # two bits or more
    excess = np.asarray(m) - n
    return (
        ((excess == 0) & (np.asarray(girth) != 3))
        | (((excess == 1) | (excess == 2)) & min_degree_two)
        | (np.asarray(parts) > 0)
    )


def accepted_cotree_patterns(
    adj: Sequence[Sequence[int]], cotree: _Cotree
) -> tuple[frozenset[int], frozenset[int]]:
    """The signings of one underlying graph accepted by `classify_gminus2`,
    and those accepted by `classify_equals_g` as a case other than (f).

    `adj` holds the adjacency lists of a connected graph with a cycle, and
    `cotree()` returns its edges outside one spanning tree; it is called
    only for the shapes of cases (c), (g) and (h).  Pattern p stands for
    the signing with every tree edge positive and co-tree edge t negative
    exactly when bit t of p is set: one signing per switching class.  Both
    sets are unions of the case table's pattern sets."""
    gm2 = eqg = _NO_PATTERNS
    for target, _, _, patterns in _cases(adj, cotree):
        if target == _GM2:
            gm2 |= patterns
        else:
            eqg |= patterns
    return gm2, eqg


def _first_case(
    g: SignedGraph, adj: list[list[int]], target: str, case: Optional[str] = None
) -> Optional[Classification]:
    """The first case of `target` (or only `case`) in g's case table
    whose pattern set holds the pattern of g's signing, or None.  `adj`
    is g.neighbors()."""
    if g.m < g.n or not g.n:
        raise ValueError("classification needs a connected graph with a cycle")
    edges = g.underlying_edges()
    cotree = [edges[i] for i in _spanning_cotree(g.n, edges)]  # checks connectivity
    pattern = None
    for t, name, cert, patterns in _cases(adj, lambda: cotree):
        if t != target or case not in (None, name):
            continue
        if pattern is None:
            signs = g.sign_map()
            pattern, pot = _cotree_pattern(
                adj, cotree, lambda u, v: signs[min(u, v), max(u, v)]
            )
        if pattern in patterns:
            if name == "c":  # switch the co-tree signing's polarities to g's
                cert["polarities"] = [x * y for x, y in zip(cert["polarities"], pot)]
            return Classification(target, name, cert)
    return None


def classify_gminus2(g: SignedGraph) -> Optional[Classification]:
    """First matching case with rank girth-2, or None.

    A: balanced complete bipartite (girth 4, rank 2)
    B: balanced cycle of length divisible by 4
    C: unbalanced cycle of length 2 mod 4
    """
    return _first_case(g, g.neighbors(), _GM2)


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

    Case (f) is checked after the case table: g and h have girth 8 and 6,
    so the order above is kept.
    """
    adj = g.neighbors()
    found = _first_case(g, adj, _EQG)
    if found is not None:
        return found
    if girth_of_adjacency(adj) == 4:
        r = rank if rank is not None else exact_rank(adjacency_matrix(g)).rank
        if r == 4:
            return Classification(_EQG, "f", {"rank": 4}, figure_deferred=True)
    return None


def is_rank3_tripartite(g: SignedGraph) -> Optional[dict]:
    """Certificate when g is complete tripartite with one of its two rank-3
    switching classes of signings, else None: the parts, and polarities and
    pair signs with sign(u, v) = polarities[u] * polarities[v] * pair sign
    of the two parts, pairs ordered (0, 1), (0, 2), (1, 2).  Raises
    ValueError unless g is connected with a cycle, like the classifiers."""
    found = _first_case(g, g.neighbors(), _EQG, "c")
    return None if found is None else found.certificate
