"""Structural invariants of signed graphs.

Girth is computed by the classical BFS-from-every-root scan: for a root r,
any non-tree edge (u, v) met during BFS closes a walk of length
d(u) + d(v) + 1 through r which contains a cycle no longer than that, and
for a root lying on a shortest cycle the scan attains the girth exactly, so
the minimum over all roots is the girth.  Two reductions keep that
argument.  Every cycle lies in the 2-core (what is left after repeatedly
deleting vertices of degree <= 1), so the scan runs on the 2-core alone.
And once r has been scanned, every cycle through r is at least as long as
the best found, so r is deleted before the next root: the shortest cycle
is then found from its least vertex, in the graph on that vertex and the
ones after it.

Balance uses spanning-forest potentials: assign each vertex the product of
edge signs on its tree path from the root; the graph is balanced iff every
non-tree edge sign equals the product of its endpoint potentials
(equivalently, iff every cycle is positive).

Signings are named by co-tree patterns.  `_spanning_cotree` fixes one
spanning tree per underlying graph, and with its edges positive each
pattern (a bit per non-tree edge) names one signing per switching class.
`_cotree_pattern` finds the pattern of any signing from its tree
potentials: a co-tree edge's bit is the sign of its fundamental cycle.
`bfs_rows` builds the same tree for many graphs at once, in numpy, from
their neighbour bitmasks, with each vertex's depth parity, which gives a
bipartition where there is one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import SignedGraph


@dataclass(frozen=True)
class InvariantProfile:
    components: int
    cyclomatic: int
    pendant_count: int
    bipartite: bool
    girth: int | None
    balanced: bool


@dataclass(frozen=True)
class CycleRecord:
    """A simple cycle in canonical form: minimal vertex first, then its
    smaller neighbor on the cycle (fixes rotation and reflection)."""

    vertices: tuple[int, ...]
    length: int
    sign: int


def connected_components(adj: list[list[int]]) -> list[list[int]]:
    """Vertex lists of the connected components, lowest vertex first."""
    n = len(adj)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    queue.append(v)
        out.append(sorted(comp))
    return out


def is_connected(g: SignedGraph) -> bool:
    if g.n <= 1:
        return True
    return len(connected_components(g.neighbors())) == 1


def two_core(adj: list[list[int]]) -> list[bool]:
    """Membership in the 2-core, found by peeling vertices of degree <= 1."""
    deg = [len(nb) for nb in adj]
    alive = [True] * len(adj)
    queue = [v for v, d in enumerate(deg) if d <= 1]
    while queue:
        leaf = queue.pop()
        alive[leaf] = False
        for u in adj[leaf]:
            if alive[u]:
                deg[u] -= 1
                if deg[u] == 1:
                    queue.append(u)
    return alive


def girth_of_adjacency(adj: list[list[int]]) -> int | None:
    """Length of a shortest cycle, or None for a forest."""
    n = len(adj)
    live = two_core(adj)
    best = n + 1
    parent = [0] * n
    for root in range(n):
        if not live[root]:
            continue
        dist = [-1] * n
        dist[root] = 0
        parent[root] = -1
        queue = deque([root])
        while queue:
            u = queue.popleft()
            du = dist[u]
            if 2 * du >= best:
                continue
            for v in adj[u]:
                if not live[v]:
                    continue
                if dist[v] < 0:
                    dist[v] = du + 1
                    parent[v] = u
                    queue.append(v)
                elif v != parent[u] and du + dist[v] + 1 < best:
                    best = du + dist[v] + 1
        live[root] = False
    return best if best <= n else None


def bipartition(adj: list[list[int]]) -> tuple[list[int], list[int]] | None:
    """A 2-coloring as (side0, side1), or None if an odd cycle exists."""
    n = len(adj)
    color = [-1] * n
    for start in range(n):
        if color[start] >= 0:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if color[v] < 0:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return None
    return (
        [v for v in range(n) if color[v] == 0],
        [v for v in range(n) if color[v] == 1],
    )


def switching_potentials(g: SignedGraph) -> list[int]:
    """Per-vertex +-1 potentials from BFS forests (roots get +1).

    Switching by {v: potential == -1} makes every forest edge positive.
    """
    adj = g.neighbors()
    signs = g.sign_map()
    pot = [0] * g.n
    for root in range(g.n):
        if pot[root]:
            continue
        pot[root] = 1
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if not pot[v]:
                    pot[v] = pot[u] * signs[(min(u, v), max(u, v))]
                    queue.append(v)
    return pot


def _spanning_cotree(n: int, edges: Sequence[tuple[int, int]]) -> list[int]:
    """Indexes of non-tree edges (ascending) for the BFS tree from vertex 0
    that visits each vertex's neighbours in ascending order, so the tree
    does not depend on the order of `edges`."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * n
    parent[0] = 0
    queue = [0]
    for u in queue:
        for v in sorted(adj[u]):
            if parent[v] < 0:
                parent[v] = u
                queue.append(v)
    if len(queue) < n:
        raise ValueError("graph is not connected")
    # the graph is simple, so an edge is a tree edge iff it joins a vertex
    # to its parent
    return [
        i for i, (u, v) in enumerate(edges) if parent[v] != u and parent[u] != v
    ]


def bfs_rows(nb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of neighbour bitmasks (one row per graph, one integer column
    per vertex, bit w of nb[i, v] set when w is a neighbour of v, padded
    columns zero), the tree of `_spanning_cotree`: (parent, odd).  parent
    has one column per vertex, -1 at vertex 0 and at a vertex the search
    does not reach; odd[i] is row i's bitmask of the vertices at odd
    depth.  The rows run in lockstep: each keeps a queue seeded with
    vertex 0, and step t takes the t-th vertex of every queue that long
    and appends its unseen neighbours, ascending."""
    rows, width = nb.shape
    adj = nb.astype(np.int64)
    bit = np.int64(1) << np.arange(width)
    parent = np.full((rows, width), -1, dtype=np.int64)
    odd = np.zeros(rows, dtype=np.int64)
    queue = np.zeros((rows, width), dtype=np.int64)
    seen = np.ones(rows, dtype=np.int64)
    tail = np.ones(rows, dtype=np.int64)
    live = np.arange(rows)
    for head in range(width):
        live = live[tail[live] > head]
        if not len(live):
            break
        u = queue[live, head]
        new = adj[live, u] & ~seen[live]
        seen[live] |= new
        # a child's depth is one more than its parent's
        odd[live] |= np.where((odd[live] >> u) & 1, 0, new)
        bits = (new[:, None] & bit) != 0
        at, w = np.nonzero(bits)  # ascending w within each row
        row = live[at]
        parent[row, w] = u[at]
        queue[row, tail[row] + np.cumsum(bits, axis=1)[at, w] - 1] = w
        tail[live] += bits.sum(axis=1)
    return parent, odd


def _cotree_pattern(
    adj: list[list[int]],
    cotree: Sequence[tuple[int, int]],
    sign: Callable[[int, int], int],
) -> tuple[int, list[int]]:
    """(pattern, potentials) of the signing giving edge uv the sign
    sign(u, v), on the spanning tree whose non-tree edges are `cotree`.
    potentials[v] is the product of the signs on the tree path from
    vertex 0 to v.  Bit t of the pattern is set when the fundamental
    cycle of cotree[t] is negative: when its sign differs from the product
    of its endpoints' potentials."""
    off_tree = set(cotree) | {(v, u) for u, v in cotree}
    pot = [0] * len(adj)
    pot[0] = 1
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not pot[v] and (u, v) not in off_tree:
                pot[v] = pot[u] * sign(u, v)
                stack.append(v)
    pattern = sum(
        1 << t for t, (u, v) in enumerate(cotree) if sign(u, v) != pot[u] * pot[v]
    )
    return pattern, pot


def _cotree_signing(
    n: int, edges: Sequence[tuple[int, int]], cotree: Sequence[int], pattern: int
) -> SignedGraph:
    """The signing with exactly the co-tree edges cotree[t] negative
    whose bit t is set in `pattern`."""
    negative = {e for t, e in enumerate(cotree) if (pattern >> t) & 1}
    return SignedGraph(
        n, [(u, v, -1 if i in negative else 1) for i, (u, v) in enumerate(edges)]
    )


def enumerate_signings(
    n: int, edges: Sequence[tuple[int, int]]
) -> Iterator[SignedGraph]:
    """One signed graph per switching class of the underlying graph:
    spanning-tree edges positive, each co-tree sign pattern once.
    Pattern 0 (first yield) is all-positive, the balanced class."""
    cotree = _spanning_cotree(n, edges)
    for pattern in range(1 << len(cotree)):
        yield _cotree_signing(n, edges, cotree, pattern)


def canonical_switching_representative(g: SignedGraph) -> SignedGraph:
    """The member of g's switching class whose spanning-tree edges are all
    positive: the co-tree signing of g's pattern, on the tree that
    `enumerate_signings` uses.  Equal for switching-equivalent inputs on
    the same underlying graph."""
    edges = g.underlying_edges()
    cotree = _spanning_cotree(g.n, edges)
    signs = g.sign_map()
    pattern, _ = _cotree_pattern(
        g.neighbors(),
        [edges[i] for i in cotree],
        lambda u, v: signs[min(u, v), max(u, v)],
    )
    return _cotree_signing(g.n, edges, cotree, pattern)


def is_balanced(g: SignedGraph) -> bool:
    """True iff every cycle has positive sign."""
    pot = switching_potentials(g)
    return all(s == pot[u] * pot[v] for u, v, s in g.edges)


def profile(g: SignedGraph) -> InvariantProfile:
    """All cheap invariants in one pass-friendly bundle."""
    adj = g.neighbors()
    comps = connected_components(adj)
    deg = g.degrees()
    return InvariantProfile(
        components=len(comps),
        cyclomatic=g.m - g.n + len(comps),
        pendant_count=sum(1 for d in deg if d == 1),
        bipartite=bipartition(adj) is not None,
        girth=girth_of_adjacency(adj),
        balanced=is_balanced(g),
    )


def cycle_sign(g: SignedGraph, vertices: tuple[int, ...]) -> int:
    """Sign (product of edge signs) of the cycle visiting `vertices` in order."""
    k = len(vertices)
    if k < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    if len(set(vertices)) != k:
        raise ValueError("cycle vertices must be distinct")
    signs = g.sign_map()
    total = 1
    for i in range(k):
        u, v = vertices[i], vertices[(i + 1) % k]
        key = (min(u, v), max(u, v))
        if key not in signs:
            raise ValueError(f"({u},{v}) is not an edge")
        total *= signs[key]
    return total


def _canonical_cycle(seq: list[int]) -> tuple[int, ...]:
    k = len(seq)
    start = seq.index(min(seq))
    rotated = seq[start:] + seq[:start]
    if rotated[1] > rotated[-1]:
        rotated = [rotated[0]] + rotated[1:][::-1]
    return tuple(rotated)


def cycles_up_to(g: SignedGraph, max_length: int) -> list[CycleRecord]:
    """Every simple cycle of length <= max_length, once, in canonical form.

    Enumeration is exponential in general; intended for small graphs
    (n <= 16 or so).  Output is sorted by (length, vertex tuple).
    """
    adj = g.neighbors()
    found: list[CycleRecord] = []
    path: list[int] = []
    on_path = [False] * g.n

    def extend(start: int, u: int) -> None:
        for v in adj[u]:
            if v == start and len(path) >= 3:
                if path[1] < path[-1]:  # each cycle once, not twice reversed
                    seq = _canonical_cycle(list(path))
                    found.append(CycleRecord(seq, len(seq), cycle_sign(g, seq)))
                continue
            if v <= start or on_path[v]:
                continue
            if len(path) == max_length:
                continue
            path.append(v)
            on_path[v] = True
            extend(start, v)
            on_path[v] = False
            path.pop()

    if max_length >= 3:
        for s in range(g.n):
            path = [s]
            on_path[s] = True
            extend(s, s)
            on_path[s] = False
    found.sort(key=lambda rec: (rec.length, rec.vertices))
    return found


def shortest_cycle(g: SignedGraph) -> CycleRecord | None:
    """A shortest cycle with a deterministic witness, or None for forests.

    Tie-break: lowest BFS root that attains the girth, then the
    lexicographically smallest canonical vertex sequence at that root.
    """
    adj = g.neighbors()
    g_len = girth_of_adjacency(adj)
    if g_len is None:
        return None
    n = g.n
    for root in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[root] = 0
        queue = deque([root])
        candidates = []
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif v != parent[u] and dist[u] + dist[v] + 1 == g_len:
                    candidates.append((u, v))
        best: tuple[int, ...] | None = None
        for u, v in candidates:
            path_u = []
            x = u
            while x != -1:
                path_u.append(x)
                x = parent[x]
            path_v = []
            x = v
            while x != -1:
                path_v.append(x)
                x = parent[x]
            # at girth length the two tree paths share only the root
            if set(path_u) & set(path_v) != {root}:
                continue
            seq = _canonical_cycle(path_u[::-1] + path_v[:-1])
            if len(seq) == g_len and (best is None or seq < best):
                best = seq
        if best is not None:
            return CycleRecord(best, len(best), cycle_sign(g, best))
    raise AssertionError("girth found but no witness cycle; BFS invariant broken")
