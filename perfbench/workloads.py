"""Workload inputs and the figures the benchmark checks the sweep against.

Nothing here imports sgrank: graph enumeration, connectivity, graph6
encoding, expected counts and the reference rank are the benchmark's own
code, so that they stay independent of the program they check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import numpy as np

# dense: labeled n <= 6 enumerated by the sweep itself, plus this share of
# the connected cyclic labeled graphs on 7 vertices, drawn per edge count
DENSE_MAX_N = 6
DENSE_SAMPLE_N = 7
DENSE_SAMPLE_FRACTION = 0.005

# sparse: the quick sweep's sparse slice, pinned (see README for the
# command that regenerates these two figures); the gate's n <= 10 slice
# takes about 30 s, too long to repeat within one run
SPARSE_MAX_N = 9
SPARSE_MAX_CYCLOMATIC = 3
SPARSE_GRAPHS = 34_899
SPARSE_INSTANCES = 236_510

# high-order: random connected graphs, this many per (order, cyclomatic)
HIGH_ORDERS = range(11, 16)
HIGH_CYCLOMATIC = (9, 10, 11)
HIGH_PER_CELL = 6

WORKLOADS = ("dense", "sparse", "high-order")

CROSS_CHECK_MATRICES = 48


@dataclass
class Workload:
    """One workload's sweep config (graph6 paths are added when the records
    are written), its graph6 records, the totals a sweep must report, and
    the graphs the kernel cross-check draws from."""

    config: dict
    records: list
    graphs: int
    instances: int
    pool: list | None


def edge_pairs(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))


def is_connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def sweep_totals(graphs) -> tuple[int, int]:
    """(graphs, instances) a sweep must report for these (n, edges): the
    connected ones with a cycle count, each with 2**(m - n + 1) signings."""
    count = instances = 0
    for n, edges in graphs:
        if n > 0 and len(edges) >= n and is_connected(n, edges):
            count += 1
            instances += 1 << (len(edges) - n + 1)
    return count, instances


def _connected_cyclic_masks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Edge masks (bit i = edge_pairs(n)[i]), ascending, of the connected
    labeled graphs with a cycle on n vertices, by bitmask reachability;
    and their edge counts."""
    pairs = edge_pairs(n)
    masks = np.arange(1 << len(pairs), dtype=np.int64)
    nbr = [np.zeros_like(masks) for _ in range(n)]
    m = np.zeros_like(masks)
    for e, (u, v) in enumerate(pairs):
        bit = (masks >> e) & 1
        m += bit
        nbr[u] |= bit << v
        nbr[v] |= bit << u
    reach = np.ones_like(masks)
    for _ in range(n - 1):
        grown = reach.copy()
        for v in range(n):
            grown |= np.where((reach >> v) & 1 == 1, nbr[v], 0)
        reach = grown
    keep = (reach == (1 << n) - 1) & (m >= n)
    return masks[keep], m[keep]


def _mask_graph(n: int, mask: int) -> tuple[int, list[tuple[int, int]]]:
    return n, [p for i, p in enumerate(edge_pairs(n)) if (mask >> i) & 1]


def labeled_dense(max_n: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """Every connected labeled graph with a cycle on 3..max_n vertices."""
    return [
        _mask_graph(n, mask)
        for n in range(3, max_n + 1)
        for mask in _connected_cyclic_masks(n)[0].tolist()
    ]


def stratified_sample(n: int, fraction: float, rng: random.Random):
    """A uniform sample of the connected cyclic labeled graphs on n
    vertices, drawn separately per edge count with max(1, round(fraction *
    size)) members, so the instance total does not depend on the seed."""
    masks, m = _connected_cyclic_masks(n)
    out = []
    for edges_count in sorted(set(m.tolist())):
        stratum = masks[m == edges_count].tolist()
        k = max(1, round(fraction * len(stratum)))
        out += [_mask_graph(n, mask) for mask in sorted(rng.sample(stratum, k))]
    return out


def random_connected(n: int, cyclomatic: int, rng: random.Random):
    """A random labeled spanning tree (Pruefer code) plus `cyclomatic`
    distinct extra edges."""
    code = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in code:
        degree[v] += 1
    edges = set()
    for v in code:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.add((min(leaf, v), max(leaf, v)))
        degree[leaf] -= 1
        degree[v] -= 1
    u, v = (x for x in range(n) if degree[x] == 1)
    edges.add((u, v))
    rest = [p for p in edge_pairs(n) if p not in edges]
    edges.update(rng.sample(rest, cyclomatic))
    return n, sorted(edges)


def encode_graph6(n: int, edges) -> str:
    """graph6 record for a graph with at most 62 vertices."""
    present = set(edges)
    bits = [
        1 if (u, v) in present else 0 for v in range(1, n) for u in range(v)
    ]
    bits += [0] * (-len(bits) % 6)
    chars = [n]
    for i in range(0, len(bits), 6):
        x = 0
        for b in bits[i : i + 6]:
            x = (x << 1) | b
        chars.append(x)
    return "".join(chr(x + 63) for x in chars)


def build(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    if name == "dense":
        small = labeled_dense(DENSE_MAX_N)
        sample = stratified_sample(DENSE_SAMPLE_N, DENSE_SAMPLE_FRACTION, rng)
        g_small, i_small = sweep_totals(small)
        g_sample, i_sample = sweep_totals(sample)
        config = {"max_n_dense": DENSE_MAX_N, "max_n_sparse": 0}
        return Workload(
            config, sample, g_small + g_sample, i_small + i_sample, small + sample
        )
    if name == "sparse":
        config = {
            "max_n_dense": 0,
            "max_n_sparse": SPARSE_MAX_N,
            "max_cyclomatic": SPARSE_MAX_CYCLOMATIC,
        }
        # the pool is the program's own stream, checked in run.py
        return Workload(config, [], SPARSE_GRAPHS, SPARSE_INSTANCES, None)
    if name == "high-order":
        records = [
            random_connected(n, c, rng)
            for n in HIGH_ORDERS
            for c in HIGH_CYCLOMATIC
            for _ in range(HIGH_PER_CELL)
        ]
        graphs, instances = sweep_totals(records)
        config = {"max_n_dense": 0, "max_n_sparse": 0}
        return Workload(config, records, graphs, instances, records)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


def gminus2_instances(max_n: int) -> int:
    """Swept instances (one signing per switching class, connected labeled
    graphs on 3..max_n vertices) with rank == girth - 2: the balanced
    labeled K_{a,b} with a, b >= 2, balanced cycles of length 0 mod 4 other
    than C4 (already a K_{2,2}) and unbalanced cycles of length 2 mod 4."""
    total = 0
    for n in range(4, max_n + 1):
        for a in range(2, n // 2 + 1):
            b = n - a
            if b >= 2:
                total += comb(n, a) // (2 if a == b else 1)
        if (n % 4 == 0 and n != 4) or n % 4 == 2:
            total += factorial(n - 1) // 2
    return total


def random_signed_matrices(pool, count: int, rng: random.Random):
    """`count` signed adjacency matrices: random graphs from the pool, each
    edge given a random sign."""
    out = []
    for _ in range(count):
        n, edges = pool[rng.randrange(len(pool))]
        mat = [[0] * n for _ in range(n)]
        for u, v in edges:
            s = rng.choice((1, -1))
            mat[u][v] = mat[v][u] = s
        out.append(mat)
    return out


def fraction_rank(matrix) -> int:
    """Rank over the rationals by Gaussian elimination on Fractions."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / top[col]
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], top)]
        rank += 1
    return rank
