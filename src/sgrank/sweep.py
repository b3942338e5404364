"""Exhaustive verification sweeps over small signed graphs.

Two built-in graph streams plus optional graph6 files:

* dense slice: every connected labeled graph with a cycle on up to
  `max_n_dense` vertices (edge-subset enumeration, vectorized
  connectivity/girth prefilters);
* sparse slice: connected graphs with cyclomatic number up to
  `max_cyclomatic` on up to `max_n_sparse` vertices, built constructively:
  the finitely many multigraph cores of minimum degree 3 (19 of them for
  cyclomatic number <= 3), subdivided in all ways that keep the graph
  simple, with rooted trees hung on core vertices.  Every isomorphism
  class appears at least once; relabeled duplicates are possible and
  harmless for universal assertions.  No list of the stream is held:
  each chunk builds its own slice from a per-process table of the
  subdivided cores (`_core_table`) and the hangings, cached per core
  order (`_hangings`).

Per underlying graph, one signing per switching class is enumerated
(edges of the spanning tree from `invariants._spanning_cotree` positive,
all co-tree sign patterns; pattern 0 is the balanced representative).

The default checks tell ranks apart only at or below the girth g, so the
sweep asks for min(rank, g + 1).  Two rules decide a graph at intake,
with no signing block built: its instances count as checked at rank
g + 1, and each co-tree pattern that the case table accepts for it is a
failure of an "iff classified" check.  At girth 3 a graph is decided
when it has a witness: it is not complete tripartite.  A connected
paw-free graph with a triangle is complete multipartite (Olariu,
"Paw-free graphs", IPL 28, 1988), and with 4 parts or more it holds a
K4.  So a connected graph with a triangle that is not complete
tripartite induces the paw or K4, every signing of which has rank 4;
a principal submatrix never has larger rank, so every signing of the
graph has rank >= 4 = g + 1.  A complete tripartite graph has signings
of rank 3 (case (c)), so no rule could decide it.
Every stream hands `_Engine.add_batch` one chunk of rows: per graph its
order, key, edge count, girth hint and neighbour bitmasks, zero-padded
to a common width; a padded column counts as no vertex.  The sparse
stream ORs each core's masks into those of its hangings
(`_hanging_rows`), and its hint is the core's girth, since hung trees
add no cycle; the others' is 3 with a triangle, 4 with a 4-cycle and
else 0 (`_girth_hints`).  One loop over vertex pairs counts the parts of
every complete multipartite row (`classify.multipartite_parts`): a row
has a witness when its hint is 3 and it does not have 3 parts, and
`case_shapes` reads the same counts.  At girth >= 4 the rule takes the
graph's iterated pendant pairs and then a greedy maximal induced
matching of the rest, lowest degree first
(`_matching_pairs`): p pendant pairs and k matched pairs.  Deleting a
pendant vertex and its neighbour lowers the rank by exactly 2 (the
paper's pendant lemma), and the matched pairs induce kK2, a principal
submatrix of rank 2k on every signing.  So every signing has rank >=
2(p + k), and the rule decides a graph with 2(p + k) >= g + 1.  It is
not run at girth 3, where it finds p + k = 1 on every graph without a
witness (`_match_or_rank`).
A decided graph goes into running sums by (order, girth).  The case
table runs on it only when `classify.case_shapes` says a case may fit,
and it builds its spanning tree and keeps a record only when the case
table accepts a pattern for it or a spot-check stride samples one of its
instances.  A graph decided by a witness that neither holds costs no
Python of its own: `add_batch` sums such rows in numpy.  The other rows
read their adjacency lists off the bitmasks, and search for their girth
where the hint is 0.  Spot checks sample by chunk-local stream position:
every graph takes the next 2^(m - n + 1) positions, and an instance is
sampled when its position is a multiple of the stride.
The other graphs' signing blocks are built on the graph's own labels and
buffered by (order, g).  Before a block would bring all buffers together
to one cap, the fullest is flushed, so no batch exceeds it.
`capped_ranks` ranks a batch with cap g + 1: fraction-free elimination
stopped at the cap, in float32 or int64 by the elimination order
min(n, g + 1).  The opt-in instance checks need full ranks: when one is
selected, nothing is decided at intake and the cap is n.  A
counterexample whose rank the sweep knew only as g + 1 is re-ranked
exactly and marked `rank_capped`.  The report counts instances by
(order, girth, min(rank, girth + 1)), and the seconds spent planning
and in each stage of the chunks (`STAGES`).
Checks are vectorized across instance buffers.  The girth-4
consequence check takes a flush's girth-4 rank-4 instances together: it
tests each underlying graph for a bipartition once, twin-reduces the
int8 matrices the kernel ranked in one numpy pass
(`core.reduced_vertices`), and ranks each distinct reduced matrix once
per chunk with `exact.rank`, apart from the kernel.
The two "iff classified" checks compare the kernel's ranks with the
co-tree patterns that `accepted_cotree_patterns` takes from the case
table of `classify.py`, once per underlying graph.  Sampled instances,
decided ones included, are re-verified against fraction-free elimination
(compared up to the cap) and through the classifiers, which rebuild the
case table from the signed graph and look up the pattern they find from
its tree potentials.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from multiprocessing import get_context
from typing import Iterator, Sequence

import numpy as np

from .core import (
    SignedGraph,
    adjacency_matrix,
    find_twins,
    induced_subgraph,
    reduced_graph,
    reduced_vertices,
    switch,
    write_sgr,
)
# batch_ranks is not called here: perfbench's tracer wraps it under this
# module's name, and tests/test_benchmark_contract.py checks that it is here
from .exact import _MAX_ORDER, batch_ranks, capped_ranks, rank as exact_rank
from .invariants import (
    _cotree_pattern,
    _spanning_cotree,
    bipartition,
    connected_components,
    girth_of_adjacency,
    shortest_cycle,
)
from .classify import (
    accepted_cotree_patterns,
    case_shapes,
    classify_equals_g,
    classify_gminus2,
    multipartite_parts,
)

_BUFFER_INSTANCES = 1 << 17
_SIGNING_BITS = 15
_SIGNING_BLOCK = 1 << _SIGNING_BITS
_DENSE_CHUNK_MASKS = 1 << 18
_SPARSE_CHUNK_GRAPHS = 4096
_GRAPH6_CHUNK_RECORDS = 1024
_MAX_COTREE_BITS = 24  # a graph6 record gives at most 2^24 signings


# ---------------------------------------------------------------------------
# check registry


@dataclass(frozen=True)
class CheckInfo:
    default: bool
    kind: str  # "vector", "spot" or "instance"
    doc: str


CHECKS: dict[str, CheckInfo] = {
    "rank_ge_girth_minus_2": CheckInfo(
        True, "vector", "rank is at least girth minus 2"
    ),
    "rank_ne_girth_minus_1": CheckInfo(
        True, "vector", "rank never equals girth minus 1"
    ),
    "girth_minus_2_iff_classified": CheckInfo(
        True, "vector", "rank == girth-2 exactly on classify_gminus2 matches"
    ),
    "equals_girth_iff_classified": CheckInfo(
        True,
        "vector",
        "rank == girth exactly on classify_equals_g matches (at girth 4, "
        "case (f) accepts the rank-4 instances no other case takes; "
        "girth_four_consequences checks those)",
    ),
    "girth_four_consequences": CheckInfo(
        True,
        "vector",
        "girth-4 rank-4 instances have bipartite underlying graph and "
        "twin-reduced rank 4",
    ),
    "spot_check_exact_rank": CheckInfo(
        True, "spot", "sampled instances rerun through fraction-free elimination"
    ),
    "spot_check_classifier": CheckInfo(
        True,
        "spot",
        "sampled instances rerun through the classifiers, which rebuild the "
        "case table from the signed graph and look up its own co-tree pattern",
    ),
    "rank_ge_girth_minus_1": CheckInfo(
        False,
        "vector",
        "deliberately false claim (self-test of counterexample reporting)",
    ),
    "pendant_identity": CheckInfo(
        False, "instance", "pendant vertex: rank drops by exactly 2 with its neighbor"
    ),
    "vertex_deletion_bounds": CheckInfo(
        False, "instance", "deleting one vertex changes rank by at most 2, never up"
    ),
    "nullity_cyclomatic_bound": CheckInfo(
        False,
        "instance",
        "non-cycles: nullity <= pendants + 2*cyclomatic - 1",
    ),
    "outside_vertex_girth": CheckInfo(
        False,
        "instance",
        "a vertex with 2+ neighbors on a shortest cycle forces girth <= 4",
    ),
    "switching_invariance": CheckInfo(
        False, "instance", "random switching preserves the rank"
    ),
    "twin_deletion_rank": CheckInfo(
        False, "instance", "twin-reduced graph keeps the rank"
    ),
}

DEFAULT_CHECKS: tuple[str, ...] = tuple(
    name for name, info in CHECKS.items() if info.default
)

_IFF_CHECKS = ("girth_minus_2_iff_classified", "equals_girth_iff_classified")
_NO_PATTERNS = (frozenset(), frozenset())  # no case accepts any signing

_SPOT_RANK_STRIDE = 2048
_SPOT_CLASSIFY_STRIDE = 4096  # a multiple of _SPOT_RANK_STRIDE

# the report's stage timers, in seconds.  `plan` is the main process's
# planning: graph6 parsing and its co-tree limit, and the sparse stream's
# core table and length.  The others are summed over chunks.  Each
# chunk's flushes time the kernel (stacking the blocks and ranking them)
# and the checks, and the spot checks of decided graphs count as
# spot_checks; intake is the rest of the chunk: enumeration, girth, the
# part counts behind the witness and the case-shape test, the pendant
# pairs and matching, the case table, block build and the decided
# graphs' sums, whole chunks at a time where numpy takes them.  With
# jobs > 1 the chunk stages add up the workers' time.
STAGES = ("plan", "intake", "kernel", "vector_checks", "girth_four_consequences",
          "spot_checks", "instance_checks")


@dataclass(frozen=True)
class SweepConfig:
    max_n_dense: int = 7
    max_n_sparse: int = 10
    max_cyclomatic: int = 3
    graph6_paths: tuple[str, ...] = ()
    jobs: int = 1
    checks: tuple[str, ...] = DEFAULT_CHECKS
    max_counterexamples: int = 50

    def validate(self) -> None:
        if not (0 <= self.max_n_dense <= 7):
            raise ValueError("dense slice supports up to 7 vertices")
        if not (0 <= self.max_n_sparse <= 12):
            raise ValueError("sparse slice supports up to 12 vertices")
        if not (1 <= self.max_cyclomatic <= 3):
            raise ValueError("sparse slice supports cyclomatic numbers 1..3")
        if self.jobs < 1:
            raise ValueError("jobs must be positive")
        if self.max_counterexamples < 0:
            raise ValueError(
                f"max_counterexamples must be non-negative, got {self.max_counterexamples}"
            )
        unknown = [name for name in self.checks if name not in CHECKS]
        if unknown:
            raise ValueError(
                f"unknown checks {unknown}; known: {sorted(CHECKS)}"
            )
        duplicates = sorted({name for name in self.checks if self.checks.count(name) > 1})
        if duplicates:
            raise ValueError(f"duplicate checks {duplicates}")


@dataclass
class SweepReport:
    config: SweepConfig
    graphs: int = 0
    instances: int = 0
    checked: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)
    counterexamples: list = field(default_factory=list)
    skipped_graph6_records: int = 0
    decided_instances: int = 0
    decided_by_witness: int = 0
    histogram: dict = field(default_factory=dict)  # (n, girth, capped rank) -> instances
    stages: dict = field(default_factory=lambda: dict.fromkeys(STAGES, 0.0))
    elapsed_seconds: float = 0.0

    def total_failures(self) -> int:
        return sum(self.failures.values())

    def to_json_dict(self) -> dict:
        checks = {
            name: {
                "checked": self.checked.get(name, 0),
                "failures": self.failures.get(name, 0),
            }
            for name in sorted(self.config.checks)
        }
        return {
            "schema": 3,
            "config": {
                "max_n_dense": self.config.max_n_dense,
                "max_n_sparse": self.config.max_n_sparse,
                "max_cyclomatic": self.config.max_cyclomatic,
                "graph6_paths": list(self.config.graph6_paths),
                "jobs": self.config.jobs,
                "checks": sorted(self.config.checks),
                "max_counterexamples": self.config.max_counterexamples,
            },
            "totals": {
                "graphs": self.graphs,
                "instances": self.instances,
                "failures": self.total_failures(),
                "skipped_graph6_records": self.skipped_graph6_records,
                "decided_instances": self.decided_instances,
                "decided_by_witness": self.decided_by_witness,
            },
            "checks": checks,
            # rows [order, girth, min(rank, girth + 1), instances]
            "rank_histogram": [
                [*key, count] for key, count in sorted(self.histogram.items())
            ],
            "counterexamples": self.counterexamples,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "stages": {name: round(self.stages[name], 3) for name in STAGES},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def write_counterexamples_csv(report: SweepReport, target) -> None:
    """Write the counterexamples as CSV to `target`, a path or an open
    text stream."""
    import csv

    with (
        nullcontext(target) if hasattr(target, "write")
        else open(target, "w", newline="")
    ) as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "check", "source", "n", "m", "girth", "rank", "rank_capped",
                "signing_index", "edges", "sgr",
            ]
        )
        for ce in report.counterexamples:
            writer.writerow(
                [
                    ce["check"],
                    ce["source"],
                    ce["n"],
                    ce["m"],
                    ce["girth"],
                    ce["rank"],
                    ce["rank_capped"],
                    ce["signing_index"],
                    ce["edges"],
                    ce["sgr"],
                ]
            )


# ---------------------------------------------------------------------------
# signing enumeration


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


@lru_cache(maxsize=None)
def _sign_table() -> np.ndarray:
    """Row j: the int8 signs that pattern j puts on co-tree edges
    0 .. _SIGNING_BITS - 1, each written twice, once per triangle of the
    matrix.  Read-only: every block shares it.  Filled in place, rows
    2^t .. 2^(t+1) - 1 repeating rows 0 .. 2^t - 1 with edge t negative:
    large temporaries freed here raised peak memory by 3.5 MB on a sweep
    of orders 11-15."""
    table = np.empty((_SIGNING_BLOCK, 2 * _SIGNING_BITS), dtype=np.int8)
    for t in range(_SIGNING_BITS):
        half = 1 << t
        table[:half, 2 * t:2 * t + 2] = 1
        table[half:2 * half, 2 * t:2 * t + 2] = -1
        table[half:2 * half, :2 * t] = table[:half, :2 * t]
    table.setflags(write=False)
    return table


def _signing_block(
    n: int, edges: Sequence[tuple[int, int]], cotree: Sequence[int], j0: int
) -> np.ndarray:
    """Adjacency matrices (int8) of the co-tree signings j0, j0 + 1, ...:
    all 2^k of them for a co-tree of k <= _SIGNING_BITS edges, else the
    _SIGNING_BLOCK starting at j0, a multiple of _SIGNING_BLOCK, whose
    higher pattern bits are constant and taken from j0."""
    k = len(cotree)
    low = min(k, _SIGNING_BITS)
    m = len(edges)
    cells = [u * n + v for u, v in edges] + [v * n + u for u, v in edges]
    base = np.zeros(n * n, dtype=np.int8)
    base[cells] = 1
    if k > low:
        base[[c for e in cotree[low:] for c in (cells[e], cells[m + e])]] = [
            1 - 2 * ((j0 >> t) & 1) for t in range(low, k) for _ in (0, 1)
        ]
    block = np.repeat(base[None], 1 << low, axis=0)
    free = [c for e in cotree[:low] for c in (cells[e], cells[m + e])]
    block[:, free] = _sign_table()[: 1 << low, : 2 * low]
    return block.reshape(-1, n, n)


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


# ---------------------------------------------------------------------------
# dense stream


@lru_cache(maxsize=None)
def _edge_table(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(combinations(range(n), 2))


def _mask_dtype(width: int):
    """The column dtype of neighbour bitmasks over `width` vertices."""
    return np.uint8 if width <= 8 else np.uint16


def _dense_chunk(n: int, lo: int, hi: int):
    """Connected cyclic graphs among edge masks [lo, hi): arrays of
    (mask, edge count, girth hint, neighbour bitmasks) with hint 0 for
    girth >= 5; bit w of nb[i, v] is set when w is a neighbour of v."""
    table = _edge_table(n)
    n_edges = len(table)
    masks = np.arange(lo, hi, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(n_edges, dtype=np.int64)) & 1).astype(
        np.uint8
    )
    m = bits.sum(axis=1, dtype=np.int64)
    nb = np.zeros((len(masks), n), dtype=np.uint8)
    for e, (u, v) in enumerate(table):
        nb[:, u] |= bits[:, e] << v
        nb[:, v] |= bits[:, e] << u
    keep = _connected_cyclic(n, m, nb)
    nb = nb[keep]
    return masks[keep], m[keep], _girth_hints(nb), nb


def _connected_cyclic(n, m: np.ndarray, nb: np.ndarray) -> np.ndarray:
    """Per row of neighbour bitmasks of a graph on n vertices (per row, or
    one for all) with m edges, zero-padded past n: whether the graph is
    connected and has a cycle.  Vertex 0 reaches the neighbours of what
    it reaches until no row grows."""
    cols = np.ascontiguousarray(nb.T)
    reach = np.ones(len(nb), dtype=nb.dtype)
    while True:
        before = reach.copy()
        for v, col in enumerate(cols):
            reach |= col * ((reach >> v) & 1)
        if (reach == before).all():
            return (m >= n) & (reach == (1 << np.asarray(n)) - 1)


def _girth_hints(nb: np.ndarray) -> np.ndarray:
    """Per row of neighbour bitmasks, zero-padded or not: 3 with a
    triangle, else 4 when two vertices have two common neighbours, else
    0."""
    cols = np.ascontiguousarray(nb.T)  # one contiguous array per vertex
    tri = np.zeros(len(nb), dtype=nb.dtype)
    sq = np.zeros(len(nb), dtype=nb.dtype)
    for u, col in enumerate(cols):
        for v in range(u + 1, len(cols)):
            common = col & cols[v]
            tri |= common * ((col >> v) & 1)  # common neighbours of an edge
            sq |= common & (common - 1)  # two bits or more
    return np.where(tri != 0, 3, np.where(sq != 0, 4, 0)).astype(np.int64)


def _mask_edges(n: int, mask: int) -> list[tuple[int, int]]:
    table = _edge_table(n)
    return [table[i] for i in range(len(table)) if (mask >> i) & 1]


def dense_graphs(n: int) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """All connected labeled graphs with a cycle on exactly n vertices,
    as (mask, edges), ascending by mask."""
    total = 1 << len(_edge_table(n))
    for lo in range(0, total, _DENSE_CHUNK_MASKS):
        masks, _, _, _ = _dense_chunk(n, lo, min(lo + _DENSE_CHUNK_MASKS, total))
        for mask in masks.tolist():
            yield mask, _mask_edges(n, mask)


# ---------------------------------------------------------------------------
# sparse stream: subdivided multigraph cores plus pendant trees

# connected multigraphs with minimum degree >= 3 by cyclomatic number;
# links are vertex pairs, (v, v) is a loop
_BASES: dict[int, list[tuple[str, int, tuple[tuple[int, int], ...]]]] = {
    1: [("loop", 1, ((0, 0),))],
    2: [
        ("two_loops", 1, ((0, 0), (0, 0))),
        ("triple_link", 2, ((0, 1), (0, 1), (0, 1))),
        ("dumbbell", 2, ((0, 0), (0, 1), (1, 1))),
    ],
    3: [
        ("three_loops", 1, ((0, 0), (0, 0), (0, 0))),
        ("quad_link", 2, ((0, 1), (0, 1), (0, 1), (0, 1))),
        ("triple_link_loop", 2, ((0, 1), (0, 1), (0, 1), (0, 0))),
        ("double_link_loop_each", 2, ((0, 1), (0, 1), (0, 0), (1, 1))),
        ("bridge_heavy_loops", 2, ((0, 1), (0, 0), (0, 0), (1, 1))),
        ("triangle_two_doubles", 3, ((0, 1), (0, 1), (0, 2), (0, 2), (1, 2))),
        ("triple_link_tail_loop", 3, ((0, 1), (0, 1), (0, 1), (0, 2), (2, 2))),
        ("doubled_triangle_loop", 3, ((0, 1), (0, 1), (0, 2), (1, 2), (2, 2))),
        ("two_tail_loops", 3, ((0, 2), (0, 2), (1, 2), (0, 0), (1, 1))),
        ("path_three_loops", 3, ((1, 0), (0, 2), (0, 0), (1, 1), (2, 2))),
        ("k4", 4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
        ("domino", 4, ((0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (0, 3))),
        (
            "doubled_triangle_tail_loop",
            4,
            ((0, 1), (0, 1), (0, 2), (1, 2), (2, 3), (3, 3)),
        ),
        (
            "double_link_two_tail_loops",
            4,
            ((0, 1), (0, 1), (0, 2), (1, 3), (2, 2), (3, 3)),
        ),
        ("spider_three_loops", 4, ((0, 1), (0, 2), (0, 3), (1, 1), (2, 2), (3, 3))),
    ],
}


def _subdivision_tuples(
    links: Sequence[tuple[int, int]], budget: int
) -> Iterator[tuple[int, ...]]:
    """Subdivision counts per link keeping the result simple: loops get at
    least 2 interior vertices, parallel links at most one direct edge."""

    def rec(i: int, left: int, acc: list[int]):
        if i == len(links):
            yield tuple(acc)
            return
        u, v = links[i]
        lo = 2 if u == v else 0
        for s in range(lo, left + 1):
            if s == 0:
                direct = any(
                    links[j] == links[i] and acc[j] == 0 for j in range(i)
                )
                if direct:
                    continue
            acc.append(s)
            yield from rec(i + 1, left - s, acc)
            acc.pop()

    yield from rec(0, budget, [])


def _subdivide(
    k: int, links: Sequence[tuple[int, int]], subdiv: Sequence[int]
) -> list[tuple[int, int]]:
    edges = []
    nxt = k
    for (u, v), s in zip(links, subdiv):
        chain = [u] + list(range(nxt, nxt + s)) + [v]
        nxt += s
        edges.extend((chain[i], chain[i + 1]) for i in range(len(chain) - 1))
    return edges


@lru_cache(maxsize=None)
def _rooted_trees(size: int) -> tuple[tuple, ...]:
    """Canonical rooted tree shapes (sorted child tuples) on `size` vertices."""
    if size == 1:
        return ((),)
    shapes = []

    def rec(left: int, bound: tuple[int, int], acc: list):
        if left == 0:
            shapes.append(tuple(acc))
            return
        max_size = min(left, bound[0])
        for s in range(max_size, 0, -1):
            trees = _rooted_trees(s)
            start = bound[1] if s == bound[0] else len(trees) - 1
            for idx in range(start, -1, -1):
                acc.append(trees[idx])
                rec(left - s, (s, idx), acc)
                acc.pop()

    rec(size - 1, (size - 1, len(_rooted_trees(size - 1)) - 1), [])
    return tuple(shapes)


def _attach_tree(edges: list[tuple[int, int]], root: int, shape: tuple, nxt: int) -> int:
    for child in shape:
        edges.append((root, nxt))
        child_root = nxt
        nxt += 1
        nxt = _attach_tree(edges, child_root, child, nxt)
    return nxt


def _tree_assignments(k: int, budget: int) -> Iterator[tuple[tuple, ...]]:
    """All k-tuples of rooted tree shapes with total extra vertices <= budget."""

    def rec(i: int, left: int, acc: list):
        if i == k:
            yield tuple(acc)
            return
        for extra in range(left + 1):
            for shape in _rooted_trees(extra + 1):
                acc.append(shape)
                yield from rec(i + 1, left - extra, acc)
                acc.pop()

    yield from rec(0, budget, [])


class _Hanging:
    """Rooted trees of the given shapes hung on vertices 0, 1, ... of a
    core of order `core_n`, with the hung vertices numbered from core_n in
    preorder, root by root: `extra` hung vertices and the edges to them."""

    __slots__ = ("extra", "edges")

    def __init__(self, core_n: int, shapes: tuple[tuple, ...]):
        edges: list[tuple[int, int]] = []
        nxt = core_n
        for root, shape in enumerate(shapes):
            nxt = _attach_tree(edges, root, shape, nxt)
        self.extra = nxt - core_n
        self.edges = tuple(edges)


@lru_cache(maxsize=None)
def _hangings(core_n: int, budget: int) -> tuple[_Hanging, ...]:
    """Every way to hang trees with at most `budget` vertices in all on a
    core of order core_n, in stream order.  They depend on the core only
    through its order."""
    return tuple(_Hanging(core_n, shapes) for shapes in _tree_assignments(core_n, budget))


class _Core:
    """One subdivided core of the sparse stream: its order, sorted edges,
    girth, neighbour bitmasks over max_n columns and hangings.  Hung
    trees add no cycle, so every graph hung from the core has its
    girth."""

    __slots__ = ("n", "edges", "girth", "nb", "hangings")

    def __init__(self, n: int, edges: list[tuple[int, int]], max_n: int):
        self.n = n
        self.edges = tuple(sorted(edges))
        self.girth = girth_of_adjacency(_adjacency(n, self.edges))
        self.nb = _neighbour_masks(max_n, self.edges)
        self.hangings = _hangings(n, max_n - n)


@lru_cache(maxsize=4)
def _core_table(max_n: int, max_cyclomatic: int) -> tuple[_Core, ...]:
    return tuple(
        _Core(k + sum(subdiv), _subdivide(k, links, subdiv), max_n)
        for c in range(1, max_cyclomatic + 1)
        for _, k, links in _BASES[c]
        for subdiv in _subdivision_tuples(links, max_n - k)
    )


def _sparse_length(max_n: int, max_cyclomatic: int) -> int:
    return sum(len(core.hangings) for core in _core_table(max_n, max_cyclomatic))


def _sparse_pieces(
    max_n: int, max_cyclomatic: int, lo: int = 0, hi: int | None = None
) -> Iterator[tuple[_Core, int, int]]:
    """(core, a, b) for each core whose hangings core.hangings[a:b] are at
    stream positions [lo, hi), skipping whole cores before lo by their
    hanging counts."""
    start = 0
    for core in _core_table(max_n, max_cyclomatic):
        if hi is not None and start >= hi:
            return
        count = len(core.hangings)
        if start + count > lo:
            yield core, max(lo - start, 0), count if hi is None else min(count, hi - start)
        start += count


@lru_cache(maxsize=4)
def _hanging_rows(max_n: int, max_cyclomatic: int):
    """The hangings of each core order of `_core_table(max_n,
    max_cyclomatic)`, one row each, order by order: the first row of each
    order, and per row the hung vertex count and the neighbour bitmasks
    of the hanging's edges alone, over max_n columns."""
    first, extra, nb = {}, [], []
    for n in sorted({core.n for core in _core_table(max_n, max_cyclomatic)}):
        first[n] = len(extra)
        for hang in _hangings(n, max_n - n):
            extra.append(hang.extra)
            nb.append(_neighbour_masks(max_n, hang.edges))
    return first, np.array(extra, dtype=np.int64), np.array(nb, dtype=_mask_dtype(max_n))


def _sparse_chunk(max_n: int, max_cyclomatic: int, lo: int, hi: int):
    """The graphs at sparse stream positions [lo, hi), one row each, as
    `add_batch` takes them: (orders, keys, edge counts, girths, neighbour
    bitmasks over max_n columns, edges_of).  A row ORs its core's masks
    into its hanging's, and its girth is its core's."""
    first, extra, hanging_nb = _hanging_rows(max_n, max_cyclomatic)
    cores, counts, rows = [], [], []
    for core, a, b in _sparse_pieces(max_n, max_cyclomatic, lo, hi):
        cores.append(core)
        counts.append(b - a)
        rows.extend(range(first[core.n] + a, first[core.n] + b))
    which = np.repeat(np.arange(len(cores)), counts)  # each row's core

    def per_row(values, dtype=np.int64):
        return np.array(values, dtype=dtype)[which]

    hung = extra[rows]
    order = per_row([core.n for core in cores]) + hung
    m = per_row([len(core.edges) for core in cores]) + hung
    girth = per_row([core.girth for core in cores])
    nb = hanging_nb[rows] | per_row([core.nb for core in cores], hanging_nb.dtype)

    def edges_of(key: int) -> list[tuple[int, int]]:
        i = key - lo
        core = cores[which[i]]
        return sorted(core.edges + core.hangings[rows[i] - first[core.n]].edges)

    return order, np.arange(lo, lo + len(rows)), m, girth, nb, edges_of


def sparse_graphs(
    max_n: int, max_cyclomatic: int
) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """Connected graphs with a cycle, cyclomatic number <= max_cyclomatic
    and at most max_n vertices: every isomorphism class at least once
    (labeled duplicates possible).  Yields (n, sorted edge list), each
    built from its core's row in `_core_table` and a hanging that
    `_hangings` caches per core order, so no list of the stream is held."""
    for core in _core_table(max_n, max_cyclomatic):
        for hang in core.hangings:
            yield core.n + hang.extra, sorted(core.edges + hang.edges)


# ---------------------------------------------------------------------------
# graph6 input


class Graph6Error(ValueError):
    """Malformed graph6 data; `record` is the failing record's index and
    `path` the file's, when it came from one."""

    def __init__(self, message: str, record: int, path: str | None = None):
        where = f"{path}: " if path is not None else ""
        super().__init__(f"{where}graph6 record {record}: {message}")
        self.message = message
        self.record = record
        self.path = path

    def __reduce__(self):
        return type(self), (self.message, self.record, self.path)


def parse_graph6(text: str) -> list[tuple[int, list[tuple[int, int]]]]:
    """Decode graph6 records, one per line (ended by LF, CRLF or CR).  The
    optional '>>graph6<<' header and blank lines are skipped.  A file is
    read as latin-1 (`_plan_chunks`), so each of its bytes is one
    character, and a byte outside the graph6 range is reported with its
    record."""
    out = []
    index = 0
    for raw in text.replace("\r\n", "\n").replace("\r", "\n").split("\n"):
        line = raw.strip(" \t\v\f")
        if not line:
            continue
        if line.startswith(">>graph6<<"):
            line = line[len(">>graph6<<"):]
            if not line:
                continue
        out.append(_decode_graph6_record(line, index))
        index += 1
    return out


def _decode_graph6_record(line: str, record: int) -> tuple[int, list[tuple[int, int]]]:
    data = [ord(ch) - 63 for ch in line]
    if any(x < 0 or x > 63 for x in data):
        raise Graph6Error("byte outside the printable graph6 range", record)
    if not data:
        raise Graph6Error("empty record", record)
    if data[0] < 63:
        n = data[0]
        body = data[1:]
    else:
        if len(data) >= 4 and data[1] < 63:
            n = (data[1] << 12) | (data[2] << 6) | data[3]
            body = data[4:]
        elif len(data) >= 8:
            n = 0
            for x in data[2:8]:
                n = (n << 6) | x
            body = data[8:]
        else:
            raise Graph6Error("truncated vertex count", record)
    if n > _MAX_ORDER:
        raise Graph6Error(
            f"order {n} exceeds the exact batch kernel limit of {_MAX_ORDER}",
            record,
        )
    pairs = n * (n - 1) // 2
    need = (pairs + 5) // 6
    if len(body) != need:
        raise Graph6Error(
            f"expected {need} data characters for order {n}, got {len(body)}",
            record,
        )
    word = 0  # the body's bits, the first one highest
    for x in body:
        word = (word << 6) | x
    padding = 6 * need - pairs
    if word & ((1 << padding) - 1):
        raise Graph6Error("nonzero padding bits", record)
    word >>= padding
    # bit p of word is the vertex pair at position pairs - 1 - p in graph6's
    # column order; walk the set bits upwards, then turn the list round
    table = _graph6_pairs(n)
    edges = []
    while word:
        low = word & -word
        edges.append(table[low.bit_length() - 1])
        word ^= low
    edges.reverse()
    return n, edges


@lru_cache(maxsize=None)
def _graph6_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The vertex pairs (u, v), u < v, in graph6's column order (by v,
    then u), last first."""
    return tuple((u, v) for v in range(1, n) for u in range(v))[::-1]


def _graph6_chunk(lo: int, records: list[tuple[int, list[tuple[int, int]]]]):
    """The connected records with a cycle of a graph6 chunk that starts
    at record `lo`, one row each, in record order: (orders, keys, edge
    counts, neighbour bitmasks zero-padded to the chunk's widest order),
    and how many records were skipped."""
    width = max(n for n, _ in records)
    order = np.array([n for n, _ in records], dtype=np.int64)
    m = np.array([len(edges) for _, edges in records], dtype=np.int64)
    nb = np.array([_neighbour_masks(width, edges) for _, edges in records],
                  dtype=_mask_dtype(width)).reshape(len(records), width)
    keep = _connected_cyclic(order, m, nb)
    keys = np.arange(lo, lo + len(records))
    return order[keep], keys[keep], m[keep], nb[keep], len(records) - int(keep.sum())


# ---------------------------------------------------------------------------
# per-chunk engine


class _GraphMeta:
    __slots__ = (
        "source",
        "key",
        "n",
        "edges",
        "m",
        "girth",
        "cotree",
        "accepted",
    )

    def __init__(self, source, key, n, edges, girth, cotree, accepted):
        self.source = source
        self.key = key
        self.n = n
        self.edges = edges
        self.m = len(edges)
        self.girth = girth
        self.cotree = cotree
        self.accepted = accepted  # (classify_gminus2, classify_equals_g) patterns


def _adjacency(n: int, edges: Sequence[tuple[int, int]]) -> list[list[int]]:
    """Neighbours of each vertex, in the order of `edges`."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _connected(n: int, edges: Sequence[tuple[int, int]]) -> bool:
    return len(connected_components(_adjacency(n, edges))) == 1


def _neighbour_masks(n: int, edges: Sequence[tuple[int, int]]) -> list[int]:
    """Bit w of entry v is set when w is a neighbour of v."""
    nb = [0] * n
    for u, v in edges:
        nb[u] |= 1 << v
        nb[v] |= 1 << u
    return nb


class _SetBits(dict):
    """The set bits of each neighbour bitmask looked up, ascending: its
    adjacency list, computed at first use."""

    def __missing__(self, mask: int) -> tuple[int, ...]:
        bits = []
        rest = mask
        while rest:
            low = rest & -rest
            bits.append(low.bit_length() - 1)
            rest ^= low
        self[mask] = bits = tuple(bits)
        return bits


def _matching_pairs(
    adj: Sequence[Sequence[int]],
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The p iterated pendant pairs and the k matched pairs of a graph, as
    two lists of (x, y).  A pendant pair is a vertex x of degree 1 in what
    is left, then its neighbour y; the matched pairs are the edges of a
    greedy maximal induced matching of the remainder, visiting vertices
    and their neighbours lowest remaining degree first.  Deleting a
    pendant pair lowers the rank by exactly 2 (the pendant lemma), and the
    matched pairs induce kK2, of rank 2k on every signing, as a principal
    submatrix of what is left.  So every signing has rank >= 2(p + k)."""
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


def _instance_graph(meta: _GraphMeta, signing: int) -> SignedGraph:
    return _cotree_signing(meta.n, meta.edges, meta.cotree, signing)


class _Segment:
    """`count` signings of one graph from signing j0 on; `start` is the
    chunk-local stream position of signing j0."""

    __slots__ = ("meta", "j0", "count", "start")

    def __init__(self, meta, j0, count, start):
        self.meta = meta
        self.j0 = j0
        self.count = count
        self.start = start


def _holds_sample(start, count, stride):
    """Whether stream positions start .. start + count - 1 hold a multiple
    of `stride` (never for stride 0); element by element on arrays."""
    return (-start) % stride < count if stride else count < 0


def _samples(segments: list[_Segment], starts, stride: int):
    """(buffer position, segment, signing) of each buffered instance whose
    stream position is a multiple of `stride`."""
    for seg, at in zip(segments, starts):
        for off in range((-seg.start) % stride, seg.count, stride):
            yield at + off, seg, seg.j0 + off


def _locate(segments: list[_Segment], starts, pos: int) -> tuple[_Segment, int]:
    """The segment holding buffer position `pos`, and its signing index."""
    i = int(np.searchsorted(starts, pos, side="right")) - 1
    seg = segments[i]
    return seg, seg.j0 + (pos - int(starts[i]))


def _accepted_instances(segments: list[_Segment], starts, total: int):
    """Per buffered instance, whether its co-tree pattern is accepted by
    `classify_gminus2` and by `classify_equals_g` other than as (f)."""
    accepted = np.zeros((2, total), dtype=bool)
    for seg, start in zip(segments, starts.tolist()):
        for row, patterns in enumerate(seg.meta.accepted):
            for p in patterns:
                if seg.j0 <= p < seg.j0 + seg.count:
                    accepted[row, start + p - seg.j0] = True
    return accepted


def _edges_compact(g: SignedGraph) -> str:
    return ",".join(
        f"{u}-{v}:{'+' if s > 0 else '-'}" for u, v, s in g.edges
    )


class _ChunkResult:
    def __init__(self):
        self.graphs = 0
        self.instances = 0
        self.checked: dict[str, int] = {}
        self.failures: dict[str, int] = {}
        self.counterexamples: list[dict] = []
        self.skipped_graph6_records = 0
        self.decided_instances = 0
        self.decided_by_witness = 0
        self.histogram: dict[tuple[int, int, int], int] = {}
        self.stages = dict.fromkeys(STAGES, 0.0)


class _Engine:
    def __init__(self, config: SweepConfig):
        self.config = config
        self.sel = set(config.checks)
        # the instance checks read full ranks; every other check only
        # needs min(rank, girth + 1)
        self.capped = not any(CHECKS[name].kind == "instance" for name in self.sel)
        # the checks that count every instance, decided at intake or not
        self.per_instance = [
            name
            for name in self.sel
            if CHECKS[name].kind == "vector" and name != "girth_four_consequences"
        ]
        self.result = _ChunkResult()
        # graphs decided at intake, summed by (order, girth) as [graphs,
        # instances] until `finish`
        self.decided: dict[tuple[int, int], list[int]] = {}
        # the finest selected spot-check stride, 0 for none: a graph holds
        # a sample of either stride exactly when it holds one of this
        self.stride = (
            _SPOT_RANK_STRIDE if "spot_check_exact_rank" in self.sel
            else _SPOT_CLASSIFY_STRIDE if "spot_check_classifier" in self.sel
            else 0
        )
        # keyed by (order, girth)
        self.buffers: dict[tuple[int, int], list] = {}
        self.segments: dict[tuple[int, int], list[_Segment]] = {}
        self.buffered: dict[tuple[int, int], int] = {}
        self.total_buffered = 0
        # the chunk-local stream position of the next graph's first
        # instance: the spot strides sample by it
        self.position = 0
        # exact rank of each twin-reduced girth-4 rank-4 matrix met so
        # far, keyed by its bytes
        self.reduced_ranks: dict[bytes, int] = {}
        self.set_bits = _SetBits()

    # -- accounting helpers

    def _count(self, name: str, amount: int = 1) -> None:
        self.result.checked[name] = self.result.checked.get(name, 0) + amount

    def _tally(self, n: int, girth: int, capped_rank: int, amount: int) -> None:
        hist = self.result.histogram
        key = (n, girth, capped_rank)
        hist[key] = hist.get(key, 0) + amount

    def _fail(self, name: str, meta: _GraphMeta, signing: int, rank_value, detail="") -> None:
        res = self.result
        res.failures[name] = res.failures.get(name, 0) + 1
        if len(res.counterexamples) >= self.config.max_counterexamples:
            return
        g = _instance_graph(meta, signing)
        # a capped sweep only knows that this rank is at least girth + 1
        rank_capped = self.capped and rank_value > meta.girth
        if rank_capped:
            rank_value = exact_rank(adjacency_matrix(g)).rank
        comment = f"{name} n={meta.n} girth={meta.girth} rank={rank_value}"
        if detail:
            comment += f" ({detail})"
        res.counterexamples.append(
            {
                "check": name,
                "source": f"{meta.source}:{meta.key}",
                "n": meta.n,
                "m": meta.m,
                "girth": meta.girth,
                "rank": int(rank_value),
                "rank_capped": rank_capped,
                "signing_index": signing,
                "edges": _edges_compact(g),
                "sgr": write_sgr(g, comments=(comment,)),
            }
        )

    # -- graph intake

    def add_batch(self, source: str, order: np.ndarray, keys: np.ndarray,
                  m: np.ndarray, hints: np.ndarray, nb: np.ndarray, edges_of) -> None:
        """Intake of one chunk of connected graphs with a cycle, one row
        each, in stream order: orders, keys, edge counts, girth hints
        (the girth, or 3, 4 and 0 as `_girth_hints` gives them) and
        neighbour bitmasks zero-padded to a common width, and
        edges_of(key) the graph's edge list.  A row has a witness when its
        hint is 3 and it does not have 3 parts (`multipartite_parts`,
        which `case_shapes` reads too).  Rows with a witness, no case
        shape and no spot sample are only counted, in numpy; the other
        rows take the per-graph path, with their adjacency lists read off
        the bitmasks and the girth searched for where the hint is 0."""
        counts = np.left_shift(1, m - order + 1)
        starts = self.position + np.cumsum(counts) - counts
        self.position += int(counts.sum())
        parts = multipartite_parts(order, nb)
        witness = (hints == 3) & (parts != 3) & self.capped
        shape = case_shapes(order, m, nb, hints, parts)
        bulk = witness & ~shape & ~_holds_sample(starts, counts, self.stride)
        for n in np.flatnonzero(np.bincount(order[bulk])).tolist():
            rows = bulk & (order == n)
            self._sum_decided(n, 3, int(rows.sum()), int(counts[rows].sum()))
        rest = np.flatnonzero(~bulk)
        bits = self.set_bits
        for n, row, key, found, hint, fits, start in zip(
            order[rest].tolist(), nb[rest].tolist(), keys[rest].tolist(),
            witness[rest].tolist(), hints[rest].tolist(), shape[rest].tolist(),
            starts[rest].tolist(),
        ):
            adj = [bits[b] for b in row[:n]]
            if found:
                self._decide(source, key, n, edges_of(key), adj, 3, fits, start)
            else:
                girth = hint or girth_of_adjacency(adj)
                self._match_or_rank(source, key, n, edges_of(key), adj, girth, fits, start)

    def _match_or_rank(self, source, key, n, edges, adj, girth, shape, start):
        """Decide a graph of girth >= 4 by its pendant pairs and induced
        matching, or buffer its signing blocks.  A capped sweep sends a
        graph of girth 3 here only when it has no witness, so when it is
        complete tripartite.  Its minimum degree is at least 2 and it has
        no induced 2K2, so the matching gives p = 0 and k = 1, and could
        not decide it."""
        if self.capped and girth > 3:
            pendant, matched = _matching_pairs(adj)
            if 2 * (len(pendant) + len(matched)) > girth:
                self._decide(source, key, n, edges, adj, girth, shape, start)
                return
        cotree = _spanning_cotree(n, edges)
        accepted = (
            accepted_cotree_patterns(adj, lambda: [edges[i] for i in cotree])
            if shape else _NO_PATTERNS
        )
        meta = _GraphMeta(source, key, n, edges, girth, cotree, accepted)
        total = 1 << len(cotree)
        self.result.graphs += 1
        self.result.instances += total
        for j0 in range(0, total, _SIGNING_BLOCK):
            self._append_block(
                (n, girth), meta, j0, _signing_block(n, edges, cotree, j0), start + j0
            )

    def _decide(self, source, key, n, edges, adj, girth, shape, start):
        """Check all signings of a graph without ranking any, when each of
        them has rank >= girth + 1, so min(rank, girth + 1) is girth + 1.
        At girth 3 the graph has a witness: it is not complete tripartite,
        so it induces the paw or K4, every signing of which has rank 4, and
        a principal submatrix never has larger rank than the matrix.  At
        girth >= 4, 2(p + k) >= girth + 1 for the p pendant pairs and k
        matched pairs of `_matching_pairs`, which give every signing rank
        >= 2(p + k).

        The graph's counts go into running sums by (order, girth), folded
        into the result by `finish`.  When a case shape may fit it
        (`shape`), the case table runs, and no pattern may be accepted at
        rank girth + 1; it asks for the co-tree only in cases (c), (g) and
        (h).  Only a graph with an accepted pattern, or one holding an
        instance that a spot-check stride samples, builds its spanning
        tree and record.  `start` is the graph's stream position."""
        total = 1 << (len(edges) - n + 1)
        self._sum_decided(n, girth, 1, total)
        accepted = (
            accepted_cotree_patterns(
                adj, lambda: [edges[i] for i in _spanning_cotree(n, edges)]
            )
            if shape else _NO_PATTERNS
        )
        if accepted[0] or accepted[1] or _holds_sample(start, total, self.stride):
            cotree = _spanning_cotree(n, edges)
            meta = _GraphMeta(source, key, n, edges, girth, cotree, accepted)
            for name, patterns in zip(_IFF_CHECKS, accepted):
                if name in self.sel:
                    for signing in sorted(patterns):
                        self._fail(name, meta, signing, girth + 1, "classifier=hit")
            clock = time.perf_counter()
            self._spot_checks([_Segment(meta, 0, total, start)], (0, total), None)
            _lap(self.result.stages, "spot_checks", clock)

    def _sum_decided(self, n, girth, graphs, instances):
        sums = self.decided.setdefault((n, girth), [0, 0])
        sums[0] += graphs
        sums[1] += instances

    def _append_block(
        self, key: tuple[int, int], meta: _GraphMeta, j0: int, block: np.ndarray,
        start: int,
    ) -> None:
        """Buffer the signings j0 .. of `meta`'s graph, the first of them
        at stream position `start`."""
        count = len(block)
        # one cap on all keys together bounds the memory the buffers hold:
        # flush before this block would fill it, so no batch exceeds it
        while self.buffered and self.total_buffered + count >= _BUFFER_INSTANCES:
            self._flush(max(self.buffered, key=self.buffered.__getitem__))
        self.buffers.setdefault(key, []).append(block)
        self.segments.setdefault(key, []).append(_Segment(meta, j0, count, start))
        self.buffered[key] = self.buffered.get(key, 0) + count
        self.total_buffered += count

    def finish(self) -> _ChunkResult:
        for key in sorted(self.buffers):
            self._flush(key)
        res = self.result
        for (n, girth), (graphs, instances) in self.decided.items():
            res.graphs += graphs
            res.instances += instances
            res.decided_instances += instances
            if girth == 3:  # only a witness decides at girth 3
                res.decided_by_witness += instances
            self._tally(n, girth, girth + 1, instances)
            for name in self.per_instance:
                self._count(name, instances)
        self.decided.clear()
        return res

    # -- the checks

    def _flush(self, key: tuple[int, int]) -> None:
        n, girth = key
        stages = self.result.stages
        clock = time.perf_counter()
        blocks = self.buffers.pop(key)
        segments = self.segments.pop(key)
        self.total_buffered -= self.buffered.pop(key)
        stack = np.concatenate(blocks, axis=0) if len(blocks) > 1 else blocks[0]
        ranks = capped_ranks(stack, girth + 1 if self.capped else n)
        clock = _lap(stages, "kernel", clock)
        counts = np.array([seg.count for seg in segments], dtype=np.int64)
        starts = np.concatenate(([0], np.cumsum(counts)))
        total = int(starts[-1])
        bins = np.bincount(np.minimum(ranks, girth + 1))
        for r in np.nonzero(bins)[0].tolist():
            self._tally(n, girth, r, int(bins[r]))
        sel = self.sel

        def report(name, pos, detail=""):
            seg, signing = _locate(segments, starts, pos)
            self._fail(name, seg.meta, signing, int(ranks[pos]), detail)

        if "rank_ge_girth_minus_2" in sel:
            self._count("rank_ge_girth_minus_2", total)
            for pos in np.nonzero(ranks < girth - 2)[0].tolist():
                report("rank_ge_girth_minus_2", pos)
        if "rank_ne_girth_minus_1" in sel:
            self._count("rank_ne_girth_minus_1", total)
            for pos in np.nonzero(ranks == girth - 1)[0].tolist():
                report("rank_ne_girth_minus_1", pos)
        if "rank_ge_girth_minus_1" in sel:
            self._count("rank_ge_girth_minus_1", total)
            for pos in np.nonzero(ranks < girth - 1)[0].tolist():
                report("rank_ge_girth_minus_1", pos, "expected self-test failure")

        check_gm2, check_eqg = (name in sel for name in _IFF_CHECKS)
        if check_gm2 or check_eqg:
            in_gm2, in_eqg = _accepted_instances(segments, starts, total)
        if check_gm2:
            self._count("girth_minus_2_iff_classified", total)
            bad = (ranks == girth - 2) != in_gm2
            for pos in np.nonzero(bad)[0].tolist():
                report(
                    "girth_minus_2_iff_classified",
                    pos,
                    f"classifier={'hit' if in_gm2[pos] else 'miss'}",
                )
        if check_eqg:
            self._count("equals_girth_iff_classified", total)
            # case (f) accepts every girth-4 rank-4 instance on its rank
            hit = in_eqg | ((ranks == 4) & (girth == 4))
            for pos in np.nonzero((ranks == girth) != hit)[0].tolist():
                report(
                    "equals_girth_iff_classified",
                    pos,
                    f"classifier={'hit' if hit[pos] else 'miss'}",
                )

        clock = _lap(stages, "vector_checks", clock)
        # the instances case (f) accepted on their rank alone, checked on
        # the matrices just ranked
        if "girth_four_consequences" in sel:
            self._girth_four_consequences(stack, ranks, girth, segments, starts, report)
        clock = _lap(stages, "girth_four_consequences", clock)
        self._spot_checks(segments, starts.tolist(), ranks)
        clock = _lap(stages, "spot_checks", clock)
        self._instance_checks(segments, starts, ranks, total)
        _lap(stages, "instance_checks", clock)

    def _girth_four_consequences(self, stack, ranks, girth, segments, starts, report):
        """Check each girth-4 rank-4 instance of a flush: its underlying
        graph is bipartite, tested once per graph, and its twin-reduced
        graph has rank 4.  The hits' matrices are twin-reduced together
        (`reduced_vertices`), and each distinct reduced matrix is ranked
        once per engine by `exact.rank`, apart from the kernel.  Failures
        are reported in ascending buffer position."""
        hits = np.flatnonzero(ranks == 4) if girth == 4 else ()
        self._count("girth_four_consequences", len(hits))
        if not len(hits):
            return
        metas = [segments[i].meta for i in
                 (np.searchsorted(starts, hits, side="right") - 1).tolist()]
        bipartite: dict[_GraphMeta, bool] = {}
        for meta in metas:
            if meta not in bipartite:
                bipartite[meta] = bipartition(_adjacency(meta.n, meta.edges)) is not None
        mats = stack[hits]
        keep = reduced_vertices(mats)
        order = keep.sum(axis=1)
        # kept vertices first, in their order: the reduced matrix of a hit
        # is the leading order x order block
        perm = np.argsort(~keep, axis=1, kind="stable")
        mats = np.take_along_axis(mats, perm[:, :, None], axis=1)
        mats = np.take_along_axis(mats, perm[:, None, :], axis=2)
        reduced_rank = np.empty(len(hits), dtype=np.int64)
        cache = self.reduced_ranks
        for k in np.flatnonzero(np.bincount(order)).tolist():
            rows = np.flatnonzero(order == k)
            blocks = np.ascontiguousarray(mats[rows, :k, :k])
            for row, block in zip(rows.tolist(), blocks):
                key = block.tobytes()  # k * k bytes: the order is implied
                if key not in cache:
                    cache[key] = exact_rank(block.tolist()).rank
                reduced_rank[row] = cache[key]
        for pos, meta, r_red in zip(hits.tolist(), metas, reduced_rank.tolist()):
            if not bipartite[meta]:
                report("girth_four_consequences", pos, "underlying graph not bipartite")
            elif r_red != 4:
                report("girth_four_consequences", pos, f"twin-reduced rank {r_red} != 4")

    def _spot_checks(self, segments, starts, ranks):
        """Sampled instances through the slow paths: those whose stream
        position is a multiple of the check's stride.  ranks None means
        every instance is at the cap girth + 1 (a graph decided at
        intake)."""

        def rank_at(pos, meta):
            return meta.girth + 1 if ranks is None else int(ranks[pos])

        if "spot_check_exact_rank" in self.sel:
            for pos, seg, signing in _samples(segments, starts, _SPOT_RANK_STRIDE):
                self._count("spot_check_exact_rank")
                g = _instance_graph(seg.meta, signing)
                r = exact_rank(adjacency_matrix(g)).rank
                if self.capped:
                    r = min(r, seg.meta.girth + 1)
                rank_value = rank_at(pos, seg.meta)
                if r != rank_value:
                    self._fail(
                        "spot_check_exact_rank",
                        seg.meta,
                        signing,
                        rank_value,
                        f"fraction-free rank {r}",
                    )
        if "spot_check_classifier" in self.sel:
            for pos, seg, signing in _samples(segments, starts, _SPOT_CLASSIFY_STRIDE):
                self._count("spot_check_classifier")
                meta = seg.meta
                g = _instance_graph(meta, signing)
                rank_value = rank_at(pos, meta)
                gm2 = classify_gminus2(g) is not None
                eqg = classify_equals_g(g, rank=rank_value) is not None
                ok = (gm2 == (rank_value == meta.girth - 2)) and (
                    eqg == (rank_value == meta.girth)
                )
                if not ok:
                    self._fail(
                        "spot_check_classifier",
                        meta,
                        signing,
                        rank_value,
                        f"gm2={gm2} eqg={eqg}",
                    )

    def _instance_checks(self, segments, starts, ranks, total):
        names = [
            name
            for name in self.sel
            if CHECKS[name].kind == "instance"
        ]
        if not names:
            return
        for i, seg in enumerate(segments):
            meta = seg.meta
            base = int(starts[i])
            for off in range(seg.count):
                signing = seg.j0 + off
                rank_value = int(ranks[base + off])
                g = _instance_graph(meta, signing)
                rng = random.Random((meta.key * 1000003 + signing) & 0xFFFFFFFF)
                for name in names:
                    applicable, ok, detail = _run_instance_check(
                        name, g, meta, rank_value, rng
                    )
                    if applicable:
                        self._count(name)
                        if not ok:
                            self._fail(name, meta, signing, rank_value, detail)


def _lap(stages: dict[str, float], name: str, since: float) -> float:
    """Add the time since `since` to stage `name`; return the clock."""
    now = time.perf_counter()
    stages[name] += now - since
    return now


def _run_instance_check(name, g, meta, rank_value, rng):
    if name == "pendant_identity":
        deg = g.degrees()
        pend = next((v for v in range(g.n) if deg[v] == 1), None)
        if pend is None:
            return False, True, ""
        nb = g.neighbors()[pend][0]
        keep = [v for v in range(g.n) if v not in (pend, nb)]
        if not keep:
            return False, True, ""
        sub = induced_subgraph(g, keep)
        r_sub = exact_rank(adjacency_matrix(sub)).rank
        ok = rank_value == r_sub + 2
        return True, ok, f"sub rank {r_sub}"
    if name == "vertex_deletion_bounds":
        v = rng.randrange(g.n)
        keep = [u for u in range(g.n) if u != v]
        sub = induced_subgraph(g, keep)
        r_sub = exact_rank(adjacency_matrix(sub)).rank
        ok = r_sub <= rank_value <= r_sub + 2
        return True, ok, f"deleted {v}, sub rank {r_sub}"
    if name == "nullity_cyclomatic_bound":
        deg = g.degrees()
        if all(d == 2 for d in deg):
            return False, True, ""
        pend = sum(1 for d in deg if d == 1)
        c = g.m - g.n + 1
        ok = g.n - rank_value <= pend + 2 * c - 1
        return True, ok, f"nullity {g.n - rank_value} bound {pend + 2 * c - 1}"
    if name == "outside_vertex_girth":
        witness = set(shortest_cycle(g).vertices)
        nb = g.neighbors()
        crowded = [
            v
            for v in range(g.n)
            if v not in witness and sum(1 for u in nb[v] if u in witness) >= 2
        ]
        if not crowded:
            return False, True, ""
        return True, meta.girth <= 4, f"vertex {crowded[0]} sees the cycle twice"
    if name == "switching_invariance":
        subset = [v for v in range(g.n) if rng.random() < 0.5]
        r = exact_rank(adjacency_matrix(switch(g, subset))).rank
        return True, r == rank_value, f"switched rank {r}"
    if name == "twin_deletion_rank":
        if not find_twins(g):
            return False, True, ""
        r = exact_rank(adjacency_matrix(reduced_graph(g))).rank
        return True, r == rank_value, f"reduced rank {r}"
    raise AssertionError(f"unhandled instance check {name}")


# ---------------------------------------------------------------------------
# chunking and the driver


def _plan_chunks(config: SweepConfig) -> list[tuple]:
    chunks: list[tuple] = []
    for n in range(3, config.max_n_dense + 1):
        total = 1 << len(_edge_table(n))
        for lo in range(0, total, _DENSE_CHUNK_MASKS):
            chunks.append(("dense", n, lo, min(lo + _DENSE_CHUNK_MASKS, total)))
    if config.max_n_sparse >= 3:
        stream_len = _sparse_length(config.max_n_sparse, config.max_cyclomatic)
        for lo in range(0, stream_len, _SPARSE_CHUNK_GRAPHS):
            chunks.append(("sparse", lo, min(lo + _SPARSE_CHUNK_GRAPHS, stream_len)))
    for pi, path in enumerate(config.graph6_paths):
        with open(path, encoding="latin-1") as fh:
            text = fh.read()
        try:
            records = parse_graph6(text)
        except Graph6Error as exc:
            raise Graph6Error(exc.message, exc.record, path) from None
        # checked here, in the main process, before any chunk runs.
        # Disconnected records are skipped later.
        for key, (n, edges) in enumerate(records):
            bits = len(edges) - n + 1
            if bits > _MAX_COTREE_BITS and _connected(n, edges):
                raise Graph6Error(
                    f"{bits} co-tree edges ({len(edges)} edges on {n} "
                    f"vertices) exceed the limit of {_MAX_COTREE_BITS}",
                    key,
                    path,
                )
        for lo in range(0, len(records), _GRAPH6_CHUNK_RECORDS):
            chunks.append(
                ("graph6", pi, lo, records[lo:lo + _GRAPH6_CHUNK_RECORDS])
            )
    return chunks


def _run_chunk(config: SweepConfig, desc: tuple) -> _ChunkResult:
    clock = time.perf_counter()
    engine = _Engine(config)
    source = desc[0]
    if source == "dense":
        _, n, lo, hi = desc
        keys, m, hints, nb = _dense_chunk(n, lo, hi)
        order = np.full(len(keys), n)
        # the edge table's own pairs: the buffered records share them
        edges_of = lambda mask: _mask_edges(n, mask)
    elif source == "sparse":
        _, lo, hi = desc
        order, keys, m, hints, nb, edges_of = _sparse_chunk(
            config.max_n_sparse, config.max_cyclomatic, lo, hi
        )
    else:
        _, pi, lo, records = desc
        source = f"graph6[{pi}]"
        order, keys, m, nb, skipped = _graph6_chunk(lo, records)
        engine.result.skipped_graph6_records += skipped
        hints = _girth_hints(nb)
        edges_of = lambda key: records[key - lo][1]
    engine.add_batch(source, order, keys, m, hints, nb, edges_of)
    res = engine.finish()
    res.stages["intake"] += time.perf_counter() - clock - sum(res.stages.values())
    return res


def _run_chunk_star(args):
    return _run_chunk(*args)


def run(config: SweepConfig) -> SweepReport:
    """Run the configured sweep and aggregate a deterministic report
    (identical for any `jobs` value, up to elapsed time)."""
    config.validate()
    start = time.monotonic()
    clock = time.perf_counter()
    chunks = _plan_chunks(config)
    report = SweepReport(config=config)
    _lap(report.stages, "plan", clock)
    if config.jobs == 1 or len(chunks) <= 1:
        results = (_run_chunk(config, desc) for desc in chunks)
        for res in results:
            _merge(report, res)
    else:
        ctx = get_context("fork")
        with ctx.Pool(min(config.jobs, len(chunks))) as pool:
            for res in pool.imap(
                _run_chunk_star, [(config, d) for d in chunks], chunksize=1
            ):
                _merge(report, res)
    cap = config.max_counterexamples
    report.counterexamples = report.counterexamples[:cap]
    report.elapsed_seconds = time.monotonic() - start
    return report


def _merge(report: SweepReport, res: _ChunkResult) -> None:
    report.graphs += res.graphs
    report.instances += res.instances
    report.skipped_graph6_records += res.skipped_graph6_records
    report.decided_instances += res.decided_instances
    report.decided_by_witness += res.decided_by_witness
    for key, count in res.histogram.items():
        report.histogram[key] = report.histogram.get(key, 0) + count
    for name, seconds in res.stages.items():
        report.stages[name] += seconds
    for name, count in res.checked.items():
        report.checked[name] = report.checked.get(name, 0) + count
    for name, count in res.failures.items():
        report.failures[name] = report.failures.get(name, 0) + count
    report.counterexamples.extend(res.counterexamples)
