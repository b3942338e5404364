"""Exhaustive verification sweeps over small signed graphs.

Two built-in graph streams plus optional graph6 files, which are
decoded in numpy straight into rows (`_decode_graph6`):

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
  each chunk picks its rows out of two per-process numpy tables, the
  subdivided cores (`_core_table`, built from arrays of subdivision
  counts) and the hangings of each core order (`_hanging_rows`).

Per underlying graph, one signing per switching class is enumerated
(edges of the spanning tree of `invariants._spanning_cotree` positive,
all co-tree sign patterns; pattern 0 is the balanced representative).
The sweep builds that tree for a whole chunk at once (`_row_cotrees`,
by a lockstep search over the rows, `invariants.bfs_rows`).

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
to a common width; a padded column counts as no vertex.  A graph's
edge list, on which the co-tree and so the signing indices depend, is
read off its row as the sorted pairs (u, v), u < v (`_mask_pairs`).
The sparse stream ORs each core's masks into those of its hangings
(`_hanging_rows`), and its hint is the core's girth, since hung trees
add no cycle; the others' is 3 with a triangle, 4 with a 4-cycle and
else 0 (`_girth_hints`).  One loop over vertex pairs counts the parts of
every complete multipartite row (`classify.multipartite_parts`): a row
has a witness when its hint is 3 and it does not have 3 parts, and
the case table on rows (`classify.row_cases`) reads the same counts.
That table gives each row the co-tree patterns its cases accept, as
masks over patterns 0 and 1: every case but (c), (g) and (h) accepts
pattern 0, pattern 1 of a unicyclic graph's single co-tree edge, or
both, and so needs no co-tree.  It marks the rows of those three
shapes, which look their patterns up in the per-graph case table, and
gives a unicyclic row its girth, the length of its cycle.  A row whose
hint is 0 and that has more than one cycle searches for its girth.  At
girth >= 4 the rule takes the graph's iterated pendant pairs and then a
greedy maximal induced matching of the rest, lowest degree first: p
pendant pairs and k matched pairs, counted for every row whose hint is
not 3 in one numpy pass over the chunk (`_matching_bounds`).  Deleting
a pendant vertex and its neighbour lowers the rank by exactly 2 (the
paper's pendant lemma), and the matched pairs induce kK2, a principal
submatrix of rank 2k on every signing.  So every signing has rank >=
2(p + k), and the rule decides a graph with 2(p + k) >= g + 1.  It is
not run at girth 3, where it finds p + k = 1 on every graph without a
witness.
A decided graph goes into running sums by (order, girth).  It keeps a
record only when the case table accepts a pattern for it or a
spot-check stride samples one of its instances.  A decided row that
accepts no pattern, holds no sample and is not marked costs no Python
of its own: `add_batch` sums such rows in numpy.  The other rows read
their adjacency and edge lists and their co-trees off the rows, and go
one by one in stream order to `_Engine._decide` or `_Engine._rank`.
Spot checks sample by chunk-local stream position: every graph takes
the next 2^(m - n + 1) positions, and an instance is sampled when its
position is a multiple of the stride.
The ranked graphs' signing blocks are built on the graph's own labels,
per (order, co-tree size) group over runs of rows (`_blocks_in_order`),
and buffered by (order, g) in stream order.  Before a block would bring
all buffers together to one cap, the fullest is flushed, so no batch
exceeds it.
`capped_ranks` ranks a batch with cap g + 1: fraction-free elimination
stopped at the cap, in float32 or int64 by the elimination order
min(n, g + 1).  The opt-in instance checks need full ranks: when one is
selected, nothing is decided at intake and the cap is n.  A
counterexample whose rank the sweep knew only as g + 1 is re-ranked
exactly and marked `rank_capped`.  The report counts instances by
(order, girth, min(rank, girth + 1)), and the seconds spent planning
and in each stage of the chunks (`STAGES`), and the work counters of
the chunks (`COUNTERS`).
Checks are vectorized across instance buffers.  The girth-4
consequence check takes a flush's girth-4 rank-4 instances together: it
tests each underlying graph for a bipartition once, twin-reduces the
int8 matrices the kernel ranked in one numpy pass
(`core.reduced_vertices`), and ranks each distinct reduced matrix once
per chunk with `exact.rank`, apart from the kernel.
The two "iff classified" checks compare the kernel's ranks with the
co-tree patterns of the case table of `classify.py`, taken once per
underlying graph, on the rows or by `accepted_cotree_patterns`.  Sampled instances,
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
    _cotree_signing,
    bfs_rows,
    bipartition,
    girth_of_adjacency,
    shortest_cycle,
)
from .classify import (
    _PATTERN_SETS,
    accepted_cotree_patterns,
    classify_equals_g,
    classify_gminus2,
    multipartite_parts,
    row_cases,
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

_SPOT_RANK_STRIDE = 2048
_SPOT_CLASSIFY_STRIDE = 4096  # a multiple of _SPOT_RANK_STRIDE

# the report's stage timers, in seconds.  `plan` is the main process's
# planning: decoding graph6 files into rows and testing their co-tree
# limit on the rows, and the sparse stream's core and hanging tables, for
# its length.  The others are summed over chunks.  Each
# chunk's flushes time the kernel (stacking the blocks and ranking them)
# and the checks, and the spot checks of decided graphs count as
# spot_checks; intake is the rest of the chunk: enumeration, girth, the
# part counts behind the witness, the case table, the matching bounds,
# co-trees, block build and the decided graphs' sums, whole chunks at a
# time where numpy takes them.  With jobs > 1 the chunk
# stages add up the workers' time.
STAGES = ("plan", "intake", "kernel", "vector_checks", "girth_four_consequences",
          "spot_checks", "instance_checks")

# the report's work counters, summed over chunks, so equal for any `jobs`:
# rows only counted in numpy; rows that take a per-graph step (a girth
# search, the per-graph case table, a spot sample, or a failure at
# intake); graphs ranked by the kernel; calls of the per-graph case table
# (`accepted_cotree_patterns`); and instances a spot-check stride samples
COUNTERS = ("bulk_rows", "per_graph_rows", "ranked_graphs", "case_table_calls",
            "spot_samples")


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
    counters: dict = field(default_factory=lambda: dict.fromkeys(COUNTERS, 0))
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
            "schema": 4,
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
            "counters": dict(self.counters),
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
# signing blocks


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


def _signing_blocks(n: int, nb: np.ndarray, cotree: np.ndarray, j0: int = 0) -> np.ndarray:
    """Adjacency matrices (int8) of the co-tree signings j0, j0 + 1, ...
    of graphs of order n with the same number k of co-tree edges, one
    per row of neighbour bitmasks nb, the co-tree marked as `_row_cotrees`
    marks it: (rows, 2^k, n, n) for k <= _SIGNING_BITS, else the
    _SIGNING_BLOCK signings of each from j0 on, a multiple of
    _SIGNING_BLOCK, whose higher pattern bits are constant and taken from
    j0.  One fancy-index writes every row's co-tree cells from
    `_sign_table`."""
    rows = len(nb)
    every = np.arange(n)
    base = ((nb[:, :n, None].astype(np.int64) >> every) & 1).astype(np.int8)
    base = base.reshape(rows, n * n)
    _, u, v = np.nonzero(cotree[:, :n, :n])  # by row, then in edge order
    k = len(u) // rows
    # the two cells of co-tree edge t at columns 2t and 2t + 1
    cells = np.stack([u * n + v, v * n + u], axis=1).reshape(rows, 2 * k)
    low = min(k, _SIGNING_BITS)
    if k > low:
        high = 1 - 2 * ((j0 >> np.arange(low, k)) & 1)
        base[np.arange(rows)[:, None], cells[:, 2 * low:]] = np.repeat(high, 2)
    block = np.repeat(base[:, None], 1 << low, axis=1)
    block[
        np.arange(rows)[:, None, None],
        np.arange(1 << low)[:, None],
        cells[:, None, :2 * low],
    ] = _sign_table()[: 1 << low, : 2 * low]
    return block.reshape(rows, 1 << low, n, n)


def _blocks_in_order(order: np.ndarray, k: np.ndarray, nb: np.ndarray,
                     cotree: np.ndarray) -> Iterator[Iterator[tuple[int, np.ndarray]]]:
    """Per row, in order, its (j0, block) pairs, the signing blocks of
    `_signing_blocks` for graphs of orders `order` and k co-tree edges.
    The rows are taken in runs of at most _SIGNING_BLOCK signings, and
    each run's blocks are built per (order, k) group; a row with more
    than _SIGNING_BITS co-tree edges builds its blocks one at a time, as
    they are taken."""
    size = np.left_shift(1, np.minimum(k, _SIGNING_BITS))
    ends = np.cumsum(size)
    lo = 0
    while lo < len(order):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - size[lo] + _SIGNING_BLOCK,
                                             side="right")))
        small = lo + np.flatnonzero(k[lo:hi] <= _SIGNING_BITS)
        group = order[small] * (_MAX_COTREE_BITS + 1) + k[small]
        built = {}
        for g in np.flatnonzero(np.bincount(group)).tolist():
            at = small[group == g]
            built.update(zip(at.tolist(), _signing_blocks(
                int(order[at[0]]), nb[at], cotree[at])))
        for i in range(lo, hi):
            if i in built:
                yield iter(((0, built.pop(i)),))
            else:
                yield _blocks_one_at_a_time(int(order[i]), int(k[i]), nb[i:i + 1],
                                            cotree[i:i + 1])
        lo = hi


def _blocks_one_at_a_time(n: int, k: int, nb: np.ndarray, cotree: np.ndarray):
    """The (j0, block) pairs of one graph with k > _SIGNING_BITS co-tree
    edges, each block built when it is taken."""
    for j0 in range(0, 1 << k, _SIGNING_BLOCK):
        yield j0, _signing_blocks(n, nb, cotree, j0)[0]


# ---------------------------------------------------------------------------
# dense stream


@lru_cache(maxsize=None)
def _edge_table(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(combinations(range(n), 2))


def _mask_dtype(width: int):
    """The column dtype of neighbour bitmasks over `width` vertices."""
    return np.uint8 if width <= 8 else np.uint16


def _dense_chunk(n: int, lo: int, hi: int):
    """Connected cyclic graphs among edge masks [lo, hi), one row each,
    as `add_batch` takes them: (orders, masks as keys, edge counts, girth
    hints, neighbour bitmasks), with hint 0 for girth >= 5; bit w of
    nb[i, v] is set when w is a neighbour of v."""
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
    return np.full(len(nb), n), masks[keep], m[keep], _girth_hints(nb), nb


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


@lru_cache(maxsize=None)
def _pair_table(width: int) -> tuple[tuple[int, int], ...]:
    """The pair of columns (w, x) at w * width + x: the edge lists of all
    rows share these tuples."""
    return tuple((w, x) for w in range(width) for x in range(width))


def _mask_pairs(nb: np.ndarray) -> list[list[tuple[int, int]]]:
    """Per row of neighbour bitmasks, the graph's edges (u, v), u < v,
    sorted: every stream's edge list."""
    rows, width = nb.shape
    bits = np.triu(nb[:, :, None] & (1 << np.arange(width, dtype=nb.dtype)), 1)
    row, at = np.divmod(np.flatnonzero(bits), width * width)
    pairs = list(map(_pair_table(width).__getitem__, at.tolist()))
    ends = np.cumsum(np.bincount(row, minlength=rows)).tolist()
    return [pairs[a:b] for a, b in zip([0, *ends], ends)]


def _row_cotrees(nb: np.ndarray) -> tuple[np.ndarray, list[list[int]]]:
    """Per row of neighbour bitmasks of a connected graph, zero-padded or
    not, the co-tree of its `bfs_rows` tree, which is the tree of
    `_spanning_cotree`: (marks, positions).  marks[i, u, v] is True for
    each co-tree edge (u, v), u < v, and positions[i] lists row i's
    co-tree edges as indexes into its `_mask_pairs` edge list,
    ascending."""
    rows, width = nb.shape
    every = np.arange(width)
    parent, _ = bfs_rows(nb)
    edge = np.triu(((nb[:, :, None].astype(np.int64) >> every) & 1) == 1, 1)
    tree = parent[:, :, None] == every  # [i, v, u]: u is v's parent
    marks = edge & ~(tree | tree.transpose(0, 2, 1))
    index = np.cumsum(edge.reshape(rows, -1), axis=1) - 1
    row, at = np.nonzero(marks.reshape(rows, -1))
    positions = index[row, at].tolist()
    ends = np.cumsum(np.bincount(row, minlength=rows)).tolist()
    return marks, [positions[a:b] for a, b in zip([0, *ends], ends)]


def dense_graphs(n: int) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """All connected labeled graphs with a cycle on exactly n vertices,
    as (mask, edges), ascending by mask, with `_mask_pairs`' edges."""
    total = 1 << len(_edge_table(n))
    for lo in range(0, total, _DENSE_CHUNK_MASKS):
        _, masks, _, _, nb = _dense_chunk(n, lo, min(lo + _DENSE_CHUNK_MASKS, total))
        yield from zip(masks.tolist(), _mask_pairs(nb))


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


def _even_link_sets(k: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The nonempty sets of the links (u, v) of a base on k vertices, one
    0/1 row each, under which each vertex has even degree; a loop adds 2."""
    sets = (np.arange(1, 1 << len(u))[:, None] >> np.arange(len(u))) & 1
    ends = (u[:, None] == np.arange(k)) + (v[:, None] == np.arange(k)).astype(np.int64)
    return sets[((sets @ ends) % 2 == 0).all(axis=1)]


@lru_cache(maxsize=4)
def _core_table(max_n: int, max_cyclomatic: int):
    """The subdivided cores of the sparse stream, one row each in stream
    order: (orders, edge counts, girths, neighbour bitmasks over max_n
    columns).  A core lays each link (u, v) of its base down as a chain
    u, w, w + 1, ..., v through the link's s interior vertices, numbered
    on from the base's k vertices link by link.  A core's girth is the
    least length sum(s + 1) over the nonempty even sets of its base's
    links: each such set holds a cycle no longer than itself, and each
    cycle is one."""
    order, m, girth, chains = [], [], [], []  # chains: (row, u, v, s, w)
    cores = 0
    for c in range(1, max_cyclomatic + 1):
        for _, k, links in _BASES[c]:
            subdiv = np.array(
                list(_subdivision_tuples(links, max_n - k)), dtype=np.int64
            ).reshape(-1, len(links))
            rows = cores + np.arange(len(subdiv))
            cores += len(subdiv)
            u, v = np.array(links).T
            order.append(k + subdiv.sum(axis=1))
            m.append(order[-1] + c - 1)
            girth.append(((subdiv + 1) @ _even_link_sets(k, u, v).T).min(axis=1))
            first = k + np.cumsum(subdiv, axis=1) - subdiv  # w of each chain
            chains.append(np.broadcast_arrays(rows[:, None], u, v, subdiv, first))
    order, m, girth = (np.concatenate(x) for x in (order, m, girth))
    row, u, v, s, w = (np.concatenate([part[i].ravel() for part in chains])
                       for i in range(5))
    # the edges of every chain, p = 0 .. s along it
    chain = np.repeat(np.arange(len(s)), s + 1)
    p = np.arange(len(chain)) - np.repeat(np.cumsum(s + 1) - s - 1, s + 1)
    a = np.where(p == 0, u[chain], w[chain] + p - 1)
    b = np.where(p == s[chain], v[chain], w[chain] + p)
    row = row[chain]
    nb = np.zeros((len(order), max_n), dtype=np.int64)
    np.bitwise_or.at(nb, (row, a), 1 << b)
    np.bitwise_or.at(nb, (row, b), 1 << a)
    return order, m, girth, nb.astype(_mask_dtype(max_n))


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


def _preorder_parents(shape: tuple) -> list[int]:
    """The parent of each vertex but the root of a rooted tree shape, its
    vertices numbered root first (0), then in preorder."""
    parents: list[int] = []

    def walk(children: tuple, me: int) -> None:
        for child in children:
            parents.append(me)
            walk(child, len(parents))

    walk(shape, 0)
    return parents


@lru_cache(maxsize=4)
def _hanging_rows(max_n: int):
    """Every way to hang rooted trees on a core of each order n = 3 ..
    max_n within max_n vertices in all, one row each, order by order:
    (first, extra, nb), rows first[n] .. first[n + 1] - 1 of order n, each
    with its hung vertex count and the neighbour bitmasks of the hung
    trees' edges alone, over max_n columns.  Core vertex r takes the r-th
    tree; its hung vertices are numbered on from the core's and the
    earlier roots' in preorder.  Rows run over the trees of root 0
    slowest, each root's trees by size, then as `_rooted_trees` lists
    them."""
    budget = max(max_n - 3, 0)
    trees = [_preorder_parents(shape) for size in range(1, budget + 2)
             for shape in _rooted_trees(size)]
    hung = np.array([len(tree) for tree in trees], dtype=np.int64)
    parent = np.zeros((len(trees), budget + 1), dtype=np.int64)
    for i, tree in enumerate(trees):
        parent[i, :hung[i]] = tree
    fits = np.cumsum(np.bincount(hung, minlength=budget + 1))  # trees hanging <= x
    first = [0] * 4
    extra, nb = [np.zeros(0, dtype=np.int64)], [np.zeros((0, max_n), dtype=np.int64)]
    for n in range(3, max_n + 1):
        used = np.zeros(1, dtype=np.int64)
        masks = np.zeros((1, max_n), dtype=np.int64)
        for r in range(n):
            count = fits[max_n - n - used]
            row = np.repeat(np.arange(len(used)), count)
            shape = np.arange(len(row)) - np.repeat(np.cumsum(count) - count, count)
            base = n + used[row]  # the number of the tree's vertex 1
            masks = masks[row]
            for j in range(1, max_n - n + 1):
                at = np.flatnonzero(hung[shape] >= j)
                child = base[at] + j - 1
                up = parent[shape[at], j - 1]
                up = np.where(up == 0, r, base[at] + up - 1)
                masks[at, up] |= 1 << child
                masks[at, child] |= 1 << up
            used = used[row] + hung[shape]
        first.append(first[-1] + len(used))
        extra.append(used)
        nb.append(masks)
    nb = np.concatenate(nb).astype(_mask_dtype(max_n))
    return np.array(first[:max_n + 2]), np.concatenate(extra), nb


def _hanging_counts(max_n: int, max_cyclomatic: int) -> np.ndarray:
    """The number of hangings of each core: its stretch of the stream."""
    return np.diff(_hanging_rows(max_n)[0])[_core_table(max_n, max_cyclomatic)[0]]


def _sparse_length(max_n: int, max_cyclomatic: int) -> int:
    return int(_hanging_counts(max_n, max_cyclomatic).sum())


def _sparse_chunk(max_n: int, max_cyclomatic: int, lo: int, hi: int):
    """The graphs at sparse stream positions [lo, hi), one row each, as
    `add_batch` takes them: (orders, keys, edge counts, girths, neighbour
    bitmasks over max_n columns).  The stream runs over the cores of
    `_core_table`, and per core over the hangings of its order in
    `_hanging_rows`.  A row ORs its core's masks into its hanging's, and
    its girth is its core's, since hung trees add no cycle."""
    core_n, core_m, core_girth, core_nb = _core_table(max_n, max_cyclomatic)
    first, extra, hanging_nb = _hanging_rows(max_n)
    count = _hanging_counts(max_n, max_cyclomatic)
    ends = np.cumsum(count)
    keys = np.arange(lo, hi)
    core = np.searchsorted(ends, keys, side="right")
    hang = first[core_n[core]] + keys - (ends - count)[core]
    hung = extra[hang]
    return (core_n[core] + hung, keys, core_m[core] + hung, core_girth[core],
            core_nb[core] | hanging_nb[hang])


def sparse_graphs(
    max_n: int, max_cyclomatic: int
) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """Connected graphs with a cycle, cyclomatic number <= max_cyclomatic
    and at most max_n vertices: every isomorphism class at least once
    (labeled duplicates possible).  Yields (n, edges), with `_mask_pairs`'
    edges, read off the rows of `_sparse_chunk` a chunk at a time, so no
    list of the stream is held."""
    total = _sparse_length(max_n, max_cyclomatic)
    for lo in range(0, total, _SPARSE_CHUNK_GRAPHS):
        order, _, _, _, nb = _sparse_chunk(
            max_n, max_cyclomatic, lo, min(lo + _SPARSE_CHUNK_GRAPHS, total)
        )
        yield from zip(order.tolist(), _mask_pairs(nb))


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
    record.  Each edge list is `_mask_pairs`': (u, v), u < v, sorted."""
    order, _, nb = _decode_graph6(_graph6_records(text))
    width = int(order.max(initial=0))
    return list(zip(order.tolist(), _mask_pairs(nb[:, :width])))


def _graph6_records(text: str) -> list[str]:
    """The records of graph6 text, as `parse_graph6` finds them."""
    records = []
    for raw in text.replace("\r\n", "\n").replace("\r", "\n").split("\n"):
        line = raw.strip(" \t\v\f")
        if line.startswith(">>graph6<<"):
            line = line[len(">>graph6<<"):]
        if line:
            records.append(line)
    return records


def _decode_graph6(records: list[str]):
    """(orders, edge counts, neighbour bitmasks over _MAX_ORDER uint16
    columns) of graph6 records, one row each, decoded in numpy a group of
    records of one header form and order at a time.  Every record is
    tested in numpy first, and a Graph6Error names the lowest one that
    fails, with the message of its first failing test: a byte outside the
    graph6 range, an empty record, a truncated vertex count, an order
    above _MAX_ORDER, a data length that does not fit the order, nonzero
    padding bits.  A character beyond latin-1 is encoded as an XML
    character reference, whose bytes are outside the range."""
    raw = "\n".join([*records, ""]).encode("latin-1", "xmlcharrefreplace")
    buf = np.frombuffer(raw + bytes(8), dtype=np.uint8)  # header reads stay inside
    ends = np.flatnonzero(buf == ord("\n"))
    starts = np.concatenate(([0], ends + 1))[:-1]
    length = ends - starts
    outside = np.concatenate(([0], np.cumsum((buf < 63) | (buf > 126))))
    head = buf[starts[:, None] + np.arange(8)].astype(np.int64) - 63
    short = head[:, 0] < 63
    medium = ~short & (length >= 4) & (head[:, 1] < 63)
    wide = ~short & ~medium & (length >= 8)
    form = [short, medium, wide]
    header = np.select(form, [1, 4, 8])  # 0: truncated
    n = np.select(form, [
        head[:, 0],
        (head[:, 1] << 12) | (head[:, 2] << 6) | head[:, 3],
        (head[:, 2:] << np.arange(30, -1, -6)).sum(axis=1),
    ])
    k = np.clip(n, 0, _MAX_ORDER + 1)  # past it, the order test fails first
    pairs = k * (k - 1) // 2
    need = (pairs + 5) // 6
    body = length - header
    last = buf[starts + length - 1].astype(np.int64) - 63
    padding = last & ((1 << (6 * need - pairs)) - 1)
    failed = np.select([
        outside[ends] > outside[starts], length == 0, header == 0, n > _MAX_ORDER,
        body != need, (need > 0) & (padding != 0),
    ], [1, 2, 3, 4, 5, 6])
    if failed.any():
        i = int(np.argmax(failed != 0))
        raise Graph6Error([
            "byte outside the printable graph6 range",
            "empty record",
            "truncated vertex count",
            f"order {n[i]} exceeds the exact batch kernel limit of {_MAX_ORDER}",
            f"expected {need[i]} data characters for order {n[i]}, got {body[i]}",
            "nonzero padding bits",
        ][failed[i] - 1], i)
    m = np.zeros(len(records), dtype=np.int64)
    nb = np.zeros((len(records), _MAX_ORDER), dtype=np.uint16)
    group = header * (_MAX_ORDER + 1) + n
    for g in np.flatnonzero(np.bincount(group, minlength=1)).tolist():
        skip, k = divmod(g, _MAX_ORDER + 1)
        if k < 2:
            continue
        at = np.flatnonzero(group == g)
        pairs = k * (k - 1) // 2
        data = buf[starts[at, None] + skip + np.arange((pairs + 5) // 6)] - 63
        bits = np.unpackbits(data[:, :, None], axis=2)[:, :, 2:].reshape(len(at), -1)
        bits = bits[:, :pairs]  # the first bit of a character is its highest
        m[at] = bits.sum(axis=1)
        adj = np.zeros((len(at), k, _MAX_ORDER), dtype=np.uint8)
        v, u = np.tril_indices(k, -1)  # graph6's column order: by v, then u
        adj[:, u, v] = bits
        adj[:, v, u] = bits
        nb[at, :k] = np.packbits(adj, axis=2, bitorder="little").view("<u2")[:, :, 0]
    return n, m, nb


def _graph6_chunk(lo: int, order: np.ndarray, m: np.ndarray, nb: np.ndarray):
    """The connected records with a cycle of a graph6 chunk that starts
    at record `lo`, from their rows of `_decode_graph6`, in record order,
    as `add_batch` takes them: (orders, keys, edge counts, girth hints,
    neighbour bitmasks cut to the chunk's widest order), and how many
    records were skipped."""
    width = int(order.max())
    nb = nb[:, :width].astype(_mask_dtype(width))
    keep = _connected_cyclic(order, m, nb)
    nb = nb[keep]
    keys = np.arange(lo, lo + len(order))
    return (order[keep], keys[keep], m[keep], _girth_hints(nb), nb,
            len(order) - int(keep.sum()))


# ---------------------------------------------------------------------------
# per-chunk engine


class _GraphMeta:
    __slots__ = (
        "source",
        "key",
        "n",
        "edges",
        "adj",
        "m",
        "girth",
        "cotree",
        "accepted",
    )

    def __init__(self, source, key, n, edges, adj, girth, cotree, accepted):
        self.source = source
        self.key = key
        self.n = n
        self.edges = edges
        self.adj = adj
        self.m = len(edges)
        self.girth = girth
        self.cotree = cotree
        self.accepted = accepted  # (classify_gminus2, classify_equals_g) patterns


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


def _matching_bounds(order, nb: np.ndarray) -> np.ndarray:
    """Per row of neighbour bitmasks of a graph on `order` vertices (per
    row, or one for all), zero-padded past it: p + k for the graph's p
    iterated pendant pairs and k matched pairs, in lockstep over the rows.
    A pendant pair is a vertex x of degree 1 in what is left, then its
    neighbour y: each row keeps a stack of such vertices, seeded in
    ascending order and popped from the top, and pushes the neighbours of
    y that y's deletion leaves with degree 1, ascending.  The matched
    pairs are the edges of a greedy maximal induced matching of the
    remainder: the vertices in stable order of degree, each free u with
    its free neighbour v of least (degree, index), after which u, v and
    their neighbours are no longer free.  Deleting a pendant pair lowers
    the rank by exactly 2 (the pendant lemma), and the matched pairs
    induce kK2, of rank 2k on every signing, as a principal submatrix of
    what is left.  So every signing has rank >= 2(p + k)."""
    rows, width = nb.shape
    at, every = np.arange(rows), np.arange(width)
    adj = nb.astype(np.int64)
    # neither paired nor adjacent to a matched vertex; the degrees count
    # free neighbours once the pendant pairs are deleted
    free = np.broadcast_to((1 << np.asarray(order, dtype=np.int64)) - 1, (rows,)).copy()
    deg = np.zeros((rows, width), dtype=np.int64)
    for w in range(width):
        deg += (adj >> w) & 1
    pairs = np.zeros(rows, dtype=np.int64)
    # every vertex is pushed once at most: it reaches degree 1 only once
    stack = np.zeros((rows, width), dtype=np.int64)
    top = np.zeros(rows, dtype=np.int64)

    def push(live, new):
        at, w = np.nonzero(new)  # ascending w within each row
        stack[live[at], top[live][at] + np.cumsum(new, axis=1)[at, w] - 1] = w
        top[live] += new.sum(axis=1)

    push(at, deg == 1)
    while True:
        live = np.flatnonzero((top > 0) & (free != 0))  # no free vertex: done
        if not len(live):
            break
        top[live] -= 1
        x = stack[live, top[live]]
        ok = (((free[live] >> x) & 1) == 1) & (deg[live, x] == 1)
        live, x = live[ok], x[ok]
        y_bit = adj[live, x] & free[live]  # x's one free neighbour
        y = np.frexp(y_bit)[1] - 1  # the exponent of one bit, exact in float64
        free[live] &= ~((np.int64(1) << x) | y_bit)
        pairs[live] += 1
        lose = ((adj[live, y] & free[live])[:, None] >> every) & 1
        deg[live] -= lose
        push(live, (lose == 1) & (deg[live] == 1))
    key = deg * width + every  # (degree, index)
    for u in np.argsort(key, axis=1).T:
        if not free.any():
            break
        nb_u = adj[at, u]
        cand = nb_u & free & -((free >> u) & 1)  # none unless u is free
        live = np.flatnonzero(cand)
        bits = ((cand[live, None] >> every) & 1) == 1
        v = np.argmin(np.where(bits, key[live], width * width), axis=1)
        free[live] &= ~(nb_u[live] | adj[live, v])
        pairs[live] += 1
    return pairs


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
        self.counters = dict.fromkeys(COUNTERS, 0)


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
                  m: np.ndarray, hints: np.ndarray, nb: np.ndarray) -> None:
        """Intake of one chunk of connected graphs with a cycle, one row
        each, in stream order: orders, keys, edge counts, girth hints
        (the girth, or 3, 4 and 0 as `_girth_hints` gives them) and
        neighbour bitmasks zero-padded to a common width.

        The case table on rows (`row_cases`) gives each row's accepted
        patterns, and the girth of a unicyclic row; a row whose hint is
        0 and that has more than one cycle searches for its girth.  A
        capped engine then decides a row by either rule.  A row has a
        witness when its hint is 3 and it does not have 3 parts
        (`multipartite_parts`, which `row_cases` reads too).  The rows
        whose hint is not 3 get their pendant pairs and matching in one
        pass (`_matching_bounds`), and a row of girth g >= 4 is decided
        when 2(p + k) >= g + 1.  A decided row with no accepted pattern,
        no shape of cases (c), (g) or (h) and no spot sample is only
        counted, in numpy, by (order, girth).  The other rows read their
        adjacency and edge lists (`_mask_pairs`) and their co-trees
        (`_row_cotrees`) off the rows, and go to `_decide` or `_rank` in
        stream order; the signing blocks of the ranked rows are built in
        groups (`_blocks_in_order`)."""
        counts = np.left_shift(1, m - order + 1)
        starts = self.position + np.cumsum(counts) - counts
        self.position += int(counts.sum())
        parts = multipartite_parts(order, nb)
        gm2, eqg, lookup, girth = row_cases(order, m, nb, hints, parts)
        bits = self.set_bits
        search = np.flatnonzero(girth == 0)
        for i, n, row in zip(search.tolist(), order[search].tolist(), nb[search].tolist()):
            girth[i] = girth_of_adjacency([bits[b] for b in row[:n]])
        bound = np.zeros(len(order), dtype=np.int64)
        if self.capped:
            rows = np.flatnonzero(hints != 3)
            bound[rows] = _matching_bounds(order[rows], nb[rows])
        decided = ((hints == 3) & (parts != 3) & self.capped) | (
            (girth >= 4) & (2 * bound > girth)
        )
        sample = _holds_sample(starts, counts, self.stride)
        alone = lookup | sample | (decided & ((gm2 | eqg) != 0))
        bulk = decided & ~alone
        counters = self.result.counters
        counters["bulk_rows"] += int(bulk.sum())
        counters["per_graph_rows"] += int(alone.sum()) + int((~alone[search]).sum())
        group = order[bulk] * (_MAX_ORDER + 1) + girth[bulk]
        summed = counts[bulk]
        for g in np.flatnonzero(np.bincount(group)).tolist():
            rows = group == g
            n, length = divmod(g, _MAX_ORDER + 1)
            self._sum_decided(n, length, int(rows.sum()), int(summed[rows].sum()))
        rest = np.flatnonzero(~bulk)
        if not len(rest):
            return
        marks, cotrees = _row_cotrees(nb[rest])
        ranked = ~decided[rest]
        at = rest[ranked]
        blocks = _blocks_in_order(order[at], m[at] - order[at] + 1, nb[at], marks[ranked])
        for n, row, key, edges, cotree, found, g, table, masks, start in zip(
            order[rest].tolist(), nb[rest].tolist(), keys[rest].tolist(),
            _mask_pairs(nb[rest]), cotrees, decided[rest].tolist(),
            girth[rest].tolist(), lookup[rest].tolist(),
            zip(gm2[rest].tolist(), eqg[rest].tolist()), starts[rest].tolist(),
        ):
            adj = [bits[b] for b in row[:n]]
            accepted = None if table else (_PATTERN_SETS[masks[0]], _PATTERN_SETS[masks[1]])
            if found:
                self._decide(source, key, n, edges, adj, g, cotree, accepted, start)
            else:
                self._rank(source, key, n, edges, adj, g, cotree, accepted, start,
                           next(blocks))

    def _case_table(self, adj, edges, cotree):
        """The pattern sets of one graph from the per-graph case table."""
        self.result.counters["case_table_calls"] += 1
        return accepted_cotree_patterns(adj, lambda: [edges[i] for i in cotree])

    def _rank(self, source, key, n, edges, adj, girth, cotree, accepted, start, blocks):
        """Buffer the signing blocks of a graph that no rule decides, as
        (j0, block) pairs, by (order, girth).  `accepted` holds the
        pattern sets of `row_cases`, or None for a graph whose cases
        read the co-tree, which looks them up in the case table.  A
        capped sweep ranks a graph of girth 3 only when it has no
        witness, so when it is complete tripartite."""
        if accepted is None:
            accepted = self._case_table(adj, edges, cotree)
        meta = _GraphMeta(source, key, n, edges, adj, girth, cotree, accepted)
        self.result.graphs += 1
        self.result.instances += 1 << len(cotree)
        self.result.counters["ranked_graphs"] += 1
        for j0, block in blocks:
            self._append_block((n, girth), meta, j0, block, start + j0)

    def _decide(self, source, key, n, edges, adj, girth, cotree, accepted, start):
        """Check all signings of a graph without ranking any, when each of
        them has rank >= girth + 1, so min(rank, girth + 1) is girth + 1.
        At girth 3 the graph has a witness: it is not complete tripartite,
        so it induces the paw or K4, every signing of which has rank 4, and
        a principal submatrix never has larger rank than the matrix.  At
        girth >= 4, 2(p + k) >= girth + 1 for the p pendant pairs and k
        matched pairs that `_matching_bounds` counts, which give every
        signing rank >= 2(p + k).

        The graph's counts go into running sums by (order, girth), folded
        into the result by `finish`.  `accepted` holds the pattern sets of
        `row_cases`, or None for a graph of the shape of case (c), (g) or
        (h), which looks them up in the case table; no pattern may be
        accepted at rank girth + 1.  A graph keeps a record only when a
        pattern is accepted or a spot-check stride samples one of its
        instances.  `start` is the graph's stream position."""
        total = 1 << len(cotree)
        self._sum_decided(n, girth, 1, total)
        if accepted is None:
            accepted = self._case_table(adj, edges, cotree)
        if accepted[0] or accepted[1] or _holds_sample(start, total, self.stride):
            meta = _GraphMeta(source, key, n, edges, adj, girth, cotree, accepted)
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
                bipartite[meta] = bipartition(meta.adj) is not None
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
        intake).  The classifier's stride is a multiple of the rank
        check's, so each of its samples is built once, and checked after
        the rank check's samples."""
        if not self.stride:
            return
        check_rank = "spot_check_exact_rank" in self.sel
        check_classes = "spot_check_classifier" in self.sel
        classify = []
        for pos, seg, signing in _samples(segments, starts, self.stride):
            self.result.counters["spot_samples"] += 1
            meta = seg.meta
            g = _instance_graph(meta, signing)
            rank_value = meta.girth + 1 if ranks is None else int(ranks[pos])
            if check_classes and (seg.start + signing - seg.j0) % _SPOT_CLASSIFY_STRIDE == 0:
                classify.append((meta, signing, g, rank_value))
            if not check_rank:
                continue
            self._count("spot_check_exact_rank")
            r = exact_rank(adjacency_matrix(g)).rank
            if self.capped:
                r = min(r, meta.girth + 1)
            if r != rank_value:
                self._fail("spot_check_exact_rank", meta, signing, rank_value,
                           f"fraction-free rank {r}")
        for meta, signing, g, rank_value in classify:
            self._count("spot_check_classifier")
            gm2 = classify_gminus2(g) is not None
            eqg = classify_equals_g(g, rank=rank_value) is not None
            ok = (gm2 == (rank_value == meta.girth - 2)) and (
                eqg == (rank_value == meta.girth)
            )
            if not ok:
                self._fail("spot_check_classifier", meta, signing, rank_value,
                           f"gm2={gm2} eqg={eqg}")

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
            records = _graph6_records(fh.read())
        try:
            order, m, nb = _decode_graph6(records)
        except Graph6Error as exc:
            raise Graph6Error(exc.message, exc.record, path) from None
        # checked here, in the main process, before any chunk runs.
        # Disconnected records are skipped later.
        over = np.flatnonzero(m - order + 1 > _MAX_COTREE_BITS)
        over = over[_connected_cyclic(order[over], m[over], nb[over])]
        if len(over):
            key = int(over[0])
            n, edges = int(order[key]), int(m[key])
            raise Graph6Error(
                f"{edges - n + 1} co-tree edges ({edges} edges on {n} "
                f"vertices) exceed the limit of {_MAX_COTREE_BITS}",
                key,
                path,
            )
        for lo in range(0, len(records), _GRAPH6_CHUNK_RECORDS):
            hi = lo + _GRAPH6_CHUNK_RECORDS
            chunks.append(("graph6", pi, lo, order[lo:hi], m[lo:hi], nb[lo:hi]))
    return chunks


def _run_chunk(config: SweepConfig, desc: tuple) -> _ChunkResult:
    clock = time.perf_counter()
    engine = _Engine(config)
    source = desc[0]
    if source == "dense":
        rows = _dense_chunk(*desc[1:])
    elif source == "sparse":
        rows = _sparse_chunk(config.max_n_sparse, config.max_cyclomatic, *desc[1:])
    else:
        source = f"graph6[{desc[1]}]"
        *rows, skipped = _graph6_chunk(*desc[2:])
        engine.result.skipped_graph6_records += skipped
    engine.add_batch(source, *rows)
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
    for name, count in res.counters.items():
        report.counters[name] += count
    for name, count in res.checked.items():
        report.checked[name] = report.checked.get(name, 0) + count
    for name, count in res.failures.items():
        report.failures[name] = report.failures.get(name, 0) + count
    report.counterexamples.extend(res.counterexamples)
