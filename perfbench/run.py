"""Benchmark of the verification sweep, ``sgrank.run(SweepConfig(...))``.

    python3 perfbench/run.py --workload dense|sparse|high-order \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Each measured sweep runs in a fresh
interpreter (perfbench/sweep_round.py), so the sweep's module-level caches never
carry work from one sweep to the next.  Sweeps are repeated for about S
seconds and medians are reported; every sweep's report is checked against
counts worked out here, apart from the program.  Once per run, outside the
timed sweeps, the batch kernel is cross-checked against a Fraction
elimination and (dense only) a sweep with a deliberately false check must
report exactly the closed-form number of violations.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics with ``--trace 0`` and
the per-layer metrics of one traced sweep with ``--trace 1``.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

import numpy as np

import workloads as wl
from sweep_round import CLASSIFIERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
ROUND = os.path.join(HERE, "sweep_round.py")

SETUP_SAMPLES = 5
ROUND_TIMEOUT_S = 60

DEFAULT_CHECKS = (
    "rank_ge_girth_minus_2",
    "rank_ne_girth_minus_1",
    "girth_minus_2_iff_classified",
    "equals_girth_iff_classified",
    "girth_four_consequences",
    "spot_check_exact_rank",
    "spot_check_classifier",
)
# vector checks applied to every instance
PER_INSTANCE_CHECKS = DEFAULT_CHECKS[:4]
FALSE_CHECK = "rank_ge_girth_minus_1"

# arithmetic path of the batch kernel by matrix order
PATHS = (("f32", 1, 8), ("f64", 9, 13), ("gfp", 14, 15))


class RoundFailed(RuntimeError):
    pass


def run_round(spec: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, ROUND, json.dumps(spec)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=ROUND_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RoundFailed(f"round exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report_errors(report: dict, graphs: int, instances: int) -> list[str]:
    """What is wrong with a sweep report that should hold zero failures
    over exactly `graphs` graphs and `instances` instances."""
    totals = report["totals"]
    errors = []
    if totals["graphs"] != graphs or totals["instances"] != instances:
        errors.append(
            f"swept {totals['graphs']} graphs / {totals['instances']} instances, "
            f"expected {graphs} / {instances}"
        )
    if totals["skipped_graph6_records"]:
        errors.append(f"{totals['skipped_graph6_records']} graph6 records skipped")
    for name in DEFAULT_CHECKS:
        entry = report["checks"].get(name)
        if entry is None:
            errors.append(f"check {name} missing from the report")
            continue
        if entry["failures"]:
            errors.append(f"check {name}: {entry['failures']} failures")
        if name in PER_INSTANCE_CHECKS and entry["checked"] != instances:
            errors.append(f"check {name} covered {entry['checked']} of {instances}")
        if name.startswith("spot_check") and instances >= 4096 and not entry["checked"]:
            errors.append(f"check {name} never ran")
    return errors


def self_test() -> list[str]:
    """Dense n <= 6 with the false claim rank >= girth - 1 added: it must
    fail on exactly the rank == girth - 2 instances, and nothing else may."""
    small = wl.labeled_dense(wl.DENSE_MAX_N)
    graphs, instances = wl.sweep_totals(small)
    spec = {
        "mode": "sweep",
        "config": {"max_n_dense": wl.DENSE_MAX_N, "max_n_sparse": 0},
        "extra_checks": [FALSE_CHECK],
    }
    report = run_round(spec)["report"]
    errors = report_errors(report, graphs, instances)
    want = wl.gminus2_instances(wl.DENSE_MAX_N)
    got = report["checks"].get(FALSE_CHECK, {"failures": None, "checked": None})
    if got["failures"] != want or got["checked"] != instances:
        errors.append(
            f"self-test: {FALSE_CHECK} failed {got['failures']} of "
            f"{got['checked']}, expected {want} of {instances}"
        )
    return errors


def sparse_stream_errors(sweep) -> tuple[list, list[str]]:
    """Members of the sparse stream: each must be a simple connected graph
    on at most SPARSE_MAX_N vertices with cyclomatic number from 1 to
    SPARSE_MAX_CYCLOMATIC."""
    stream = list(sweep.sparse_graphs(wl.SPARSE_MAX_N, wl.SPARSE_MAX_CYCLOMATIC))
    errors = []
    for i, (n, edges) in enumerate(stream):
        c = len(edges) - n + 1
        pairs = {(min(u, v), max(u, v)) for u, v in edges}
        simple = len(pairs) == len(edges) and all(0 <= u < v < n for u, v in pairs)
        if not (
            simple
            and n <= wl.SPARSE_MAX_N
            and 1 <= c <= wl.SPARSE_MAX_CYCLOMATIC
            and wl.is_connected(n, edges)
        ):
            errors.append(f"sparse stream member {i} is outside the slice: {n} {edges}")
            break
    graphs, instances = wl.sweep_totals(stream)
    if (graphs, instances) != (wl.SPARSE_GRAPHS, wl.SPARSE_INSTANCES):
        errors.append(
            f"sparse stream holds {graphs} graphs / {instances} instances, "
            f"pinned {wl.SPARSE_GRAPHS} / {wl.SPARSE_INSTANCES}"
        )
    return stream, errors


def kernel_errors(batch_ranks, pool, rng) -> list[str]:
    """batch_ranks against the Fraction elimination on random signed
    matrices drawn from the workload's graphs, one batch per order."""
    by_order: dict[int, list] = {}
    for mat in wl.random_signed_matrices(pool, wl.CROSS_CHECK_MATRICES, rng):
        by_order.setdefault(len(mat), []).append(mat)
    errors = []
    for n, mats in sorted(by_order.items()):
        got = batch_ranks(np.array(mats, dtype=np.int8)).tolist()
        want = [wl.fraction_rank(m) for m in mats]
        if got != want:
            errors.append(f"batch_ranks disagrees with Fraction ranks at order {n}")
    return errors


# which wrapped names each per-layer metric reads, by metric-name prefix
LAYER_SOURCES = (
    ("exact.batch_ranks.", ("batch_ranks",)),
    ("exact.rank.", ("exact_rank",)),
    ("classify.gminus2.", ("classify_gminus2",)),
    ("classify.equals_g.", ("classify_equals_g",)),
    ("classify.s", CLASSIFIERS),
    ("classify.hit_ratio", CLASSIFIERS),
    ("invariants.girth.", ("girth_of_adjacency",)),
    ("invariants.bipartition.", ("bipartition",)),
    ("core.signed_graphs", ("SignedGraph",)),
    ("core.reduced_graph.", ("reduced_graph",)),
)


def layer_metrics(traced: dict, untraced_sweep_s: float) -> dict:
    """Per-layer figures from one traced sweep.  A metric whose wrapped
    name the program no longer has reads None: not observed, not zero."""
    tr = traced["trace"]
    calls, secs, hits = tr["calls"], tr["seconds"], tr["hits"]
    kernel = {int(n): row for n, row in tr["kernel"].items()}  # [matrices, s]
    k_calls = calls.get("batch_ranks", 0)
    k_mats = sum(row[0] for row in kernel.values())
    cls_calls = sum(calls.get(n, 0) for n in CLASSIFIERS)
    streams = traced["streams"]
    totals = traced["report"]["totals"]
    m = {
        "exact.batch_ranks.s": (secs.get("batch_ranks", 0.0), "s"),
        "exact.batch_ranks.calls": (k_calls, "count"),
        "exact.batch_ranks.matrices": (k_mats, "count"),
        "exact.batch_ranks.mean_batch": (k_mats / k_calls if k_calls else 0.0, "count"),
    }
    for path, lo, hi in PATHS:
        mats = sum(row[0] for n, row in kernel.items() if lo <= n <= hi)
        busy = sum(row[1] for n, row in kernel.items() if lo <= n <= hi)
        m[f"exact.batch_ranks.{path}.matrices"] = (mats, "count")
        m[f"exact.batch_ranks.{path}.matrices_per_s"] = (mats / busy if busy else 0.0, "1/s")
    m.update({
        "exact.rank.calls": (calls.get("exact_rank", 0), "count"),
        "exact.rank.s": (secs.get("exact_rank", 0.0), "s"),
        "classify.gminus2.calls": (calls.get("classify_gminus2", 0), "count"),
        "classify.equals_g.calls": (calls.get("classify_equals_g", 0), "count"),
        "classify.s": (sum(secs.get(n, 0.0) for n in CLASSIFIERS), "s"),
        "classify.hit_ratio": (
            sum(hits.get(n, 0) for n in CLASSIFIERS) / cls_calls if cls_calls else 0.0,
            "ratio",
        ),
        "invariants.girth.calls": (calls.get("girth_of_adjacency", 0), "count"),
        "invariants.girth.s": (secs.get("girth_of_adjacency", 0.0), "s"),
        "invariants.bipartition.s": (secs.get("bipartition", 0.0), "s"),
        "core.signed_graphs": (calls.get("SignedGraph", 0), "count"),
        "core.reduced_graph.s": (secs.get("reduced_graph", 0.0), "s"),
        "sweep.dense_graphs.graphs_per_s": (streams["dense_graphs"], "1/s"),
        "sweep.sparse_graphs.graphs_per_s": (streams["sparse_graphs"], "1/s"),
        "sweep.parse_graph6.records_per_s": (streams["parse_graph6"], "1/s"),
        "sweep.self_s": (traced["sweep_s"] - sum(secs.values()), "s"),
        "sweep.graphs": (totals["graphs"], "count"),
        "sweep.instances": (totals["instances"], "count"),
        "trace.sweep_s": (traced["sweep_s"], "s"),
        "trace.overhead_s": (traced["sweep_s"] - untraced_sweep_s, "s"),
    })
    missing = set(tr["missing"])
    for prefix, sources in LAYER_SOURCES:
        if missing.intersection(sources):
            for name, (_, unit) in m.items():
                if name.startswith(prefix):
                    m[name] = (None, unit)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sgrank", "__init__.py")):
        print(f"no sgrank sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from sgrank import batch_ranks, sweep

    rng = random.Random(f"cross-check:{args.workload}:{args.seed}")
    work = wl.build(args.workload, args.seed)
    errors: list[str] = []
    attempted = failed = 0

    pool = work.pool
    if args.workload == "sparse":
        pool, stream_errors = sparse_stream_errors(sweep)
        errors += stream_errors

    os.makedirs(OUT, exist_ok=True)
    g6_path = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}.g6")
    config = dict(work.config)
    if work.records:
        with open(g6_path, "w") as fh:
            fh.writelines(wl.encode_graph6(n, e) + "\n" for n, e in work.records)
        config["graph6_paths"] = [os.path.relpath(g6_path, ROOT)]

    try:
        attempted += 1
        errors += kernel_errors(batch_ranks, pool, rng)
        if args.workload == "dense":
            attempted += 1
            errors += self_test()
        setup = [] if args.trace else [
            run_round({"mode": "import"})["import_s"] for _ in range(SETUP_SAMPLES)
        ]

        rounds = []
        spent = 0.0
        while not rounds or spent + statistics.median(r["wall"] for r in rounds) <= args.seconds:
            attempted += 1
            start = time.perf_counter()
            try:
                out = run_round({"mode": "sweep", "config": config})
            except (RoundFailed, subprocess.TimeoutExpired) as exc:
                failed += 1
                errors.append(str(exc))
                break
            out["wall"] = time.perf_counter() - start
            spent += out["wall"]
            errors += report_errors(out["report"], work.graphs, work.instances)
            rounds.append(out)
        if not rounds:
            raise SystemExit(f"no sweep completed: {errors[-1]}")

        sweep_s = statistics.median(r["sweep_s"] for r in rounds)
        if args.trace:
            hi_records = wl.build("high-order", args.seed).records
            streams = {
                "dense_max_n": wl.DENSE_MAX_N,
                "sparse": [wl.SPARSE_MAX_N, wl.SPARSE_MAX_CYCLOMATIC],
                "graph6_text": "".join(wl.encode_graph6(n, e) + "\n" for n, e in hi_records),
            }
            attempted += 1
            traced = run_round({"mode": "trace", "config": config, "streams": streams})
            errors += report_errors(traced["report"], work.graphs, work.instances)
            metrics = layer_metrics(traced, sweep_s)
        else:
            metrics = {
                # every sweep also starts with a fresh import
                "setup_s": (statistics.median(setup + [r["import_s"] for r in rounds]), "s"),
                "sweep_s": (sweep_s, "s"),
                "instances_per_s": (
                    statistics.median(r["report"]["totals"]["instances"] / r["sweep_s"] for r in rounds),
                    "1/s",
                ),
                "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
            }
    finally:
        if os.path.exists(g6_path):
            os.remove(g6_path)

    for line in errors:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed}: {len(rounds)} sweeps, "
        f"{work.graphs} graphs / {work.instances} instances each",
        file=sys.stderr,
    )
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        errors=errors,
        setup_samples=setup,
        rounds=[{k: r[k] for k in ("sweep_s", "peak_rss_mb", "import_s", "wall")} for r in rounds],
    )
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
