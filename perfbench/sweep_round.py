"""One measured sweep in a fresh interpreter.

    python3 perfbench/sweep_round.py '<json spec>'

The spec names a mode:

* ``import``: time ``import sgrank`` and stop;
* ``sweep``: time ``sgrank.run(SweepConfig(**config))`` and report peak
  resident memory and the sweep report;
* ``trace``: the same sweep with the names ``sgrank.sweep`` looks up
  wrapped in timers and counters, then each graph stream timed on its own.

sgrank is imported from the repository's ``src`` directory (the parent
of this file's directory), never from an installed copy.  The last line
of output is one JSON object.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# names looked up in sgrank.sweep's namespace at call time; SignedGraph is
# counted, not timed
TIMED = (
    "batch_ranks",
    "exact_rank",
    "classify_gminus2",
    "classify_equals_g",
    "girth_of_adjacency",
    "bipartition",
    "reduced_graph",
)
COUNTED = ("SignedGraph",)
CLASSIFIERS = ("classify_gminus2", "classify_equals_g")


class Tracer:
    """Replaces the wrapped names in a module with timing wrappers; names
    the module no longer has are recorded as missing."""

    def __init__(self, module):
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.hits: dict[str, int] = defaultdict(int)
        self.kernel: dict[int, list] = {}  # order -> [matrices, seconds]
        self.missing = [n for n in TIMED + COUNTED if not hasattr(module, n)]
        for name in TIMED + COUNTED:
            if name not in self.missing:
                setattr(module, name, self._wrap(name, getattr(module, name)))

    def _wrap(self, name, fn):
        calls, seconds, hits, clock = self.calls, self.seconds, self.hits, time.perf_counter

        if name in COUNTED:
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        if name == "batch_ranks":
            def kernel(matrices):
                t = clock()
                out = fn(matrices)
                dt = clock() - t
                row = self.kernel.setdefault(int(matrices.shape[1]), [0, 0.0])
                row[0] += int(matrices.shape[0])
                row[1] += dt
                calls[name] += 1
                seconds[name] += dt
                return out
            return kernel

        def timed(*args, **kwargs):
            t = clock()
            out = fn(*args, **kwargs)
            seconds[name] += clock() - t
            calls[name] += 1
            if name in CLASSIFIERS and out is not None:
                hits[name] += 1
            return out
        return timed

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "hits": dict(self.hits),
            "kernel": {str(k): v for k, v in sorted(self.kernel.items())},
            "missing": self.missing,
        }


def _rate(fn, min_seconds: float = 0.5) -> float:
    """Items per second of fn(), which returns an item count; repeated
    until min_seconds have passed."""
    items = 0
    start = time.perf_counter()
    while True:
        items += fn()
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return items / elapsed


def time_streams(sweep, streams: dict) -> dict:
    """Throughput of each graph stream on its own; None for a stream the
    module no longer has."""
    dense_n = streams["dense_max_n"]
    sparse_n, sparse_c = streams["sparse"]
    text = streams["graph6_text"]
    jobs = {
        "dense_graphs": lambda: sum(
            1 for n in range(3, dense_n + 1) for _ in sweep.dense_graphs(n)
        ),
        "sparse_graphs": lambda: sum(1 for _ in sweep.sparse_graphs(sparse_n, sparse_c)),
        "parse_graph6": lambda: len(sweep.parse_graph6(text)),
    }
    return {
        name: _rate(job) if hasattr(sweep, name) else None
        for name, job in jobs.items()
    }


def peak_rss_mb() -> float:
    """High-water resident memory of this process since it started
    (VmHWM).  ru_maxrss would not do: it keeps the parent's resident size
    from before the exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import sgrank

    import_s = time.perf_counter() - start
    if not os.path.abspath(sgrank.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"sgrank imported from {sgrank.__file__}, not {SRC}")
    out: dict = {"import_s": import_s}
    if spec["mode"] != "import":
        from sgrank import SweepConfig, run, sweep

        config = dict(spec["config"])
        config["graph6_paths"] = tuple(config.get("graph6_paths", ()))
        config["checks"] = sweep.DEFAULT_CHECKS + tuple(spec.get("extra_checks", ()))
        tracer = Tracer(sweep) if spec["mode"] == "trace" else None
        start = time.perf_counter()
        report = run(SweepConfig(**config))
        out["sweep_s"] = time.perf_counter() - start
        out["peak_rss_mb"] = peak_rss_mb()
        out["report"] = report.to_json_dict()
        if tracer is not None:
            out["trace"] = tracer.summary()
            out["streams"] = time_streams(sweep, spec["streams"])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
