"""What the benchmark harness under perfbench/ reads of the program.

The harness is kept as it is across changes to sgrank, so the names and
report keys it relies on are checked here.  Its sources are read with
`ast`, not imported or run.
"""

import ast
from pathlib import Path

import sgrank
import sgrank.sweep as sweep_module
from sgrank import SweepConfig, run

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _constants(filename):
    """The module-level constants of a perfbench file, by name."""
    tree = ast.parse((PERFBENCH / filename).read_text())
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    try:
                        found[target.id] = ast.literal_eval(node.value)
                    except ValueError:
                        pass
    return found


def test_default_checks_are_the_sweeps():
    checks = _constants("run.py")["DEFAULT_CHECKS"]
    assert checks and set(checks) <= set(sweep_module.DEFAULT_CHECKS)
    report = run(SweepConfig(max_n_dense=4, max_n_sparse=4)).to_json_dict()
    assert set(checks) <= set(report["checks"])
    for name in checks:
        assert set(report["checks"][name]) == {"checked", "failures"}
    assert {"graphs", "instances", "skipped_graph6_records"} <= set(report["totals"])


def test_traced_and_timed_names_exist():
    names = _constants("sweep_round.py")
    wrapped = names["TIMED"] + names["COUNTED"]
    assert wrapped
    for name in wrapped + ("sparse_graphs", "dense_graphs", "parse_graph6"):
        assert callable(getattr(sweep_module, name, None)), name
    assert callable(sgrank.batch_ranks)
