"""Command line interface, exercised through real subprocesses."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx

from sgrank import SignedGraph, parse_sgr, save_sgr

SRC = Path(__file__).resolve().parents[1] / "src"


def cli(*args, cwd=None):
    """Run `python -m sgrank.cli ARGS`, from `cwd` if given, with this
    checkout's sources first on the path."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "sgrank.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestAnalyze:
    def test_unbalanced_c6(self, tmp_path):
        path = tmp_path / "c6.sgr"
        edges = [(i, (i + 1) % 6, 1) for i in range(5)] + [(0, 5, -1)]
        save_sgr(SignedGraph(6, edges), path)
        code, out, _ = cli("analyze", str(path))
        assert code == 0
        assert "rank: 4" in out
        assert "girth: 6" in out
        assert "balanced: False" in out
        assert "case C" in out

    def test_json_keys(self, tmp_path):
        path = tmp_path / "p4.sgr"
        save_sgr(SignedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)]), path)
        code, out, _ = cli("analyze", str(path), "--json")
        assert code == 0
        data = json.loads(out)
        assert data["rank"] == 4
        assert data["girth"] is None
        assert "classification" not in data  # forests have no girth cases

    def test_missing_file(self):
        code, _, err = cli("analyze", "/nonexistent/x.sgr")
        assert code == 2
        assert err

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.sgr"
        path.write_text("2 1\n0 1 ?\n")
        code, _, err = cli("analyze", str(path))
        assert code == 2
        assert "line 2" in err

    def test_directory_is_a_usage_error(self, tmp_path):
        code, out, err = cli("analyze", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {tmp_path}: ") and "Traceback" not in err

    def test_non_utf8_file_is_a_usage_error(self, tmp_path):
        path = tmp_path / "latin.sgr"
        path.write_bytes(b"# caf\xe9\n0 0\n")
        code, _, err = cli("analyze", str(path))
        assert code == 2
        assert err.startswith(f"error: {path}: ") and "Traceback" not in err


class TestClassify:
    def test_balanced_c8_is_case_b(self, tmp_path):
        path = tmp_path / "c8.sgr"
        save_sgr(SignedGraph(8, [(i, (i + 1) % 8, 1) for i in range(7)]
                             + [(0, 7, 1)]), path)
        code, out, _ = cli("classify", str(path))
        assert code == 0
        assert "case B" in out

    def test_forest_is_a_usage_error(self, tmp_path):
        path = tmp_path / "p3.sgr"
        save_sgr(SignedGraph(3, [(0, 1, 1), (1, 2, 1)]), path)
        code, _, err = cli("classify", str(path))
        assert code == 2
        assert err

    def test_empty_graph_is_a_usage_error(self, tmp_path):
        path = tmp_path / "empty.sgr"
        path.write_text("0 0\n")
        code, _, err = cli("classify", str(path))
        assert code == 2
        assert "needs a connected graph containing a cycle" in err


class TestGenerate:
    def test_cycle_to_stdout(self):
        code, out, _ = cli("generate", "cycle", "--n", "5")
        assert code == 0
        g = parse_sgr(out)
        assert g.n == 5 and g.m == 5

    def test_unbalanced_cycle_to_file(self, tmp_path):
        path = tmp_path / "out.sgr"
        code, out, _ = cli("generate", "cycle", "--n", "6", "--unbalanced",
                           "-o", str(path))
        assert code == 0 and out == ""
        text = path.read_text()
        assert text.startswith("# family: cycle")
        assert "# expected rank: 4" in text
        g = parse_sgr(text)
        assert sum(1 for _, _, s in g.edges if s == -1) % 2 == 1

    def test_rank_flag_reports_match(self):
        code, out, _ = cli("generate", "theta", "--orders", "2", "4", "4",
                           "--rank")
        assert code == 0
        assert "rank: 6" in out

    def test_unicyclic_star_syntax(self):
        code, out, _ = cli("generate", "unicyclic", "--cycle-length", "4",
                           "--stars", "0:2,2:1")
        assert code == 0
        g = parse_sgr(out)
        assert g.n == 4 + 3

    def test_subdivided_k4(self):
        code, out, _ = cli("generate", "subdivided-k4")
        assert code == 0
        g = parse_sgr(out)
        assert g.n == 10 and g.m == 12

    def test_invalid_family_parameters(self):
        code, _, err = cli("generate", "cycle", "--n", "2")
        assert code == 2
        assert err

    def test_output_directory_is_a_usage_error(self, tmp_path):
        code, out, err = cli("generate", "cycle", "--n", "5", "-o", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {tmp_path}: ") and "Traceback" not in err

    def test_theta_signs_argument(self):
        # leading '-' needs the = form, as usual with argparse
        code, out, _ = cli("generate", "theta", "--orders", "5", "3", "5",
                           "--signs=-+++++++++")
        assert code == 0
        g = parse_sgr(out)
        assert sum(1 for _, _, s in g.edges if s == -1) == 1


class TestVerify:
    def test_list_checks(self):
        code, out, _ = cli("verify", "--list-checks")
        assert code == 0
        assert "rank_ge_girth_minus_2" in out
        assert "default" in out

    def test_clean_run_exit_zero(self, tmp_path):
        report = tmp_path / "report.json"
        code, out, _ = cli("verify", "--max-n", "4", "--sparse-max-n", "5",
                           "--json", str(report))
        assert code == 0
        assert "ok" in out
        data = json.loads(report.read_text())
        assert data["totals"]["failures"] == 0
        assert data["totals"]["instances"] > 0
        # the work counters on one line, as in the report
        [line] = [line for line in out.splitlines() if line.startswith("counters: ")]
        pairs = (pair.split("=") for pair in line.split()[1:])
        assert {name: int(count) for name, count in pairs} == data["counters"]

    def test_counterexamples_exit_one(self, tmp_path):
        ces = tmp_path / "ces.csv"
        code, out, _ = cli("verify", "--max-n", "4", "--sparse-max-n", "4",
                           "--checks", "rank_ge_girth_minus_1",
                           "--counterexamples", str(ces))
        assert code == 1
        assert "FAIL" in out
        with open(ces) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) > 1
        # counterexample graphs replay from the embedded .sgr text
        g = parse_sgr(rows[1][-1])
        assert g.n == int(rows[1][2])

    def test_json_to_stdout(self):
        code, out, _ = cli("verify", "--max-n", "3", "--sparse-max-n", "3",
                           "--json", "-")
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == 4

    def test_counterexamples_to_stdout(self, tmp_path):
        # '-' is stdout, not a file of that name; the summary goes to stderr
        code, out, err = cli("verify", "--max-n", "4", "--sparse-max-n", "4",
                             "--checks", "rank_ge_girth_minus_1",
                             "--counterexamples", "-", cwd=tmp_path)
        assert code == 1
        assert not (tmp_path / "-").exists()
        assert "FAIL rank_ge_girth_minus_1" in err and "graphs:" in err
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "check" and len(rows) > 1
        assert all(row[0] == "rank_ge_girth_minus_1" for row in rows[1:])
        assert parse_sgr(rows[1][-1]).n == int(rows[1][2])

    def test_counterexamples_to_stdout_beside_a_json_file(self, tmp_path):
        report = tmp_path / "report.json"
        code, out, err = cli("verify", "--max-n", "4", "--sparse-max-n", "4",
                             "--checks", "rank_ge_girth_minus_1",
                             "--json", str(report), "--counterexamples", "-")
        assert code == 1
        rows = list(csv.reader(io.StringIO(out)))
        data = json.loads(report.read_text())
        assert len(rows) - 1 == len(data["counterexamples"]) > 0
        assert "graphs:" in err

    def test_json_and_counterexamples_both_to_stdout_is_usage_error(self):
        code, out, err = cli("verify", "--max-n", "3", "--sparse-max-n", "3",
                             "--json", "-", "--counterexamples", "-")
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert out == "" and "graphs:" not in err

    def test_graph6_input(self, tmp_path):
        path = tmp_path / "in.g6"
        path.write_bytes(nx.to_graph6_bytes(nx.cycle_graph(6)))
        code, out, _ = cli("verify", "--max-n", "0", "--sparse-max-n", "0",
                           "--graph6", str(path), "--json", "-")
        assert code == 0
        assert json.loads(out)["totals"]["graphs"] == 1

    def test_graph6_record_with_too_many_signings(self, tmp_path):
        path = tmp_path / "k10.g6"
        path.write_text("I~~~~~~~w\n")  # K10: 36 co-tree edges, 2^36 signings
        code, _, err = cli("verify", "--max-n", "0", "--sparse-max-n", "0",
                           "--graph6", str(path))
        assert code == 2
        assert "graph6 record 0" in err and str(path) in err
        assert "36 co-tree edges" in err

    def test_graph6_directory_is_usage_error(self, tmp_path):
        code, _, err = cli("verify", "--max-n", "0", "--sparse-max-n", "0",
                           "--graph6", str(tmp_path))
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    def test_graph6_byte_outside_the_range_is_usage_error(self, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_bytes(b"\xffC~\n")
        code, _, err = cli("verify", "--max-n", "0", "--sparse-max-n", "0",
                           "--graph6", str(path))
        assert code == 2
        assert "graph6 record 0: byte outside the printable graph6 range" in err

    def test_graph6_parse_error_names_its_file(self, tmp_path):
        good, bad = tmp_path / "good.g6", tmp_path / "bad.g6"
        good.write_text("Bw\n")
        bad.write_bytes(b"Bw\n\xffC~\n")
        code, _, err = cli("verify", "--max-n", "0", "--sparse-max-n", "0",
                           "--graph6", str(good), "--graph6", str(bad))
        assert code == 2
        assert err.startswith(f"error: {bad}: graph6 record 1: byte outside")
        assert "Traceback" not in err

    def test_json_directory_is_usage_error(self, tmp_path):
        # refused before the sweep runs: no summary is printed
        code, out, err = cli("verify", "--max-n", "3", "--sparse-max-n", "3",
                             "--json", str(tmp_path))
        assert code == 2
        assert err.startswith(f"error: {tmp_path}: ") and "Traceback" not in err
        assert "graphs:" not in out

    def test_counterexamples_directory_is_usage_error(self, tmp_path):
        code, out, err = cli("verify", "--max-n", "3", "--sparse-max-n", "3",
                             "--counterexamples", str(tmp_path))
        assert code == 2
        assert err.startswith(f"error: {tmp_path}: ") and "Traceback" not in err
        assert "graphs:" not in out

    def test_negative_max_counterexamples_is_usage_error(self):
        code, _, err = cli("verify", "--max-n", "3", "--sparse-max-n", "3",
                           "--max-counterexamples", "-1")
        assert code == 2
        assert "max_counterexamples" in err

    def test_unknown_check_is_usage_error(self):
        code, _, err = cli("verify", "--checks", "bogus")
        assert code == 2
        assert "unknown" in err.lower()

    def test_duplicate_check_is_usage_error(self):
        code, out, err = cli("verify", "--max-n", "3", "--sparse-max-n", "3",
                             "--checks", "rank_ge_girth_minus_2,rank_ge_girth_minus_2")
        assert code == 2
        assert err == "error: duplicate checks ['rank_ge_girth_minus_2']\n"
        assert "graphs:" not in out


def test_no_arguments_shows_usage():
    code, _, err = cli()
    assert code == 2
    assert "usage" in err.lower()
