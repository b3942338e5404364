"""Command line interface.

Subcommands: analyze (invariants and rank of one .sgr file), classify
(extremal family membership), generate (family members as .sgr), verify
(exhaustive sweeps; exit code 1 when counterexamples were found).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import families
from .classify import classify_equals_g, classify_gminus2
from .core import SgrParseError, load_sgr, write_sgr
from .exact import rank as exact_rank
from .core import adjacency_matrix
from .invariants import is_connected, profile
from .sweep import (
    CHECKS,
    DEFAULT_CHECKS,
    Graph6Error,
    SweepConfig,
    run,
    write_counterexamples_csv,
)

_CASE_NAMES = {
    ("rank_girth_minus_two", "A"): "balanced complete bipartite",
    ("rank_girth_minus_two", "B"): "balanced cycle, length 0 mod 4",
    ("rank_girth_minus_two", "C"): "unbalanced cycle, length 2 mod 4",
    ("rank_girth", "a"): "odd cycle",
    ("rank_girth", "b"): "cycle with extremal parity",
    ("rank_girth", "c"): "rank-3 complete tripartite signing",
    ("rank_girth", "d"): "pendant-star unicyclic, all gaps odd",
    ("rank_girth", "e"): "cycle with off-cycle star center",
    ("rank_girth", "f"): "girth 4 with rank 4",
    ("rank_girth", "g"): "theta(5,3,5) or balanced theta(5,5,5)",
    ("rank_girth", "h"): "subdivided K4, all four 6-cycles negative",
}


def _path_error(path: str, reason) -> None:
    print(f"error: {path}: {reason}", file=sys.stderr)
    raise SystemExit(2)


def _load(path: str):
    try:
        return load_sgr(path)
    except OSError as exc:  # missing, a directory, unreadable
        _path_error(path, exc.strerror or exc)
    except (UnicodeDecodeError, SgrParseError) as exc:
        _path_error(path, exc)


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:  # a directory, a missing parent, read-only
        _path_error(path, exc.strerror or exc)


def _check_writable(path: str) -> None:
    """Refuse an output target before the sweep rather than after it.
    Opening it for appending creates it when missing and truncates
    nothing."""
    try:
        open(path, "a").close()
    except OSError as exc:
        _path_error(path, exc.strerror or exc)


def _signs_arg(text: str, m: int, what: str) -> tuple[int, ...]:
    cleaned = text.replace(",", "").replace(" ", "")
    if len(cleaned) != m or any(ch not in "+-" for ch in cleaned):
        print(
            f"error: {what} needs exactly {m} characters from '+-', got {text!r}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return tuple(1 if ch == "+" else -1 for ch in cleaned)


def _classification_payload(g) -> dict:
    payload: dict = {}
    gm2 = classify_gminus2(g)
    eqg = classify_equals_g(g)
    payload["girth_minus_2"] = (
        None
        if gm2 is None
        else {
            "case": gm2.case,
            "name": _CASE_NAMES[(gm2.target, gm2.case)],
            "certificate": gm2.certificate,
        }
    )
    payload["equals_girth"] = (
        None
        if eqg is None
        else {
            "case": eqg.case,
            "name": _CASE_NAMES[(eqg.target, eqg.case)],
            "certificate": eqg.certificate,
            "figure_deferred": eqg.figure_deferred,
        }
    )
    return payload


def _cmd_analyze(args) -> int:
    g = _load(args.file)
    prof = profile(g)
    report = exact_rank(adjacency_matrix(g))
    info = {
        "vertices": g.n,
        "edges": g.m,
        "components": prof.components,
        "cyclomatic": prof.cyclomatic,
        "pendants": prof.pendant_count,
        "bipartite": prof.bipartite,
        "girth": prof.girth,
        "balanced": prof.balanced,
        "rank": report.rank,
        "nullity": report.nullity,
    }
    classifiable = prof.components == 1 and prof.girth is not None
    if classifiable:
        info["classification"] = _classification_payload(g)
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    for key in (
        "vertices",
        "edges",
        "components",
        "cyclomatic",
        "pendants",
        "bipartite",
        "girth",
        "balanced",
        "rank",
        "nullity",
    ):
        value = info[key]
        if key == "girth" and value is None:
            value = "none (forest)"
        print(f"{key}: {value}")
    if classifiable:
        print(f"rank - girth: {report.rank - prof.girth}")
        cls = info["classification"]
        for label, entry in (
            ("rank girth-2 family", cls["girth_minus_2"]),
            ("rank girth family", cls["equals_girth"]),
        ):
            if entry is None:
                print(f"{label}: none")
            else:
                print(f"{label}: case {entry['case']} ({entry['name']})")
    else:
        print("classification: not applicable (needs one component and a cycle)")
    return 0


def _cmd_classify(args) -> int:
    g = _load(args.file)
    if g.n == 0 or g.m < g.n or not is_connected(g):
        print(
            "error: classification needs a connected graph containing a cycle",
            file=sys.stderr,
        )
        return 2
    payload = _classification_payload(g)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for label, entry in (
        ("rank girth-2", payload["girth_minus_2"]),
        ("rank girth", payload["equals_girth"]),
    ):
        if entry is None:
            print(f"{label}: no match")
        else:
            print(f"{label}: case {entry['case']} ({entry['name']})")
            print(f"  certificate: {json.dumps(entry['certificate'], sort_keys=True)}")
    return 0


def _build_family_spec(args):
    if args.family == "path":
        return families.Path(args.n)
    if args.family == "cycle":
        return families.Cycle(args.n, balanced=not args.unbalanced)
    if args.family == "complete-bipartite":
        return families.BalancedCompleteBipartite(args.sides[0], args.sides[1])
    if args.family == "tripartite":
        sizes = tuple(args.sizes)
        n = sum(sizes)
        pol = (
            _signs_arg(args.polarities, n, "--polarities")
            if args.polarities
            else tuple([1] * n)
        )
        pair = (
            _signs_arg(args.pair_signs, 3, "--pair-signs")
            if args.pair_signs
            else (1, 1, 1)
        )
        return families.TripartiteRank3(sizes, pol, pair)
    if args.family == "unicyclic":
        stars = {}
        if args.stars:
            for item in args.stars.split(","):
                pos, _, count = item.partition(":")
                try:
                    stars[int(pos)] = int(count)
                except ValueError:
                    print(
                        f"error: --stars expects pos:leaves pairs, got {item!r}",
                        file=sys.stderr,
                    )
                    raise SystemExit(2)
        return families.CanonicalUnicyclic(args.cycle_length, stars)
    if args.family == "theta":
        p, l, q = args.orders
        m = p + l + q - 3
        signs = _signs_arg(args.signs, m, "--signs") if args.signs else None
        return families.Theta(p, l, q, signs)
    if args.family == "subdivided-k4":
        if args.all_six_cycles_negative:
            signs = families.subdivided_k4_all_negative_six_cycle_signs()
        elif args.signs:
            signs = _signs_arg(args.signs, 12, "--signs")
        else:
            signs = None
        return families.SubdividedK4(signs)
    if args.family == "cycle-star":
        return families.CycleStar(
            args.cycle_length, args.leaves, balanced=not args.unbalanced
        )
    raise AssertionError(args.family)


def _cmd_generate(args) -> int:
    spec = _build_family_spec(args)
    try:
        g = families.generate(spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    comments = [f"family: {args.family}"]
    expected = families.expected_rank(spec)
    if expected is not None:
        comments.append(f"expected rank: {expected}")
    text = write_sgr(g, comments=comments)
    if args.output:
        _write(args.output, text)
    else:
        sys.stdout.write(text)
    if args.rank:
        actual = exact_rank(adjacency_matrix(g)).rank
        line = f"rank: {actual}"
        if expected is not None:
            line += f" (closed form: {expected})"
        print(line)
    return 0


def _cmd_verify(args) -> int:
    if args.list_checks:
        for name in sorted(CHECKS):
            info = CHECKS[name]
            marker = "default" if info.default else "opt-in"
            print(f"{name} [{marker}, {info.kind}]: {info.doc}")
        return 0
    checks = (
        tuple(args.checks.split(",")) if args.checks else DEFAULT_CHECKS
    )
    config = SweepConfig(
        max_n_dense=args.max_n,
        max_n_sparse=args.sparse_max_n,
        max_cyclomatic=args.max_cyclomatic,
        graph6_paths=tuple(args.graph6 or ()),
        jobs=args.jobs,
        checks=checks,
        max_counterexamples=args.max_counterexamples,
    )
    try:
        config.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json == "-" and args.counterexamples == "-":
        print("error: --json and --counterexamples cannot both be '-' (stdout)",
              file=sys.stderr)
        return 2
    for path in (args.json, args.counterexamples):
        if path and path != "-":
            _check_writable(path)
    try:
        report = run(config)
    except (Graph6Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # keep stdout pure JSON or CSV when either goes there
    human = sys.stderr if "-" in (args.json, args.counterexamples) else sys.stdout
    print(
        f"graphs: {report.graphs}  instances: {report.instances}  "
        f"elapsed: {report.elapsed_seconds:.1f}s",
        file=human,
    )
    print("counters: " + " ".join(f"{name}={count}" for name, count in report.counters.items()),
          file=human)
    if report.skipped_graph6_records:
        print(
            f"skipped graph6 records (disconnected or acyclic): "
            f"{report.skipped_graph6_records}",
            file=human,
        )
    for name in sorted(config.checks):
        checked = report.checked.get(name, 0)
        failures = report.failures.get(name, 0)
        status = "ok" if failures == 0 else "FAIL"
        print(f"{status} {name}: checked={checked} failures={failures}", file=human)
    if args.json:
        text = report.to_json()
        if args.json == "-":
            print(text)
        else:
            _write(args.json, text + "\n")
    if args.counterexamples == "-":
        write_counterexamples_csv(report, sys.stdout)
    elif args.counterexamples:
        try:
            write_counterexamples_csv(report, args.counterexamples)
        except OSError as exc:
            _path_error(args.counterexamples, exc.strerror or exc)
        print(f"counterexamples written to {args.counterexamples}", file=human)
    return 1 if report.total_failures() else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgrank",
        description="Exact ranks, girths and extremal classification of signed graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="invariants and exact rank of an .sgr file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("classify", help="extremal family membership of an .sgr file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("generate", help="emit a family member as .sgr")
    fam = p.add_subparsers(dest="family", required=True)

    def common(sp):
        sp.add_argument("-o", "--output", help="write to a file instead of stdout")
        sp.add_argument(
            "--rank", action="store_true", help="also compute and print the rank"
        )
        sp.set_defaults(func=_cmd_generate)

    sp = fam.add_parser("path")
    sp.add_argument("--n", type=int, required=True)
    common(sp)

    sp = fam.add_parser("cycle")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--unbalanced", action="store_true")
    common(sp)

    sp = fam.add_parser("complete-bipartite")
    sp.add_argument("--sides", type=int, nargs=2, required=True, metavar=("A", "B"))
    common(sp)

    sp = fam.add_parser("tripartite")
    sp.add_argument("--sizes", type=int, nargs=3, required=True, metavar=("A", "B", "C"))
    sp.add_argument("--polarities", help="one +/- per vertex")
    sp.add_argument("--pair-signs", help="three +/- for the part pairs 12,13,23")
    common(sp)

    sp = fam.add_parser("unicyclic")
    sp.add_argument("--cycle-length", type=int, required=True)
    sp.add_argument("--stars", help="comma list of position:leaves, e.g. 0:2,3:1")
    common(sp)

    sp = fam.add_parser("theta")
    sp.add_argument("--orders", type=int, nargs=3, required=True, metavar=("P", "L", "Q"))
    sp.add_argument("--signs", help="+/- per edge in sorted edge order")
    common(sp)

    sp = fam.add_parser("subdivided-k4")
    sp.add_argument("--signs", help="12 +/- in sorted edge order")
    sp.add_argument(
        "--all-six-cycles-negative",
        action="store_true",
        help="canonical signing with every 6-cycle negative",
    )
    common(sp)

    sp = fam.add_parser("cycle-star")
    sp.add_argument("--cycle-length", type=int, required=True)
    sp.add_argument("--leaves", type=int, required=True)
    sp.add_argument("--unbalanced", action="store_true")
    common(sp)

    p = sub.add_parser("verify", help="exhaustive sweeps; exit 1 on counterexamples")
    p.add_argument("--max-n", type=int, default=7, help="dense slice order cap")
    p.add_argument(
        "--sparse-max-n", type=int, default=10, help="sparse slice order cap"
    )
    p.add_argument("--max-cyclomatic", type=int, default=3)
    p.add_argument(
        "--graph6",
        action="append",
        metavar="PATH",
        help="also sweep underlying graphs from a graph6 file (repeatable)",
    )
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument(
        "--checks",
        help="comma list replacing the default checks (see --list-checks)",
    )
    p.add_argument("--list-checks", action="store_true")
    p.add_argument("--json", metavar="PATH", help="write the JSON report ('-' = stdout)")
    p.add_argument(
        "--counterexamples", metavar="PATH",
        help="write counterexamples as CSV ('-' = stdout)",
    )
    p.add_argument("--max-counterexamples", type=int, default=50)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
