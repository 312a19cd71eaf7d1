"""Command-line entry point.

Subcommands: run a scenario file and export trace/events/summary,
check a graph file against the detection conditions, generate a
layered graph, or replay all golden scenarios.

Exit codes: 0 success, 1 unreadable input, 2 validation or argument
error, 3 failed condition or golden check, 4 generator self-check bug.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .graph import (
    GraphError,
    LayeredVariant,
    check_alg2_condition,
    check_alg3_condition,
    generate_layered,
    is_k_strongly_connected,
    read_edge_list,
    write_edge_list,
)
from .golden import GOLDEN_CASES
from .sim import (
    ScenarioError,
    convergence_round,
    load_scenario,
    run as run_scenario,
    summary,
    write_events_csv,
    write_trace_csv,
)

EXIT_OK = 0
EXIT_UNREADABLE = 1
EXIT_INVALID = 2
EXIT_CHECK_FAILED = 3
EXIT_GENERATOR_BUG = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="racsim",
        description="Resilient average consensus simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and export trace files")
    p_run.add_argument("--scenario", required=True, help="scenario JSON file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p_run.add_argument("--exact", action="store_true", help="use exact rational arithmetic")
    p_run.add_argument("--tol", type=float, default=None, help="override value-comparison tolerance")

    p_check = sub.add_parser("check-graph", help="check a graph file against detection conditions")
    p_check.add_argument("graph", help="edge-list file")
    p_check.add_argument("-f", type=int, required=True, dest="f", help="adversary bound")
    p_check.add_argument("--alg2", action="store_true", help="check the sharing-detection condition")
    p_check.add_argument("--alg3", action="store_true", help="check the distributed-detection condition")
    p_check.add_argument("--k-strong", type=int, default=None, help="check k-strong connectivity")

    p_gen = sub.add_parser("gen-graph", help="generate a layered graph file")
    p_gen.add_argument("--layers", type=int, required=True)
    p_gen.add_argument("-f", type=int, required=True, dest="f")
    p_gen.add_argument(
        "--variant",
        choices=[v.value for v in LayeredVariant],
        default=LayeredVariant.UNDIRECTED_PATH.value,
    )
    p_gen.add_argument("--out", required=True, help="output edge-list file")

    sub.add_parser("golden", help="run all golden scenarios and report pass/fail")
    return parser


def _invalid_scenario(exc: ScenarioError) -> int:
    for problem in exc.problems:
        print(f"invalid scenario: {problem}", file=sys.stderr)
    return EXIT_INVALID


def cmd_run(args) -> int:
    try:
        scenario = load_scenario(Path(args.scenario))
    except OSError as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_UNREADABLE
    except json.JSONDecodeError as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ScenarioError as exc:
        return _invalid_scenario(exc)
    if args.seed is not None:
        scenario.seed = args.seed
    if args.exact:
        scenario.exact = True
    if args.tol is not None:
        scenario.value_tol = args.tol
    try:
        trace = run_scenario(scenario)
    except ScenarioError as exc:
        return _invalid_scenario(exc)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trace_csv(trace, out_dir / "trace.csv")
    write_events_csv(trace, out_dir / "events.csv")
    (out_dir / "summary.json").write_text(json.dumps(summary(trace), indent=2) + "\n")
    print(json.dumps(summary(trace)))
    return EXIT_OK


def cmd_check_graph(args) -> int:
    try:
        g = read_edge_list(Path(args.graph).read_text())
    except OSError as exc:
        print(f"cannot read graph: {exc}", file=sys.stderr)
        return EXIT_UNREADABLE
    except GraphError as exc:
        print(f"invalid graph: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if args.alg2 and not g.undirected:
        print("the sharing-detection condition applies to undirected graphs only", file=sys.stderr)
        return EXIT_INVALID
    ok = True
    if args.alg3:
        report = check_alg3_condition(g, args.f)
        _print_report("distributed-detection condition", report)
        ok = ok and report.satisfied
    if args.alg2:
        report = check_alg2_condition(g, args.f)
        _print_report("sharing-detection condition", report)
        ok = ok and report.satisfied
    if args.k_strong is not None:
        try:
            result = is_k_strongly_connected(g, args.k_strong)
        except GraphError as exc:
            print(f"invalid arguments: {exc}", file=sys.stderr)
            return EXIT_INVALID
        print(f"{args.k_strong}-strong connectivity: {'pass' if result else 'fail'}")
        ok = ok and result
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _print_report(label: str, report) -> None:
    print(f"{label}: {'pass' if report.satisfied else 'fail'}")
    for v in report.violations[:20]:
        print(f"  violation {v.condition} at {v.subject}")
    if len(report.violations) > 20:
        print(f"  ... {len(report.violations) - 20} more")


def cmd_gen_graph(args) -> int:
    try:
        g = generate_layered(args.layers, args.f, LayeredVariant(args.variant))
    except GraphError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return EXIT_INVALID
    report = check_alg3_condition(g, args.f)
    if not report.satisfied:
        print("generated graph fails its own condition check", file=sys.stderr)
        return EXIT_GENERATOR_BUG
    Path(args.out).write_text(write_edge_list(g))
    print(f"wrote {g.n}-node graph to {args.out}")
    return EXIT_OK


def cmd_golden(args) -> int:
    all_ok = True
    for case in GOLDEN_CASES:
        trace = run_scenario(case.build())
        normals = sorted(trace.normal_nodes)
        if case.target is None:
            # negative control: part of the network must stay off target
            final_err = max(abs(float(trace.r[i][trace.horizon]) - 4.8) for i in normals)
            ok = final_err > 0.1
            detail = f"max final error {final_err:.4f} (expected > 0.1)"
        else:
            final_err = max(
                abs(float(trace.r[i][trace.horizon]) - case.target) for i in normals
            )
            ok = final_err <= case.tol
            detail = f"target {case.target:.5f} max error {final_err:.2e} (tol {case.tol:g})"
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'} {case.name}: {detail}")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": cmd_run,
        "check-graph": cmd_check_graph,
        "gen-graph": cmd_gen_graph,
        "golden": cmd_golden,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
