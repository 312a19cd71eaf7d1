#!/usr/bin/env python3
"""racsim benchmark.

    python3 perfbench/run.py --workload golden --seed 1 --seconds 30 --trace 0

Runs one workload in this process, on one thread, as a closed loop: a
scenario starts only when the previous one has been run, checked and
exported. A pass sets the workload up and runs each of its scenarios
once; passes repeat while the next one is expected to end within
--seconds, and at least twice. Every run is checked, and a run that
raises or fails a check counts as failed without stopping the
benchmark.

--trace 0 reports the end-to-end metrics, with no tracing installed.
--trace 1 alternates untraced and traced passes, each with its own
set-up, for --seconds and at least twice each, and reports the
per-layer metrics of the traced passes; it also checks that every
traced pass counts the same calls and that tracing leaves every
exported file unchanged.

Timings are taken with speed.SpeedClock and scaled to a reference
speed of the machine by the probes taken while they ran; see speed.py.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give the
same figures for a reader, with the inputs' properties.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Optional

from speed import SpeedClock, scale
from tracer import MAJORITY, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCENARIO_DIR = ROOT / "scenarios"
OUT_DIR = ROOT / ".perfbench_out"
DIGESTS = BENCH_DIR / "digests.json"

WORKLOADS = ("golden", "layered-detect", "layered-none", "exact-golden")
EXACT_HORIZON = 60
# Set-up takes milliseconds, so it is repeated before every pass and the
# median of all set-ups in the run is reported.
SETUPS_PER_PASS = 5
MIN_PASSES = 2
# --trace 1 alternates untraced and traced passes, at least this many of each
TRACED_PASSES = 2
@dataclass
class Case:
    """One scenario of a workload, with what its checks need."""

    name: str
    scenario: object = None
    target: Optional[float] = None  # golden cases only; None is the negative control
    tol: float = 0.0
    problem: Optional[str] = None  # set-up or preflight failure: every attempt fails


@dataclass
class Pass:
    attempted: int = 0
    failed: int = 0
    # totals over the runs that passed their checks
    node_rounds: int = 0
    run_s: float = 0.0
    export_s: float = 0.0
    # run() and export of every run, passed or not, for the trace overhead
    busy_s: float = 0.0
    # probe times (speed.py) taken during run(), during export and, set
    # by the caller, during the whole pass with its set-up
    run_probes: list = field(default_factory=list)
    export_probes: list = field(default_factory=list)
    probes: list = field(default_factory=list)

    def scale(self) -> float:
        return scale(self.probes)

    def scaled_run_s(self) -> float:
        return self.run_s * scale(self.run_probes or self.probes)

    def scaled_export_s(self) -> float:
        return self.export_s * scale(self.export_probes or self.probes)
    export_bytes: int = 0
    verdicts: int = 0
    failures: Counter = field(default_factory=Counter)
    digests: dict = field(default_factory=dict)


def import_racsim():
    if not (SRC / "racsim" / "__init__.py").is_file():
        sys.exit(f"racsim sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import racsim.detection
    import racsim.golden
    import racsim.graph
    import racsim.protocol
    import racsim.sim

    return racsim


# set-up: everything before the first run()


def preflight(rs, sc) -> bool:
    """The detector's topology condition; without a detector, the
    layered generator's own condition check, as `racsim gen-graph` does."""
    if sc.detection is rs.sim.DetectionMode.ALG2:
        return rs.graph.check_alg2_condition(sc.graph, sc.f).satisfied
    return rs.graph.check_alg3_condition(sc.graph, sc.f).satisfied


def setup_golden(rs, exact: bool) -> list[Case]:
    cases = []
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        case = Case(name=path.stem)
        cases.append(case)
        try:
            golden = rs.golden.golden_case(path.stem)
            sc = rs.sim.load_scenario(path)
            if exact:
                sc = replace(sc, exact=True, horizon=EXACT_HORIZON)
            problems = sc.validate()
            # the negative control is built to violate the condition
            expect = golden.target is not None
            if problems:
                case.problem = "ScenarioError: " + "; ".join(problems)
            elif preflight(rs, sc) != expect:
                case.problem = f"preflight: condition satisfied is not {expect}"
            case.scenario, case.target, case.tol = sc, golden.target, golden.tol
        except Exception as exc:  # counted as a failed operation
            case.problem = f"{type(exc).__name__}: {exc}"
    return cases


def setup_layered(rs, seed: int, specs) -> list[Case]:
    """specs: (layers, f, detectors, horizon); each detector runs on the
    same generated graph and the same x0."""
    g_mod, sim = rs.graph, rs.sim
    rng = random.Random(seed)
    cases = []
    for layers, f, detectors, horizon in specs:
        g = g_mod.generate_layered(layers, f, g_mod.LayeredVariant.UNDIRECTED_PATH)
        x0 = tuple(rng.uniform(0.0, 10.0) for _ in range(g.n))
        for det in detectors:
            mode = sim.DetectionMode(det)
            sc = sim.Scenario(
                graph=g, x0=x0, f=f, detection=mode,
                sharing_oracle=mode is sim.DetectionMode.ALG2, horizon=horizon,
            )
            case = Case(name=f"n{g.n}-f{f}-{det}", scenario=sc)
            problems = sc.validate()
            if problems:
                case.problem = "ScenarioError: " + "; ".join(problems)
            elif not preflight(rs, sc):
                case.problem = "preflight: generated graph fails its detector's condition"
            cases.append(case)
    return cases


def setup(rs, workload: str, seed: int) -> list[Case]:
    if workload == "golden":
        return setup_golden(rs, exact=False)
    if workload == "exact-golden":
        return setup_golden(rs, exact=True)
    if workload == "layered-detect":
        return setup_layered(rs, seed, ((40, 1, ("alg3", "alg2"), 100), (12, 2, ("alg3",), 100)))
    return setup_layered(rs, seed, ((80, 1, ("none",), 400),))


# one scenario run: run(), export, checks


def export(rs, trace, out: Path) -> None:
    """What `racsim run` writes and prints after a run."""
    rs.sim.write_trace_csv(trace, out / "trace.csv")
    rs.sim.write_events_csv(trace, out / "events.csv")
    rs.sim.summary(trace)


def digest(out: Path) -> tuple[int, dict]:
    size, digests = 0, {}
    for kind in ("trace", "events"):
        data = (out / f"{kind}.csv").read_bytes()
        size += len(data)
        digests[kind] = hashlib.sha256(data).hexdigest()
    return size, digests


def check(rs, workload: str, case: Case, trace, digests: dict, reference: dict) -> list[str]:
    problems = []
    if workload in ("golden", "exact-golden"):
        want = reference.get(workload, {}).get(case.name)
        if want != digests:
            problems.append(f"digest mismatch: {digests} != {want}")
    if workload == "golden":
        h = case.scenario.horizon
        normals = sorted(trace.normal_nodes)
        if case.target is None:
            # part of the damaged six-node network must stay off the
            # undamaged network's average, as `racsim golden` checks
            err = max(abs(float(trace.r[i][h]) - 4.8) for i in normals)
            if not err > 0.1:
                problems.append(f"negative control reached its target (error {err})")
        else:
            err = max(abs(float(trace.r[i][h]) - case.target) for i in normals)
            if not err <= case.tol:
                problems.append(f"missed target {case.target} by {err}")
    if workload.startswith("layered"):
        sc = trace.scenario
        if trace.events:
            problems.append(f"{len(trace.events)} verdicts without adversaries")
        sx, n, tol = sum(sc.x0), sc.graph.n, sc.value_tol
        for k, (sy, sz) in enumerate(rs.sim.mass_sums(trace, sc.graph.nodes)):
            if abs(sy - sx) > tol or abs(sz - n) > tol:
                problems.append(f"mass not conserved at round {k}: {sy} vs {sx}, {sz} vs {n}")
                break
    return problems


def run_pass(rs, clock: SpeedClock, workload: str, cases: list[Case], reference: dict) -> Pass:
    """Run, export and check each case once; the caller sets p.probes."""
    p = Pass()
    for case in cases:
        p.attempted += 1
        try:
            if case.problem is not None:
                raise RuntimeError(case.problem)
            sc = case.scenario
            mark, start = clock.mark(), clock.now()
            trace = rs.sim.run(sc)
            run_s = clock.now() - start
            p.run_probes += clock.since(mark)
            p.verdicts += len(trace.events)
            out = OUT_DIR / workload / case.name
            out.mkdir(parents=True, exist_ok=True)
            mark, start = clock.mark(), clock.now()
            export(rs, trace, out)
            export_s = clock.now() - start
            p.export_probes += clock.since(mark)
            size, digests = digest(out)
            # a fresh file for every export: ext4 starts writeback when a
            # file that held data is truncated and written again, which
            # would put the disk's latency into export_s
            shutil.rmtree(out)
            p.busy_s += run_s + export_s
            p.export_bytes += size
            p.digests[case.name] = digests
            problems = check(rs, workload, case, trace, digests, reference)
            if problems:
                raise AssertionError(f"{case.name}: " + "; ".join(problems))
            # only runs that passed their checks count toward the timings
            p.run_s += run_s
            p.export_s += export_s
            p.node_rounds += sc.graph.n * sc.horizon
        except Exception as exc:  # a failed operation: record it and go on
            p.failed += 1
            p.failures[type(exc).__name__] += 1
            if sum(p.failures.values()) == 1:
                traceback.print_exc(file=sys.stderr)
    return p


# reporting


def properties(workload: str, seed: int, cases: list[Case]) -> list[str]:
    lines = [
        f"workload {workload}: seed {seed}, python {platform.python_version()}, "
        f"nproc {os.cpu_count()}, one process, one thread, closed loop"
    ]
    total = 0
    for c in cases:
        sc = c.scenario
        if sc is None:
            lines.append(f"  {c.name}: not set up ({c.problem})")
            continue
        n, e = sc.graph.n, len(sc.graph.edges)
        total += n * sc.horizon
        lines.append(
            f"  {c.name}: n {n}, |E| {e}, mean in-degree {e / n:.2f}, f {sc.f}, "
            f"horizon {sc.horizon}, detector {sc.detection.value}, "
            f"arithmetic {'exact' if sc.exact else 'float'}, "
            f"adversaries {len(sc.adversaries)}, n*horizon {n * sc.horizon}"
        )
    lines.append(f"  sum of n*horizon per pass: {total}")
    return lines


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def report_runs(passes: list[Pass], mismatched: int = 0) -> tuple[int, int]:
    """Print and return the attempted and failed scenario runs; a run
    whose export differs from the first pass's counts as failed."""
    attempted = sum(p.attempted for p in passes)
    failures = sum((p.failures for p in passes), Counter())
    if mismatched:
        failures["NonDeterministicExport"] += mismatched
    failed = sum(p.failed for p in passes) + mismatched
    print(
        f"{attempted} scenario runs in {len(passes)} passes, {failed} failed "
        f"(failed_share {failed / attempted:.4f}); failures by type: {dict(failures)}"
    )
    return attempted, failed


def end_to_end(rs, workload: str, seed: int, seconds: float, reference: dict):
    setup_s, passes = [], []
    deadline = perf_counter() + seconds
    pass_s = 0.0
    with SpeedClock() as clock:
        # stop before a pass that would end after the deadline
        while len(passes) < MIN_PASSES or perf_counter() + pass_s <= deadline:
            start, mark = perf_counter(), clock.mark()
            setups = []
            for _ in range(SETUPS_PER_PASS):
                t = clock.now()
                cases = setup(rs, workload, seed)
                setups.append(clock.now() - t)
            if not passes:
                for line in properties(workload, seed, cases):
                    print(line)
            p = run_pass(rs, clock, workload, cases, reference)
            p.probes = clock.since(mark)
            passes.append(p)
            setup_s += [t * p.scale() for t in setups]
            pass_s = perf_counter() - start
    first = passes[0].digests
    mismatched = sum(1 for p in passes[1:] for name, d in p.digests.items() if first.get(name) != d)
    attempted, failed = report_runs(passes, mismatched)
    # Medians over passes: a pass that hits a stall of the machine (a file
    # system or host hiccup that the probes do not see) is left out.
    # With any failed run a pass covers fewer scenarios than the workload,
    # so the throughput is not valid and reads 0.
    throughput = 0.0
    if not failed:
        throughput = statistics.median(p.node_rounds / p.scaled_run_s() for p in passes)
    metrics = {
        "node_rounds_per_s": metric(throughput, "node-rounds/s"),
        "export_s": metric(statistics.median(p.scaled_export_s() for p in passes), "s"),
        "setup_s": metric(statistics.median(setup_s), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MiB"),
        "ok_share": metric((attempted - failed) / attempted, "share"),
    }
    scales = sorted(p.scale() for p in passes)
    print(
        f"node_rounds_per_s and export_s are medians over {len(passes)} passes; "
        f"setup_s is the median of {len(setup_s)} set-ups; the passes' speed scales "
        f"run from {scales[0]:.3f} to {scales[-1]:.3f}"
    )
    return attempted, failed, metrics


def per_layer(rs, workload: str, seed: int, seconds: float, reference: dict):
    # untraced and traced passes alternate, so that both sides see the
    # same mix of fast and slow phases of the machine
    untraced, traced = [], []
    deadline = perf_counter() + seconds
    pair_s = 0.0
    with SpeedClock() as clock:
        while len(traced) < TRACED_PASSES or perf_counter() + pair_s <= deadline:
            pair_start, mark = perf_counter(), clock.mark()
            cases = setup(rs, workload, seed)
            if not untraced:
                for line in properties(workload, seed, cases):
                    print(line)
            p = run_pass(rs, clock, workload, cases, reference)
            p.probes = clock.since(mark)
            untraced.append(p)
            tracer, mark = Tracer(), clock.mark()
            with tracer.installed():
                p = run_pass(rs, clock, workload, setup(rs, workload, seed), reference)
            p.probes = clock.since(mark)
            traced.append((tracer, p))
            pair_s = perf_counter() - pair_start
    base = untraced[0]

    problems = []
    counts = [(t.counts(), p.export_bytes, p.verdicts) for t, p in traced]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("traced passes disagree on call counts, export bytes or verdicts")
    if any(p.digests != base.digests for p in untraced + [p for _, p in traced]):
        problems.append("traced exports differ from untraced exports")
    for problem in problems:
        print(f"self-test failed: {problem}")

    t0, p0 = traced[0]

    def calls(name):
        return metric(t0.calls(name), "count")

    def seconds(name, self_time=False):
        times = [(t.self_time(name) if self_time else t.total(name)) * p.scale() for t, p in traced]
        return metric(statistics.fmean(times), "s")

    def ratio(num, den):
        return metric(num / den if den else 0.0, "ratio")

    votes = t0.calls("detection.vote")
    # each message a node broadcasts is built once by build_information_set
    messages = t0.calls("protocol.build_information_set")
    metrics = {
        "sim.run.self_s": seconds("sim.run", self_time=True),
        "sim.write_trace_csv.s": seconds("sim.write_trace_csv"),
        "sim.write_events_csv.s": seconds("sim.write_events_csv"),
        "sim.export.bytes": metric(p0.export_bytes, "bytes"),
        "sim.load_scenario.s": seconds("sim.load_scenario"),
        "detection.detect_alg3.calls": calls("detection.detect_alg3"),
        "detection.detect_alg3.self_s": seconds("detection.detect_alg3", self_time=True),
        "detection.detect_alg2.calls": calls("detection.detect_alg2"),
        "detection.detect_alg2.self_s": seconds("detection.detect_alg2", self_time=True),
        "detection.replay.calls": calls("detection.replay"),
        "detection.replay.s": seconds("detection.replay"),
        "detection.replay.per_message": ratio(t0.calls("detection.replay"), messages),
        "detection.vote.calls": calls("detection.vote"),
        "detection.vote.s": seconds("detection.vote"),
        "detection.vote.majority_ratio": ratio(t0.calls(MAJORITY), votes),
        "detection.oracle.calls": calls("detection.oracle"),
        "detection.oracle.s": seconds("detection.oracle"),
        "detection.verdicts": metric(p0.verdicts, "count"),
        "protocol.honest_round.calls": calls("protocol.honest_round"),
        "protocol.honest_round.s": seconds("protocol.honest_round"),
        "protocol.build_information_set.s": seconds("protocol.build_information_set"),
        "protocol.bootstrap.s": seconds("protocol.bootstrap"),
        "protocol.pair_eq.calls": calls("protocol.pair_eq"),
        "adversary.forge.calls": calls("adversary.forge"),
        "adversary.forge.s": seconds("adversary.forge"),
        "adversary.tampered_inbox.s": seconds("adversary.tampered_inbox"),
        "graph.lookup.calls": calls("graph.lookup"),
        "graph.generate_layered.s": seconds("graph.generate_layered"),
        "graph.condition.s": seconds("graph.condition"),
        # fastest traced pass over fastest untraced pass, run() and export only
        "trace.overhead": metric(
            min(p.busy_s * p.scale() for _, p in traced) / min(p.busy_s * p.scale() for p in untraced),
            "ratio",
        ),
    }
    attempted, failed = report_runs(untraced + [p for _, p in traced])
    print(
        f"passes: {len(untraced)} untraced and {len(traced)} traced, alternating; per-layer "
        "times are the mean of the traced passes, each scaled by its pass's speed"
    )
    return attempted, failed, metrics, not problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    rs = import_racsim()
    reference = json.loads(DIGESTS.read_text())
    try:
        if args.trace:
            attempted, failed, metrics, self_test_ok = per_layer(
                rs, args.workload, args.seed, args.seconds, reference
            )
        else:
            attempted, failed, metrics = end_to_end(rs, args.workload, args.seed, args.seconds, reference)
            self_test_ok = True
    finally:
        shutil.rmtree(OUT_DIR, ignore_errors=True)

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": failed == 0 and self_test_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
