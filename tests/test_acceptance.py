"""End-to-end acceptance suite.

Each test checks one numbered criterion at its stated tolerance and
prints a single pass/fail line (run pytest with -s to see them all
inline; failures carry the same line in the assertion message).
"""

import itertools
import random
from functools import lru_cache

from racsim.adversary import ActionKind, AttackAction, AttackScript
from racsim.detection import vote_value
from racsim.fixtures import twelve_node_wrap_graph
from racsim.golden import golden_case
from racsim.graph import (
    DirectedGraph,
    check_alg3_condition,
    complete_graph,
    is_k_strongly_connected,
)
from racsim.protocol import ValueRule
from racsim.sim import DetectionMode, Scenario, mass_sums, run
from racsim.fixtures import (
    five_node_graph,
    fourteen_node_graph,
    six_node_graph,
)
from oracles import brute_alg3_condition, brute_k_strongly_connected


SIX_X0 = tuple(golden_case("six-attack").data["x0"])
FOURTEEN_X0 = tuple(golden_case("fourteen-attack").data["x0"])
FIVE_X0 = tuple(golden_case("five-sharing").data["x0"])


@lru_cache(maxsize=None)
def golden_trace(name: str):
    return run(golden_case(name).build())


# fourteen-attack's node 2 starts tampering in this round
SECOND_STAGE_ROUND = 12


def _report(number: int, label: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {label}{suffix}"
    print(line)
    assert ok, line


def _max_final_error(trace, nodes, target: float) -> float:
    return max(abs(float(trace.r[i][trace.horizon]) - target) for i in nodes)


def test_criterion_01_adversary_free_baseline():
    ok = True
    details = []
    rng = random.Random(42)
    cases = [
        (complete_graph(4), (1.0, 2.0, 3.0, 4.0)),
        (twelve_node_wrap_graph(), tuple(rng.uniform(-10, 10) for _ in range(12))),
    ]
    for g, x0 in cases:
        sc = Scenario(graph=g, x0=x0, detection=DetectionMode.NONE, horizon=100)
        trace = run(sc)
        mean = sum(x0) / g.n
        err = max(abs(float(trace.r[i][100]) - mean) for i in g.nodes)
        ok = ok and err <= 1e-8
        sums = mass_sums(trace, g.nodes)
        y_drift = max(abs(float(sy) - sum(x0)) for sy, _ in sums)
        z_drift = max(abs(float(sz) - g.n) for _, sz in sums)
        ok = ok and y_drift <= 1e-9 and z_drift <= 1e-9
        details.append(f"n={g.n} err {err:.1e} drift {max(y_drift, z_drift):.1e}")
    _report(1, "adversary-free baseline", ok, "; ".join(details))


def test_criterion_02_six_node_attack():
    trace = golden_trace("six-attack")
    err = _max_final_error(trace, range(1, 6), 4.8)
    ok = err <= 1e-6
    # first forged message carries index 3 and lands one round later
    first_round = min(e.round for e in trace.events if e.suspect == 6)
    detectors = {e.detector for e in trace.events if e.suspect == 6 and e.round == 4}
    normal_out = trace.scenario.graph.out_neighbors(6) - {6}
    ok = ok and first_round == 4 and normal_out <= detectors
    _report(2, "6-node attack recovers 4.8", ok,
            f"err {err:.1e}, detected at round {first_round} by {sorted(detectors)}")


def test_criterion_03_six_node_negative_control():
    trace = golden_trace("six-damaged")
    misled = max(abs(float(trace.r[i][trace.horizon]) - 4.8) for i in (1, 3, 5))
    detectors = {e.detector for e in trace.events}
    ok = misled > 0.1 and {2, 4} <= detectors and not detectors & {1, 3, 5}
    _report(3, "damaged 6-node graph misleads nodes 1, 3, 5", ok,
            f"off-target by {misled:.3f}, detectors {sorted(detectors)}")


def test_criterion_04_fourteen_node_staged_attack():
    clean = golden_trace("fourteen-no-attack")
    attacked = golden_trace("fourteen-attack")
    normals = [i for i in range(1, 15) if i not in (2, 14)]
    err_clean = _max_final_error(clean, range(1, 15), 6.5)
    err_attack = _max_final_error(attacked, normals, 6.75)
    mid = max(
        abs(float(attacked.r[i][SECOND_STAGE_ROUND]) - 6.385) for i in normals
    )
    ok = err_clean <= 1e-6 and err_attack <= 1e-6 and mid <= 0.1
    _report(4, "14-node staged attack", ok,
            f"clean {err_clean:.1e}, attack {err_attack:.1e}, mid-run {mid:.3f}")


def test_criterion_05_eight_node_simultaneous_attack():
    trace = golden_trace("eight-attack")
    err = _max_final_error(trace, (1, 2, 8), 10.0)
    _report(5, "8-node simultaneous attack recovers 10", err <= 1e-6, f"err {err:.1e}")


def test_criterion_06_five_node_sharing_detection():
    trace = golden_trace("five-sharing")
    err = _max_final_error(trace, (1, 2, 3), 5.0)
    _report(6, "5-node sharing detection recovers 5", err <= 1e-6, f"err {err:.1e}")


def test_criterion_07_thirty_node_layered():
    clean = golden_trace("thirty-no-attack")
    attacked = golden_trace("thirty-attack")
    normals = [i for i in range(1, 31) if i not in (3, 6, 15, 18, 27, 30)]
    err_clean = _max_final_error(clean, range(1, 31), 6.8)
    err_attack = _max_final_error(attacked, normals, 154.0 / 24.0)
    ok = err_clean <= 1e-6 and err_attack <= 1e-3
    _report(7, "30-node layered network", ok,
            f"clean {err_clean:.1e}, attack {err_attack:.1e}")


def test_criterion_08_two_survivors_on_k5():
    x0 = (2.0, 5.0, 11.0, 3.0, 7.0)
    ok = True
    worst = 0.0
    for adversaries in itertools.combinations(range(1, 6), 3):
        sc = Scenario(
            graph=complete_graph(5),
            x0=x0,
            f=3,
            detection=DetectionMode.ALG3,
            adversaries=tuple(
                AttackScript(
                    node=v, schedule=((3, AttackAction(ActionKind.SET_SELF_VALUE)),)
                )
                for v in adversaries
            ),
            horizon=100,
        )
        trace = run(sc)
        normals = sorted(set(range(1, 6)) - set(adversaries))
        mean = sum(x0[i - 1] for i in normals) / 2
        err = _max_final_error(trace, normals, mean)
        worst = max(worst, err)
        ok = ok and err <= 1e-6 and set(trace.never_detected) == set(normals)
    _report(8, "any 3 forgers on K5 leave the survivors' mean", ok,
            f"worst err {worst:.1e} over 10 placements")


def test_criterion_09_post_recovery_mass():
    ok = True
    details = []
    for name in ("six-attack", "fourteen-no-attack", "fourteen-attack",
                 "eight-attack", "five-sharing", "thirty-no-attack",
                 "thirty-attack"):
        trace = golden_trace(name)
        keep = sorted(trace.never_detected)
        start = trace.settle_round + 2
        sums = mass_sums(trace, keep)[start:]
        y_target = sum(trace.scenario.x0[i - 1] for i in keep)
        y_err = max(abs(float(sy) - y_target) for sy, _ in sums)
        z_err = max(abs(float(sz) - len(keep)) for _, sz in sums)
        ok = ok and y_err <= 1e-9 and z_err <= 1e-9
        details.append(f"{name} {max(y_err, z_err):.1e}")
    _report(9, "mass conserved from two rounds after settling", ok,
            "; ".join(details))


def test_criterion_10_oracle_equivalence():
    rng = random.Random(9)
    ok = True
    for _ in range(200):
        n = rng.randint(3, 8)
        p = rng.uniform(0.2, 0.9)
        edges = {
            (a, b)
            for a in range(1, n + 1)
            for b in range(1, n + 1)
            if a != b and rng.random() < p
        }
        g = DirectedGraph(n, edges)
        k = rng.randint(1, 2)
        f = rng.randint(1, 2)
        ok = ok and is_k_strongly_connected(g, k) == brute_k_strongly_connected(
            n, edges, k
        )
        ok = ok and check_alg3_condition(g, f).satisfied == brute_alg3_condition(
            n, edges, f
        )
    rule = ValueRule()
    truth = (3.0, 4.0)
    for f in (1, 2):
        m = 2 * f + 1
        for size in range(f + 1):
            for forgers in itertools.combinations(range(m), size):
                reports = [
                    (50.0 + p, float(p)) if p in forgers else truth
                    for p in range(m)
                ]
                ok = ok and vote_value(reports, rule) == truth
    _report(10, "library agrees with brute-force oracles", ok)


def test_criterion_11_no_false_positives():
    rng = random.Random(17)
    setups = [
        (six_node_graph, 6, 1, DetectionMode.ALG3, [{v} for v in range(1, 7)]),
        (fourteen_node_graph, 14, 1, DetectionMode.ALG3, [{2}, {14}, {2, 14}]),
        (five_node_graph, 5, 2, DetectionMode.ALG2,
         [set(c) for r in (1, 2) for c in itertools.combinations(range(1, 6), r)]),
    ]
    ok = True
    checked = 0
    while checked < 50:
        build, n, f, mode, placements = setups[checked % len(setups)]
        x0 = tuple(float(rng.randint(-10, 10)) for _ in range(n))
        adversaries = tuple(
            AttackScript(node=v, schedule=((1, AttackAction(ActionKind.COMPLY)),))
            for v in sorted(rng.choice(placements))
        )
        sc = Scenario(
            graph=build(),
            x0=x0,
            f=f,
            detection=mode,
            sharing_oracle=mode is DetectionMode.ALG2,
            adversaries=adversaries,
            horizon=100,
        )
        trace = run(sc)
        mean = sum(x0) / n
        err = max(abs(float(trace.r[i][100]) - mean) for i in range(1, n + 1))
        ok = ok and not trace.events and err <= 1e-6
        checked += 1
    _report(11, "compliant adversaries never trigger verdicts", ok,
            f"{checked} scenarios")
