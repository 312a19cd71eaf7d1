"""Synchronous round engine and experiment plumbing.

Each round every node emits its message, the detection phase (one
detection.RoundPlan.detect call) audits the broadcasts and runs the
detectors, and the averaging update is applied. The engine records a
full numeric trace plus all detection events and offers JSON scenario
loading and CSV export.
"""

from __future__ import annotations

import json
import math
import sys
from array import array
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Optional

from .adversary import (
    ActionKind,
    AttackAction,
    AttackScript,
    TamperMode,
    adversary_rng,
    forge_information_set,
    scripted_self_value,
    tampered_inbox,
    validate_adversary_placement,
)
from .detection import DetectionVerdict, RoundPlan
from .fixtures import FIXTURE_GRAPHS
from .graph import AdversaryKind, DirectedGraph, read_edge_list, write_edge_list
from .protocol import ValueRule, bootstrap, honest_round


class DetectionMode(Enum):
    NONE = "none"
    ALG2 = "alg2"
    ALG3 = "alg3"


def _finite(v) -> bool:
    """Ints and Fractions are always finite; floats must not be inf or NaN."""
    return not isinstance(v, float) or math.isfinite(v)


def _sums_finitely(values, times: int = 1) -> bool:
    """times the summed magnitudes of finite values is a finite float;
    fsum raises where an intermediate sum overflows, and the product
    where times is beyond the float range."""
    try:
        return math.isfinite(times * math.fsum(map(abs, values)))
    except OverflowError:
        return False


class ScenarioError(ValueError):
    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


@dataclass
class Scenario:
    graph: DirectedGraph
    x0: tuple[float, ...]
    f: int = 1
    model: AdversaryKind = AdversaryKind.LOCAL
    detection: DetectionMode = DetectionMode.ALG3
    sharing_oracle: bool = False
    adversaries: tuple[AttackScript, ...] = ()
    horizon: int = 200
    tol: float = 1e-6
    seed: int = 0
    safety_interval: Optional[tuple[float, float]] = None
    exact: bool = False
    # parsed and validated, read by no part of the simulator
    value_tol: float = 1e-9

    def validate(self) -> list[str]:
        problems = []
        if len(self.x0) != self.graph.n:
            problems.append(
                f"x0 has {len(self.x0)} entries for {self.graph.n} nodes"
            )
        if self.f < 0:
            problems.append("f must be non-negative")
        if self.horizon < 2:
            problems.append("horizon must be at least 2")
        elif (self.horizon + 1) * 28 * self.graph.n > sys.maxsize:
            # run() allocates each node's trace columns whole, 28 bytes a
            # round: 8 in each of y, z and r (a double, or a list's
            # pointer) and 4 in detected_count. More than sys.maxsize
            # bytes in all is more than the platform can address.
            problems.append(f"horizon {self.horizon} needs trace columns beyond the platform's size limit")
        for name in ("tol", "value_tol"):
            if not 0 < getattr(self, name) < math.inf:
                problems.append(f"{name} must be positive and finite")
        if self.detection is DetectionMode.ALG2:
            if not self.sharing_oracle:
                problems.append("sharing detection requires the sharing oracle")
            if not self.graph.undirected:
                problems.append("sharing detection requires an undirected graph")
        nodes = [s.node for s in self.adversaries]
        if len(set(nodes)) != len(nodes):
            problems.append("duplicate adversary scripts")
        outside = [v for v in nodes if not (1 <= v <= self.graph.n)]
        for v in outside:
            problems.append(f"adversary node {v} outside 1..{self.graph.n}")
        if set(self.graph.nodes) <= set(nodes):
            problems.append("at least one node must be normal")
        if self.f >= 0 and not outside:
            report = validate_adversary_placement(self.graph, self.adversaries, self.f, self.model)
            for v in report.violations:
                problems.append(
                    f"adversary placement violates {v.condition} at {v.subject}"
                    f" under the {self.model.value} model with f={self.f}"
                )
        if not all(_finite(v) for v in self.x0):
            problems.append("x0 has a non-finite entry")
        elif not _sums_finitely(self.x0):
            # the running sums and the survivors' average would overflow
            problems.append("x0 magnitudes overflow when summed")
        elif not _sums_finitely(self.x0, self.horizon + len(self.x0)):
            # The mixing never grows Σ|y| beyond Σ|x0|, and each round a
            # node adds a share of its mass to its running sums, so after
            # k rounds every running sum, and every sum the update and the
            # audits take of them (a ledger's flow, the mass returned to
            # removed out-neighbors), is within k·Σ|x0| in magnitude. The
            # last message carries round horizon + 1's sums, and n more
            # rounds leave room for rounding: (horizon + n)·Σ|x0| finite
            # keeps every honest sum finite.
            problems.append(f"x0 magnitudes overflow the running sums within {self.horizon} rounds")
        for script in self.adversaries:
            for r, a in script.schedule:
                where = f"adversary {script.node} {a.kind.value} from round {r}"
                # a forged id in a relayed ledger is a legal attack; an
                # accusation names a node the detectors must look up
                if a.kind is ActionKind.FALSELY_ACCUSE and not (
                    isinstance(a.target, int) and 1 <= a.target <= self.graph.n
                ):
                    problems.append(f"{where}: target {a.target!r} outside 1..{self.graph.n}")
                # the adversary relays its in-neighbors alone (its own entry
                # cannot be dropped), so another target would change nothing
                relayed = a.kind in (ActionKind.TAMPER_RELAYED, ActionKind.DROP_RELAYED_ENTRY)
                if relayed and script.node not in outside and a.target not in self.graph.in_neighbors(script.node):
                    problems.append(f"{where}: target {a.target!r} is not an in-neighbor of {script.node}")
                numbers = [v for v in (a.amount, a.value, *(a.fake_values or ())) if v is not None]
                if not all(map(_finite, numbers)):
                    problems.append(f"{where}: amount, value and fake_values must be finite")
                elif not all(abs(v) <= sys.float_info.max for v in numbers):
                    # an int or a Fraction no float can hold overflows the trace
                    problems.append(f"{where}: amount, value and fake_values must be within the float range")
                if a.kind is ActionKind.LIE_DECLARED_DEGREE and a.value is not None:
                    if a.value < 0:
                        problems.append(f"{where}: a declared degree must not be negative")
                    elif _finite(a.value) and a.value != int(a.value):
                        problems.append(f"{where}: a declared degree must be an integer")
        if self.safety_interval is not None:
            lo, hi = self.safety_interval
            if not (_finite(lo) and _finite(hi)):
                problems.append("safety interval bounds must be finite")
            elif lo > hi:
                problems.append("safety interval is empty")
        return problems


@dataclass
class Trace:
    """Per-node columns indexed by round. y, z and r are array('d') in
    float runs, which holds a scripted int as a float, and lists of
    Fractions and ints in exact runs; detected_count is array('i'). A
    slice of a column has the column's type."""

    scenario: Scenario
    y: dict[int, array | list]
    z: dict[int, array | list]
    r: dict[int, array | list]
    detected_count: dict[int, array]
    events: list[DetectionVerdict] = field(default_factory=list)

    @property
    def horizon(self) -> int:
        return self.scenario.horizon

    @property
    def never_detected(self) -> frozenset[int]:
        suspects = {e.suspect for e in self.events}
        return frozenset(set(self.scenario.graph.nodes) - suspects)

    @property
    def normal_nodes(self) -> frozenset[int]:
        return frozenset(self.scenario.graph.nodes) - {s.node for s in self.scenario.adversaries}

    @property
    def settle_round(self) -> int:
        return max((e.round for e in self.events), default=0)

    def target_average(self) -> Optional[float]:
        """Average initial value of the never-detected nodes, or None
        when every node was suspected and no survivor is left."""
        keep = sorted(self.never_detected)
        if not keep:
            return None
        total = math.fsum(self.scenario.x0[i - 1] for i in keep)
        return total / len(keep)


def run(scenario: Scenario) -> Trace:
    problems = scenario.validate()
    if problems:
        raise ScenarioError(problems)
    g = scenario.graph
    rule = ValueRule(exact=scenario.exact)
    nodes = list(g.nodes)
    scripts = {s.node: s for s in scenario.adversaries}
    rngs = {v: adversary_rng(scenario.seed, v) for v in scripts}
    normals = [i for i in nodes if i not in scripts]
    detecting = scenario.detection is not DetectionMode.NONE
    states = {i: bootstrap(g, i, scenario.x0[i - 1], rule) for i in nodes}
    if detecting:
        plan = RoundPlan(states, normals, g, scenario.f, rule, scenario.safety_interval,
                         scenario.detection is DetectionMode.ALG2)

    # Each column is filled with its round-0 value at its full length, so
    # it never grows; a round overwrites its slot. A float run keeps its
    # values in typed arrays, written through memoryviews (a cheaper store
    # than the array's own), an exact run its Fractions in lists.
    column, view = (list, lambda c: c) if scenario.exact else (partial(array, "d"), memoryview)
    rounds = scenario.horizon + 1
    try:
        trace = Trace(
            scenario=scenario,
            y={i: column([states[i].y]) * rounds for i in nodes},
            z={i: column([states[i].z]) * rounds for i in nodes},
            r={i: column([states[i].ratio]) * rounds for i in nodes},
            detected_count={i: array("i", [len(states[i].detected)]) * rounds for i in nodes},
        )
    except MemoryError:
        # validate() refuses only what no platform can address; a horizon
        # within that limit may still be more than this machine can hold
        raise ScenarioError([f"horizon {scenario.horizon} needs trace columns beyond the available memory"]) from None
    # each node's state, script and column writers, looked up once
    rows = [(i, states[i], scripts.get(i), view(trace.y[i]), view(trace.z[i]), view(trace.r[i]),
             memoryview(trace.detected_count[i])) for i in nodes]

    for k in range(1, scenario.horizon + 1):
        # the first exchange takes the actions of round 1
        forge_round = max(k - 1, 1)
        # emit: one identical message per node, possibly forged, into the
        # round's one broadcast table; a crashed node sends nothing
        sent = {}
        for i in nodes:
            msg = states[i].next
            if i in scripts:
                msg = forge_information_set(msg, scripts[i], forge_round, rngs[i], rule)
                if msg is None:
                    continue
            sent[i] = msg

        # detect: the plan audits what the normal nodes hear and runs
        # their detectors
        if detecting:
            trace.events.extend(plan.detect(sent))

        # update: normal nodes read the broadcast table itself; an
        # adversary updates only in a round it sent a message, from its
        # own copy of the table, which its script may tamper
        for i, s, script, ys, zs, rs, ds in rows:
            if i in sent:
                honest_round(s, sent if script is None else tampered_inbox(sent, script, k), rule)
            ys[k] = s.y
            zs[k] = s.z
            ratio = None if script is None else scripted_self_value(script, forge_round)
            # the trace shows the ratio the adversary announces
            rs[k] = s.ratio if ratio is None else ratio
            ds[k] = len(s.detected)

    return trace


def convergence_round(trace: Trace, target: float, tol: float) -> Optional[int]:
    """Smallest round from which every normal ratio stays within tol,
    or within 8·k float spacings of the target at round k ≥ 1 where
    those are wider; near 1e300 one spacing is 1e284. The floor grows
    with k because y and z are differences of running sums that grow
    by about x0 each round: each round adds a few spacings of rounding,
    so a ratio can land further off than 8 spacings even when every
    node holds the target. A NaN ratio is within no bound."""
    spacing = 8 * math.ulp(target)
    normals = sorted(trace.normal_nodes)
    last_bad = -1
    for k in range(trace.horizon + 1):
        bound = max(tol, max(k, 1) * spacing)
        # < is False for NaN, where >= would be too
        if not all(abs(float(trace.r[i][k]) - target) < bound for i in normals):
            last_bad = k
    if last_bad == trace.horizon:
        return None
    return last_bad + 1


def mass_sums(trace: Trace, nodes) -> list[tuple]:
    nodes = sorted(nodes)
    out = []
    for k in range(trace.horizon + 1):
        sy = sum(trace.y[i][k] for i in nodes)
        sz = sum(trace.z[i][k] for i in nodes)
        out.append((sy, sz))
    return out


# scenario (de)serialization


def _action_to_json(a: AttackAction) -> dict:
    out = {"kind": a.kind.value}
    if a.target is not None:
        out["target"] = a.target
    if a.kind is ActionKind.TAMPER_RELAYED:
        out["mode"] = a.mode.value
        out["amount"] = a.amount
    if a.value is not None:
        out["value"] = a.value
    if a.fake_values is not None:
        out["fake_values"] = list(a.fake_values)
    return out


def _number(v) -> bool:
    """A JSON number a float can hold: a float, or an int but not a bool."""
    if isinstance(v, float):
        return True
    return isinstance(v, int) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _two_numbers(v) -> bool:
    return isinstance(v, list) and len(v) == 2 and all(map(_number, v))


# the keys each level of a scenario file may hold; any other is a problem
SCENARIO_KEYS = (
    "graph", "x0", "f", "model", "detection", "sharing_oracle", "adversaries", "horizon",
    "tol", "seed", "safety_interval", "arithmetic", "value_tol", "description", "expect",
)
GRAPH_KEYS = ("inline", "file", "fixture")
# collusion_partner is retired: accepted, never used
ADVERSARY_KEYS = ("node", "schedule", "collusion_partner")
SCHEDULE_KEYS = ("from_round", "action")
ACTION_KEYS = ("kind", "target", "mode", "amount", "value", "fake_values")
EXPECT_KEYS = ("target", "misses", "tol")


def _unknown_keys(d: dict, allowed: tuple[str, ...], where: str, problems: list[str]) -> None:
    problems.extend(f"{where}unknown key {k!r}" for k in d if k not in allowed)


def _expect_problems(expect) -> list[str]:
    """An expect block holds a positive finite tol and exactly one
    finite number, target or misses."""
    if not isinstance(expect, dict):
        return [f"expect must be an object, got {expect!r}"]
    problems: list[str] = []
    _unknown_keys(expect, EXPECT_KEYS, "expect: ", problems)
    tol = expect.get("tol")
    if not (_number(tol) and 0 < tol < math.inf):
        problems.append(f"expect: tol must be a positive finite number, got {tol!r}")
    given = [key for key in ("target", "misses") if key in expect]
    if len(given) != 1:
        problems.append("expect must give exactly one of target and misses")
    elif not (_number(expect[given[0]]) and math.isfinite(expect[given[0]])):
        problems.append(f"expect: {given[0]} must be a finite number, got {expect[given[0]]!r}")
    return problems


def _action_from_json(d: dict, where: str, problems: list[str]) -> AttackAction:
    kind = ActionKind(d["kind"])
    _unknown_keys(d, ACTION_KEYS, f"{where} {kind.value}: ", problems)
    target, amount, value = d.get("target"), d.get("amount", 0.0), d.get("value")
    fake = d.get("fake_values")
    if target is not None and not _integer(target):
        raise ValueError(f"{kind.value} target must be an integer, got {target!r}")
    if not _number(amount) or not (value is None or _number(value)):
        raise ValueError(f"{kind.value} amount and value must be numbers")
    if fake is not None and not _two_numbers(fake):
        raise ValueError(f"{kind.value} fake_values must be two numbers, got {fake!r}")
    return AttackAction(
        kind=kind,
        target=target,
        mode=TamperMode(d.get("mode", "offset")),
        amount=amount,
        value=value,
        fake_values=tuple(fake) if fake is not None else None,
    )


def _adversary_from_json(entry: dict, problems: list[str]) -> AttackScript:
    node = entry["node"]
    if not _integer(node):
        raise ValueError(f"node must be an integer, got {node!r}")
    _unknown_keys(entry, ADVERSARY_KEYS, f"adversary {node}: ", problems)
    schedule = []
    for n, item in enumerate(entry.get("schedule", []), start=1):
        start = item["from_round"]
        if not _integer(start):
            raise ValueError(f"from_round must be an integer, got {start!r}")
        _unknown_keys(item, SCHEDULE_KEYS, f"adversary {node} schedule item {n}: ", problems)
        action = _action_from_json(item["action"], f"adversary {node} schedule item {n}", problems)
        schedule.append((start, action))
    return AttackScript(node=node, schedule=tuple(schedule))


def scenario_to_json(sc: Scenario) -> dict:
    return {
        "graph": {"inline": write_edge_list(sc.graph)},
        "x0": list(sc.x0),
        "f": sc.f,
        "model": sc.model.value,
        "detection": sc.detection.value,
        "sharing_oracle": sc.sharing_oracle,
        "adversaries": [
            {
                "node": s.node,
                "schedule": [
                    {"from_round": r, "action": _action_to_json(a)}
                    for r, a in s.schedule
                ],
            }
            for s in sc.adversaries
        ],
        "horizon": sc.horizon,
        "tol": sc.tol,
        "seed": sc.seed,
        "safety_interval": list(sc.safety_interval) if sc.safety_interval else None,
        "arithmetic": "exact" if sc.exact else "float",
        "value_tol": sc.value_tol,
    }


def scenario_from_json(data: dict, base_dir: Optional[Path] = None) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError(["a scenario must be a JSON object"])
    problems: list[str] = []
    _unknown_keys(data, SCENARIO_KEYS, "", problems)
    gspec = data.get("graph")
    graph = None
    if not isinstance(gspec, dict):
        problems.append("missing graph specification")
    else:
        _unknown_keys(gspec, GRAPH_KEYS, "graph: ", problems)
        sources = [key for key in GRAPH_KEYS if key in gspec]
        source = sources[0] if len(sources) == 1 else None
        spec = gspec.get(source)
        if source is None:
            problems.append("graph must give exactly one of inline, file and fixture")
        elif not isinstance(spec, str):
            problems.append(f"graph {source} must be a string, got {spec!r}")
        elif source == "fixture":
            if spec in FIXTURE_GRAPHS:
                graph = FIXTURE_GRAPHS[spec]()
            else:
                problems.append(f"unknown fixture {spec!r}")
        else:
            try:
                if source == "file":
                    path = Path(spec)
                    if base_dir is not None and not path.is_absolute():
                        path = base_dir / path
                    spec = path.read_text(encoding="utf-8")
                graph = read_edge_list(spec)
            except (OSError, ValueError) as exc:
                problems.append(f"bad graph: {exc}")
    x0 = data.get("x0")
    if not isinstance(x0, list) or not x0:
        problems.append("x0 must be a non-empty list")
        x0 = [0.0]
    elif not all(map(_number, x0)):
        problems.append(f"x0 must hold numbers, got {next(v for v in x0 if not _number(v))!r}")

    def typed(key: str, default, ok, what: str):
        value = data.get(key, default)
        if ok(value):
            return value
        problems.append(f"{key} must be {what}, got {value!r}")
        return default

    f = typed("f", 1, _integer, "an integer")
    horizon = typed("horizon", 200, _integer, "an integer")
    tol = typed("tol", 1e-6, _number, "a number")
    seed = typed("seed", 0, _integer, "an integer")
    value_tol = typed("value_tol", Scenario.value_tol, _number, "a number")
    sharing = typed("sharing_oracle", False, lambda v: isinstance(v, bool), "true or false")
    arithmetic = typed("arithmetic", "float", lambda v: v in ("float", "exact"), "float or exact")
    interval = typed("safety_interval", None, lambda v: v is None or _two_numbers(v), "two numbers")
    typed("description", "", lambda v: isinstance(v, str), "a string")
    if "expect" in data:
        problems.extend(_expect_problems(data["expect"]))
    adversaries = []
    for entry in typed("adversaries", [], lambda v: isinstance(v, list), "a list"):
        try:
            adversaries.append(_adversary_from_json(entry, problems))
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"bad adversary entry: {exc}")
    try:
        detection = DetectionMode(data.get("detection", "alg3"))
    except ValueError:
        problems.append(f"bad detection mode {data.get('detection')!r}")
        detection = DetectionMode.NONE
    try:
        model = AdversaryKind(data.get("model", "local"))
    except ValueError:
        problems.append(f"bad adversary model {data.get('model')!r}")
        model = AdversaryKind.LOCAL
    if problems:
        raise ScenarioError(problems)
    return Scenario(
        graph=graph,
        x0=tuple(float(v) for v in x0),
        f=f,
        model=model,
        detection=detection,
        sharing_oracle=sharing,
        adversaries=tuple(adversaries),
        horizon=horizon,
        tol=float(tol),
        seed=seed,
        safety_interval=tuple(interval) if interval else None,
        exact=arithmetic == "exact",
        value_tol=float(value_tol),
    )


def load_scenario(path: Path) -> Scenario:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return scenario_from_json(data, base_dir=Path(path).parent)


def write_trace_csv(trace: Trace, path: Path) -> None:
    """One row per round, then per node, each value as repr(float(v)),
    written a round at a time. Nodes of a layer repeat whole rows within
    a round, so each distinct row is formatted once per round; a row
    holding a zero is formatted on its own (0.0 == -0.0, reprs differ)."""
    # each node's rows in round order, as (float y, float z, float r, count)
    columns = [(f",{i},", zip(map(float, trace.y[i]), map(float, trace.z[i]), map(float, trace.r[i]),
                              trace.detected_count[i]))
               for i in trace.scenario.graph.nodes]
    with Path(path).open("w", encoding="utf-8", newline="\n") as out:
        out.write("round,node,y,z,ratio,detected_count\n")
        for k in range(trace.horizon + 1):
            tails: dict[tuple, str] = {}
            lines = []
            for prefix, rows in columns:
                row = next(rows)
                tail = tails.get(row)
                if tail is None:
                    y, z, r, d = row
                    tail = f"{y!r},{z!r},{r!r},{d}\n"
                    if y and z and r:
                        tails[row] = tail
                lines.append(prefix + tail)
            # each line starts with the round
            ks = str(k)
            out.write(ks + ks.join(lines))


def write_events_csv(trace: Trace, path: Path) -> None:
    lines = ["round,detector,suspect,cause"]
    for e in trace.events:
        lines.append(f"{e.round},{e.detector},{e.suspect},{e.cause.value}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def summary(trace: Trace) -> dict:
    target = trace.target_average()
    converged = None if target is None else convergence_round(trace, target, trace.scenario.tol)
    return {
        "target": target,
        "converged_round": converged,
        "settle_round": trace.settle_round,
        "never_detected": sorted(trace.never_detected),
    }
