"""Seeded random scenarios, for comparing two checkouts run for run.

random_scenario(rng) draws a scenario that Scenario.validate accepts:
a network and detection mode from NETWORKS, float or exact arithmetic
(exact only where n <= 8, to keep runs short), a safety interval or
none, and one to three adversaries, each with one or two actions drawn
from every ActionKind and starting in rounds 1-10. Placements that
break the adversary model are redrawn.

Run as a script, it prints one line per scenario: its index, its
verdict count and a sha256 over its verdicts (evidence included), every
node's ratio trace and detected counts. A behaviour-preserving change
prints the same lines as its parent:

    PYTHONPATH=<checkout>/src python tests/scenario_fuzz.py --seed 7 --count 400
"""

from __future__ import annotations

import argparse
import hashlib
import random
from typing import Iterator

from racsim.adversary import ActionKind, AttackAction, AttackScript, TamperMode
from racsim.fixtures import (
    eight_node_graph,
    five_node_graph,
    fourteen_node_graph,
    six_node_damaged,
    six_node_graph,
    thirty_node_graph,
)
from racsim.golden import golden_case
from racsim.graph import complete_graph
from racsim.sim import DetectionMode, Scenario, run

ALG2, ALG3, NONE = DetectionMode.ALG2, DetectionMode.ALG3, DetectionMode.NONE

# the initial values of the golden cases on each fixture graph
SIX_X0 = tuple(golden_case("six-attack").data["x0"])
FOURTEEN_X0 = tuple(golden_case("fourteen-attack").data["x0"])
EIGHT_X0 = tuple(golden_case("eight-attack").data["x0"])
FIVE_X0 = tuple(golden_case("five-sharing").data["x0"])
THIRTY_X0 = tuple(golden_case("thirty-attack").data["x0"])

# graph, x0, the f values drawn from, detection mode
NETWORKS = (
    (six_node_graph(), SIX_X0, (1,), ALG3),
    (fourteen_node_graph(), FOURTEEN_X0, (1,), ALG3),
    (eight_node_graph(), EIGHT_X0, (1,), ALG3),
    (thirty_node_graph(), THIRTY_X0, (1,), ALG3),
    (five_node_graph(), FIVE_X0, (1, 2), ALG2),
    (complete_graph(4), (2.0, 4.0, 6.0, 20.0), (1, 2), ALG2),
    (six_node_graph(), SIX_X0, (1,), NONE),
    (six_node_damaged(), SIX_X0, (1,), ALG3),
)
KINDS = tuple(ActionKind)


def _action(rng: random.Random, node: int, g) -> AttackAction:
    kind = rng.choice(KINDS)
    in_nbrs = sorted(g.in_neighbors(node))
    if kind is ActionKind.TAMPER_RELAYED:
        mode, amount = rng.choice(tuple(TamperMode)), rng.randint(-20, 60) / 2
        return AttackAction(kind, target=rng.choice(in_nbrs), mode=mode, amount=amount)
    if kind is ActionKind.INJECT_FAKE_ID:
        # an id outside the graph, or a node the adversary does not hear
        target = rng.choice([g.n + 1, *(h for h in g.nodes if h != node and h not in in_nbrs)])
        fake = rng.choice((None, (rng.randint(0, 40) / 2, rng.randint(1, 8) / 2)))
        return AttackAction(kind, target=target, fake_values=fake)
    if kind is ActionKind.DROP_RELAYED_ENTRY:
        return AttackAction(kind, target=rng.choice(in_nbrs))
    if kind is ActionKind.FALSELY_ACCUSE:
        return AttackAction(kind, target=rng.choice([h for h in g.nodes if h != node]))
    if kind is ActionKind.LIE_DECLARED_DEGREE:
        return AttackAction(kind, value=rng.choice((None, rng.randint(0, g.n))))
    if kind is ActionKind.SET_SELF_VALUE:
        return AttackAction(kind, value=rng.choice((None, rng.randint(-40, 80) / 2)))
    return AttackAction(kind)


def _draw(rng: random.Random) -> Scenario:
    g, x0, fs, detection = rng.choice(NETWORKS)
    adversaries = []
    for node in rng.sample(g.nodes, rng.randint(1, 3)):
        starts = sorted(rng.randint(1, 10) for _ in range(rng.randint(1, 2)))
        schedule = tuple((start, _action(rng, node, g)) for start in starts)
        adversaries.append(AttackScript(node=node, schedule=schedule))
    interval = rng.choice((None, (min(x0) - 1.0, max(x0) + 1.0)))
    return Scenario(
        graph=g,
        x0=x0,
        f=rng.choice(fs),
        detection=detection,
        sharing_oracle=detection is ALG2,
        adversaries=tuple(sorted(adversaries, key=lambda s: s.node)),
        horizon=rng.randint(20, 40),
        seed=rng.randint(0, 999),
        safety_interval=interval,
        exact=g.n <= 8 and rng.random() < 0.3,
    )


def random_scenario(rng: random.Random) -> Scenario:
    """A scenario that validates; draws until one does."""
    while True:
        sc = _draw(rng)
        if not sc.validate():
            return sc


def fingerprint(sc: Scenario) -> str:
    """The verdict count and a sha256 over verdicts, ratios and detected
    counts, or the exception a run raised."""
    try:
        trace = run(sc)
    except Exception as exc:  # a raising run must raise alike on both sides
        return f"error {type(exc).__name__}: {exc}"
    verdicts = [(e.round, e.detector, e.suspect, e.cause.value, e.evidence) for e in trace.events]
    payload = repr((verdicts, sorted(trace.r.items()), sorted(trace.detected_count.items())))
    return f"{len(verdicts)} {hashlib.sha256(payload.encode()).hexdigest()}"


def lines(seed: int, count: int) -> Iterator[str]:
    rng = random.Random(seed)
    for index in range(count):
        yield f"{index} {fingerprint(random_scenario(rng))}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, default=100)
    args = parser.parse_args()
    for line in lines(args.seed, args.count):
        print(line, flush=True)


if __name__ == "__main__":
    main()
