"""Scripted malicious behaviors.

Adversaries broadcast one identical, possibly forged, message to all
out-neighbors each round. During compliant periods they run the
honest update so that later forgeries are arithmetically plausible.
Ledger tampering is realized by perturbing the adversary's own view
of the targeted in-neighbor's running sums, which keeps the rest of
its arithmetic self-consistent; every other action rewrites the
outgoing message directly.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from .graph import AdversaryKind, ConditionReport, DirectedGraph, Violation
from .protocol import InformationSet, Pair, ValueRule, initial_share

RANDOM_VALUE_RANGE = (-100.0, 100.0)


class ActionKind(Enum):
    COMPLY = "Comply"
    CRASH = "Crash"
    SET_SELF_VALUE = "SetSelfValue"
    TAMPER_RELAYED = "TamperRelayed"
    INJECT_FAKE_ID = "InjectFakeId"
    DROP_RELAYED_ENTRY = "DropRelayedEntry"
    FALSELY_ACCUSE = "FalselyAccuse"
    LIE_DECLARED_DEGREE = "LieDeclaredDegree"


class TamperMode(Enum):
    SET = "set"
    OFFSET = "offset"


@dataclass(frozen=True)
class AttackAction:
    kind: ActionKind
    target: Optional[int] = None
    mode: TamperMode = TamperMode.OFFSET
    amount: float = 0.0
    value: Optional[float] = None  # None means seeded random draw
    fake_values: Optional[Pair] = None

    def __post_init__(self) -> None:
        needs_target = {
            ActionKind.TAMPER_RELAYED,
            ActionKind.INJECT_FAKE_ID,
            ActionKind.DROP_RELAYED_ENTRY,
            ActionKind.FALSELY_ACCUSE,
        }
        if self.kind in needs_target and self.target is None:
            raise ValueError(f"{self.kind.value} requires a target id")


@dataclass(frozen=True)
class AttackScript:
    node: int
    schedule: tuple[tuple[int, AttackAction], ...] = ()

    def __post_init__(self) -> None:
        rounds = [r for r, _ in self.schedule]
        if rounds != sorted(rounds):
            raise ValueError("schedule must be sorted by from_round")
        # the start rounds and actions, for active_actions to bisect
        object.__setattr__(self, "_starts", tuple(rounds))
        object.__setattr__(self, "_actions", tuple(a for _, a in self.schedule))

    def active_actions(self, k: int) -> tuple[AttackAction, ...]:
        """All actions whose start round has been reached: a prefix of
        the sorted schedule."""
        return self._actions[:bisect_right(self._starts, k)]


def _draw(rng: random.Random) -> float:
    lo, hi = RANDOM_VALUE_RANGE
    return rng.uniform(lo, hi)


def forge_information_set(
    truth: InformationSet,
    script: AttackScript,
    k: int,
    rng: random.Random,
    rule: ValueRule = ValueRule(),
) -> Optional[InformationSet]:
    """Apply the active actions for round k to an honest message.

    Returns None when the node crashes (no emission), and truth itself
    when every active action is Comply or TamperRelayed. TamperRelayed
    takes effect through tampered_inbox alone: the sender's state was
    evolved with the tampered inputs, so its relayed entries already
    carry the forgery. In the first exchange (a round-0 message)
    SetSelfValue announces the initial share of its value, under rule,
    from one draw.
    """
    actions = script.active_actions(k)
    if any(a.kind is ActionKind.CRASH for a in actions):
        return None
    if all(a.kind in (ActionKind.COMPLY, ActionKind.TAMPER_RELAYED) for a in actions):
        return truth
    detected = set(truth.detected)
    self_next = truth.self_next
    relayed = dict(truth.relayed)
    declared_out_degree = truth.declared_out_degree
    for a in actions:
        if a.kind is ActionKind.SET_SELF_VALUE:
            if truth.round == 0:
                value = a.value if a.value is not None else _draw(rng)
                share = initial_share(value, truth.declared_out_degree, rule)
                self_next = (share[0], self_next[1])
            elif a.value is None:
                self_next = (_draw(rng), _draw(rng))
            else:
                self_next = (a.value, self_next[1])
        elif a.kind is ActionKind.INJECT_FAKE_ID:
            values = a.fake_values if a.fake_values is not None else (_draw(rng), _draw(rng))
            relayed[a.target] = values
        elif a.kind is ActionKind.DROP_RELAYED_ENTRY and a.target != truth.sender:
            # the message type requires the own entry, so dropping it does nothing
            relayed.pop(a.target, None)
        elif a.kind is ActionKind.FALSELY_ACCUSE:
            detected.add(a.target)
        elif a.kind is ActionKind.LIE_DECLARED_DEGREE:
            declared_out_degree = int(a.value if a.value is not None else 0)
    return truth._replace(
        detected=frozenset(detected),
        self_next=self_next,
        relayed=relayed,
        declared_out_degree=declared_out_degree,
    )


def tampered_inbox(
    inbox: dict[int, InformationSet],
    script: AttackScript,
    k: int,
) -> dict[int, InformationSet]:
    """Perturb the adversary's own view of tampered targets' running
    sums so its internal arithmetic stays consistent with the forged
    relayed entries it will broadcast. Returns inbox itself when no
    TamperRelayed action is active, else a copy."""
    tampers = [a for a in script.active_actions(k) if a.kind is ActionKind.TAMPER_RELAYED]
    out = dict(inbox) if tampers else inbox
    for a in tampers:
        msg = out.get(a.target)
        if msg is None:
            continue
        lam, gam = msg.self_next
        if a.mode is TamperMode.SET:
            forged = (a.amount, gam)
        else:
            forged = (lam + a.amount, gam)
        out[a.target] = msg._replace(self_next=forged)
    return out


def scripted_self_value(script: AttackScript, k: int) -> Optional[float]:
    """The fixed self value an active SetSelfValue action announces,
    if any; used by the trace to record what the adversary broadcast."""
    value = None
    for a in script.active_actions(k):
        if a.kind is ActionKind.SET_SELF_VALUE and a.value is not None:
            value = a.value
    return value


def validate_adversary_placement(
    g: DirectedGraph, scripts: Iterable[AttackScript], f: int, kind: AdversaryKind
) -> ConditionReport:
    """Check the scripted adversary set against the bound f under the
    total or local adversary model kind.

    Full access nodes (in-neighbors of every other node's broadcasts,
    i.e. receivers from all) can verify everyone directly, so they are
    exempt from the local bound.
    """
    adversaries = {s.node for s in scripts}
    violations = []
    for v in adversaries:
        if not (1 <= v <= g.n):
            violations.append(Violation((v,), "unknown_node"))
    if violations:
        return ConditionReport(tuple(violations))
    if kind is AdversaryKind.TOTAL:
        if len(adversaries) > f:
            violations.append(Violation(tuple(sorted(adversaries)), "total_bound"))
    else:
        for i in g.nodes:
            if i in adversaries:
                continue
            in_i = g.in_neighbors(i)
            bad = in_i & adversaries
            # a full access node hears every other node
            if len(bad) > f and len(in_i) < g.n - 1:
                violations.append(Violation((i,), "local_bound"))
    return ConditionReport(tuple(violations))


def adversary_rng(seed: int, node: int) -> random.Random:
    """Independent deterministic stream per adversary node."""
    return random.Random(f"{seed}:{node}")
