"""Golden experiment scenarios and their expected outcomes.

Each case is one scenario file in this package's `scenarios/`
directory, named after the case. Besides the scenario fields a file
holds a `description` and an `expect` block. `{"target": t, "tol": e}`
asks every normal node to end within e of the consensus value t. The
negative control gives `{"misses": t, "tol": e}` instead: detection
must fail for part of the network, leaving some normal node farther
than e from t.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib.resources import files
from typing import Optional

from .sim import Scenario, Trace, scenario_from_json


@dataclass(frozen=True)
class GoldenCase:
    name: str
    data: dict  # the parsed scenario file
    target: Optional[float]  # None marks the negative control
    tol: float
    misses: Optional[float] = None  # the negative control's off-target value

    def build(self) -> Scenario:
        return scenario_from_json(self.data)

    def check(self, trace: Trace) -> tuple[bool, str]:
        """Whether a run meets the expect block, with a one-line detail."""
        final = [float(trace.r[i][trace.horizon]) for i in sorted(trace.normal_nodes)]
        if self.target is None:
            err = max(abs(r - self.misses) for r in final)
            return err > self.tol, f"max final error {err:.4f} (expected > {self.tol:g})"
        err = max(abs(r - self.target) for r in final)
        return err <= self.tol, f"target {self.target:.5f} max error {err:.2e} (tol {self.tol:g})"


def _load() -> tuple[GoldenCase, ...]:
    cases = []
    for entry in sorted(files(__package__).joinpath("scenarios").iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            data = json.loads(entry.read_text(encoding="utf-8"))
            scenario_from_json(data)  # checks expect and description too
            expect = data["expect"]
            cases.append(GoldenCase(
                name=entry.name.removesuffix(".json"),
                data=data,
                target=expect.get("target"),
                tol=expect["tol"],
                misses=expect.get("misses"),
            ))
    return tuple(cases)


GOLDEN_CASES: tuple[GoldenCase, ...] = _load()


def golden_case(name: str) -> GoldenCase:
    for case in GOLDEN_CASES:
        if case.name == name:
            return case
    raise KeyError(name)
