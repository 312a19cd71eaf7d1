"""Behaviour gate: every golden case exports byte-identical CSVs.

The reference sha256 digests live in perfbench/digests.json, recorded
from a commit whose traces are known good: the 8 scenarios in float
arithmetic at their own horizon, and in exact arithmetic at horizon 60.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from racsim.golden import GOLDEN_CASES
from racsim.sim import load_scenario, run, write_events_csv, write_trace_csv

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json"))
DIGESTS = json.loads((ROOT / "perfbench" / "digests.json").read_text())
EXACT_HORIZON = 60


def _digests(trace, out: Path) -> dict:
    write_trace_csv(trace, out / "trace.csv")
    write_events_csv(trace, out / "events.csv")
    return {
        kind: hashlib.sha256((out / f"{kind}.csv").read_bytes()).hexdigest()
        for kind in ("trace", "events")
    }


def test_all_scenarios_have_digests():
    # the benchmark globs the repo-root files; `racsim golden` and the
    # tests load the packaged ones, which the root directory links to
    names = {p.stem for p in SCENARIOS}
    assert len(names) == 8
    assert [c.name for c in GOLDEN_CASES] == sorted(names)
    assert set(DIGESTS["golden"]) == set(DIGESTS["exact-golden"]) == names


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_float_trace_matches_digest(path, tmp_path):
    trace = run(load_scenario(path))
    assert _digests(trace, tmp_path) == DIGESTS["golden"][path.stem]


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_exact_trace_matches_digest(path, tmp_path):
    sc = replace(load_scenario(path), exact=True, horizon=EXACT_HORIZON)
    assert _digests(run(sc), tmp_path) == DIGESTS["exact-golden"][path.stem]
