"""Behaviour gate: every golden case exports byte-identical CSVs.

The reference sha256 digests live in perfbench/digests.json, recorded
from a commit whose traces are known good: the 8 scenarios in float
arithmetic at their own horizon, and in exact arithmetic at horizon 60.
"""

import hashlib
import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from racsim.golden import GOLDEN_CASES
from racsim.graph import LayeredVariant, generate_layered
from racsim.sim import DetectionMode, Scenario, load_scenario, run, write_events_csv, write_trace_csv

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


# trace.csv of a 30-node layered run, no detection, H 60, recorded with
# a plain writer that formatted every cell as repr(float(v))
LAYERED_TRACE = "43218ba4cc50832bfa25677ba82e40f6a31875d8687b63fde3e7d8adb494b617"


def test_layered_trace_matches_digest(tmp_path):
    g = generate_layered(10, 1, LayeredVariant.UNDIRECTED_PATH)
    rng = random.Random(3)
    x0 = tuple(rng.uniform(0, 10) for _ in g.nodes)
    trace = run(Scenario(graph=g, x0=x0, f=1, detection=DetectionMode.NONE, horizon=60))
    # nodes of a layer repeat whole rows within a round, so the writer
    # formats some row once for two nodes
    def rows(k):
        return [(trace.y[i][k], trace.z[i][k], trace.r[i][k], trace.detected_count[i][k])
                for i in g.nodes if trace.y[i][k] and trace.z[i][k] and trace.r[i][k]]

    assert any(len(rs) > len(set(rs)) for rs in map(rows, range(61)))
    write_trace_csv(trace, tmp_path / "trace.csv")
    assert hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest() == LAYERED_TRACE
