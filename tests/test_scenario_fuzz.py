import random
from pathlib import Path

from racsim.adversary import ActionKind
from racsim.sim import DetectionMode
from scenario_fuzz import lines, random_scenario


def test_fuzz_sample_validates_covers_every_action_and_repeats():
    rng = random.Random(3)
    scenarios = [random_scenario(rng) for _ in range(30)]
    assert all(sc.validate() == [] for sc in scenarios)
    kinds = {a.kind for sc in scenarios for s in sc.adversaries for _, a in s.schedule}
    assert kinds == set(ActionKind)
    assert {sc.detection for sc in scenarios} == set(DetectionMode)
    assert {sc.exact for sc in scenarios} == {False, True}
    first = list(lines(3, 30))
    assert len(first) == 30
    assert list(lines(3, 30)) == first


def test_fuzz_seed7_prefix_matches_the_recorded_lines():
    """The first 60 of the 400 lines recorded at seed 7. A change meant
    to move behaviour re-records the file and explains its diff; CI
    compares all 400."""
    recorded = (Path(__file__).parent / "data" / "fuzz_seed7.txt").read_text().splitlines()
    assert len(recorded) == 400
    assert list(lines(7, 60)) == recorded[:60]
