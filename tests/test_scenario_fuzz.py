import random

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
