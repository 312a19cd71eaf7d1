import json
import math
import random
import tracemalloc
from array import array
from dataclasses import replace
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racsim.adversary import ActionKind, AttackAction, AttackScript, TamperMode
from racsim.detection import Cause, DetectionVerdict
from racsim.fixtures import FIXTURE_GRAPHS, six_node_graph
from racsim.golden import golden_case
from racsim import detection, sim
from racsim.graph import AdversaryKind, DirectedGraph, LayeredVariant, complete_graph, generate_layered
from racsim.protocol import honest_round
from racsim.sim import (
    DetectionMode,
    Scenario,
    ScenarioError,
    Trace,
    convergence_round,
    mass_sums,
    run,
    scenario_from_json,
    scenario_to_json,
    summary,
    write_events_csv,
    write_trace_csv,
)
from oracles import push_sum_ratios


SIX_X0 = tuple(golden_case("six-attack").data["x0"])


def _basic_scenario(**overrides) -> Scenario:
    defaults = dict(
        graph=six_node_graph(),
        x0=SIX_X0,
        f=1,
        detection=DetectionMode.ALG3,
        horizon=30,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


def _attack(action: AttackAction) -> dict:
    """Scenario overrides: node 5 runs action from round 1."""
    return dict(adversaries=(AttackScript(node=5, schedule=((1, action),)),))


def _tamper_scenario(**overrides) -> Scenario:
    return _basic_scenario(
        adversaries=(
            AttackScript(
                node=6,
                schedule=((3, AttackAction(ActionKind.TAMPER_RELAYED, target=2, amount=30.0)),),
            ),
        ),
        **overrides,
    )


# JSON numbers: finite floats, which JSON writes and reads back exactly
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_IDS = st.integers(-2, 40)
_NEEDS_TARGET = {
    ActionKind.TAMPER_RELAYED,
    ActionKind.INJECT_FAKE_ID,
    ActionKind.DROP_RELAYED_ENTRY,
    ActionKind.FALSELY_ACCUSE,
}


@st.composite
def actions(draw):
    """Any action; the JSON form writes mode and amount for
    TamperRelayed alone, so other kinds keep their defaults."""
    kind = draw(st.sampled_from(ActionKind))
    target = draw(_IDS if kind in _NEEDS_TARGET else st.none() | _IDS)
    fields = {}
    if kind is ActionKind.TAMPER_RELAYED:
        fields = dict(mode=draw(st.sampled_from(TamperMode)), amount=draw(_FLOATS))
    return AttackAction(
        kind,
        target=target,
        value=draw(st.none() | _FLOATS),
        fake_values=draw(st.none() | st.tuples(_FLOATS, _FLOATS)),
        **fields,
    )


@st.composite
def scenarios(draw):
    """A scenario over a fixture graph that sets every field; whether
    it would pass validate() does not matter to its JSON form."""
    graph = FIXTURE_GRAPHS[draw(st.sampled_from(sorted(FIXTURE_GRAPHS)))]()
    scripts = draw(st.lists(
        st.builds(
            AttackScript,
            node=_IDS,
            schedule=st.lists(st.tuples(st.integers(1, 50), actions()), max_size=3).map(
                lambda s: tuple(sorted(s, key=lambda item: item[0]))
            ),
        ),
        max_size=3,
    ))
    interval = draw(st.none() | st.tuples(_FLOATS, _FLOATS))
    return Scenario(
        graph=graph,
        x0=tuple(draw(st.lists(_FLOATS, min_size=graph.n, max_size=graph.n))),
        f=draw(st.integers(-1, 5)),
        model=draw(st.sampled_from(AdversaryKind)),
        detection=draw(st.sampled_from(DetectionMode)),
        sharing_oracle=draw(st.booleans()),
        adversaries=tuple(scripts),
        horizon=draw(st.integers(0, 10**6)),
        tol=draw(_FLOATS),
        seed=draw(st.integers(-(2**70), 2**70)),
        safety_interval=interval,
        exact=draw(st.booleans()),
        value_tol=draw(_FLOATS),
    )


class TestValidation:
    def test_all_problems_reported_at_once(self):
        sc = Scenario(
            graph=complete_graph(3),
            x0=(1.0,),  # wrong length
            f=-1,
            detection=DetectionMode.ALG2,
            sharing_oracle=False,
            horizon=1,
            tol=0.0,
            adversaries=(
                AttackScript(node=9),
                AttackScript(node=9),
            ),
            safety_interval=(5.0, 1.0),
        )
        problems = sc.validate()
        assert len(problems) >= 7
        with pytest.raises(ScenarioError) as err:
            run(sc)
        assert err.value.problems == problems

    def test_sharing_detection_needs_undirected_graph(self):
        sc = Scenario(
            graph=DirectedGraph(3, [(1, 2), (2, 3), (3, 1)]),
            x0=(1.0, 2.0, 3.0),
            detection=DetectionMode.ALG2,
            sharing_oracle=True,
        )
        assert any("undirected" in p for p in sc.validate())

    def test_valid_scenario_has_no_problems(self):
        assert _tamper_scenario().validate() == []

    @pytest.mark.parametrize(
        "overrides, problem",
        [
            (dict(x0=(math.nan,) + SIX_X0[1:]), "x0 has a non-finite entry"),
            (dict(x0=SIX_X0[:5] + (-math.inf,)), "x0 has a non-finite entry"),
            # Σ|x0| = 3e307 is finite, but 200 rounds of running sums may not be
            (
                dict(x0=(5e306,) * 6, horizon=200),
                "x0 magnitudes overflow the running sums within 200 rounds",
            ),
            (
                _attack(AttackAction(ActionKind.FALSELY_ACCUSE, target=9)),
                "adversary 5 FalselyAccuse from round 1: target 9 outside 1..6",
            ),
            (
                _attack(AttackAction(ActionKind.SET_SELF_VALUE, value=math.inf)),
                "adversary 5 SetSelfValue from round 1: amount, value and fake_values must be finite",
            ),
            (
                _attack(AttackAction(ActionKind.TAMPER_RELAYED, target=2, amount=math.nan)),
                "adversary 5 TamperRelayed from round 1: amount, value and fake_values must be finite",
            ),
            (
                _attack(AttackAction(ActionKind.INJECT_FAKE_ID, target=4, fake_values=(1.0, math.inf))),
                "adversary 5 InjectFakeId from round 1: amount, value and fake_values must be finite",
            ),
            (
                _attack(AttackAction(ActionKind.LIE_DECLARED_DEGREE, value=2.5)),
                "adversary 5 LieDeclaredDegree from round 1: a declared degree must be an integer",
            ),
            # ints the JSON loader refuses, given through the Python API
            (
                _attack(AttackAction(ActionKind.SET_SELF_VALUE, value=10**400)),
                "adversary 5 SetSelfValue from round 1: amount, value and fake_values must be within the float range",
            ),
            (
                _attack(AttackAction(ActionKind.TAMPER_RELAYED, target=2, amount=-(10**400))),
                "adversary 5 TamperRelayed from round 1: amount, value and fake_values must be within the float range",
            ),
            (
                _attack(AttackAction(ActionKind.INJECT_FAKE_ID, target=4, fake_values=(1.0, 10**400))),
                "adversary 5 InjectFakeId from round 1: amount, value and fake_values must be within the float range",
            ),
            (dict(safety_interval=(math.nan, 10.0)), "safety interval bounds must be finite"),
            (dict(safety_interval=(0.0, math.inf)), "safety interval bounds must be finite"),
            (dict(safety_interval=(math.inf, -math.inf)), "safety interval bounds must be finite"),
            # every node complying as an adversary: no normal node to converge
            (
                dict(adversaries=tuple(AttackScript(node=v) for v in range(1, 7))),
                "at least one node must be normal",
            ),
        ],
        ids=[
            "nan-x0", "inf-x0", "overflowing-running-sums", "accuse-outside", "inf-self-value",
            "nan-amount", "inf-fake-values",
            "fractional-degree", "huge-int-self-value", "huge-int-amount", "huge-int-fake-values",
            "nan-interval", "inf-interval", "infinite-interval",
            "no-normal-node",
        ],
    )
    def test_bad_input_is_a_scenario_error(self, overrides, problem):
        sc = _basic_scenario(**overrides)
        assert sc.validate() == [problem]
        with pytest.raises(ScenarioError):
            run(sc)

    def test_total_model_bounds_the_adversary_count(self):
        sc = Scenario(
            graph=complete_graph(5),
            x0=(1.0, 2.0, 3.0, 4.0, 5.0),
            f=1,
            model=AdversaryKind.TOTAL,
            adversaries=(AttackScript(node=1), AttackScript(node=2)),
        )
        assert sc.validate() == [
            "adversary placement violates total_bound at (1, 2) under the total model with f=1"
        ]
        assert replace(sc, f=2).validate() == []

    @pytest.mark.parametrize(
        "kind", [ActionKind.INJECT_FAKE_ID, ActionKind.TAMPER_RELAYED, ActionKind.DROP_RELAYED_ENTRY]
    )
    def test_forged_ledger_ids_outside_the_graph_stay_legal(self, kind):
        sc = _basic_scenario(horizon=5, **_attack(AttackAction(kind, target=99, fake_values=(1.0, 1.0))))
        assert sc.validate() == []
        run(sc)


class TestEngine:
    def test_detection_off_matches_mass_passing_oracle(self):
        g = six_node_graph()
        sc = _basic_scenario(detection=DetectionMode.NONE, horizon=20)
        trace = run(sc)
        oracle = push_sum_ratios(6, set(g.edges), list(SIX_X0), 20)
        for k in range(21):
            for i in g.nodes:
                assert float(trace.r[i][k]) == pytest.approx(oracle[k][i - 1], abs=1e-9)

    def test_a_float_trace_holds_a_few_bytes_per_node_round(self):
        """Float runs keep y, z and r as array('d') and detected counts as
        array('i'): about 30 bytes per node-round, where lists of boxed
        floats held about 110. Exact runs keep their Fractions in lists,
        since an array('d') would round each to a float."""
        g = generate_layered(20, 1, LayeredVariant.UNDIRECTED_PATH)
        rng = random.Random(3)
        sc = Scenario(graph=g, x0=tuple(rng.uniform(0.0, 10.0) for _ in g.nodes),
                      detection=DetectionMode.NONE, horizon=200)
        tracemalloc.start()
        try:
            trace = run(sc)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(trace.r) == g.n
        assert held / (g.n * (sc.horizon + 1)) <= 40
        exact = run(_tamper_scenario(exact=True, horizon=10))
        for col in (exact.y, exact.z, exact.r):
            assert all(isinstance(v, Fraction) for i in exact.normal_nodes for v in col[i])

    def test_round_zero_records_initial_values(self):
        trace = run(_basic_scenario())
        for i in range(1, 7):
            assert trace.r[i][0] == SIX_X0[i - 1]
            assert trace.z[i][0] == 1.0
            assert trace.detected_count[i][0] == 0

    def test_trace_length_matches_horizon(self):
        trace = run(_basic_scenario(horizon=17))
        assert all(len(trace.r[i]) == 18 for i in range(1, 7))

    def test_repeated_runs_are_identical(self):
        a = run(_tamper_scenario(seed=5))
        b = run(_tamper_scenario(seed=5))
        assert a.r == b.r and a.y == b.y and a.z == b.z
        assert a.events == b.events

    def test_seed_changes_random_adversary_draws(self):
        sc = lambda seed: _basic_scenario(
            adversaries=(
                AttackScript(node=6, schedule=((3, AttackAction(ActionKind.SET_SELF_VALUE)),)),
            ),
            seed=seed,
            detection=DetectionMode.NONE,
        )
        a, b = run(sc(1)), run(sc(2))
        # with detection off, the differing forged broadcasts flow
        # into normal nodes' masses
        assert a.y[1] != b.y[1]

    def test_adversary_crashed_from_round_one_never_updates(self):
        # a crash from round 1 silences the first exchange, so the
        # adversary, which sends nothing, keeps its round-0 sums
        trace = run(_basic_scenario(horizon=10, **_attack(AttackAction(ActionKind.CRASH))))
        assert trace.y[5][1] == trace.y[5][0] and trace.z[5][1] == trace.z[5][0]
        assert set(trace.y[5]) == {SIX_X0[4]}

    def test_adversary_trace_shows_the_value_its_first_message_announces(self):
        # the first exchange is forged with the actions of round 1, and
        # the trace's row 1 shows the value that message announced
        sc = _basic_scenario(
            detection=DetectionMode.NONE,
            horizon=5,
            **_attack(AttackAction(ActionKind.SET_SELF_VALUE, value=42.0)),
        )
        trace = run(sc)
        assert trace.r[5][0] == SIX_X0[4]
        assert list(trace.r[5][1:]) == [42.0] * 5

    def test_normal_mass_conserved_after_isolation(self):
        # once the adversary is cut off everywhere, the normal
        # network's total mass stays fixed
        trace = run(_tamper_scenario(horizon=40))
        settle = trace.settle_round
        sums = mass_sums(trace, range(1, 6))
        stable_y = [float(sy) for sy, _ in sums[settle + 2:]]
        stable_z = [float(sz) for _, sz in sums[settle + 2:]]
        assert max(stable_y) - min(stable_y) < 1e-9
        assert max(stable_z) - min(stable_z) < 1e-9

    def test_exact_mode_produces_fractions(self):
        trace = run(_tamper_scenario(exact=True, horizon=40))
        assert isinstance(trace.y[1][5], Fraction)
        # mass is conserved exactly once the adversary is isolated
        settle = trace.settle_round
        normal = list(range(1, 6))
        sums = mass_sums(trace, normal)
        assert all(sy == sums[settle + 2][0] for sy, _ in sums[settle + 2:])
        for i in normal:
            assert float(trace.r[i][-1]) == pytest.approx(4.8, abs=1e-6)

    def test_safety_interval_screens_first_exchange(self):
        sc = _basic_scenario(
            adversaries=(
                AttackScript(
                    node=6,
                    schedule=((1, AttackAction(ActionKind.SET_SELF_VALUE, value=500.0)),),
                ),
            ),
            safety_interval=(0.0, 20.0),
        )
        trace = run(sc)
        first = [e for e in trace.events if e.round == 1]
        assert first and all(e.suspect == 6 for e in first)
        assert {e.detector for e in first} == {1, 2, 3, 4}


@pytest.mark.parametrize("layers", [10, 20, 40])
def test_storage_per_node_does_not_grow_with_n(layers, monkeypatch):
    """A node stores its next message, whose ledger holds its
    in-neighbors and itself, and its detection sets: at most the
    largest in-degree plus one entries, at n 30, 60 and 120."""
    g = generate_layered(layers, 1, LayeredVariant.UNDIRECTED_PATH)
    largest = 0

    def measured(s, inbox, rule):
        nonlocal largest
        honest_round(s, inbox, rule)
        largest = max(largest, len(s.next.relayed) + len(s.detected) + len(s.detected_two_hop))

    monkeypatch.setattr(sim, "honest_round", measured)
    rng = random.Random(layers)
    run(Scenario(graph=g, x0=tuple(rng.uniform(0.0, 10.0) for _ in g.nodes), horizon=30))
    assert largest == 7 == 1 + max(len(g.in_neighbors(i)) for i in g.nodes)


def test_a_run_without_detection_builds_no_detection_phase(monkeypatch):
    """With detection none the engine builds no RoundPlan, and so no
    StructuralOracle: its rounds are emit and update alone."""

    def refused(*args, **kwargs):
        raise AssertionError("a run without detection built a detection table")

    monkeypatch.setattr(sim, "RoundPlan", refused)
    monkeypatch.setattr(detection, "RoundPlan", refused)
    monkeypatch.setattr(detection, "StructuralOracle", refused)
    g = generate_layered(10, 1, LayeredVariant.UNDIRECTED_PATH)
    x0 = tuple(float(i % 7) for i in g.nodes)
    trace = run(Scenario(graph=g, x0=x0, detection=DetectionMode.NONE, horizon=40))
    assert trace.events == []
    assert len(trace.r[1]) == 41


class TestTraceProperties:
    def test_target_average_excludes_detected(self):
        trace = run(_tamper_scenario())
        assert trace.never_detected == frozenset({1, 2, 3, 4, 5})
        assert trace.target_average() == pytest.approx(4.8)

    def test_summary_fields(self):
        trace = run(_tamper_scenario())
        s = summary(trace)
        assert s["target"] == pytest.approx(4.8)
        assert s["never_detected"] == [1, 2, 3, 4, 5]
        assert s["settle_round"] >= 4
        assert isinstance(s["converged_round"], int)

    def test_target_is_the_same_on_every_python_version(self):
        # the built-in sum compensates float sums from Python 3.12 on, and
        # gives 4.671428571428571 here before it
        x0 = (1.3, 8.5, 7.6, 2.6, 5.0, 4.5, 6.5, 7.9, 0.9, 0.3, 8.4, 4.3, 7.6, 0.0)
        sc = Scenario(graph=FIXTURE_GRAPHS["fourteen"](), x0=x0, f=1,
                      detection=DetectionMode.NONE, horizon=200)
        s = summary(run(sc))
        assert s["target"] == 4.671428571428572
        assert '"target": 4.671428571428572' in json.dumps(s)

    def test_no_survivors_leave_no_target(self):
        sc = _basic_scenario(horizon=2)
        series = {i: [SIX_X0[i - 1]] * 3 for i in sc.graph.nodes}
        trace = Trace(
            scenario=sc,
            y=series,
            z={i: [1.0] * 3 for i in sc.graph.nodes},
            r=series,
            detected_count={i: [0, 0, 1] for i in sc.graph.nodes},
            events=[
                DetectionVerdict(suspect=j, detector=i, round=2, cause=Cause.STEP3)
                for i, j in ((2, 1), (1, 2), (4, 3), (3, 4), (6, 5), (5, 6))
            ],
        )
        assert trace.never_detected == frozenset()
        assert trace.target_average() is None
        s = summary(trace)
        assert s["target"] is None
        assert s["converged_round"] is None
        assert s["never_detected"] == []
        text = json.dumps(s)
        assert '"target": null' in text and '"converged_round": null' in text

    def test_convergence_round_none_when_never_converged(self):
        trace = run(_basic_scenario(horizon=5))
        assert convergence_round(trace, 99.0, 1e-6) is None

    def test_convergence_round_zero_when_always_converged(self):
        trace = run(_basic_scenario())
        assert convergence_round(trace, 5.0, 100.0) == 0

    @pytest.mark.parametrize("x0", [1e300, 1e305])
    def test_a_run_at_a_huge_common_value_converges(self, x0):
        # tol 1e-6 is far below the float spacing at x0; at 1e305 the
        # running sums of 200 rounds stay finite, so the scenario is valid
        s = summary(run(_basic_scenario(x0=(x0,) * 6, horizon=200)))
        assert s["target"] == pytest.approx(x0)
        assert s["never_detected"] == [1, 2, 3, 4, 5, 6]
        assert isinstance(s["converged_round"], int)

    def test_convergence_round_allows_a_few_float_spacings(self):
        # every ratio 4 spacings off 8e305, but node 1's 16 off in round 1
        target = 8e305
        ulp = math.ulp(target)
        sc = _basic_scenario(horizon=2)
        r = {i: [target + 4 * ulp, target - (16 if i == 1 else 4) * ulp, target - 4 * ulp] for i in sc.graph.nodes}
        trace = Trace(
            scenario=sc,
            y=r,
            z={i: [1.0] * 3 for i in sc.graph.nodes},
            r=r,
            detected_count={i: [0] * 3 for i in sc.graph.nodes},
            events=[],
        )
        assert convergence_round(trace, target, 1e-6) == 2

    @pytest.mark.parametrize("name, converged", [("six-attack", 20), ("fourteen-no-attack", 132)])
    def test_rounding_that_grows_each_round_still_converges(self, name, converged):
        # x0 × 1e10 with no adversaries and no detection: the ratios end
        # 93 (six) and 365 (fourteen) float spacings off the target, as
        # rounding grows with the running sums
        data = {**golden_case(name).data, "adversaries": [], "detection": "none", "horizon": 200}
        data["x0"] = [v * 1e10 for v in data["x0"]]
        assert summary(run(scenario_from_json(data)))["converged_round"] == converged

    def test_nan_ratios_never_converge(self):
        # an undetected offset near float max on node 1's relayed entry
        # drives every normal ratio to inf and then NaN by round 9;
        # nan >= bound is False, so NaN rounds once read as converged
        data = {**golden_case("six-attack").data, "detection": "none", "horizon": 60}
        action = {"kind": "TamperRelayed", "target": 1, "mode": "offset", "amount": 1.7e308}
        data["adversaries"] = [{"node": 6, "schedule": [{"from_round": 3, "action": action}]}]
        trace = run(scenario_from_json(data))
        assert all(math.isnan(trace.r[i][-1]) for i in trace.normal_nodes)
        assert summary(trace)["converged_round"] is None


class TestSerialization:
    def test_json_round_trip_preserves_run(self):
        sc = _tamper_scenario(seed=3, safety_interval=(0.0, 20.0))
        data = json.loads(json.dumps(scenario_to_json(sc)))
        back = scenario_from_json(data)
        assert back.graph == sc.graph
        assert back.x0 == sc.x0
        assert back.adversaries == sc.adversaries
        assert back.safety_interval == sc.safety_interval
        assert run(back).r == run(sc).r

    def test_fixture_graph_reference(self):
        sc = scenario_from_json({"graph": {"fixture": "six"}, "x0": list(SIX_X0)})
        assert sc.graph == six_node_graph()

    def test_bad_scenario_collects_problems(self):
        data = {
            "graph": {"fixture": "no-such"},
            "x0": [],
            "detection": "bogus",
            "model": "bogus",
        }
        with pytest.raises(ScenarioError) as err:
            scenario_from_json(data)
        assert len(err.value.problems) >= 4

    @pytest.mark.parametrize(
        "change, problem",
        [
            (lambda d: d.update(horizn=5), "unknown key 'horizn'"),
            (lambda d: d["graph"].update(fixtur="six"), "graph: unknown key 'fixtur'"),
            (lambda d: d["adversaries"][0].update(nodes=[6]), "adversary 6: unknown key 'nodes'"),
            (
                lambda d: d["adversaries"][0]["schedule"][0].update(round=3),
                "adversary 6 schedule item 1: unknown key 'round'",
            ),
            (
                lambda d: d["adversaries"][0]["schedule"][0]["action"].update(amout=99),
                "adversary 6 schedule item 1 TamperRelayed: unknown key 'amout'",
            ),
        ],
        ids=["top", "graph", "adversary", "schedule-item", "action"],
    )
    def test_unknown_key_is_a_scenario_error(self, change, problem):
        data = scenario_to_json(_tamper_scenario())
        change(data)
        with pytest.raises(ScenarioError) as err:
            scenario_from_json(data)
        assert err.value.problems == [problem]

    @pytest.mark.parametrize(
        "change, problem",
        [
            (lambda d: d.update(expect="x"), "expect must be an object, got 'x'"),
            (
                lambda d: d.update(expect={"tol": 1e-6}),
                "expect must give exactly one of target and misses",
            ),
            (
                lambda d: d.update(expect={"target": 4.8, "misses": 4.8, "tol": 0.1}),
                "expect must give exactly one of target and misses",
            ),
            (
                lambda d: d.update(expect={"target": "a", "tol": 1e-6}),
                "expect: target must be a finite number, got 'a'",
            ),
            (
                lambda d: d.update(expect={"target": 4.8, "tol": 0}),
                "expect: tol must be a positive finite number, got 0",
            ),
            (
                lambda d: d.update(expect={"target": 4.8, "tol": 1e-6, "tl": 1}),
                "expect: unknown key 'tl'",
            ),
            (lambda d: d.update(description=5), "description must be a string, got 5"),
        ],
        ids=["text", "no-value", "two-values", "text-target", "zero-tol", "unknown-key", "description"],
    )
    def test_bad_expect_or_description_is_a_scenario_error(self, change, problem):
        data = scenario_to_json(_tamper_scenario())
        change(data)
        with pytest.raises(ScenarioError) as err:
            scenario_from_json(data)
        assert err.value.problems == [problem]

    @pytest.mark.parametrize(
        "graph",
        [
            {"fixture": "six", "inline": "n 3\n1 2\n2 3\n3 1\n"},
            {"fixture": "six", "file": "six.txt"},
            {"inline": "n 3\n1 2\n2 3\n3 1\n", "file": "six.txt", "fixture": "six"},
            {},
        ],
        ids=["fixture-and-inline", "fixture-and-file", "all-three", "none"],
    )
    def test_graph_names_exactly_one_source(self, graph):
        data = scenario_to_json(_tamper_scenario())
        data["graph"] = graph
        with pytest.raises(ScenarioError) as err:
            scenario_from_json(data)
        assert err.value.problems == ["graph must give exactly one of inline, file and fixture"]

    def test_only_the_documented_extra_keys_are_allowed(self):
        data = scenario_to_json(_tamper_scenario())
        data.update(description="six", expect={"target": 4.8, "tol": 1e-6})
        data["adversaries"][0]["collusion_partner"] = 5
        assert scenario_from_json(data) == _tamper_scenario()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_every_field_round_trips(self, data):
        sc = data.draw(scenarios())
        back = scenario_from_json(json.loads(json.dumps(scenario_to_json(sc))))
        assert back == sc

    def test_value_tol_round_trips(self):
        data = json.loads(json.dumps(scenario_to_json(_basic_scenario(value_tol=1e-6))))
        assert scenario_from_json(data).value_tol == 1e-6
        del data["value_tol"]
        assert scenario_from_json(data).value_tol == Scenario.value_tol == 1e-9

    @pytest.mark.parametrize("name", ["tol", "value_tol"])
    @pytest.mark.parametrize("value", [0.0, -1e-9, math.inf, math.nan])
    def test_tolerances_must_be_positive_and_finite(self, name, value):
        with pytest.raises(ScenarioError) as err:
            run(_basic_scenario(**{name: value}))
        assert err.value.problems == [f"{name} must be positive and finite"]


class TestCsvExport:
    def test_trace_csv_shape(self, tmp_path):
        trace = run(_basic_scenario(horizon=4))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "round,node,y,z,ratio,detected_count"
        assert len(lines) == 1 + 5 * 6
        row = lines[1].split(",")
        assert row[:2] == ["0", "1"]
        assert float(row[2]) == SIX_X0[0]

    def test_events_csv_contents(self, tmp_path):
        trace = run(_tamper_scenario())
        path = tmp_path / "events.csv"
        write_events_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "round,detector,suspect,cause"
        assert any(line.endswith(",6,Step3") for line in lines[1:])

    def test_float_formatting_round_trips(self, tmp_path):
        trace = run(_basic_scenario(horizon=6))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        for line in path.read_text().splitlines()[1:]:
            k, i, y, z, ratio, _ = line.split(",")
            k, i = int(k), int(i)
            assert float(y) == float(trace.y[i][k])
            assert float(z) == float(trace.z[i][k])
            assert float(ratio) == float(trace.r[i][k])

    FLOAT_GRIDS = {
        # 0.0 and -0.0 in one round at different nodes, and in
        # consecutive rounds of one node: 0.0 == -0.0, reprs differ
        "signed-zeros": [[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], [0, 0.0, -0.0]],
        "non-finite-and-extremes": [
            [math.nan, math.inf, 1e300], [-math.inf, 5e-324, math.nan], [1e300, -5e-324, -1e300],
        ],
        "ints": [[3, -7, 0], [3, 2, -0.0], [10**20, 3, 3.0]],
        # one nonzero value at several nodes, next to its zeros
        "shared-value": [[2.5, 2.5, -0.0], [2.5, 0.0, 2.5], [2.5, 2.5, 2.5]],
    }
    # Grids whose rows repeat within a round. Their counts are
    # k * (i % 2): nodes 1 and 3 share one in every round, node 2 has
    # another after round 0.
    ROW_GRIDS = {
        # every round: nodes 1 and 3 repeat a whole row, node 2 differs
        # only in detected_count (round 0: all three repeat it)
        "repeated-rows": [[2.5, 1.5, 7.0]] * 3,
        # round 1: nodes 1 and 3 differ only in the ratio, 0.0 against -0.0
        "rows-but-a-signed-zero": [[2.5, 1.5, 0.0, 4.0], [2.5, 1.5, 9.0, 4.0], [2.5, 1.5, -0.0, 4.0]],
        "repeated-non-finite": [[math.nan, math.inf, -math.inf, math.nan]] * 3,
    }
    # unequal rationals that round to the same float
    EXACT_GRID = [
        [Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**40), Fraction(-1, 3)],
        [Fraction(10**400 + 1, 10**399), Fraction(10), Fraction(0)],
        [Fraction(1, 3) - Fraction(1, 10**40), Fraction(1, 3), Fraction(1, 3)],
    ]
    # nodes 1 and 3 hold unequal rationals in y and the ratio that round
    # to the same floats, so their rows repeat as floats in every round
    EXACT_ROW_GRID = [
        [Fraction(1, 3), Fraction(2, 7), Fraction(5, 3)],
        [Fraction(1, 3), Fraction(2, 7), Fraction(5, 3)],
        [Fraction(1, 3) + Fraction(1, 10**40), Fraction(2, 7) - Fraction(1, 10**40), Fraction(5, 3) + Fraction(1, 10**40)],
    ]

    @pytest.mark.parametrize(
        "grid, exact, typed, shared",
        [pytest.param(grid, False, False, False, id=name) for name, grid in FLOAT_GRIDS.items()]
        + [pytest.param(EXACT_GRID, True, False, False, id="exact-near-ties")]
        # the columns a float run records
        + [pytest.param(grid, False, True, False, id=f"{name}-arrays") for name, grid in FLOAT_GRIDS.items()]
        + [pytest.param(grid, False, typed, True, id=name + "-arrays" * typed)
           for name, grid in ROW_GRIDS.items() for typed in (False, True)]
        + [pytest.param(EXACT_ROW_GRID, True, False, True, id="exact-near-tie-rows")],
    )
    def test_trace_csv_matches_a_plain_writer(self, tmp_path, grid, exact, typed, shared):
        """grid[node][round] fills y; z rotates the nodes and the ratio
        reverses the rounds, so every value reaches every column. The
        count at node i in round k is i * k, or k * (i % 2) where shared.
        The columns are lists, or array('d') and array('i') where typed;
        the plain writer reads the grid, so both give the same bytes."""
        n, rounds = len(grid), len(grid[0])
        sc = Scenario(graph=complete_graph(n), x0=(1.0,) * n, detection=DetectionMode.NONE,
                      horizon=rounds - 1, exact=exact)
        column, counts = (partial(array, "d"), partial(array, "i")) if typed else (list, list)
        count = (lambda i, k: k * (i % 2)) if shared else (lambda i, k: i * k)
        trace = Trace(
            scenario=sc,
            y={i: column(grid[i - 1]) for i in sc.graph.nodes},
            z={i: column(grid[i % n]) for i in sc.graph.nodes},
            r={i: column(reversed(grid[i - 1])) for i in sc.graph.nodes},
            detected_count={i: counts(count(i, k) for k in range(rounds)) for i in sc.graph.nodes},
        )
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        rows = ["round,node,y,z,ratio,detected_count"] + [
            f"{k},{i},{repr(float(grid[i - 1][k]))},{repr(float(grid[i % n][k]))},"
            f"{repr(float(grid[i - 1][rounds - 1 - k]))},{count(i, k)}"
            for k in range(rounds)
            for i in sc.graph.nodes
        ]
        assert path.read_bytes() == ("\n".join(rows) + "\n").encode()

    def test_trace_csv_writer_holds_a_small_share_of_the_file(self, tmp_path):
        """The writer keeps one round in memory, not the whole file."""
        g = generate_layered(20, 1, LayeredVariant.UNDIRECTED_PATH)
        rng = random.Random(3)
        x0 = tuple(rng.uniform(0.0, 10.0) for _ in g.nodes)
        trace = run(Scenario(graph=g, x0=x0, detection=DetectionMode.NONE, horizon=400))
        path = tmp_path / "trace.csv"
        tracemalloc.start()
        try:
            write_trace_csv(trace, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 1_000_000
        assert peak < size / 4
