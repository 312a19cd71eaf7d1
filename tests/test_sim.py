import json
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racsim.adversary import ActionKind, AttackAction, AttackScript, TamperMode
from racsim.detection import Cause, DetectionVerdict
from racsim.fixtures import FIXTURE_GRAPHS, X0_SIX, six_node_graph
from racsim.graph import AdversaryKind, DirectedGraph, complete_graph
from racsim.protocol import DEFAULT_TOL
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


def _basic_scenario(**overrides) -> Scenario:
    defaults = dict(
        graph=six_node_graph(),
        x0=X0_SIX,
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
            (dict(x0=(math.nan,) + X0_SIX[1:]), "x0 has a non-finite entry"),
            (dict(x0=X0_SIX[:5] + (-math.inf,)), "x0 has a non-finite entry"),
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
            (dict(safety_interval=(math.nan, 10.0)), "safety interval bounds must be finite"),
            (dict(safety_interval=(0.0, math.inf)), "safety interval bounds must be finite"),
            (dict(safety_interval=(math.inf, -math.inf)), "safety interval bounds must be finite"),
        ],
        ids=[
            "nan-x0", "inf-x0", "accuse-outside", "inf-self-value", "nan-amount", "inf-fake-values",
            "nan-interval", "inf-interval", "infinite-interval",
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
        oracle = push_sum_ratios(6, set(g.edges), list(X0_SIX), 20)
        for k in range(21):
            for i in g.nodes:
                assert float(trace.r[i][k]) == pytest.approx(oracle[k][i - 1], abs=1e-9)

    def test_round_zero_records_initial_values(self):
        trace = run(_basic_scenario())
        for i in range(1, 7):
            assert trace.r[i][0] == X0_SIX[i - 1]
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
        assert set(trace.y[5]) == {X0_SIX[4]}

    def test_adversary_trace_shows_the_value_its_first_message_announces(self):
        # the first exchange is forged with the actions of round 1, and
        # the trace's row 1 shows the value that message announced
        sc = _basic_scenario(
            detection=DetectionMode.NONE,
            horizon=5,
            **_attack(AttackAction(ActionKind.SET_SELF_VALUE, value=42.0)),
        )
        trace = run(sc)
        assert trace.r[5][0] == X0_SIX[4]
        assert trace.r[5][1:] == [42.0] * 5

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

    def test_no_survivors_leave_no_target(self):
        sc = _basic_scenario(horizon=2)
        series = {i: [X0_SIX[i - 1]] * 3 for i in sc.graph.nodes}
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
        sc = scenario_from_json({"graph": {"fixture": "six"}, "x0": list(X0_SIX)})
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

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_every_field_round_trips(self, data):
        sc = data.draw(scenarios())
        back = scenario_from_json(json.loads(json.dumps(scenario_to_json(sc))))
        assert back == sc
        # graph equality compares nodes and edges only
        assert back.graph.undirected == sc.graph.undirected

    def test_value_tol_round_trips(self):
        data = json.loads(json.dumps(scenario_to_json(_basic_scenario(value_tol=1e-6))))
        assert scenario_from_json(data).value_tol == 1e-6
        del data["value_tol"]
        assert scenario_from_json(data).value_tol == DEFAULT_TOL

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
        assert float(row[2]) == X0_SIX[0]

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
            k, i, y, *_ = line.split(",")
            assert float(y) == float(trace.y[int(i)][int(k)])
