import json
from pathlib import Path

import pytest

from racsim.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_UNREADABLE,
    main,
)
from racsim.fixtures import X0_SIX, six_node_damaged, six_node_graph
from racsim.graph import LayeredVariant, generate_layered, read_edge_list, write_edge_list
from racsim.sim import Scenario, scenario_to_json

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.fixture
def scenario_file(tmp_path):
    sc = Scenario(graph=six_node_graph(), x0=X0_SIX, horizon=30)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_json(sc)))
    return path


class TestRunCommand:
    def test_writes_all_outputs(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(scenario_file), "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "trace.csv").exists()
        assert (out / "events.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["target"] == pytest.approx(5.0)
        printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert printed == summary

    def test_missing_file_unreadable(self, tmp_path):
        code = main(["run", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == EXIT_UNREADABLE

    def test_malformed_json_invalid(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == EXIT_INVALID

    def test_semantically_invalid_scenario(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"graph": {"fixture": "six"}, "x0": [1.0]}))
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == EXIT_INVALID

    @pytest.mark.parametrize(
        "change",
        [
            {"x0": [float("nan")] + list(X0_SIX[1:])},
            {"adversaries": [{"node": 5, "schedule": [
                {"from_round": 1, "action": {"kind": "FalselyAccuse", "target": 9}}]}]},
            {"x0": ["a"] + list(X0_SIX[1:])},
            {"x0": [10**400] + list(X0_SIX[1:])},
            {"horizon": "abc"},
            {"f": "one"},
            {"tol": "x"},
            {"safety_interval": [1]},
            {"safety_interval": [float("nan"), 10]},
            {"safety_interval": [0, float("inf")]},
            {"adversaries": [{"node": "6", "schedule": []}]},
            {"adversaries": [{"node": 6, "schedule": [
                {"from_round": 1, "action": {"kind": "LieDeclaredDegree", "value": "x"}}]}]},
            {"adversaries": [{"node": 6, "schedule": [
                {"from_round": 1, "action": {"kind": "LieDeclaredDegree", "value": -1}}]}]},
            {"value_tol": "x"},
            {"value_tol": 0},
            {"arithmetic": "decimal"},
            {"sharing_oracle": "yes"},
            {"graph": {"fixture": ["six"]}},
            {"adversaries": {"node": 6}},
            {"adversaries": [{"node": 6, "schedule": [
                {"from_round": "1", "action": {"kind": "Comply"}}]}]},
            {"adversaries": [{"node": 6, "schedule": [
                {"from_round": 1, "action": {"kind": "TamperRelayed", "target": "2"}}]}]},
        ],
        ids=[
            "nan-x0", "accuse-outside", "text-x0", "huge-x0", "text-horizon", "text-f", "text-tol",
            "short-interval", "nan-interval", "inf-interval", "text-node", "text-degree",
            "negative-degree", "text-value-tol", "zero-value-tol", "unknown-arithmetic", "text-sharing", "list-fixture",
            "adversaries-object", "text-round", "text-target",
        ],
    )
    def test_bad_input_exits_invalid_with_one_line(self, tmp_path, scenario_file, capsys, change):
        data = json.loads(scenario_file.read_text())
        data.update(change)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_INVALID
        assert len(err.splitlines()) == 1 and err.startswith("invalid scenario: ")

    def test_every_problem_gets_its_own_line(self, tmp_path, scenario_file, capsys):
        data = json.loads(scenario_file.read_text())
        data.update({"horizon": "abc", "f": "one", "x0": ["a"]})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        lines = capsys.readouterr().err.splitlines()
        assert code == EXIT_INVALID
        assert len(lines) == 3 and all(line.startswith("invalid scenario: ") for line in lines)

    def test_misplaced_adversaries_exit_invalid(self, tmp_path, capsys):
        # a second adversary at node 1 gives nodes 3 and 4 two malicious
        # in-neighbors each, beyond the local bound f = 1
        data = json.loads((SCENARIOS / "six-attack.json").read_text())
        data["adversaries"].append({"node": 1, "schedule": []})
        path = tmp_path / "two.json"
        path.write_text(json.dumps(data))
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert code == EXIT_INVALID
        assert capsys.readouterr().err.splitlines() == [
            f"invalid scenario: adversary placement violates local_bound at ({i},)"
            " under the local model with f=1"
            for i in (3, 4)
        ]

    def test_repeated_runs_byte_identical(self, tmp_path, scenario_file):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--scenario", str(scenario_file), "--out", str(out_a)]) == EXIT_OK
        assert main(["run", "--scenario", str(scenario_file), "--out", str(out_b)]) == EXIT_OK
        assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
        assert (out_a / "events.csv").read_bytes() == (out_b / "events.csv").read_bytes()


class TestCheckGraphCommand:
    def test_passing_graph(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(write_edge_list(six_node_graph()))
        code = main(["check-graph", str(path), "-f", "1", "--alg3", "--k-strong", "2"])
        assert code == EXIT_OK

    def test_failing_condition(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(write_edge_list(six_node_damaged()))
        code = main(["check-graph", str(path), "-f", "1", "--alg3"])
        assert code == EXIT_CHECK_FAILED

    def test_unreadable_graph(self, tmp_path):
        code = main(["check-graph", str(tmp_path / "none.txt"), "-f", "1", "--alg3"])
        assert code == EXIT_UNREADABLE

    def test_malformed_graph(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("nodes six\n")
        code = main(["check-graph", str(path), "-f", "1", "--alg3"])
        assert code == EXIT_INVALID

    def test_sharing_condition_rejects_directed_graph(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("n 3\n1 2\n2 3\n3 1\n")
        code = main(["check-graph", str(path), "-f", "1", "--alg2"])
        assert code == EXIT_INVALID


    @pytest.mark.parametrize("layers, k", [(10, 2), (3, 0)], ids=["thirty-nodes", "k-zero"])
    def test_bad_k_strong_exits_invalid_with_one_line(self, tmp_path, capsys, layers, k):
        # the exhaustive k-strong check refuses graphs beyond 20 nodes
        path = tmp_path / "g.txt"
        path.write_text(write_edge_list(generate_layered(layers, 1, LayeredVariant.UNDIRECTED_PATH)))
        code = main(["check-graph", str(path), "-f", "1", "--k-strong", str(k)])
        err = capsys.readouterr().err
        assert code == EXIT_INVALID
        assert len(err.splitlines()) == 1 and err.startswith("invalid arguments: ")

    @pytest.mark.parametrize(
        "flags",
        [["-f", "-1", "--alg3"], ["-f", "-1", "--alg2"], ["-f", "-1", "--k-strong", "2"], ["-f", "1"]],
        ids=["negative-f-alg3", "negative-f-alg2", "negative-f-k-strong", "no-check"],
    )
    def test_bad_check_arguments_exit_invalid_with_one_line(self, tmp_path, capsys, flags):
        path = tmp_path / "g.txt"
        path.write_text(write_edge_list(six_node_graph()))
        code = main(["check-graph", str(path), *flags])
        captured = capsys.readouterr()
        assert code == EXIT_INVALID
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("invalid arguments: ")


class TestGenGraphCommand:
    def test_generates_valid_graph(self, tmp_path):
        path = tmp_path / "layered.txt"
        code = main(["gen-graph", "--layers", "4", "-f", "1", "--out", str(path)])
        assert code == EXIT_OK
        g = read_edge_list(path.read_text())
        assert g.n == 12 and g.undirected

    def test_variant_option_is_gone(self, tmp_path):
        # the directed wrap variant fails the condition gen-graph checks
        with pytest.raises(SystemExit) as exc:
            main(["gen-graph", "--layers", "4", "-f", "1", "--variant", "directed-wrap",
                  "--out", str(tmp_path / "g.txt")])
        assert exc.value.code == EXIT_INVALID

    def test_bad_arguments(self, tmp_path):
        code = main(["gen-graph", "--layers", "1", "-f", "1", "--out", str(tmp_path / "g.txt")])
        assert code == EXIT_INVALID

    def test_generated_graph_usable_by_check(self, tmp_path):
        path = tmp_path / "g.txt"
        assert main(["gen-graph", "--layers", "3", "-f", "2", "--out", str(path)]) == EXIT_OK
        assert main(["check-graph", str(path), "-f", "2", "--alg3"]) == EXIT_OK


class TestGoldenCommand:
    def test_all_cases_pass(self, capsys):
        code = main(["golden"])
        out = capsys.readouterr().out.splitlines()
        assert code == EXIT_OK
        assert len(out) == 8
        assert all(line.startswith("PASS ") for line in out)
