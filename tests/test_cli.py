import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from racsim.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_UNREADABLE,
    main,
)
from racsim.fixtures import five_node_graph, six_node_damaged, six_node_graph
from racsim.graph import LayeredVariant, generate_layered, read_edge_list, write_edge_list
from racsim import golden
from racsim.sim import Scenario, ScenarioError, scenario_to_json

SIX_X0 = tuple(golden.golden_case("six-attack").data["x0"])
ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"


def _racsim_in_capped_memory(*args):
    """racsim called with args in a child whose address space is capped
    at 600 MiB, so that a command that allocates without bound runs out
    of memory within seconds."""
    resource = pytest.importorskip("resource")

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (600 * 2**20, 600 * 2**20))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "racsim.cli", *args],
        env=env, capture_output=True, encoding="utf-8", timeout=120, preexec_fn=cap_address_space,
    )


def _huge_header_graph(tmp_path):
    """A graph file whose header names 10^8 nodes, far more than the
    capped child can hold."""
    path = tmp_path / "huge-header.txt"
    path.write_text("n 100000000\n1 2\n")
    return path


@pytest.fixture
def scenario_file(tmp_path):
    sc = Scenario(graph=six_node_graph(), x0=SIX_X0, horizon=30)
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
            {"x0": [float("nan")] + list(SIX_X0[1:])},
            {"adversaries": [{"node": 5, "schedule": [
                {"from_round": 1, "action": {"kind": "FalselyAccuse", "target": 9}}]}]},
            {"x0": ["a"] + list(SIX_X0[1:])},
            {"x0": [10**400] + list(SIX_X0[1:])},
            # Σ|x0| is finite, but 200 rounds of running sums are not
            {"x0": [5e306] * 6, "horizon": 200},
            {"horizon": "abc"},
            # trace columns beyond sys.maxsize bytes, refused before any allocation
            {"horizon": 10**18},
            # within sys.maxsize bytes, but not within any machine's memory
            {"horizon": 10**16},
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
            {"adversaries": [{"node": 6, "schedule": [
                {"from_round": 1, "action": {"kind": "LieDeclaredDegree", "value": 2.5}}]}]},
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
            {"horizn": 5},
            {"graph": {"fixture": "six", "undirected": True}},
            {"graph": {"fixture": "six", "inline": write_edge_list(six_node_graph())}},
            {"adversaries": [{"node": 6, "shedule": []}]},
            {"adversaries": [{"node": 6, "schedule": [
                {"from_round": 1, "until_round": 5, "action": {"kind": "Comply"}}]}]},
            {"adversaries": [{"node": 6, "schedule": [
                {"from_round": 1, "action": {"kind": "TamperRelayed", "target": 2, "amout": 99}}]}]},
            {"expect": "x"},
            {"description": 5},
            {"adversaries": [
                {"node": v, "schedule": [{"from_round": 1, "action": {"kind": "Comply"}}]}
                for v in range(1, 7)
            ]},
        ],
        ids=[
            "nan-x0", "accuse-outside", "text-x0", "huge-x0", "overflowing-running-sums",
            "text-horizon", "huge-horizon", "unallocatable-horizon", "text-f", "text-tol",
            "short-interval", "nan-interval", "inf-interval", "text-node", "text-degree",
            "negative-degree", "fractional-degree", "text-value-tol", "zero-value-tol", "unknown-arithmetic", "text-sharing", "list-fixture",
            "adversaries-object", "text-round", "text-target",
            "misspelled-key", "unknown-graph-key", "two-graph-sources", "unknown-adversary-key", "unknown-schedule-key",
            "unknown-action-key", "text-expect", "number-description", "no-normal-node",
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
        assert not (tmp_path / "out").exists()

    def test_every_problem_gets_its_own_line(self, tmp_path, scenario_file, capsys):
        data = json.loads(scenario_file.read_text())
        data.update({"horizon": "abc", "f": "one", "x0": ["a"]})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        lines = capsys.readouterr().err.splitlines()
        assert code == EXIT_INVALID
        assert len(lines) == 3 and all(line.startswith("invalid scenario: ") for line in lines)

    def test_x0_whose_magnitudes_overflow_when_summed_exits_invalid(self, tmp_path, capsys):
        # each entry is finite, but their sum, and so the target, is not
        data = json.loads((SCENARIOS / "six-attack.json").read_text())
        data["x0"] = [1.7e308] * 6
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(path), "--out", str(out)])
        assert code == EXIT_INVALID
        assert capsys.readouterr().err == "invalid scenario: x0 magnitudes overflow when summed\n"
        assert not out.exists()

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

    def test_every_text_file_is_opened_as_utf8(self, tmp_path):
        """A text open that leaves the encoding to the locale warns under
        warn_default_encoding, and the warning is an error here; the run
        writes six-attack's recorded golden bytes."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "racsim.cli", "run", "--scenario", str(SCENARIOS / "six-attack.json"), "--out", str(out)],
            env=env, capture_output=True, encoding="utf-8", timeout=120,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        digests = json.loads((ROOT / "perfbench" / "digests.json").read_text(encoding="utf-8"))
        want = digests["golden"]["six-attack"]
        assert {k: hashlib.sha256((out / f"{k}.csv").read_bytes()).hexdigest() for k in want} == want

    def test_trace_columns_beyond_memory_remove_only_the_out_this_call_made(self, tmp_path, capsys):
        data = json.loads((SCENARIOS / "six-attack.json").read_text())
        data["horizon"] = 10**16
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "a" / "b" / "out")])
        assert code == EXIT_INVALID
        assert capsys.readouterr().err == (
            f"invalid scenario: horizon {10**16} needs trace columns beyond the available memory\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.json"]

    def test_a_graph_beyond_memory_exits_invalid_with_one_line(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"graph": {"file": _huge_header_graph(tmp_path).name}, "x0": [1.0, 2.0]}))
        out = tmp_path / "out"
        proc = _racsim_in_capped_memory("run", "--scenario", str(path), "--out", str(out))
        assert proc.returncode == EXIT_INVALID, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == "invalid scenario: bad graph: 100000000 nodes do not fit in memory\n"
        assert not out.exists()

    def test_invalid_scenario_is_reported_before_out_is_made(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"graph": {"fixture": "six"}, "x0": [1.0]}))
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_INVALID
        assert err == "invalid scenario: x0 has 1 entries for 6 nodes\n"
        assert not out.exists()

    def test_graph_file_resolves_against_the_scenario_directory(self, tmp_path, monkeypatch):
        data = scenario_to_json(Scenario(graph=six_node_graph(), x0=SIX_X0, horizon=30))
        inline = tmp_path / "inline.json"
        inline.write_text(json.dumps(data))
        scenarios = tmp_path / "scenarios"
        scenarios.mkdir()
        (scenarios / "g.txt").write_text(data["graph"]["inline"])
        from_file = scenarios / "from-file.json"
        from_file.write_text(json.dumps({**data, "graph": {"file": "g.txt"}}))
        # the file is not found from the working directory
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert main(["run", "--scenario", str(inline), "--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(["run", "--scenario", str(from_file), "--out", str(tmp_path / "b")]) == EXIT_OK
        assert (tmp_path / "a" / "trace.csv").read_bytes() == (tmp_path / "b" / "trace.csv").read_bytes()

    def test_missing_graph_file_exits_invalid_with_one_line(self, tmp_path, capsys):
        data = scenario_to_json(Scenario(graph=six_node_graph(), x0=SIX_X0, horizon=30))
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({**data, "graph": {"file": "missing.txt"}}))
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_INVALID
        assert len(err.splitlines()) == 1 and err.startswith("invalid scenario: bad graph: ")
        assert not out.exists()

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

    def test_a_graph_beyond_memory_exits_invalid_with_one_line(self, tmp_path):
        proc = _racsim_in_capped_memory("check-graph", str(_huge_header_graph(tmp_path)), "-f", "1", "--alg3")
        assert proc.returncode == EXIT_INVALID, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == "invalid graph: 100000000 nodes do not fit in memory\n"

    def test_unreadable_graph(self, tmp_path):
        code = main(["check-graph", str(tmp_path / "none.txt"), "-f", "1", "--alg3"])
        assert code == EXIT_UNREADABLE

    def test_malformed_graph(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("nodes six\n")
        code = main(["check-graph", str(path), "-f", "1", "--alg3"])
        assert code == EXIT_INVALID

    @pytest.mark.parametrize("header", ["n 3 undirectd", "n 3 undirected junk"])
    def test_bad_header_exits_invalid_with_one_line(self, tmp_path, capsys, header):
        path = tmp_path / "g.txt"
        path.write_text(f"{header}\n1 2\n2 3\n3 1\n")
        code = main(["check-graph", str(path), "-f", "1", "--alg3"])
        captured = capsys.readouterr()
        assert code == EXIT_INVALID
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("invalid graph: bad header")

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

    def test_k_strong_1_takes_thirty_nodes(self, tmp_path, capsys):
        # strong connectivity is one search each way, so the node cap of
        # the exhaustive check does not apply
        path = tmp_path / "thirty.txt"
        path.write_text(write_edge_list(generate_layered(10, 1, LayeredVariant.UNDIRECTED_PATH)))
        code = main(["check-graph", str(path), "-f", "1", "--k-strong", "1"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == "1-strong connectivity: pass\n"

    def test_sharing_condition_passes_on_five(self, tmp_path, capsys):
        path = tmp_path / "five.txt"
        path.write_text(write_edge_list(five_node_graph()))
        code = main(["check-graph", str(path), "-f", "2", "--alg2"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == "sharing-detection condition: pass\n"

    def test_sharing_condition_fails_on_a_four_cycle(self, tmp_path, capsys):
        # adjacent nodes of a 4-cycle share no neighbor; f 2 needs one
        path = tmp_path / "cycle.txt"
        path.write_text("n 4 undirected\n1 2\n2 3\n3 4\n4 1\n")
        code = main(["check-graph", str(path), "-f", "2", "--alg2"])
        assert code == EXIT_CHECK_FAILED
        head, *violations = capsys.readouterr().out.splitlines()
        assert head == "sharing-detection condition: fail"
        assert sorted(violations) == [
            f"  violation common_neighbors at {edge}" for edge in ((1, 2), (1, 4), (2, 3), (3, 4))
        ]

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

    @pytest.mark.parametrize("layers, f", [("2", "20000"), ("100000000", "1")], ids=["wide", "long"])
    def test_a_graph_beyond_memory_exits_invalid_with_one_line(self, tmp_path, layers, f):
        # either graph has billions of edges
        out = tmp_path / "huge.txt"
        proc = _racsim_in_capped_memory("gen-graph", "--layers", layers, "-f", f, "--out", str(out))
        assert proc.returncode == EXIT_INVALID, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == f"invalid arguments: {layers} layers at f {f} do not fit in memory\n"
        assert not out.exists()


# input files whose bytes do not decode as a scenario or a graph, and
# paths that block --out: a file, or a path under one
BAD_FILES = {
    "not-utf8.json": b'{"x0": "\xff"}',
    "deep.json": b"[" * 100_000 + b"]" * 100_000,
    "not-utf8.txt": b"n 2\n1 2\n# \xff\n",
    "a-file": b"",
}


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["run", "--scenario", "not-utf8.json", "--out", "out"], "invalid scenario: "),
        (["run", "--scenario", "deep.json", "--out", "out"], "invalid scenario: "),
        (["check-graph", "not-utf8.txt", "-f", "1", "--alg3"], "invalid graph: "),
        (["run", "--scenario", "scenario.json", "--out", "a-file"], "invalid arguments: "),
        (["run", "--scenario", "scenario.json", "--out", "a-file/out"], "invalid arguments: "),
        (["gen-graph", "--layers", "3", "-f", "1", "--out", "."], "invalid arguments: "),
        (["gen-graph", "--layers", "3", "-f", "1", "--out", "missing/g.txt"], "invalid arguments: "),
    ],
    ids=[
        "run-not-utf8", "run-nested-100000-deep", "check-graph-not-utf8", "run-out-is-a-file",
        "run-out-under-a-file", "gen-graph-out-is-a-directory", "gen-graph-out-in-missing-directory",
    ],
)
def test_undecodable_input_or_unwritable_out_exits_invalid_with_one_line(
    tmp_path, scenario_file, monkeypatch, capsys, argv, prefix
):
    def no_run(scenario):
        raise AssertionError("the scenario ran")

    # every one of these errors is reported before the first round
    monkeypatch.setattr("racsim.cli.run_scenario", no_run)
    for name, content in BAD_FILES.items():
        (tmp_path / name).write_bytes(content)
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_INVALID
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith(prefix)
    assert (tmp_path / "a-file").read_bytes() == b""


class TestGoldenCommand:
    def test_all_cases_pass(self, capsys):
        code = main(["golden"])
        out = capsys.readouterr().out.splitlines()
        assert code == EXIT_OK
        assert len(out) == 8
        assert all(line.startswith("PASS ") for line in out)

    def test_a_malformed_expect_block_is_a_scenario_error(self, tmp_path, monkeypatch):
        # the loader validates a case file before it reads its expect block
        data = json.loads((SCENARIOS / "six-attack.json").read_text())
        data["expect"] = "x"
        (tmp_path / "scenarios").mkdir()
        (tmp_path / "scenarios" / "six-attack.json").write_text(json.dumps(data))
        monkeypatch.setattr(golden, "files", lambda package: tmp_path)
        with pytest.raises(ScenarioError) as err:
            golden._load()
        assert err.value.problems == ["expect must be an object, got 'x'"]
