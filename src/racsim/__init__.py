"""Deterministic round-based simulator for resilient average consensus
in directed multi-agent networks, with malicious-node detection,
scripted adversaries, and a topology condition toolkit."""

from .graph import (
    AdversaryKind,
    ConditionReport,
    DirectedGraph,
    LayeredVariant,
    check_alg2_condition,
    check_alg3_condition,
    generate_layered,
    is_detectable,
    is_f_local,
    is_k_strongly_connected,
    read_edge_list,
    two_hop_middle_nodes,
    vertex_connectivity_at_least,
    write_edge_list,
)
from .protocol import (
    InformationSet,
    NodeState,
    ValueRule,
    bootstrap,
    build_information_set,
    honest_round,
)
from .detection import (
    Cause,
    DetectionVerdict,
    NO_MAJORITY,
    StructuralOracle,
    detect_alg2,
    detect_alg3,
    init_range_check,
    reconstruct_running_sums,
    vote_value,
)
from .adversary import (
    ActionKind,
    AttackAction,
    AttackScript,
    TamperMode,
    forge_information_set,
    validate_adversary_placement,
)
from .sim import (
    DetectionMode,
    Scenario,
    ScenarioError,
    Trace,
    convergence_round,
    load_scenario,
    mass_sums,
    run,
    scenario_from_json,
    scenario_to_json,
    write_events_csv,
    write_trace_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
