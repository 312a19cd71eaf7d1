"""Per-layer call tracing for the benchmark's traced runs.

A `Tracer` replaces public functions of the racsim modules with
wrappers while it is installed and puts the originals back when it is
removed; the package itself carries no tracing code. Timed wrappers
keep a stack of open spans, so a span's self time is its duration
minus the time of the timed spans it caused. Functions called about
a million times per pass (`ValueRule.pair_eq` and the graph lookups)
get counting wrappers only, which keeps the tracing overhead to 1.2-1.5x;
their time stays in the caller's self time.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter

# (span name, racsim module, attribute, timed). Several attributes may
# share one span name; their calls and times add up.
SPANS = (
    ("sim.run", "sim", "run", True),
    ("sim.load_scenario", "sim", "load_scenario", True),
    ("sim.write_trace_csv", "sim", "write_trace_csv", True),
    ("sim.write_events_csv", "sim", "write_events_csv", True),
    ("detection.detect_alg3", "detection", "detect_alg3", True),
    ("detection.detect_alg2", "detection", "detect_alg2", True),
    ("detection.replay", "detection", "reconstruct_running_sums", True),
    ("detection.vote", "detection", "vote_value", True),
    ("detection.oracle", "detection", "StructuralOracle.must_detect", True),
    ("detection.oracle", "detection", "StructuralOracle.must_know_status", True),
    ("protocol.honest_round", "protocol", "honest_round", True),
    ("protocol.build_information_set", "protocol", "build_information_set", True),
    ("protocol.bootstrap", "protocol", "bootstrap", True),
    ("protocol.pair_eq", "protocol", "ValueRule.pair_eq", False),
    ("adversary.forge", "adversary", "forge_information_set", True),
    ("adversary.tampered_inbox", "adversary", "tampered_inbox", True),
    ("graph.lookup", "graph", "DirectedGraph.in_neighbors", False),
    ("graph.lookup", "graph", "DirectedGraph.out_neighbors", False),
    ("graph.lookup", "graph", "DirectedGraph.has_edge", False),
    ("graph.lookup", "graph", "DirectedGraph.two_hop_in_neighbors", False),
    ("graph.lookup", "graph", "two_hop_middle_nodes", False),
    ("graph.generate_layered", "graph", "generate_layered", True),
    ("graph.condition", "graph", "check_alg3_condition", True),
    ("graph.condition", "graph", "check_alg2_condition", True),
)

# votes that returned a value rather than NO_MAJORITY
MAJORITY = "detection.vote.majority"


class Tracer:
    """Calls, total time and self time per span name, for one traced pass."""

    def __init__(self) -> None:
        # name -> [calls, total seconds, self seconds]; a list cell per
        # name keeps the wrappers free of dictionary lookups
        self._cells: dict[str, list] = {}
        self._stack: list[float] = []

    def calls(self, name: str) -> int:
        return self._cells[name][0]

    def total(self, name: str) -> float:
        return self._cells[name][1]

    def self_time(self, name: str) -> float:
        return self._cells[name][2]

    def counts(self) -> dict[str, int]:
        return {name: cell[0] for name, cell in self._cells.items()}

    def _cell(self, name: str) -> list:
        return self._cells.setdefault(name, [0, 0.0, 0.0])

    def _timed(self, name, fn):
        cell, stack = self._cell(name), self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                cell[0] += 1
                cell[1] += elapsed
                cell[2] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def _counted(self, name, fn):
        cell = self._cell(name)

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _vote(self, fn, no_majority):
        cell = self._cell(MAJORITY)

        def vote(*args, **kwargs):
            result = fn(*args, **kwargs)
            if result is not no_majority:
                cell[0] += 1
            return result

        return vote

    @contextmanager
    def installed(self):
        """Wrap every span in SPANS for the duration of the block.

        A module-level function is replaced under every name that any
        loaded racsim module binds it to, since modules import each
        other's functions by name; a method is replaced on its class.
        """
        patches = []
        try:
            for name, module, attr, timed in SPANS:
                mod = sys.modules[f"racsim.{module}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owners = [(getattr(mod, cls_name), meth)]
                    original = getattr(*owners[0])
                else:
                    original = getattr(mod, attr)
                    owners = [
                        (m, key)
                        for m in _racsim_modules()
                        for key, value in vars(m).items()
                        if value is original
                    ]
                fn = original
                if attr == "vote_value":
                    fn = self._vote(fn, mod.NO_MAJORITY)
                wrapper = self._timed(name, fn) if timed else self._counted(name, fn)
                for owner, key in owners:
                    patches.append((owner, key, original))
                    setattr(owner, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(patches):
                setattr(owner, key, original)


def _racsim_modules():
    return [m for key, m in list(sys.modules.items()) if key == "racsim" or key.startswith("racsim.")]
