#!/usr/bin/env python3
"""Record the reference sha256 digests of trace.csv and events.csv.

    python3 perfbench/record_digests.py

Runs every golden and exact-golden case once and writes
perfbench/digests.json, which the benchmark checks each run against.
Run it only on a commit whose traces are known good: a change that
must keep behaviour keeps these digests.
"""

from __future__ import annotations

import json
import shutil
import sys

import run as bench


def main() -> int:
    rs = bench.import_racsim()
    digests = {}
    try:
        for workload in ("golden", "exact-golden"):
            cases = bench.setup(rs, workload, seed=0)
            digests[workload] = {}
            for case in cases:
                if case.problem is not None:
                    sys.exit(f"{workload} {case.name}: {case.problem}")
                out = bench.OUT_DIR / workload / case.name
                out.mkdir(parents=True)
                bench.export(rs, rs.sim.run(case.scenario), out)
                _, digests[workload][case.name] = bench.digest(out)
    finally:
        shutil.rmtree(bench.OUT_DIR, ignore_errors=True)
    bench.DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {bench.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
