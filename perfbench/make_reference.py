"""Regenerate ``perfbench/reference.json``: the correctness table.

Every config any workload runs or serves is simulated once, cold, through
``repro.api.run``, and its canonical ``RunResult`` bytes are stored.  The
benchmark then counts as failed any run or served body that differs from
this table.  While generating, every relation in
``repro.bench.paper.EXPECTATIONS`` is checked; a failing relation aborts
without writing the table.

Run from the repository root:  python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from repro import api  # noqa: E402
from repro.bench import harness, paper  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    table = {}

    def record(config: api.RunConfig) -> None:
        result = api.run(config, use_cache=False)
        table[workloads.ref_key(config)] = result.to_json_bytes().decode()

    failures = []
    for exp_id in harness.EXPERIMENTS:
        for system in ("tmk", "pvm"):
            record(api.RunConfig(experiment=exp_id, system=system, nprocs=8))
        for check in paper.check_experiment(exp_id):
            print(f"{exp_id} {check}", flush=True)
            if not check.passed:
                failures.append(f"{exp_id}: {check}")
        harness.clear_cache()
    for config in workloads.serve_pool():
        if workloads.ref_key(config) not in table:
            record(config)
            harness.clear_cache()
    if failures:
        print("paper relations failed; table not written:", *failures,
              sep="\n  ", file=sys.stderr)
        return 1
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(table)} reference results -> {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
