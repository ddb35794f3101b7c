"""The benchmark's workloads: inputs from a seed, and one pass of each.

Everything here goes through the program's public entry points with the
program's own defaults -- no ``engine=`` or ``kernels=`` is ever passed:

* ``tmk_grid`` / ``pvm_grid``: the 12 paper experiments at 8 processors,
  ``bench`` preset, cold and serial through ``repro.bench.sweep``;
* ``observed_tmk``: five tmk experiments through ``repro.api.run`` with the
  timeline, profiler, sanitizer and invariant monitors on;
* ``serve_mix``: requests against ``repro serve`` (see ``serve_load.py``).

The seed fixes the run order of a grid (each pass of a run takes the
next order the seed's generator shuffles) and the request schedule and
cold keys of ``serve_mix``; the program only ever sees the resulting
configs.
"""

from __future__ import annotations

import json
import os
import random
import time
import traceback
from typing import Any, Dict, List, Tuple

from repro import api
from repro.analysis.races import AnalysisConfig
from repro.bench.sweep import run_sweep, sweep_configs
from repro.obs.core import ObsConfig

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

BATCH_WORKLOADS = ("tmk_grid", "pvm_grid", "observed_tmk")
OBSERVED_EXPERIMENTS = ("fig02", "fig05", "fig07", "fig11", "fig12")

#: serve_mix: experiments whose ``bench`` runs take well under a second.
SERVE_EXPERIMENTS = ("fig01", "fig04", "fig08", "fig12")
SERVE_SYSTEMS = ("tmk", "pvm")
#: Processor count of the hot (warmed) keys; cold keys use the others.
SERVE_HOT_NPROCS = 8
#: Cold processor counts in buckets of similar cost: per (experiment,
#: system) pair the seed draws one count from each bucket, so every seed
#: asks for about the same amount of simulation (64 cold misses).
SERVE_COLD_BUCKETS = ((1, 2), (3, 4), (5, 6), (7, 9), (10, 11), (12, 13),
                      (14, 15), (16, 17))
#: Warm ``/run`` hits and conditional (304) re-requests per schedule;
#: with the 64 cold misses they make a schedule of 320 requests.  No
#: recorded traffic exists, so the shares are chosen: half of the warm
#: requests are conditional, as in ``tools/bench_serve.py``, and cold
#: misses are 20% so that the 16 requests beyond p95 are all cold misses
#: (the requests that simulate) while p50 is a warm answer.
SERVE_HITS = 128
SERVE_CONDITIONAL = 128


def ref_key(config: api.RunConfig) -> str:
    return f"{config.experiment}/{config.system}/{config.nprocs}/{config.preset}"


def load_reference() -> Dict[str, str]:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _shuffled(configs: List[api.RunConfig], seed: int,
              index: int) -> List[api.RunConfig]:
    """Pass ``index``'s order: the ``index + 1``-th shuffle of the seed.

    A pass's peak RSS depends on the order of its runs (on ``pvm_grid``
    one order peaks at 94 MB, another at 115 MB), so the passes of one
    benchmark run take different orders and ``peak_rss_mb``, their
    largest peak, rarely rests on a single lucky order.
    """
    rng = random.Random(seed)
    for _ in range(index + 1):
        rng.shuffle(configs)
    return configs


def grid_configs(system: str, seed: int,
                 index: int = 0) -> List[api.RunConfig]:
    return _shuffled(sweep_configs(systems=(system,)), seed, index)


def observed_configs(seed: int, index: int = 0) -> List[api.RunConfig]:
    configs = [api.RunConfig(
        experiment=exp_id, system="tmk", nprocs=8, preset="bench",
        obs=ObsConfig(timeline=True, profile=True),
        analysis=AnalysisConfig(race_check="report", false_sharing=True),
        invariants=True) for exp_id in OBSERVED_EXPERIMENTS]
    return _shuffled(configs, seed, index)


def batch_configs(workload: str, seed: int,
                  index: int = 0) -> List[api.RunConfig]:
    if workload == "tmk_grid":
        return grid_configs("tmk", seed, index)
    if workload == "pvm_grid":
        return grid_configs("pvm", seed, index)
    if workload == "observed_tmk":
        return observed_configs(seed, index)
    raise ValueError(f"not a batch workload: {workload!r}")


def serve_hot() -> List[api.RunConfig]:
    return [api.RunConfig(experiment=e, system=s, nprocs=SERVE_HOT_NPROCS)
            for e in SERVE_EXPERIMENTS for s in SERVE_SYSTEMS]


def serve_pool() -> List[api.RunConfig]:
    """Every config serve_mix may request (hot keys and all cold keys)."""
    return serve_hot() + [
        api.RunConfig(experiment=e, system=s, nprocs=n)
        for e in SERVE_EXPERIMENTS for s in SERVE_SYSTEMS
        for bucket in SERVE_COLD_BUCKETS for n in bucket]


def serve_schedule(seed: int) -> List[Tuple[str, api.RunConfig]]:
    """The request sequence: ``("hit"|"conditional"|"cold", config)``.

    Cold keys are drawn per (experiment, system) pair and cost bucket, so
    every seed asks for the same mix of applications, systems and sizes.
    """
    rng = random.Random(seed)
    hot = serve_hot()
    schedule: List[Tuple[str, api.RunConfig]] = [
        ("cold", api.RunConfig(experiment=exp_id, system=system,
                               nprocs=rng.choice(bucket)))
        for exp_id in SERVE_EXPERIMENTS for system in SERVE_SYSTEMS
        for bucket in SERVE_COLD_BUCKETS]
    schedule += [("hit", rng.choice(hot)) for _ in range(SERVE_HITS)]
    schedule += [("conditional", rng.choice(hot))
                 for _ in range(SERVE_CONDITIONAL)]
    rng.shuffle(schedule)
    return schedule


# ----------------------------------------------------------------------
# One batch pass
# ----------------------------------------------------------------------
def _observed_problem(result: api.RunResult) -> str:
    """Why an observed run's observers did not deliver, or ``""``."""
    par = result.parallel
    if par is None:
        return "no live result"
    if par.timeline is None or par.profiler is None:
        return "timeline or profiler missing"
    if par.sanitizer is None or par.sanitizer.findings:
        return "sanitizer missing or reported races"
    if par.invariant_monitor is None:
        return "invariant monitor missing"
    return ""


def run_config(workload: str, config: api.RunConfig) -> api.RunResult:
    """Execute one run the way the workload's user would."""
    if workload == "observed_tmk":
        return api.run(config, use_cache=False, want_parallel=True)
    report = run_sweep([config], jobs=1, use_cache=False)
    run = report.runs[0]
    if not run.ok:
        raise RuntimeError(run.error)
    return run.result


def run_batch_pass(workload: str, configs: List[api.RunConfig],
                   reference: Dict[str, str]) -> Dict[str, Any]:
    """Run every config once, timing each and checking its output.

    Times are ``time.perf_counter()`` instants (``t0``/``t1``) so the
    caller can scale them by the host speed sampled in between.
    """
    runs = []
    started = time.perf_counter()
    for config in configs:
        t0 = time.perf_counter()
        error = ""
        try:
            result = run_config(workload, config)
            t1 = time.perf_counter()
            if result.to_json_bytes().decode() != reference.get(
                    ref_key(config)):
                error = "result differs from the reference table"
            elif workload == "observed_tmk":
                error = _observed_problem(result)
            del result
        except Exception:  # noqa: BLE001 - a failed run is data here
            t1 = time.perf_counter()
            error = traceback.format_exc(limit=3)
        runs.append({"id": ref_key(config), "t0": t0, "t1": t1,
                     "error": error})
    return {"t0": started, "t1": time.perf_counter(), "runs": runs}
