"""Parallel sweep runner: fan the paper's run grid across CPU cores.

The full evaluation is 24 independent runs (12 experiments x tmk/pvm) per
processor count, and each run is a deterministic single-threaded
simulation -- an embarrassingly parallel workload.  :func:`run_sweep`
fans a list of :class:`repro.api.RunConfig` across worker *processes*
(``concurrent.futures.ProcessPoolExecutor`` with the ``spawn`` start
method, so workers never inherit interpreter state from the parent).

Workers exchange only JSON: each receives one serialized config, executes
it through :func:`repro.api.run` (which consults and populates the shared
on-disk result cache -- writes are atomic, so concurrent workers are
safe), and returns the serialized :class:`~repro.api.RunResult`.  Because
the simulator is bit-for-bit deterministic and results are canonically
encoded, a parallel sweep is byte-identical to a serial one -- a property
``tests/bench/test_sweep.py`` asserts over the whole grid.

``repro sweep`` is the CLI entry point; :func:`sweep_configs` builds the
standard grids it offers.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence

from repro.bench.cache import ResultCache
from repro.kernels import DEFAULT_BACKEND

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import RunConfig, RunResult

# NOTE: repro.api is imported inside functions throughout this module.
# ``repro.bench.__init__`` imports sweep, and repro.api imports
# ``repro.bench.cache`` (which initializes the repro.bench package), so a
# module-level import either way would be circular.

__all__ = ["SweepReport", "SweepRun", "default_jobs", "run_sweep",
           "sweep_configs"]


def default_jobs() -> int:
    """A sensible worker count: the machine's CPU count."""
    return max(1, os.cpu_count() or 1)


def sweep_configs(experiments: Optional[Sequence[str]] = None,
                  systems: Sequence[str] = ("tmk", "pvm"),
                  nprocs: Sequence[int] = (8,),
                  preset: str = "bench",
                  kernels: str = DEFAULT_BACKEND) -> List[RunConfig]:
    """The standard run grid: experiments x systems x processor counts.

    ``experiments=None`` (or the single id ``"all"``) means all twelve
    paper configurations, in figure order -- with the default arguments
    that is the 24-run grid behind the figures and tables.

    ``kernels`` picks the page-ops backend (``repro.kernels``).  The knob
    is host-side only: every kernel backend produces byte-identical
    results and shares one cache key, so a sweep run with one backend
    serves warm reads for any other.
    """
    from repro.api import RunConfig
    from repro.bench import harness
    if experiments is None or list(experiments) == ["all"]:
        experiments = list(harness.EXPERIMENTS)
    for exp_id in experiments:
        if exp_id not in harness.EXPERIMENTS:
            raise ValueError(f"unknown experiment {exp_id!r} "
                             f"(have: {', '.join(harness.EXPERIMENTS)})")
    return [RunConfig(experiment=exp_id, system=system, nprocs=n,
                      preset=preset, kernels=kernels)
            for exp_id in experiments
            for system in systems
            for n in nprocs]


@dataclass
class SweepRun:
    """One run of a sweep: a result, or a recorded per-run error.

    A worker process dying (``BrokenProcessPool``) or raising no longer
    kills the whole sweep: the failed run carries ``error`` (and
    ``result is None``) while every other run completes normally.
    """

    config: RunConfig
    result: Optional[RunResult]
    #: True when the run was served from the persistent cache.
    cached: bool
    #: Host wall-clock seconds this run took (~0 on a cache hit).
    wall_seconds: float
    #: Why this run produced no result (``None`` on success).
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.result is not None

    def to_json(self) -> Dict[str, Any]:
        return {
            "config": self.config.to_json(),
            "result": self.result.to_json() if self.result is not None
            else None,
            "cached": self.cached,
            "wall_seconds": self.wall_seconds,
            "error": self.error,
        }


@dataclass
class SweepReport:
    """The outcome of one sweep: every run plus aggregate accounting."""

    runs: List[SweepRun]
    jobs: int
    wall_seconds: float

    @property
    def hits(self) -> int:
        return sum(1 for r in self.runs if r.cached)

    @property
    def hit_rate(self) -> float:
        return self.hits / len(self.runs) if self.runs else 0.0

    @property
    def errors(self) -> int:
        return sum(1 for r in self.runs if not r.ok)

    def to_json(self) -> Dict[str, Any]:
        return {
            "jobs": self.jobs,
            "wall_seconds": self.wall_seconds,
            "runs": [r.to_json() for r in self.runs],
            "cache_hits": self.hits,
            "cache_hit_rate": self.hit_rate,
            "errors": self.errors,
        }

    def render(self) -> str:
        """Human-readable summary table."""
        lines = [
            f"{'experiment':<12} {'system':<6} {'np':>3} {'preset':<6} "
            f"{'time':>12} {'speedup':>8} {'msgs':>10} {'cached':>6}",
        ]
        for r in self.runs:
            c = r.config
            if r.result is None:
                lines.append(
                    f"{c.experiment:<12} {c.system:<6} {c.nprocs:>3} "
                    f"{c.preset:<6} ERROR: {r.error}")
                continue
            lines.append(
                f"{c.experiment:<12} {c.system:<6} {c.nprocs:>3} "
                f"{c.preset:<6} {r.result.time:>12.6f} "
                f"{r.result.speedup:>8.2f} {r.result.messages:>10} "
                f"{'yes' if r.cached else 'no':>6}")
        summary = (f"{len(self.runs)} runs, {self.jobs} jobs, "
                   f"{self.wall_seconds:.2f}s wall, "
                   f"{self.hits}/{len(self.runs)} cache hits")
        if self.errors:
            summary += f", {self.errors} error(s)"
        lines.append(summary)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Workers
# ----------------------------------------------------------------------
def _sweep_worker(config_json: Dict[str, Any], cache_dir: Optional[str],
                  use_cache: bool) -> Dict[str, Any]:
    """Execute one run in a worker process; everything crossing the
    process boundary is JSON (ParallelResult holds live simulator state
    and cannot -- and should not -- be pickled)."""
    from repro.api import RunConfig, run
    if cache_dir is not None:
        os.environ["REPRO_CACHE_DIR"] = cache_dir
    if os.environ.get("REPRO_SWEEP_CHAOS") == config_json.get("experiment"):
        # Test hook: simulate the worker process dying mid-run.  An env
        # var (not a monkeypatch) because spawn workers inherit the
        # parent's environment but none of its interpreter state.
        os._exit(1)
    config = RunConfig.from_json(config_json)
    started = time.perf_counter()
    result = run(config, use_cache=use_cache)
    return {
        "result": result.to_json(),
        "cached": result.cached,
        "wall_seconds": time.perf_counter() - started,
    }


def _run_serial(configs: Sequence[RunConfig], use_cache: bool,
                cache: Optional[ResultCache]) -> List[SweepRun]:
    from repro.api import run
    runs = []
    for config in configs:
        started = time.perf_counter()
        result = run(config, use_cache=use_cache, cache=cache)
        runs.append(SweepRun(config=config, result=result,
                             cached=result.cached,
                             wall_seconds=time.perf_counter() - started))
    return runs


def run_sweep(configs: Iterable[RunConfig], jobs: int = 1, *,
              use_cache: bool = True,
              cache_dir: Optional[str] = None) -> SweepReport:
    """Run every config, using up to ``jobs`` worker processes.

    Report order always matches input order regardless of completion
    order, so serial and parallel sweeps produce identical reports.
    With ``jobs <= 1`` everything runs in the calling process (no pool).
    """
    configs = list(configs)
    jobs = min(max(1, jobs), len(configs)) if configs else 1
    if cache_dir is None:
        cache_dir = os.environ.get("REPRO_CACHE_DIR")
    cache = ResultCache(cache_dir) if (use_cache and cache_dir) else None
    started = time.perf_counter()
    if jobs <= 1:
        runs = _run_serial(configs, use_cache, cache)
        return SweepReport(runs=runs, jobs=1,
                           wall_seconds=time.perf_counter() - started)
    payloads = [c.to_json() for c in configs]
    runs = _run_parallel(configs, payloads, jobs, cache_dir, use_cache)
    return SweepReport(runs=runs, jobs=jobs,
                       wall_seconds=time.perf_counter() - started)


def _success_run(config: RunConfig, out: Dict[str, Any]) -> SweepRun:
    from repro.api import RunResult
    return SweepRun(config=config,
                    result=RunResult.from_json(out["result"],
                                               cached=out["cached"]),
                    cached=out["cached"],
                    wall_seconds=out["wall_seconds"])


def _error_run(config: RunConfig, message: str) -> SweepRun:
    return SweepRun(config=config, result=None, cached=False,
                    wall_seconds=0.0, error=message)


def _run_parallel(configs: Sequence[RunConfig],
                  payloads: Sequence[Dict[str, Any]], jobs: int,
                  cache_dir: Optional[str],
                  use_cache: bool) -> List[SweepRun]:
    """The submit-based parallel path, resilient to worker death.

    A worker process dying breaks the *whole* executor: every pending
    future raises ``BrokenProcessPool``, guilty and innocent alike.
    Rather than letting that kill the sweep, each affected run is
    retried in its own single-worker pool -- isolation guarantees a
    repeat crash implicates exactly that run, which is then recorded as
    a per-run error while everything else completes normally.
    """
    from concurrent.futures.process import BrokenProcessPool
    outcomes: List[Optional[SweepRun]] = [None] * len(configs)
    broken: List[int] = []
    with ProcessPoolExecutor(max_workers=jobs,
                             mp_context=get_context("spawn")) as pool:
        futures = {i: pool.submit(_sweep_worker, payloads[i], cache_dir,
                                  use_cache)
                   for i in range(len(configs))}
        for i, future in futures.items():
            try:
                out = future.result()
            except BrokenProcessPool:
                broken.append(i)  # collateral or guilty: retry isolated
            except Exception as exc:  # worker raised, pool still healthy
                outcomes[i] = _error_run(
                    configs[i], f"{type(exc).__name__}: {exc}")
            else:
                outcomes[i] = _success_run(configs[i], out)
    for i in broken:
        with ProcessPoolExecutor(
                max_workers=1, mp_context=get_context("spawn")) as solo:
            try:
                out = solo.submit(_sweep_worker, payloads[i], cache_dir,
                                  use_cache).result()
            except BrokenProcessPool:
                outcomes[i] = _error_run(
                    configs[i],
                    "worker process died (twice; once in isolation)")
            except Exception as exc:
                outcomes[i] = _error_run(
                    configs[i], f"{type(exc).__name__}: {exc}")
            else:
                outcomes[i] = _success_run(configs[i], out)
    return [run for run in outcomes if run is not None]
