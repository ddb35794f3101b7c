"""Tests for the parallel sweep runner.

The headline property: a parallel sweep is byte-identical to a serial
one over the full 24-run grid (12 experiments x tmk/pvm), and a warm
re-sweep is 100% cache hits.
"""

import pytest

from repro.api import RunConfig
from repro.bench import harness
from repro.bench.sweep import (SweepReport, SweepRun, default_jobs,
                               run_sweep, sweep_configs)
from repro.kernels import DEFAULT_BACKEND


class TestSweepConfigs:
    def test_default_grid_is_24_runs(self):
        configs = sweep_configs()
        assert len(configs) == 24
        assert {c.experiment for c in configs} == set(harness.EXPERIMENTS)
        assert {c.system for c in configs} == {"tmk", "pvm"}
        assert all(c.nprocs == 8 and c.preset == "bench" for c in configs)

    def test_all_keyword(self):
        assert sweep_configs(["all"]) == sweep_configs()

    def test_explicit_grid(self):
        configs = sweep_configs(["fig01", "fig02"], systems=("tmk",),
                                nprocs=(2, 4), preset="tiny")
        assert len(configs) == 4
        assert configs[0] == RunConfig(experiment="fig01", system="tmk",
                                       nprocs=2, preset="tiny")

    def test_default_grid_uses_default_backend(self):
        configs = sweep_configs(["fig01"])
        assert all(c.kernels == DEFAULT_BACKEND for c in configs)
        slow = sweep_configs(["fig01"], kernels="pure")
        assert all(c.kernels == "pure" for c in slow)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            sweep_configs(["fig99"])

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1


class TestSweepExecution:
    def test_serial_sweep_order_and_accounting(self, tmp_path):
        configs = sweep_configs(["fig01"], nprocs=(2,), preset="tiny")
        report = run_sweep(configs, jobs=1, cache_dir=str(tmp_path))
        assert isinstance(report, SweepReport)
        assert [r.config for r in report.runs] == configs
        assert report.jobs == 1 and report.hits == 0
        warm = run_sweep(configs, jobs=1, cache_dir=str(tmp_path))
        assert warm.hits == len(configs) and warm.hit_rate == 1.0

    def test_report_json_and_render(self, tmp_path):
        configs = sweep_configs(["fig01"], systems=("pvm",), nprocs=(2,),
                                preset="tiny")
        report = run_sweep(configs, jobs=1, cache_dir=str(tmp_path))
        data = report.to_json()
        assert data["cache_hits"] == 0 and len(data["runs"]) == 1
        assert data["runs"][0]["config"]["experiment"] == "fig01"
        text = report.render()
        assert "fig01" in text and "cache hits" in text

    def test_no_cache_sweep(self, tmp_path):
        configs = sweep_configs(["fig01"], systems=("pvm",), nprocs=(2,),
                                preset="tiny")
        report = run_sweep(configs, jobs=1, use_cache=False,
                           cache_dir=str(tmp_path))
        assert report.hits == 0
        assert not any(tmp_path.iterdir())

    def test_sweep_run_to_json(self, tmp_path):
        configs = sweep_configs(["fig01"], systems=("pvm",), nprocs=(2,),
                                preset="tiny")
        run = run_sweep(configs, jobs=1, cache_dir=str(tmp_path)).runs[0]
        assert isinstance(run, SweepRun)
        data = run.to_json()
        assert data["cached"] is False
        assert data["result"]["system"] == "pvm"
        assert data["wall_seconds"] >= 0


class TestWorkerCrashRecovery:
    """A crashed worker becomes a per-run error, not a dead sweep."""

    def test_crash_recorded_and_sweep_continues(self, tmp_path,
                                                monkeypatch):
        # The chaos hook is an env var because spawn workers inherit
        # the environment but not interpreter state (monkeypatched
        # module globals never reach them).
        monkeypatch.setenv("REPRO_SWEEP_CHAOS", "fig02")
        configs = sweep_configs(["fig01", "fig02", "fig03"],
                                systems=("tmk",), nprocs=(2,),
                                preset="tiny")
        report = run_sweep(configs, jobs=2, cache_dir=str(tmp_path))
        assert len(report.runs) == 3
        assert report.errors == 1
        by_exp = {r.config.experiment: r for r in report.runs}
        crashed = by_exp["fig02"]
        assert not crashed.ok and crashed.result is None
        assert "died" in crashed.error
        assert crashed.to_json()["result"] is None
        # The innocent runs completed despite sharing the broken pool.
        assert by_exp["fig01"].ok and by_exp["fig03"].ok
        # And the report still renders / serializes.
        text = report.render()
        assert "ERROR" in text and "1 error(s)" in text
        assert report.to_json()["errors"] == 1

    def test_serial_sweep_unaffected_by_chaos_env(self, tmp_path,
                                                  monkeypatch):
        # The hook lives in the worker-process entry point; serial
        # sweeps never cross a process boundary.
        monkeypatch.setenv("REPRO_SWEEP_CHAOS", "fig01")
        configs = sweep_configs(["fig01"], systems=("tmk",), nprocs=(2,),
                                preset="tiny")
        report = run_sweep(configs, jobs=1, cache_dir=str(tmp_path))
        assert report.errors == 0 and report.runs[0].ok


class TestParallelByteIdentity:
    """The acceptance property over the full grid at the tiny preset."""

    @pytest.fixture(scope="class")
    def grid(self):
        return sweep_configs(nprocs=(4,), preset="tiny")

    def test_parallel_matches_serial_over_24_runs(self, grid,
                                                  tmp_path_factory):
        serial_dir = tmp_path_factory.mktemp("serial")
        par_dir = tmp_path_factory.mktemp("parallel")
        serial = run_sweep(grid, jobs=1, cache_dir=str(serial_dir))
        parallel = run_sweep(grid, jobs=2, cache_dir=str(par_dir))
        assert len(serial.runs) == len(parallel.runs) == 24
        assert parallel.jobs == 2
        serial_bytes = [r.result.to_json_bytes() for r in serial.runs]
        parallel_bytes = [r.result.to_json_bytes() for r in parallel.runs]
        assert serial_bytes == parallel_bytes
        # Warm re-sweep over the parallel workers' cache: all 24 hit,
        # byte-identical to the cold results.
        warm = run_sweep(grid, jobs=2, cache_dir=str(par_dir))
        assert warm.hit_rate == 1.0
        assert [r.result.to_json_bytes() for r in warm.runs] == serial_bytes
