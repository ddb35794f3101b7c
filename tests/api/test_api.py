"""Tests for the repro.api facade: RunConfig, RunResult, run()."""

import dataclasses

import pytest

from repro import api
from repro.analysis import AnalysisConfig
from repro.apps import base
from repro.apps.ep import EpParams
from repro.bench import harness
from repro.bench.cache import ResultCache
from repro.obs import ObsConfig
from repro.sim.costmodel import CostModel
from repro.sim.faults import FaultPlan
from repro.sim.recovery import RecoveryConfig


@pytest.fixture
def tiny_ep(monkeypatch):
    """Swap fig01's bench preset for a tiny parameterization."""
    exp = harness.EXPERIMENTS["fig01"]
    tiny = harness.Experiment(exp.exp_id, exp.label, exp.app, exp.figure,
                              EpParams.tiny(), EpParams.tiny(), exp.size_note,
                              tiny_params=EpParams.tiny())
    harness.clear_cache()
    monkeypatch.setitem(harness.EXPERIMENTS, "fig01", tiny)
    yield
    harness.clear_cache()


class TestRunConfig:
    def test_defaults(self):
        cfg = api.RunConfig(experiment="fig01")
        assert (cfg.system, cfg.nprocs, cfg.preset) == ("tmk", 8, "bench")
        assert cfg.faults is None and cfg.cost is None

    def test_frozen_and_hashable(self):
        cfg = api.RunConfig(experiment="fig01")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.nprocs = 4
        assert cfg == api.RunConfig(experiment="fig01")
        assert {cfg: 1}[api.RunConfig(experiment="fig01")] == 1

    @pytest.mark.parametrize("kwargs", [
        {"system": "mpi"},
        {"preset": "production"},
        {"nprocs": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            api.RunConfig(experiment="fig01", **kwargs)

    def test_sanitizer_requires_tmk(self):
        with pytest.raises(ValueError, match="tmk"):
            api.RunConfig(experiment="fig01", system="pvm",
                          analysis=AnalysisConfig(race_check="report"))

    def test_json_round_trip_plain(self):
        cfg = api.RunConfig(experiment="fig03", system="pvm", nprocs=4,
                            preset="tiny")
        assert api.RunConfig.from_json(cfg.to_json()) == cfg

    def test_json_round_trip_all_options(self):
        cfg = api.RunConfig(
            experiment="fig02", system="tmk", nprocs=3, preset="tiny",
            faults=FaultPlan(seed=7, loss=0.1,
                             categories=frozenset({"diff_req", "lock_req"}),
                             crash_at=((1, 0.5),)),
            recovery=RecoveryConfig(checkpoint_interval=0.25),
            analysis=AnalysisConfig(race_check="report", false_sharing=True),
            obs=ObsConfig(timeline=True),
            cost=CostModel(),
        )
        back = api.RunConfig.from_json(cfg.to_json())
        assert back == cfg
        # The round trip restores real container types, not JSON lists.
        assert isinstance(back.faults.categories, frozenset)
        assert back.faults.crash_at == ((1, 0.5),)

    def test_json_round_trip_replication(self):
        from repro.scabd import ReplicationConfig
        cfg = api.RunConfig(
            experiment="fig02", system="tmk", nprocs=4, preset="tiny",
            faults=FaultPlan(seed=1, crash_at=((5, 0.01),)),
            replication=ReplicationConfig(replicas=3))
        back = api.RunConfig.from_json(cfg.to_json())
        assert back == cfg
        assert isinstance(back.replication, ReplicationConfig)
        assert back.replication.f_max == 1

    def test_replication_validation(self):
        from repro.scabd import ReplicationConfig
        with pytest.raises(ValueError, match="tmk"):
            api.RunConfig(experiment="fig01", system="pvm",
                          replication=ReplicationConfig())
        with pytest.raises(ValueError, match="sanitizer"):
            api.RunConfig(experiment="fig01",
                          analysis=AnalysisConfig(race_check="report"),
                          replication=ReplicationConfig())
        with pytest.raises(ValueError, match="alternatives"):
            api.RunConfig(experiment="fig01",
                          recovery=RecoveryConfig(checkpoint_interval=0.25),
                          replication=ReplicationConfig())

    def test_json_survives_wire_encoding(self):
        import json
        cfg = api.RunConfig(experiment="fig02",
                            faults=FaultPlan(seed=1, loss=0.05))
        wire = json.loads(json.dumps(cfg.to_json()))
        assert api.RunConfig.from_json(wire) == cfg


class TestRunResultSchema:
    def _result(self):
        return api.RunResult(experiment="fig01", system="tmk", nprocs=4,
                             preset="tiny", time=1.5, seq_time=4.5,
                             messages=100, kbytes=12.5,
                             link_utilization=0.01)

    def test_round_trip_and_bytes(self):
        r = self._result()
        back = api.RunResult.from_json(r.to_json())
        assert back == r
        assert back.to_json_bytes() == r.to_json_bytes()

    def test_speedup(self):
        assert self._result().speedup == pytest.approx(3.0)

    def test_schema_version_enforced(self):
        data = self._result().to_json()
        data["schema_version"] = 999
        with pytest.raises(ValueError, match="schema"):
            api.RunResult.from_json(data)

    def test_process_local_fields_not_serialized(self):
        data = self._result().to_json()
        assert "parallel" not in data
        assert "cached" not in data
        assert "cache_key" not in data


class TestRunFacade:
    def test_cold_then_warm(self, tiny_ep, tmp_path):
        cache = ResultCache(tmp_path)
        cfg = api.RunConfig(experiment="fig01", nprocs=2)
        cold = api.run(cfg, cache=cache)
        assert not cold.cached and cold.parallel is None
        warm = api.run(cfg, cache=cache)
        assert warm.cached and warm.parallel is None
        assert warm.to_json_bytes() == cold.to_json_bytes()

    def test_warm_hit_does_not_recompute(self, tiny_ep, tmp_path,
                                         monkeypatch):
        cache = ResultCache(tmp_path)
        cfg = api.RunConfig(experiment="fig01", nprocs=2)
        api.run(cfg, cache=cache)

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("simulated on a warm cache")

        monkeypatch.setattr(base, "run_parallel", boom)
        assert api.run(cfg, cache=cache).cached

    def test_want_parallel_executes_and_matches(self, tiny_ep, tmp_path):
        cache = ResultCache(tmp_path)
        cfg = api.RunConfig(experiment="fig01", nprocs=2)
        summary = api.run(cfg, cache=cache)
        live = api.run(cfg, cache=cache, want_parallel=True)
        assert live.parallel is not None
        assert live.to_json_bytes() == summary.to_json_bytes()

    def test_use_cache_false_leaves_directory_empty(self, tiny_ep, tmp_path,
                                                    monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "never"))
        cfg = api.RunConfig(experiment="fig01", nprocs=2)
        result = api.run(cfg, use_cache=False)
        assert not result.cached
        assert not (tmp_path / "never").exists()

    def test_rejects_all(self):
        with pytest.raises(ValueError, match="single experiment"):
            api.run(api.RunConfig(experiment="all"))

    def test_seq_time_cached(self, tiny_ep, tmp_path):
        cache = ResultCache(tmp_path)
        first = api.seq_time("fig01", cache=cache)
        harness.clear_cache()
        assert api.seq_time("fig01", cache=cache) == first
        assert cache.hits >= 1

    def test_series_helpers(self, tiny_ep, tmp_path):
        cache = ResultCache(tmp_path)
        series = api.speedup_series("fig01", "pvm", (1, 2), cache=cache)
        assert len(series) == 2
        assert series[0] == pytest.approx(1.0, rel=0.05)
        msgs, kb = api.messages_at("fig01", "pvm", 2, cache=cache)
        assert msgs > 0 and kb > 0

    def test_recovery_summary_round_trips(self, tiny_ep, tmp_path):
        cache = ResultCache(tmp_path)
        cfg = api.RunConfig(
            experiment="fig01", nprocs=2,
            faults=FaultPlan(seed=0, crash_at=((1, 0.005),)),
            recovery=RecoveryConfig(checkpoint_interval=0.01))
        cold = api.run(cfg, cache=cache)
        assert cold.recovery is not None
        assert cold.recovery["recoveries"] == 1
        warm = api.run(cfg, cache=cache)
        assert warm.cached
        assert warm.to_json_bytes() == cold.to_json_bytes()


    def test_replication_summary_round_trips(self, tiny_ep, tmp_path):
        from repro.scabd import ReplicationConfig
        cache = ResultCache(tmp_path)
        cfg = api.RunConfig(
            experiment="fig01", nprocs=2,
            faults=FaultPlan(seed=0, crash_at=((2, 0.005),)),
            replication=ReplicationConfig(replicas=3))
        cold = api.run(cfg, cache=cache)
        assert cold.replication is not None
        assert cold.replication["masked_failures"] == 1
        assert cold.replication["masked_nodes"] == [2]
        assert cold.recovery is None
        warm = api.run(cfg, cache=cache)
        assert warm.cached
        assert warm.to_json_bytes() == cold.to_json_bytes()


class TestPackageSurface:
    def test_lazy_exports(self):
        import repro
        assert repro.RunConfig is api.RunConfig
        assert repro.run is api.run
        assert "run_sweep" in dir(repro)
        with pytest.raises(AttributeError):
            repro.does_not_exist
