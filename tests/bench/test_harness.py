"""Tests for the experiment harness (registry, caching, series)."""

import dataclasses

import pytest

from repro import api
from repro.apps import base
from repro.apps.ep import EpParams
from repro.bench import harness


class TestRegistry:
    def test_twelve_experiments(self):
        assert len(harness.EXPERIMENTS) == 12
        assert [e.figure for e in harness.EXPERIMENTS.values()] == \
            list(range(1, 13))

    def test_labels_match_paper(self):
        labels = {e.label for e in harness.EXPERIMENTS.values()}
        assert labels == {
            "EP", "SOR-Zero", "SOR-NonZero", "IS-Small", "IS-Large", "TSP",
            "QSORT", "Water-288", "Water-1728", "Barnes-Hut", "3D-FFT",
            "ILINK"}

    def test_every_experiment_has_both_presets(self):
        for exp in harness.EXPERIMENTS.values():
            assert harness.params_for(exp, "bench") is not None
            assert harness.params_for(exp, "paper") is not None

    def test_unknown_preset_rejected(self):
        exp = harness.EXPERIMENTS["fig01"]
        with pytest.raises(ValueError):
            harness.params_for(exp, "production")

    def test_size_string_formats_params(self):
        exp = harness.EXPERIMENTS["fig01"]
        assert "2^" in harness.size_string(exp)


class TestCaching:
    def setup_method(self):
        harness.clear_cache()

    def teardown_method(self):
        harness.clear_cache()

    def test_speedup_series_monotone_for_ep(self):
        exp = harness.EXPERIMENTS["fig01"]
        tiny = harness.Experiment(
            exp.exp_id, exp.label, exp.app, exp.figure,
            EpParams(log2_pairs=20), EpParams.paper(), exp.size_note)
        harness.EXPERIMENTS["fig01"] = tiny
        try:
            series = api.speedup_series("fig01", "pvm", (1, 2, 4))
            assert series[0] == pytest.approx(1.0, rel=0.05)
            assert series[0] < series[1] < series[2]
        finally:
            harness.EXPERIMENTS["fig01"] = exp

    def test_run_verifies_results(self, monkeypatch):
        exp = harness.EXPERIMENTS["fig01"]
        tiny = harness.Experiment(
            exp.exp_id, exp.label, exp.app, exp.figure,
            EpParams.tiny(), EpParams.tiny(), exp.size_note)
        monkeypatch.setitem(harness.EXPERIMENTS, "fig01", tiny)
        config = api.RunConfig(experiment="fig01", system="pvm", nprocs=2)
        run = api.run(config, use_cache=False, want_parallel=True)
        assert run.parallel.result is not None
        # A parallel result that disagrees with the sequential run fails.
        spec = base.APPS["ep"]
        monkeypatch.setitem(base.APPS, "ep", dataclasses.replace(
            spec, verify=lambda parallel, sequential: False))
        with pytest.raises(AssertionError, match="does not match"):
            api.run(config, use_cache=False)
