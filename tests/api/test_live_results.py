"""No live ParallelResult outlives the caller that asked for it.

A ``ParallelResult`` holds the whole simulated cluster (stats buckets,
endpoints, page tables), so one kept per run grows a long-lived process
without bound.  Every entry point is driven with cold tiny-preset
configs; once the caller drops what it got back, no ``ParallelResult``
created by the call may remain.
"""

import gc

import pytest

from repro import api
from repro.apps.base import ParallelResult
from repro.bench import harness
from repro.bench.sweep import run_sweep
from repro.serve.pool import serve_worker


def live_results():
    gc.collect()
    return {id(obj) for obj in gc.get_objects()
            if isinstance(obj, ParallelResult)}


def config(system):
    return api.RunConfig(experiment="fig02", system=system, nprocs=2,
                         preset="tiny")


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """A cold start: empty result cache, no in-process memo."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    harness.clear_cache()
    return tmp_path


@pytest.mark.parametrize("system", ["tmk", "pvm"])
@pytest.mark.parametrize("want_parallel", [False, True])
def test_api_run(system, want_parallel, fresh_cache):
    before = live_results()
    result = api.run(config(system), want_parallel=want_parallel)
    assert not result.cached
    assert (result.parallel is not None) == want_parallel
    del result
    assert live_results() <= before


def test_run_sweep_serial(fresh_cache):
    before = live_results()
    report = run_sweep([config("tmk"), config("pvm")], jobs=1)
    assert report.errors == 0 and report.hits == 0
    del report
    assert live_results() <= before


def test_serve_worker_run(fresh_cache):
    before = live_results()
    out = serve_worker({"kind": "run", "config": config("tmk").to_json()})
    assert out["cached"] is False
    del out
    assert live_results() <= before
