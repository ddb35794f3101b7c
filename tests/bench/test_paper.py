"""The paper checks read measured runs from the persistent cache."""

import pytest

from repro import api
from repro.apps import base
from repro.bench import harness, paper


@pytest.mark.parametrize("exp_id", ["fig02", "fig05"])
def test_warm_paper_check_simulates_nothing(exp_id, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    for system in ("tmk", "pvm"):
        api.run(api.RunConfig(experiment=exp_id, system=system, nprocs=4,
                              preset="tiny"))
    harness.clear_cache()

    def simulate(*args, **kwargs):
        raise AssertionError("a warm paper check simulated a run")

    monkeypatch.setattr(base, "run_parallel", simulate)
    monkeypatch.setattr(base, "run_sequential", simulate)
    checks = paper.check_experiment(exp_id, "tiny", 4)
    names = [check.name for check in checks]
    assert names[:2] == ["speedup ratio", "message ratio"]
    assert "data ratio" in names
