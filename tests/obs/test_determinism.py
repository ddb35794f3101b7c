"""Observability must be a pure observer.

Two guarantees, both load-bearing for the golden-trace tests and for
trusting any profile:

* **determinism** -- two identical runs with spans enabled produce the
  same timeline, the same profile, and the same results;
* **non-perturbation** -- enabling observability changes *nothing* the
  simulation can see: virtual time, message statistics, and application
  results are identical to a run with observability off.
"""

import numpy as np
import pytest

from repro import api
from repro.apps import base
from repro.bench import harness
from repro.obs import ObsConfig

OBS = ObsConfig(timeline=True, profile=True)


def stats_key(run):
    """Canonical form of the run's full per-category statistics."""
    out = {}
    for system in ("tmk", "pvm", "recovery", "analysis"):
        for category, counter in run.stats.by_category(system).items():
            out[(system, category)] = (counter.messages, counter.bytes)
    return out


@pytest.mark.parametrize("system", ["tmk", "pvm"])
def test_repeated_runs_identical(system):
    params = harness.EXPERIMENTS["fig02"].tiny_params
    first = base.run_parallel("sor", system, 3, params, obs=OBS)
    second = base.run_parallel("sor", system, 3, params, obs=OBS)
    # Timelines are exactly equal, event by frozen event.
    assert first.timeline.events == second.timeline.events
    assert first.timeline.digest() == second.timeline.digest()
    # Profiles agree to the bit.
    assert first.profiler.buckets == second.profiler.buckets
    assert first.profiler.finish == second.profiler.finish
    assert first.profiler.mech == second.profiler.mech
    # And so does everything the paper measures.
    assert first.time == second.time
    assert stats_key(first) == stats_key(second)
    assert np.array_equal(first.result, second.result)


@pytest.mark.parametrize("system", ["tmk", "pvm"])
def test_observability_does_not_perturb_the_run(system):
    params = harness.EXPERIMENTS["fig02"].tiny_params
    plain = base.run_parallel("sor", system, 3, params)
    observed = base.run_parallel("sor", system, 3, params, obs=OBS)
    assert plain.timeline is None and plain.profiler is None
    assert observed.timeline is not None and observed.profiler is not None
    assert observed.time == plain.time  # bit-identical, not approx
    assert stats_key(observed) == stats_key(plain)
    assert np.array_equal(observed.result, plain.result)
    assert (observed.cluster.finish_times == plain.cluster.finish_times)


def test_disabled_config_is_a_no_op():
    params = harness.EXPERIMENTS["fig01"].tiny_params
    run = base.run_parallel("ep", "tmk", 2, params, obs=ObsConfig())
    assert run.timeline is None and run.profiler is None


def test_all_configs_unperturbed_tmk_and_pvm():
    """Acceptance: with observability off the stats of every config are
    identical to the observed run's -- checked across all twelve configs
    by comparing each observed run against a plain one."""
    for exp_id, exp in harness.EXPERIMENTS.items():
        for system in ("tmk", "pvm"):
            config = api.RunConfig(experiment=exp_id, system=system,
                                   nprocs=4, preset="tiny", obs=OBS)
            observed = api.run(config, use_cache=False,
                               want_parallel=True).parallel
            plain = base.run_parallel(exp.app, system, 4, exp.tiny_params)
            assert observed.time == plain.time, (exp_id, system)
            assert stats_key(observed) == stats_key(plain), (exp_id, system)
