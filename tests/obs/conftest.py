"""Shared live runs for the observability tests."""

import pytest

from repro import api


@pytest.fixture(scope="module")
def observed_run():
    """``observed_run(exp_id, system, **options)``: the live
    ``ParallelResult`` of one verified 4-processor tiny run.

    ``options`` are :class:`repro.api.RunConfig` fields.  A run asked for
    twice in one module is simulated once; the runs are dropped when the
    module finishes.
    """
    runs = {}

    def get(exp_id, system, **options):
        config = api.RunConfig(experiment=exp_id, system=system, nprocs=4,
                               preset="tiny", **options)
        if config not in runs:
            runs[config] = api.run(config, use_cache=False,
                                   want_parallel=True).parallel
        return runs[config]

    yield get
    runs.clear()
