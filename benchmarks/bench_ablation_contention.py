"""Ablation: FDDI ring contention.

The paper's network is a single shared ring: simultaneous transmissions
serialize.  The bursty all-to-all transpose of the 3-D FFT is the
workload most exposed to this; the Barnes-Hut broadcast is the paper's
own saturation example.  Disabling the shared-medium serialization
(pretending every pair had a private link) isolates the contention share
of each PVM run.
"""

from _common import PRESET, emit, live_run

from repro import api
from repro.apps import base
from repro.bench import harness
from repro.sim.costmodel import CostModel

_FREE = CostModel.paper_testbed().variant(shared_medium=False)


def test_ablation_ring_contention(benchmark, capsys):
    rows = ["Ablation: ring contention (PVM, 8 processors)",
            "",
            f"{'experiment':<14}{'shared ring':>12}{'private links':>14}"
            f"{'link util':>11}",
            "-" * 51]
    fft_pair = None
    for exp_id in ("fig11", "fig10"):
        exp = harness.EXPERIMENTS[exp_id]
        params = harness.params_for(exp, PRESET)
        seq = api.seq_time(exp_id, PRESET)
        shared = live_run(exp_id, "pvm")
        if exp_id == "fig11":
            private = benchmark.pedantic(
                lambda: base.run_parallel(exp.app, "pvm", 8, params,
                                          cost=_FREE),
                rounds=1, iterations=1)
            fft_pair = (shared, private)
        else:
            private = base.run_parallel(exp.app, "pvm", 8, params, cost=_FREE)
        rows.append(f"{exp.label:<14}{seq / shared.time:>12.2f}"
                    f"{seq / private.time:>14.2f}"
                    f"{shared.cluster.link_utilization:>11.2f}")
    emit(capsys, "ablation_contention", "\n".join(rows))

    shared, private = fft_pair
    assert private.time < shared.time, \
        "the FFT transpose bursts must be slowed by ring contention"
