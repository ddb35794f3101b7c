"""Ablation: PVM direct TCP connections versus daemon routing.

"The usual way for two user processes on different hosts to communicate
with each other is via their local daemons.  They can however set up a
direct TCP connection ... We use a direct connection between the user
processes in our experiments because it results in better performance."
This bench quantifies that choice on IS-Small (latency-sensitive chain).
"""

from _common import PRESET, emit, live_run

from repro import api
from repro.apps import base
from repro.bench import harness


def test_ablation_pvm_routing(benchmark, capsys):
    exp = harness.EXPERIMENTS["fig04"]  # IS-Small
    params = harness.params_for(exp, PRESET)

    direct = live_run("fig04", "pvm")
    routed = benchmark.pedantic(
        lambda: base.run_parallel(exp.app, "pvm", 8, params,
                                  pvm_route="daemon"),
        rounds=1, iterations=1)

    seq = api.seq_time("fig04", PRESET)
    report = "\n".join([
        "Ablation: PVM message routing on IS-Small (8 processors)",
        "",
        f"{'route':<22}{'speedup':>9}",
        "-" * 31,
        f"{'direct TCP (paper)':<22}{seq / direct.time:>9.2f}",
        f"{'via pvmd daemons':<22}{seq / routed.time:>9.2f}",
    ])
    emit(capsys, "ablation_pvm_route", report)
    assert routed.time > direct.time, \
        "daemon routing adds store-and-forward overhead"
