"""Ablation: TreadMarks UDP MTU.

"Since the TreadMarks MTU is [several] kilobytes, extra messages due to
diff accumulation are not a serious problem" -- several accumulated diffs
fit in one datagram.  Shrinking the MTU to an Ethernet-class 1500 bytes
multiplies the datagram count for bulk diff traffic and slows IS-Large
further; growing it has diminishing returns.
"""

from _common import PRESET, emit

from repro import api
from repro.apps import base
from repro.bench import harness
from repro.sim.costmodel import CostModel
from repro.tmk.api import TmkConfig


def _run(params, spec, mtu):
    return base.run_parallel(
        "is", "tmk", 8, params,
        cost=CostModel.paper_testbed().variant(udp_mtu=mtu),
        tmk_config=TmkConfig(segment_bytes=spec.segment_bytes))


def test_ablation_udp_mtu(benchmark, capsys):
    exp = harness.EXPERIMENTS["fig05"]  # IS-Large: bulk diff traffic
    params = harness.params_for(exp, PRESET)
    spec = base.get_app(exp.app)
    seq = api.seq_time("fig05", PRESET)

    small = benchmark.pedantic(lambda: _run(params, spec, 1500),
                               rounds=1, iterations=1)
    rows = [
        "Ablation: TreadMarks UDP MTU on IS-Large (8 processors)",
        "",
        f"{'MTU':>8}{'messages':>10}{'KB':>10}{'speedup':>9}",
        "-" * 37,
        f"{1500:>8d}{small.total_messages():>10d}"
        f"{small.total_kbytes():>10.0f}{seq / small.time:>9.2f}",
    ]
    results = {1500: small}
    for mtu in (8192, 32768):
        run = _run(params, spec, mtu)
        results[mtu] = run
        rows.append(f"{mtu:>8d}{run.total_messages():>10d}"
                    f"{run.total_kbytes():>10.0f}{seq / run.time:>9.2f}")
    emit(capsys, "ablation_mtu", rows := "\n".join(rows))

    assert results[1500].total_messages() > 3 * results[8192].total_messages()
    assert results[1500].time > results[8192].time
