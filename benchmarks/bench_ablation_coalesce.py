"""Ablation: coalescing accumulated diffs (the paper's proposed fix).

"In the current implementation of TreadMarks diff accumulation occurs as a
result of several processors modifying the same data, a common pattern
with migratory data" -- for IS the accumulated diffs *completely overlap*,
so composing them into one before shipping removes almost all of the extra
data.  The paper's conclusion proposes exactly this kind of runtime/
compiler integration; ``TmkConfig.coalesce_diffs`` implements it.
"""

from _common import PRESET, emit, live_run

from repro import api
from repro.apps import base
from repro.bench import harness
from repro.tmk.api import TmkConfig


def test_ablation_diff_coalescing(benchmark, capsys):
    exp = harness.EXPERIMENTS["fig05"]  # IS-Large: worst accumulation
    params = harness.params_for(exp, PRESET)
    spec = base.get_app(exp.app)

    default = live_run("fig05", "tmk")
    coalesced = benchmark.pedantic(
        lambda: base.run_parallel(
            exp.app, "tmk", 8, params,
            tmk_config=TmkConfig(segment_bytes=spec.segment_bytes,
                                 coalesce_diffs=True)),
        rounds=1, iterations=1)

    seq = api.seq_time("fig05", PRESET)
    report = "\n".join([
        "Ablation: diff coalescing on IS-Large (TreadMarks, 8 processors)",
        "",
        f"{'variant':<22}{'messages':>10}{'KB':>10}{'speedup':>9}",
        "-" * 51,
        f"{'accumulated (paper)':<22}{default.total_messages():>10d}"
        f"{default.total_kbytes():>10.0f}{seq / default.time:>9.2f}",
        f"{'coalesced (fix)':<22}{coalesced.total_messages():>10d}"
        f"{coalesced.total_kbytes():>10.0f}{seq / coalesced.time:>9.2f}",
    ])
    emit(capsys, "ablation_coalesce", report)

    assert coalesced.total_kbytes() < 0.5 * default.total_kbytes(), \
        "coalescing should remove most of the accumulated diff data"
    assert coalesced.time < default.time, \
        "coalescing should speed up IS-Large"
