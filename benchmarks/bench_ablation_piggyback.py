"""Ablation: piggybacking data on lock grants (paper's future work).

The paper's conclusion: "in some cases data movement can be piggybacked
on the synchronization messages, overcoming the separation of
synchronization and data movement".  ``TmkConfig.piggyback_budget``
implements exactly that for lock grants; on lock-driven migratory
workloads (IS, TSP) it removes fault round trips.
"""

from _common import PRESET, emit, live_run

from repro import api
from repro.apps import base
from repro.bench import harness
from repro.tmk.api import TmkConfig

#: Generous grant budget: whole accumulated bucket chains fit.
_BUDGET = 1 << 20


def test_ablation_grant_piggybacking(benchmark, capsys):
    rows = ["Ablation: piggybacking diffs on lock grants (TreadMarks, "
            "8 processors)",
            "",
            f"{'experiment':<12}{'variant':<22}{'messages':>10}{'KB':>10}"
            f"{'speedup':>9}",
            "-" * 63]
    is_pair = None
    for exp_id in ("fig05", "fig06"):  # IS-Large and TSP: migratory data
        exp = harness.EXPERIMENTS[exp_id]
        params = harness.params_for(exp, PRESET)
        spec = base.get_app(exp.app)
        seq = api.seq_time(exp_id, PRESET)
        plain = live_run(exp_id, "tmk")
        config = TmkConfig(segment_bytes=spec.segment_bytes,
                           piggyback_budget=_BUDGET)
        if exp_id == "fig05":
            boosted = benchmark.pedantic(
                lambda: base.run_parallel(exp.app, "tmk", 8, params,
                                          tmk_config=config),
                rounds=1, iterations=1)
            is_pair = (plain, boosted)
        else:
            boosted = base.run_parallel(exp.app, "tmk", 8, params,
                                        tmk_config=config)
        for label, run in (("paper TreadMarks", plain),
                           ("piggybacked grants", boosted)):
            rows.append(f"{exp.label:<12}{label:<22}"
                        f"{run.total_messages():>10d}"
                        f"{run.total_kbytes():>10.0f}"
                        f"{seq / run.time:>9.2f}")
    emit(capsys, "ablation_piggyback", "\n".join(rows))

    plain, boosted = is_pair
    assert boosted.total_messages() < plain.total_messages(), \
        "piggybacked grants must remove fault round trips"
    assert boosted.time < plain.time, \
        "removing fault round trips must speed IS-Large up"
