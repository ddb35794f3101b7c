"""Where TreadMarks' time goes, per application.

Reproduces the paper's prose-level analysis: TSP's lock contention
("each process spends [a share of its] seconds waiting at lock
acquires"), the barrier-dominated SOR, and the fault-dominated IS-Large.

The second benchmark emits the *causal* breakdown from the span-based
observability layer: per-processor exclusive buckets for every one of
the twelve configurations under both systems, with TreadMarks data
stalls attributed to the paper's four mechanisms (sync/data separation,
diff-request round trips, false sharing, diff accumulation).
"""

from _common import PRESET, emit, live_run

from repro.analysis import AnalysisConfig
from repro.bench import harness
from repro.bench.analysis import decompose, render_breakdown
from repro.obs import ObsConfig, build_profile, render_profile


def test_analysis_time_decomposition(benchmark, capsys):
    benchmark.pedantic(lambda: live_run("fig06", "tmk"),
                       rounds=1, iterations=1)
    reports = []
    shares = {}
    for exp_id in ("fig06", "fig02", "fig05"):
        exp = harness.EXPERIMENTS[exp_id]
        run = live_run(exp_id, "tmk")
        breakdown = decompose(run)
        shares[exp_id] = breakdown
        reports.append(render_breakdown(
            f"{exp.label} (TreadMarks, 8 processors)", breakdown))
    emit(capsys, "analysis_breakdown", "\n\n".join(reports))

    # TSP: meaningful lock waiting (the paper singles this out).
    assert shares["fig06"].mean_share("lock") > 0.05
    # SOR: barrier-synchronized, negligible lock waiting.
    assert shares["fig02"].mean_share("lock") < 0.01
    assert shares["fig02"].mean_share("barrier") > 0.02
    # IS-Large: communication dominates -- faults, lock-carried fetches,
    # and barrier time spent waiting for the serialized lock chain.
    fig05 = shares["fig05"]
    waiting = (fig05.mean_share("fault") + fig05.mean_share("lock")
               + fig05.mean_share("barrier"))
    assert waiting > 0.6
    assert fig05.mean_share("other") < 0.4


def test_causal_breakdown_all_configs(benchmark, capsys):
    """The causal-analysis report: all twelve configs, both systems."""
    obs = ObsConfig(profile=True)
    fs = AnalysisConfig(false_sharing=True)
    benchmark.pedantic(
        lambda: live_run("fig08", "tmk", analysis=fs, obs=obs),
        rounds=1, iterations=1)
    reports = []
    profiles = {}
    for exp_id, exp in harness.EXPERIMENTS.items():
        for system in ("tmk", "pvm"):
            analysis = fs if system == "tmk" else None
            run = live_run(exp_id, system, analysis=analysis, obs=obs)
            profile = build_profile(
                run, label=f"{exp.label} ({PRESET}, 8 procs)")
            profiles[(exp_id, system)] = profile
            reports.append(render_profile(profile))
            # Exactness invariant, on every processor of every config.
            for proc in profile.processors:
                assert abs(proc.total - proc.measured) < 1e-6, \
                    (exp_id, system, proc.pid)
    emit(capsys, "causal_breakdown", "\n\n".join(reports))

    # Qualitative shape, matching the paper's section 5.2 narrative:
    # IS-Large under TreadMarks stalls on data (diffs for the shared
    # bucket array), and its mechanism attribution sees real
    # diff-request traffic.
    is_large = profiles[("fig05", "tmk")]
    assert is_large.mechanisms.n_diff_requests > 0
    assert is_large.bucket_totals()["stall_data"] > 0
    # TSP under TreadMarks spends real time waiting on synchronization
    # (the contended work-queue lock), while the embarrassingly parallel
    # EP is dominated by computation.
    tsp = profiles[("fig06", "tmk")].bucket_totals()
    assert tsp["stall_sync"] / sum(tsp.values()) > 0.05
    ep = profiles[("fig01", "tmk")].bucket_totals()
    assert ep["compute"] / sum(ep.values()) > 0.75
    # PVM profiles carry no TreadMarks mechanism attribution.
    assert profiles[("fig02", "pvm")].mechanisms is None
