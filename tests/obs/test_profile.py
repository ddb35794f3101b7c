"""Time-attribution profiler: unit invariants plus end-to-end exactness.

The load-bearing property is the acceptance criterion from the design:
every processor's exclusive buckets sum to its measured time to within
a microsecond (they sum *exactly* by construction; the tolerance covers
nothing but the assertion itself).
"""

import pytest

from repro.apps import base
from repro.bench import harness
from repro.obs import (BUCKETS, MechanismAttribution, ObsConfig, TimeProfiler,
                       build_profile, render_profile)
from repro.sim.costmodel import CostModel

OBS = ObsConfig(timeline=True, profile=True)


def bucket_sum(buckets):
    return sum(buckets.values())


class TestSettleAccounting:
    def test_residual_lands_in_open_span(self):
        p = TimeProfiler(1, CostModel())
        # Clock silently jumped to 1.0 (block/wake) before the span opens:
        # the residual belongs to the pre-span context (compute).
        p.push(0, "barrier", "stall_sync", now=1.0)
        p.on_advance(0, 0.5)
        # Another silent jump inside the span: settled at pop into the
        # span's bucket.
        p.pop(0, now=2.0)
        p.finalize([2.0])
        buckets = p.window_buckets(0)
        assert buckets["compute"] == pytest.approx(1.0)
        assert buckets["stall_sync"] == pytest.approx(1.0)
        assert bucket_sum(buckets) == pytest.approx(p.window_measured(0))

    def test_nested_spans_charge_innermost(self):
        p = TimeProfiler(1, CostModel())
        p.push(0, "page_fault", "stall_data", now=0.0)
        p.push(0, "diff_apply", "protocol", now=0.0)
        p.on_advance(0, 0.25)
        p.pop(0, now=0.25)
        p.on_advance(0, 0.25)
        p.pop(0, now=0.5)
        p.finalize([0.5])
        buckets = p.window_buckets(0)
        assert buckets["protocol"] == pytest.approx(0.25)
        assert buckets["stall_data"] == pytest.approx(0.25)

    def test_service_always_protocol_even_mid_span(self):
        p = TimeProfiler(1, CostModel())
        p.push(0, "barrier", "stall_sync", now=0.0)
        p.on_service(0, 0.125)  # handler interrupt while blocked
        p.pop(0, now=0.5)
        p.finalize([0.5])
        buckets = p.window_buckets(0)
        assert buckets["protocol"] == pytest.approx(0.125)
        assert buckets["stall_sync"] == pytest.approx(0.375)

    def test_mark_excludes_warmup(self):
        p = TimeProfiler(1, CostModel())
        p.on_advance(0, 3.0)        # initialization compute
        p.mark([3.0])
        p.on_advance(0, 1.0)
        p.finalize([4.0])
        assert p.window_measured(0) == pytest.approx(1.0)
        assert p.window_buckets(0)["compute"] == pytest.approx(1.0)

    def test_finalize_pops_leftover_spans(self):
        p = TimeProfiler(1, CostModel())
        p.push(0, "page_fault", "stall_data", now=0.0)
        p.finalize([0.75])  # crashed thread never closed the span
        assert p.window_buckets(0)["stall_data"] == pytest.approx(0.75)
        assert not p.stacks[0]
        assert p.finalized

    def test_accounted_repinned_exactly(self):
        """_settle pins accounted to the clock, killing float drift."""
        p = TimeProfiler(1, CostModel())
        for i in range(1000):
            p.on_advance(0, 0.1)
        p.push(0, "x", "wire", now=100.0)
        assert p.accounted[0] == 100.0
        p.pop(0, now=100.0)
        p.finalize([100.0])
        assert bucket_sum(p.window_buckets(0)) == p.window_measured(0)


class TestMechanismCounters:
    def test_diff_request_charges_roundtrip(self):
        cost = CostModel()
        p = TimeProfiler(1, cost)
        p.note_diff_request(0, 64)
        mech = p.mech[0]
        assert mech["diff_requests"] == 1
        expected = (cost.udp_send_cpu + cost.copy_cost(64)
                    + cost.wire_time(64 + cost.udp_header_bytes)
                    + cost.wire_latency + cost.interrupt_cpu)
        assert mech["request_time"] == pytest.approx(expected)

    def test_fetch_round_counts_only_overlap(self):
        p = TimeProfiler(1, CostModel())
        p.note_fetch_round(0, total_bytes=100, union_bytes=100)
        assert p.mech[0]["accum_bytes"] == 0
        p.note_fetch_round(0, total_bytes=300, union_bytes=100)
        assert p.mech[0]["accum_bytes"] == 200
        assert p.mech[0]["accum_time"] > 0


class TestBuildProfile:
    def test_requires_profiler(self):
        run = base.run_parallel("sor", "tmk", 2,
                                harness.EXPERIMENTS["fig02"].tiny_params)
        with pytest.raises(ValueError, match="no profiler"):
            build_profile(run)

    def test_unfinalized_rejected(self):
        class Fake:
            profiler = TimeProfiler(1, CostModel())
            system = "tmk"
        with pytest.raises(ValueError, match="not finalized"):
            build_profile(Fake())


@pytest.mark.parametrize("system", ["tmk", "pvm"])
@pytest.mark.parametrize("exp_id", ["fig02", "fig06", "fig08"])
def test_buckets_sum_to_measured(exp_id, system, observed_run):
    """Acceptance: per-processor buckets sum to measured time (+-1us)."""
    run = observed_run(exp_id, system, obs=OBS)
    profile = build_profile(run)
    assert len(profile.processors) == 4
    for proc in profile.processors:
        assert proc.measured >= 0
        assert abs(proc.total - proc.measured) < 1e-6
        assert all(proc.buckets[b] >= -1e-12 for b in BUCKETS)
    # The profiler's run-level window brackets the cluster's: same mark
    # time, same finish clocks (run.time may be shorter when the app
    # truncates the window with stop_measurement).
    profiler = run.profiler
    assert profiler.mark_time == run.cluster.measure_from
    assert max(profiler.finish) == max(run.cluster.finish_times)
    assert max(profiler.finish) - profiler.mark_time >= run.time - 1e-12


def test_tmk_mechanism_attribution_consistent(observed_run):
    from repro.analysis import AnalysisConfig
    run = observed_run("fig02", "tmk",
                       analysis=AnalysisConfig(false_sharing=True), obs=OBS)
    profile = build_profile(run, label="SOR-Zero")
    mech = profile.mechanisms
    assert isinstance(mech, MechanismAttribution)
    assert mech.n_diff_requests > 0
    parts = (mech.request_roundtrips + mech.accumulation
             + mech.false_sharing + mech.separation)
    # The four mechanisms tile the data stall (separation absorbs the
    # remainder unless the estimates overshoot, in which case it is 0).
    assert mech.separation >= 0
    if mech.separation > 0:
        assert parts == pytest.approx(mech.stall_data)
    text = render_profile(profile)
    assert "SOR-Zero" in text
    assert "stall-on-data attribution" in text


def test_pvm_has_no_mechanism_section(observed_run):
    run = observed_run("fig02", "pvm", obs=OBS)
    profile = build_profile(run)
    assert profile.mechanisms is None
    assert "stall-on-data" not in render_profile(profile)
