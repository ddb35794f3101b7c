"""Chaos tests: the fault plan and the transports' reliability machinery."""

import pytest

from repro.sim.cluster import Cluster, ClusterConfig
from repro.sim.costmodel import CostModel
from repro.sim.engine import YIELD, Block, Engine, EngineDeadlock
from repro.sim.faults import FaultPlan, TransportError
from repro.sim.network import Link, TcpChannel, UdpChannel
from repro.sim.trace import Trace


class TestFaultPlanDecisions:
    def test_deterministic_replay(self):
        a = FaultPlan(seed=1, loss=0.3, duplicate=0.2, reorder=0.1, delay=0.1)
        b = FaultPlan(seed=1, loss=0.3, duplicate=0.2, reorder=0.1, delay=0.1)
        for seq in range(200):
            assert (a.decide(0, 1, "msg", seq=seq, attempt=0, now=0.0)
                    == b.decide(0, 1, "msg", seq=seq, attempt=0, now=0.0))

    def test_seed_changes_schedule(self):
        a = FaultPlan(seed=1, loss=0.5)
        b = FaultPlan(seed=2, loss=0.5)
        decisions = [(a.decide(0, 1, "m", seq=s, attempt=0, now=0.0),
                      b.decide(0, 1, "m", seq=s, attempt=0, now=0.0))
                     for s in range(100)]
        assert any(x != y for x, y in decisions)

    def test_retry_gets_a_fresh_draw(self):
        plan = FaultPlan(seed=3, loss=0.5)
        fates = {plan.decide(0, 1, "m", seq=0, attempt=k, now=0.0).drop
                 for k in range(50)}
        assert fates == {True, False}  # not doomed (or charmed) forever

    def test_category_filter(self):
        plan = FaultPlan(seed=0, loss=1.0, categories={"lock_request"})
        hit = plan.decide(0, 1, "lock_request", seq=0, attempt=0, now=0.0)
        miss = plan.decide(0, 1, "barrier_arrival", seq=0, attempt=0, now=0.0)
        assert hit.drop and not miss.drop

    def test_src_dst_filters(self):
        plan = FaultPlan(seed=0, loss=1.0, src=2, dst=3)
        assert plan.decide(2, 3, "m", seq=0, attempt=0, now=0.0).drop
        assert not plan.decide(2, 1, "m", seq=0, attempt=0, now=0.0).drop
        assert not plan.decide(0, 3, "m", seq=0, attempt=0, now=0.0).drop

    def test_time_window_filter(self):
        plan = FaultPlan(seed=0, loss=1.0, window=(1.0, 2.0))
        assert not plan.decide(0, 1, "m", seq=0, attempt=0, now=0.5).drop
        assert plan.decide(0, 1, "m", seq=0, attempt=0, now=1.5).drop
        assert not plan.decide(0, 1, "m", seq=0, attempt=0, now=2.0).drop

    def test_crash_window_drops_everything(self):
        # Crash windows ignore the category filter: a dead host drops all.
        plan = FaultPlan(seed=0, categories={"nothing"},
                         crash_windows=((1, 0.5, 1.0),))
        assert plan.decide(1, 0, "m", seq=0, attempt=0, now=0.7).drop
        assert plan.decide(0, 1, "m", seq=0, attempt=0, now=0.7).drop
        assert not plan.decide(0, 1, "m", seq=0, attempt=0, now=1.2).drop
        assert not plan.decide(2, 3, "m", seq=0, attempt=0, now=0.7).drop

    def test_slow_node_always_delays(self):
        plan = FaultPlan(seed=0, slow_nodes={1: 0.01})
        assert plan.decide(1, 0, "m", seq=0, attempt=0, now=0.0).delay >= 0.01
        assert plan.decide(0, 1, "m", seq=0, attempt=0, now=0.0).delay >= 0.01
        assert plan.decide(2, 3, "m", seq=0, attempt=0, now=0.0).delay == 0.0

    def test_active_property(self):
        assert not FaultPlan().active
        assert not FaultPlan(seed=9).active
        assert FaultPlan(loss=0.01).active
        assert FaultPlan(slow_nodes={0: 1e-3}).active
        assert FaultPlan(crash_windows=((0, 0.0, 1.0),)).active

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(loss=1.5)
        with pytest.raises(ValueError):
            FaultPlan(duplicate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(retry_cap=0)
        with pytest.raises(ValueError):
            FaultPlan(rto=0.0)

    def test_plan_is_hashable(self):
        # RunConfig is a dict key (and hashed) with the plan inside it.
        plan = FaultPlan(seed=1, loss=0.1, categories=frozenset({"m"}),
                         slow_nodes={0: 1e-3})
        assert hash(plan) == hash(FaultPlan(seed=1, loss=0.1,
                                            categories=frozenset({"m"}),
                                            slow_nodes={0: 1e-3}))

    def test_transient_partition_boundaries(self):
        # [t0, t1): inclusive start, exclusive end, symmetric drop.
        plan = FaultPlan(crash_windows=((1, 0.5, 1.0),))
        assert plan.decide(1, 0, "m", seq=0, attempt=0, now=0.5).drop
        assert plan.decide(0, 1, "m", seq=0, attempt=0, now=0.5).drop
        assert not plan.decide(1, 0, "m", seq=0, attempt=0, now=1.0).drop
        assert not plan.decide(0, 1, "m", seq=0, attempt=0, now=1.0).drop

    def test_partition_clear_time(self):
        plan = FaultPlan(crash_windows=((1, 0.5, 1.0), (0, 0.8, 1.5)))
        # A window covering either endpoint holds the flow until its end.
        assert plan.partition_clear_time(0, 1, 0.6) == 1.0
        assert plan.partition_clear_time(1, 0, 0.6) == 1.0
        # Overlapping windows: held until the *latest* covering t1.
        assert plan.partition_clear_time(0, 1, 0.9) == 1.5
        # Outside every window (t1 exclusive): nothing to wait for.
        assert plan.partition_clear_time(0, 1, 1.5) is None
        assert plan.partition_clear_time(2, 3, 0.6) is None

    def test_partition_clear_time_ignores_permanent_crashes(self):
        # A dead-forever host never heals: retransmissions into it must
        # still burn the retry budget instead of waiting for a clear time.
        plan = FaultPlan(crash_at=((1, 0.5),))
        assert plan.partition_clear_time(0, 1, 0.6) is None

    def test_transient_partition_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(crash_windows=((-1, 0.0, 1.0),))
        with pytest.raises(ValueError):
            FaultPlan(crash_windows=((0, 1.0, 1.0),))  # empty window
        with pytest.raises(ValueError):
            FaultPlan(crash_windows=((0, 2.0, 1.0),))  # inverted


class TestPermanentCrashes:
    def test_validation(self):
        with pytest.raises(ValueError, match="more than one crash time"):
            FaultPlan(crash_at=((1, 0.5), (1, 0.7)))
        with pytest.raises(ValueError):
            FaultPlan(crash_at=((-1, 0.5),))
        with pytest.raises(ValueError):
            FaultPlan(crash_at=((1, -0.5),))

    def test_mapping_normalization_and_hash(self):
        a = FaultPlan(crash_at={2: 0.5, 1: 0.25})
        b = FaultPlan(crash_at=((1, 0.25), (2, 0.5)))
        assert a.crash_at == b.crash_at
        assert hash(a) == hash(b)

    def test_active(self):
        assert FaultPlan(crash_at=((0, 0.0),)).active
        assert not FaultPlan().active

    def test_crash_time_lookup(self):
        plan = FaultPlan(crash_at=((1, 0.25), (2, 0.5)))
        assert plan.crash_time(1) == 0.25
        assert plan.crash_time(2) == 0.5
        assert plan.crash_time(0) is None

    def test_without_crash(self):
        plan = FaultPlan(loss=0.1, crash_at=((1, 0.25), (2, 0.5)))
        survivor = plan.without_crash(1)
        assert survivor.crash_at == ((2, 0.5),)
        assert survivor.loss == 0.1  # the rest of the plan is preserved
        assert plan.crash_at == ((1, 0.25), (2, 0.5))  # original untouched

    def test_permanent_drop_is_inclusive_and_forever(self):
        plan = FaultPlan(crash_at=((1, 0.5),))
        assert not plan.decide(1, 0, "m", seq=0, attempt=0, now=0.499).drop
        assert plan.decide(1, 0, "m", seq=0, attempt=0, now=0.5).drop
        assert plan.decide(0, 1, "m", seq=0, attempt=0, now=0.5).drop
        assert plan.decide(0, 1, "m", seq=0, attempt=0, now=1e9).drop
        assert not plan.decide(0, 2, "m", seq=0, attempt=0, now=1e9).drop


# ----------------------------------------------------------------------
def _lossy_cluster(plan, nprocs=2):
    cluster = Cluster(nprocs, config=ClusterConfig(faults=plan))
    inbox = []
    return cluster, inbox


def _send_many(cluster, inbox, count=20, nbytes=200):
    udp = UdpChannel(cluster.net)

    def main(proc):
        proc.register("msg", lambda d: inbox.append(d.payload))
        yield YIELD
        if proc.pid == 0:
            for i in range(count):
                t = udp.send(0, 1, "msg", i, nbytes, t_ready=proc.now)
                proc.set_now(t)
        proc.compute(1.0)

    cluster.run(main)


class TestReliableUdp:
    def test_all_delivered_in_order_despite_loss(self):
        plan = FaultPlan(seed=11, loss=0.3)
        cluster, inbox = _lossy_cluster(plan)
        _send_many(cluster, inbox, count=30)
        assert inbox == list(range(30))
        rel = cluster.stats.reliability("tmk")
        assert rel["drop"].messages > 0
        assert rel["retransmit"].messages > 0
        assert rel["ack"].messages >= 30

    def test_duplicates_suppressed(self):
        plan = FaultPlan(seed=5, duplicate=1.0)
        cluster, inbox = _lossy_cluster(plan)
        _send_many(cluster, inbox, count=10)
        assert inbox == list(range(10))  # delivered exactly once each
        assert cluster.stats.reliability("tmk")["dup_suppress"].messages >= 10

    def test_fifo_survives_reorder_and_delay(self):
        plan = FaultPlan(seed=13, loss=0.2, reorder=0.5, delay=0.5)
        cluster, inbox = _lossy_cluster(plan)
        _send_many(cluster, inbox, count=40)
        assert inbox == list(range(40))

    def test_replay_is_bit_identical(self):
        def one_run():
            plan = FaultPlan(seed=21, loss=0.25, duplicate=0.1)
            cluster, inbox = _lossy_cluster(plan)
            _send_many(cluster, inbox, count=25)
            return (inbox, cluster.stats.by_category("tmk"),
                    cluster.net.link.occupied)

        first, second = one_run(), one_run()
        assert first[0] == second[0]
        assert {k: (c.messages, c.bytes) for k, c in first[1].items()} \
            == {k: (c.messages, c.bytes) for k, c in second[1].items()}
        assert first[2] == second[2]

    def test_fault_free_plan_keeps_legacy_accounting(self):
        # An all-zero plan is inactive: accounting must be byte-identical
        # to passing no plan at all (no ACKs, no reliability buckets).
        def traffic(plan):
            cluster, inbox = _lossy_cluster(plan)
            _send_many(cluster, inbox, count=10)
            return {k: (c.messages, c.bytes)
                    for k, c in cluster.stats.by_category("tmk").items()}

        assert traffic(FaultPlan(seed=42)) == traffic(None)
        assert "ack" not in traffic(FaultPlan(seed=42))

    def test_retry_cap_raises_transport_error(self):
        plan = FaultPlan(seed=1, loss=1.0, retry_cap=3)
        cluster = Cluster(2, config=ClusterConfig(faults=plan))
        udp = UdpChannel(cluster.net)

        def main(proc):
            proc.register("msg", lambda d: None)
            yield YIELD
            if proc.pid == 0:
                udp.send(0, 1, "msg", "x", 100, t_ready=proc.now)
                yield from proc.mailbox().wait_g("reply that never comes")
            else:
                proc.compute(10.0)

        with pytest.raises(TransportError, match="unacknowledged after 3"):
            cluster.run(main)


class TestTcpFaults:
    def _one_send(self, plan, nbytes=1000):
        cluster = Cluster(2, config=ClusterConfig(faults=plan))
        tcp = TcpChannel(cluster.net)
        arrivals = []

        def main(proc):
            proc.register("msg", lambda d: arrivals.append(d.arrival))
            yield YIELD
            if proc.pid == 0:
                tcp.send(0, 1, "msg", None, nbytes, t_ready=proc.now)
            proc.compute(2.0)

        cluster.run(main)
        return cluster, arrivals

    def test_loss_delays_delivery_but_never_loses(self):
        clean_cluster, clean = self._one_send(None)
        lossy_plan = FaultPlan(seed=2, loss=0.9, tcp_rto=20e-3)
        lossy_cluster, lossy = self._one_send(lossy_plan)
        assert len(clean) == len(lossy) == 1
        assert lossy[0] > clean[0]  # kernel RTOs, not loss, reach the app
        rel = lossy_cluster.stats.reliability("pvm")
        assert rel["retransmit"].messages > 0
        # User-level accounting is unchanged: still one message.
        assert lossy_cluster.stats.get("pvm", "msg").messages == 1

    def test_retry_cap_resets_connection(self):
        plan = FaultPlan(seed=1, loss=1.0, retry_cap=4)
        with pytest.raises(TransportError, match="connection reset"):
            self._one_send(plan)


#: Trace kinds the reliability sublayer emits (in the order they happen).
_RELIABILITY_KINDS = ("drop", "retransmit", "dup_suppress", "partition_hold")


class TestPartitionHold:
    """A transient partition must pause the retry clock, not burn it.

    Regression tests for the FaultPlan x reliability interaction: a
    partition opening mid-retransmit used to be indistinguishable from a
    string of losses, so a bounded outage longer than
    ``rto * (backoff^retry_cap - 1)`` exhausted the cap and surfaced as a
    spurious TransportError even though the peer was known to come back.
    """

    def _udp_one_send(self, plan):
        trace = Trace(enabled=True)
        cluster = Cluster(2, config=ClusterConfig(faults=plan, trace=trace))
        udp = UdpChannel(cluster.net)
        inbox = []

        def main(proc):
            proc.register("msg", lambda d: inbox.append(d.payload))
            yield YIELD
            if proc.pid == 0:
                t = udp.send(0, 1, "msg", "hello", 200, t_ready=proc.now)
                proc.set_now(t)
            proc.compute(1.0)

        cluster.run(main)
        kinds = [e.kind for e in trace.of_kind(*_RELIABILITY_KINDS)]
        return inbox, kinds, trace

    def test_udp_partition_holds_instead_of_burning_cap(self):
        # The initial send is lost (loss window covers only t=0); the
        # retransmit timer then fires *inside* a 1.5ms-30ms partition of
        # the receiver.  Backoff retries at ~2/6/14ms would all land in
        # the partition and exhaust retry_cap=3; the hold parks the timer
        # until the window heals and delivers with the budget intact.
        plan = FaultPlan(seed=3, loss=1.0, window=(0.0, 0.5e-3),
                         crash_windows=((1, 1.5e-3, 30e-3),), retry_cap=3)
        inbox, kinds, trace = self._udp_one_send(plan)
        assert inbox == ["hello"]
        assert kinds == ["drop", "partition_hold", "retransmit"]
        hold, = trace.of_kind("partition_hold")
        assert "until=0.030000" in hold.detail
        retry, = trace.of_kind("retransmit")
        assert retry.time >= 30e-3  # delivery waited for the heal
        assert retry.detail.endswith("attempt=2")  # budget not burned

    def test_udp_hold_decision_sequence_is_deterministic(self):
        plan = FaultPlan(seed=3, loss=1.0, window=(0.0, 0.5e-3),
                         crash_windows=((1, 1.5e-3, 30e-3),), retry_cap=3)
        runs = [self._udp_one_send(plan) for _ in range(2)]
        events = [[(e.time, e.pid, e.kind, e.detail)
                   for e in t.of_kind(*_RELIABILITY_KINDS)]
                  for _, _, t in runs]
        assert events[0] == events[1]

    def test_udp_cap_still_fires_for_permanent_crashes(self):
        # partition_clear_time excludes crash_at: a retransmission into a
        # dead-forever host must still exhaust the budget (the failure
        # detector, not the transport, is who masks or declares it).
        plan = FaultPlan(seed=1, crash_at=((1, 0.5e-3),), retry_cap=3)
        cluster = Cluster(2, config=ClusterConfig(faults=plan))
        udp = UdpChannel(cluster.net)

        def main(proc):
            proc.register("msg", lambda d: None)
            yield YIELD
            if proc.pid == 0:
                proc.set_now(1e-3)  # send after the crash: all drops
                udp.send(0, 1, "msg", "x", 100, t_ready=proc.now)
                yield from proc.mailbox().wait_g("reply that never comes")
            else:
                proc.compute(10.0)

        with pytest.raises(TransportError, match="unacknowledged after 3"):
            cluster.run(main)

    def test_cancel_pending_abandons_unacked_sends(self):
        # What the masking layer relies on: cancelling the in-flight
        # reliable sends to a dead node silences their retry timers.
        plan = FaultPlan(seed=1, loss=1.0, retry_cap=3)
        cluster = Cluster(2, config=ClusterConfig(faults=plan))
        udp = UdpChannel(cluster.net)
        cancelled = []

        def main(proc):
            proc.register("msg", lambda d: None)
            yield YIELD
            if proc.pid == 0:
                udp.send(0, 1, "msg", "x", 100, t_ready=proc.now)
                cancelled.append(cluster.net.cancel_pending_to(1))
            proc.compute(1.0)

        cluster.run(main)  # no TransportError despite loss=1.0, cap=3
        assert cancelled == [1]

    def test_tcp_partition_holds_initial_segment(self):
        # Partition covers the very first transmission: the kernel parks
        # the segment until the heal; zero attempts charged.
        trace = Trace(enabled=True)
        plan = FaultPlan(seed=2, crash_windows=((1, 0.0, 50e-3),),
                         retry_cap=3)
        cluster = Cluster(2, config=ClusterConfig(faults=plan, trace=trace))
        tcp = TcpChannel(cluster.net)
        arrivals = []

        def main(proc):
            proc.register("msg", lambda d: arrivals.append(d.arrival))
            yield YIELD
            if proc.pid == 0:
                tcp.send(0, 1, "msg", None, 1000, t_ready=proc.now)
            proc.compute(2.0)

        cluster.run(main)
        assert len(arrivals) == 1
        assert arrivals[0] >= 50e-3
        kinds = [e.kind for e in trace.of_kind(*_RELIABILITY_KINDS)]
        assert kinds == ["drop", "partition_hold"]

    def test_tcp_partition_opening_mid_retransmit(self):
        # The original segment is lost to congestion at t~0; the kernel's
        # 20ms RTO retry then lands inside a 2ms-100ms partition.  Without
        # the hold, retries at 20/40ms burn retry_cap=3 into a spurious
        # connection reset; with it the segment waits out the window.
        trace = Trace(enabled=True)
        plan = FaultPlan(seed=2, loss=1.0, window=(0.0, 1e-3),
                         crash_windows=((1, 2e-3, 100e-3),),
                         retry_cap=3, tcp_rto=20e-3)
        cluster = Cluster(2, config=ClusterConfig(faults=plan, trace=trace))
        tcp = TcpChannel(cluster.net)
        arrivals = []

        def main(proc):
            proc.register("msg", lambda d: arrivals.append(d.arrival))
            yield YIELD
            if proc.pid == 0:
                tcp.send(0, 1, "msg", None, 1000, t_ready=proc.now)
            proc.compute(2.0)

        cluster.run(main)
        assert len(arrivals) == 1
        assert arrivals[0] >= 100e-3
        kinds = [e.kind for e in trace.of_kind(*_RELIABILITY_KINDS)]
        assert kinds == ["drop", "retransmit", "drop", "partition_hold",
                         "retransmit"]
        hold, = trace.of_kind("partition_hold")
        assert "until=0.100000" in hold.detail


def _parked(reason):
    """A task body that blocks forever with ``reason``."""
    yield Block(reason)


class TestDiagnostics:
    def test_link_overcommit_warns_instead_of_clamping(self):
        link = Link(CostModel.paper_testbed())
        link.transmit_background(0.0, 10_000_000)  # force occupied >> elapsed
        with pytest.warns(RuntimeWarning, match="over-committed"):
            ratio = link.utilization(1e-6)
        assert ratio == 1.0  # still clamped for reports, but loudly

    def test_utilization_quiet_when_sane(self, recwarn):
        link = Link(CostModel.paper_testbed())
        link.transmit(0.0, 1000)
        assert 0.0 < link.utilization(1.0) <= 1.0
        assert not [w for w in recwarn if w.category is RuntimeWarning]

    def test_watchdog_breaks_event_storms(self):
        engine = Engine(watchdog_events=50)

        def repost(t):
            engine.post(t + 1e-3, lambda: repost(t + 1e-3))

        engine.spawn("stuck", lambda: _parked("lost reply"))
        engine.post(0.0, lambda: repost(0.0))
        with pytest.raises(EngineDeadlock, match="watchdog"):
            engine.run()

    def test_deadlock_dump_lists_tid_state_clock(self):
        engine = Engine()
        engine.spawn("a", lambda: _parked("waiting on b"))
        with pytest.raises(EngineDeadlock) as exc:
            engine.run()
        msg = str(exc.value)
        assert "tid=0" in msg
        assert "state=blocked" in msg
        assert "clock=" in msg
        assert "waiting on b" in msg
