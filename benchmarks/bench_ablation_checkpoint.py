"""Ablation: checkpoint interval vs. crash-recovery cost.

The paper's testbed assumes every workstation survives the whole run; this
ablation kills one node mid-run and sweeps the coordinated-checkpoint
interval.  Checkpointing is a classic insurance trade: a short interval
pays steady premiums (checkpoint writes during the fault-free portion)
but loses little work at a crash; a long (or infinite) interval is free
until the crash, which then throws away everything since the start.

Every recovered run must still produce results identical to the
fault-free one on both systems -- ``api.run`` verifies each against
the sequential run, and the recovery ledger reports where the overhead
went (detection latency, lost work re-executed, checkpoint restore).
"""

from _common import PRESET, emit, live_run

from repro import api
from repro.sim.faults import FaultPlan
from repro.sim.recovery import RecoveryConfig

NPROCS = 8
#: Crash node 3 halfway through SOR-Zero's 8-processor bench run.
CRASH = FaultPlan(crash_at=((3, 2.0),))
#: Swept checkpoint spacings (virtual seconds); 0 = restart from scratch.
INTERVALS = (0.0, 0.1, 0.5, 2.0)


def _recovery(interval):
    return RecoveryConfig(checkpoint_interval=interval)


def test_ablation_checkpoint(benchmark, capsys):
    seq = api.seq_time("fig02", PRESET)  # SOR-Zero: barrier-heavy

    benchmark.pedantic(
        lambda: live_run("fig02", "tmk", NPROCS, faults=CRASH,
                         recovery=_recovery(INTERVALS[1])),
        rounds=1, iterations=1)

    rows = [
        f"Ablation: checkpoint interval under a crash "
        f"(SOR-Zero, {NPROCS} processors, node 3 dies at t=2.0)",
        "",
        f"{'system':>8}{'ckpt':>7}{'speedup':>9}{'lost':>8}"
        f"{'restore':>9}{'ckptKB':>8}{'overhead':>10}",
        "-" * 59,
    ]
    runs = {}
    for system in ("tmk", "pvm"):
        clean = live_run("fig02", system, NPROCS)
        rows.append(f"{system:>8}{'none':>7}{seq / clean.time:>9.2f}"
                    f"{'-':>8}{'-':>9}{'-':>8}{'-':>10}")
        for interval in INTERVALS:
            run = live_run("fig02", system, NPROCS, faults=CRASH,
                           recovery=_recovery(interval))
            runs[(system, interval)] = run
            report = run.recovery
            ckpt = run.stats.recovery().get("checkpoint")
            rows.append(
                f"{system:>8}{interval:>7.1f}{seq / run.time:>9.2f}"
                f"{report.lost_work:>8.2f}"
                f"{report.restore_time * 1e3:>8.1f}m"
                f"{(ckpt.bytes / 1024.0 if ckpt else 0.0):>8.0f}"
                f"{report.overhead_time:>10.2f}")
    emit(capsys, "ablation_checkpoint", "\n".join(rows))

    for system in ("tmk", "pvm"):
        # No checkpoints: all pre-crash work is lost and re-executed.
        bare = runs[(system, 0.0)]
        assert bare.recovery.recoveries == 1
        assert bare.recovery.lost_work == 2.0
        # Frequent checkpoints bound the lost work by roughly an interval
        # (TreadMarks realigns the cut to the next barrier episode).
        tight = runs[(system, 0.1)]
        assert tight.recovery.lost_work < bare.recovery.lost_work
        assert tight.recovery.restored_bytes > 0
