"""Ablation: datagram loss rate vs. the user-level reliability protocol.

The paper's testbed is a dedicated FDDI ring, quiet enough that TreadMarks'
user-level UDP protocol almost never retransmits.  This ablation asks what
the comparison looks like on a *lossy* network: a deterministic fault plan
drops a fraction of all datagrams/segments, the reliability sublayer
(positive ACKs, exponential-backoff retransmission, duplicate suppression)
repairs the stream, and both systems must still produce results identical
to the fault-free run.

TreadMarks pays for loss at user level (SIGIO handler retransmits); PVM's
direct TCP connections pay inside the kernel's RTO machinery.  Either way
the run gets slower, never wrong.
"""

from _common import PRESET, emit, live_run

from repro import api
from repro.sim.faults import FaultPlan

NPROCS = 8
LOSS_RATES = (0.0, 0.02, 0.05)


def _plan(loss):
    if not loss:
        return None
    return FaultPlan(seed=7, loss=loss)


def test_ablation_loss(benchmark, capsys):
    seq = api.seq_time("fig02", PRESET)  # SOR-Zero: barrier-heavy

    benchmark.pedantic(
        lambda: live_run("fig02", "tmk", NPROCS,
                         faults=_plan(LOSS_RATES[-1])),
        rounds=1, iterations=1)

    rows = [
        f"Ablation: datagram loss on SOR-Zero ({NPROCS} processors)",
        "",
        f"{'system':>8}{'loss':>7}{'speedup':>9}{'msgs':>8}"
        f"{'retrans':>9}{'dups':>7}",
        "-" * 48,
    ]
    runs = {}
    for system in ("tmk", "pvm"):
        for loss in LOSS_RATES:
            run = live_run("fig02", system, NPROCS, faults=_plan(loss))
            runs[(system, loss)] = run
            rel = run.stats.reliability(system)
            retrans = rel.get("retransmit")
            dups = rel.get("dup_suppress")
            rows.append(
                f"{system:>8}{loss:>7.2f}{seq / run.time:>9.2f}"
                f"{run.total_messages():>8d}"
                f"{(retrans.messages if retrans else 0):>9d}"
                f"{(dups.messages if dups else 0):>7d}")
    emit(capsys, "ablation_loss", "\n".join(rows))

    for system in ("tmk", "pvm"):
        clean = runs[(system, 0.0)]
        for loss in LOSS_RATES[1:]:
            lossy = runs[(system, loss)]
            # api.run verified each result against the sequential run;
            # the lossy run must also not be faster than the clean one.
            assert lossy.time >= clean.time
            retrans = lossy.stats.reliability(system).get("retransmit")
            assert retrans is not None and retrans.messages > 0
