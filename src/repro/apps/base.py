"""Application harness: registry, runners, verification.

The experiment flow mirrors the paper's methodology:

* sequential time comes from a program "without any calls to PVM or
  TreadMarks" (:func:`run_sequential`);
* each parallel run reports the virtual time of its *measured window*
  (applications open it after initialization, matching the paper's
  warm-up exclusions) plus the full message statistics;
* speedup is sequential time divided by measured parallel time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.analysis.races import AnalysisConfig, attach_sanitizer
from repro.kernels import DEFAULT_BACKEND
from repro.obs.core import ObsConfig
from repro.sim.cluster import Cluster, ClusterConfig, ClusterResult, Processor
from repro.sim.costmodel import CostModel
from repro.sim.faults import FaultPlan
from repro.sim.recovery import (NodeFailure, RecoveryConfig, RecoveryReport,
                                plan_recovery)
from repro.sim.stats import MessageStats
from repro.sim.trace import Trace
from repro.tmk.api import TmkConfig, attach_tmk
from repro.ivy.api import IvyConfig, attach_ivy
from repro.pvm.api import attach_pvm
from repro.scabd import (ReplicationConfig, ReplicationReport, ScAbdConfig,
                         attach_scabd)
from repro.verify.invariants import attach_invariants

__all__ = [
    "APPS",
    "AppSpec",
    "ParallelResult",
    "SeqMeter",
    "SeqResult",
    "get_app",
    "register",
    "run_parallel",
    "run_sequential",
]


def compute_polled(proc, total: float, poll, chunk: float = 5e-3):
    """Charge ``total`` virtual seconds of master-side computation while
    periodically invoking the generator ``poll()``.

    PVM's master/slave applications run the master and one slave as two
    *time-shared processes* on processor 0; a single-threaded simulated
    processor must emulate that by interleaving its own slave work with
    servicing slave requests, or the co-located slave's long computations
    would stall the whole cluster.

    This is a generator (application bodies are generator-convention);
    ``poll`` must be a generator function too.
    """
    remaining = total
    while remaining > 0:
        dt = min(chunk, remaining)
        proc.compute(dt)
        remaining -= dt
        yield from poll()


class SeqMeter:
    """Virtual-time meter for sequential runs (no cluster, no messages)."""

    def __init__(self) -> None:
        self.now = 0.0
        self.measure_from = 0.0

    def compute(self, dt: float) -> None:
        if dt < 0:
            raise ValueError("negative time advance")
        self.now += dt

    def mark(self) -> None:
        """Open the measured window (end of initialization)."""
        self.measure_from = self.now

    @property
    def measured(self) -> float:
        return self.now - self.measure_from


@dataclass
class SeqResult:
    result: Any
    #: Virtual seconds inside the measured window (the Table 1 number).
    time: float


@dataclass
class ParallelResult:
    #: The application-level result (from the processor that owns it).
    result: Any
    #: Virtual seconds inside the measured window.
    time: float
    stats: MessageStats
    cluster: ClusterResult
    nprocs: int
    system: str
    #: Per-processor runtime endpoints (Tmk or Pvm objects), retained for
    #: post-run diagnostics (see repro.bench.analysis).
    endpoints: List[Any] = field(default_factory=list)
    #: The run's sanitizer (repro.analysis), when one was requested.
    sanitizer: Optional[Any] = None
    #: The run's protocol-invariant monitor (repro.verify.invariants),
    #: when ``invariants=True`` was requested.
    invariant_monitor: Optional[Any] = None
    #: Crash-recovery ledger (None unless a recovery config was given or
    #: the fault plan scheduled a permanent crash).
    recovery: Optional[RecoveryReport] = None
    #: Quorum-replication ledger (None unless the run used the SC-ABD
    #: failure-masking mode).
    replication: Optional[ReplicationReport] = None
    #: Span timeline (repro.obs.Timeline) when ObsConfig.timeline was on.
    timeline: Optional[Any] = None
    #: Time-attribution profiler (repro.obs.TimeProfiler) when
    #: ObsConfig.profile was on; feed to repro.obs.build_profile.
    profiler: Optional[Any] = None

    def total_messages(self) -> int:
        return self.stats.total(self.system).messages

    def total_kbytes(self) -> float:
        return self.stats.total(self.system).bytes / 1024.0


@dataclass(frozen=True)
class AppSpec:
    """One application: its three implementations plus harness metadata."""

    name: str
    sequential: Callable[[Any, Any], Any]
    tmk_main: Callable[[Processor, Any], Any]
    pvm_main: Callable[[Processor, Any], Any]
    #: Compare a parallel result against the sequential one.
    verify: Callable[[Any, Any], bool]
    #: Extract the canonical result from the per-processor return list.
    collect: Callable[[List[Any]], Any] = staticmethod(lambda results: results[0])
    #: Shared segment size this app needs under TreadMarks.
    segment_bytes: int = 1 << 23


APPS: Dict[str, AppSpec] = {}


def register(spec: AppSpec) -> AppSpec:
    if spec.name in APPS:
        raise ValueError(f"duplicate app {spec.name!r}")
    APPS[spec.name] = spec
    return spec


def get_app(name: str) -> AppSpec:
    try:
        return APPS[name]
    except KeyError:
        raise KeyError(f"unknown app {name!r}; available: {sorted(APPS)}")


# ----------------------------------------------------------------------
# Runners
# ----------------------------------------------------------------------
def run_sequential(app: AppSpec | str, params: Any) -> SeqResult:
    """The uninstrumented single-machine run (Table 1 baseline)."""
    spec = get_app(app) if isinstance(app, str) else app
    meter = SeqMeter()
    result = spec.sequential(meter, params)
    return SeqResult(result=result, time=meter.measured)


def run_parallel(app: AppSpec | str, system: str, nprocs: int, params: Any,
                 cost: Optional[CostModel] = None,
                 tmk_config: Optional[TmkConfig] = None,
                 pvm_route: str = "direct",
                 trace: Optional[Trace] = None,
                 faults: Optional[FaultPlan] = None,
                 analysis: Optional[AnalysisConfig] = None,
                 recovery: Optional[RecoveryConfig] = None,
                 obs: Optional[ObsConfig] = None,
                 replication: Optional[ReplicationConfig] = None,
                 scheduler: Optional[Any] = None,
                 invariants: bool = False,
                 kernels: str = DEFAULT_BACKEND) -> ParallelResult:
    """Run one application on a fresh simulated cluster.

    ``system`` is ``"tmk"``, ``"pvm"``, or ``"ivy"`` (the sequentially-
    consistent IVY baseline runs the TreadMarks version of the program
    unmodified).  ``faults`` installs a deterministic network fault plan
    (and with it the user-level reliability protocol).  ``analysis``
    attaches the DSM sanitizer (TreadMarks only: the happens-before
    check needs the LRC synchronization events); it observes but never
    charges, so accounting is identical with or without it.

    ``recovery`` configures checkpointing and the failure detector; it
    defaults on (detection only) whenever the fault plan schedules a
    permanent crash.  When a crash is detected mid-run, the run rolls
    back and re-executes with the failed rank restarted on a spare host
    (the deterministic simulator makes restore-and-replay equivalent to
    a fresh run), the recovery cost is added to the measured time, and
    the final result is bit-identical to the fault-free run.  Returns
    the application result, the measured virtual time, and the message
    statistics.

    ``replication`` selects the SC-ABD failure-*masking* mode instead
    (``system`` must be ``"tmk"``): the cluster grows by
    ``replication.replicas`` dedicated page-replica servers, page data
    moves through majority quorums, and the crash of a replica minority
    is absorbed without any rollback -- the result stays bit-identical
    to the fault-free run and only the quorum traffic (the
    ``"replication"`` stats system) and quorum waits are added.  Masking
    and rollback are alternatives: with ``replication`` set there are no
    checkpoints, and an unmaskable crash (an application rank, or one
    replica too many) aborts the run with ``NodeFailure``.

    ``scheduler`` overrides the engine's tie-break policy among ready
    threads at equal virtual time (see ``repro.verify.schedule``); the
    default ``None`` keeps the historical lowest-pid order.
    ``invariants=True`` attaches the runtime protocol-invariant monitors
    (see ``repro.verify.invariants``); a broken coherence rule raises
    ``InvariantViolation`` mid-run.  Neither changes virtual-time
    accounting: a default-scheduled run with invariants on computes
    byte-identical results.

    ``kernels`` selects the page-ops kernel backend (``"pure"``,
    ``"numpy"``, or ``"compiled"``; see ``repro.kernels``).  It is a
    host-side execution detail: every backend computes
    byte-identical diffs, so results, traffic, and virtual times do not
    depend on it.
    """
    spec = get_app(app) if isinstance(app, str) else app
    if system not in ("tmk", "pvm", "ivy"):
        raise ValueError(
            f"system must be 'tmk', 'pvm' or 'ivy', got {system!r}")
    if analysis is not None and not analysis.enabled:
        analysis = None
    if analysis is not None and system != "tmk":
        raise ValueError(f"the sanitizer requires system='tmk', got {system!r}")
    if obs is not None and not obs.enabled:
        obs = None
    mask = replication is not None
    if mask and system != "tmk":
        raise ValueError(
            f"replication (failure masking) requires system='tmk', "
            f"got {system!r}")
    if mask and analysis is not None:
        raise ValueError("the sanitizer cannot run under quorum replication")
    if mask and recovery is not None and recovery.checkpoint_interval > 0:
        raise ValueError(
            "masking and rollback are alternatives: replication cannot be "
            "combined with checkpointing (checkpoint_interval > 0)")
    if recovery is None and faults is not None and faults.crash_at:
        recovery = RecoveryConfig()
    report = RecoveryReport() if (recovery is not None and not mask) else None
    plan = faults
    while True:
        total_procs = nprocs + (replication.replicas if mask else 0)
        cluster = Cluster(total_procs, config=ClusterConfig(
            cost=cost, trace=trace, faults=plan, recovery=recovery, obs=obs,
            scheduler=scheduler, kernels=kernels))
        sanitizer = None
        scabd_system = None
        if mask:
            endpoints = attach_scabd(
                cluster, ScAbdConfig(segment_bytes=spec.segment_bytes),
                replication)
            scabd_system = endpoints[0].system
            monitor_kind = "scabd"
            main = spec.tmk_main
        elif system == "tmk":
            config = tmk_config
            if config is None:
                config = TmkConfig(segment_bytes=spec.segment_bytes)
            endpoints = attach_tmk(cluster, config)
            if analysis is not None:
                sanitizer = attach_sanitizer(cluster, endpoints, analysis)
            monitor_kind = "tmk"
            main = spec.tmk_main
        elif system == "ivy":
            endpoints = attach_ivy(
                cluster, IvyConfig(segment_bytes=spec.segment_bytes))
            monitor_kind = "ivy"
            main = spec.tmk_main
        else:
            endpoints = attach_pvm(cluster, route=pvm_route)
            monitor_kind = "pvm"
            main = spec.pvm_main
        monitor = None
        if invariants:
            monitor = attach_invariants(cluster, endpoints, monitor_kind)
        try:
            outcome = cluster.run(main, args=(params,))
            break
        except NodeFailure as failure:
            if report is None:
                # Masking mode (or no recovery at all): there is no
                # checkpoint to roll back to, so an unmaskable crash
                # surfaces to the caller as a clean abort.
                raise
            # Survivors roll back to the failure's last checkpoint and
            # re-execute; deterministically equivalent to this re-run.
            plan = plan_recovery(failure, plan, cluster.recovery.config,
                                 report)
    if sanitizer is not None:
        sanitizer.finish(outcome.stats)
    time = outcome.measured
    if report is not None and report.recoveries:
        time += report.overhead_time
        outcome.stats.record("recovery", "rollback",
                             messages=report.recoveries,
                             nbytes=report.restored_bytes)
    # Replica servers return nothing; the application's results (and its
    # endpoints) are the first ``nprocs`` entries.
    app_procs = cluster.procs[:nprocs]
    return ParallelResult(
        result=spec.collect(outcome.results[:nprocs]),
        time=time,
        stats=outcome.stats,
        cluster=outcome,
        nprocs=nprocs,
        system=system,
        endpoints=[proc.pvm if system == "pvm" else proc.tmk
                   for proc in app_procs],
        sanitizer=sanitizer,
        invariant_monitor=monitor,
        recovery=report,
        replication=(scabd_system.report() if scabd_system is not None
                     else None),
        timeline=cluster.obs.timeline if cluster.obs is not None else None,
        profiler=cluster.obs.profiler if cluster.obs is not None else None,
    )


def verify_against_sequential(app: AppSpec | str, params: Any,
                              system: str, nprocs: int) -> bool:
    """Convenience used throughout the test suite."""
    spec = get_app(app) if isinstance(app, str) else app
    seq = run_sequential(spec, params)
    par = run_parallel(spec, system, nprocs, params)
    return spec.verify(par.result, seq.result)
