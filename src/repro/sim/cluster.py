"""The simulated workstation cluster.

A :class:`Cluster` bundles the virtual-time engine, the FDDI network, the
statistics collector, and ``nprocs`` :class:`Processor` objects.  The
TreadMarks and PVM runtimes attach themselves to processors and register
message handlers; application code receives its :class:`Processor` and calls
the runtime's API plus :meth:`Processor.compute` to charge virtual work time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.kernels import DEFAULT_BACKEND
from repro.obs.core import Obs, ObsConfig
from repro.sim.costmodel import CostModel
from repro.sim.engine import Block, Engine, SimTask
from repro.sim.faults import FaultPlan
from repro.sim.network import Delivery, Network
from repro.sim.recovery import RecoveryConfig, RecoveryManager
from repro.sim.stats import MessageStats
from repro.sim.trace import Trace

__all__ = ["Cluster", "ClusterConfig", "ClusterResult", "Mailbox",
           "Processor"]

_EMPTY = object()


class Mailbox:
    """Single-use reply slot for synchronous request/response exchanges.

    The requesting processor sends a request carrying this mailbox, then
    does ``yield from mailbox.wait_g(reason)``; the responder's handler
    eventually calls :meth:`put` (via a posted delivery), which wakes the
    requester at the response's arrival time.
    """

    __slots__ = ("proc", "_value", "_time", "_waiting", "waiting_on")

    def __init__(self, proc: "Processor") -> None:
        self.proc = proc
        self._value: Any = _EMPTY
        self._time = 0.0
        self._waiting = False
        #: Diagnostic wake-dependency hint ("P3 (home)"): set by the
        #: requester when it knows who must reply, surfaced in deadlock
        #: and watchdog thread dumps.
        self.waiting_on: Optional[str] = None

    def put(self, value: Any, time: float) -> None:
        if self._value is not _EMPTY:
            raise RuntimeError("mailbox filled twice")
        self._value = value
        self._time = time
        if self._waiting:
            self.proc.unblock(time)

    def wait_g(self, reason: str):
        """Block until filled; advances the caller's clock to arrival time."""
        if self._value is _EMPTY:
            self._waiting = True
            yield Block(reason, self.waiting_on)
            self._waiting = False
        if self._value is _EMPTY:
            raise RuntimeError(f"mailbox woken empty while waiting for {reason}")
        if self._time > self.proc.now:
            self.proc.set_now(self._time)
        return self._value


class Processor:
    """One simulated workstation."""

    def __init__(self, cluster: "Cluster", pid: int) -> None:
        self.cluster = cluster
        self.pid = pid
        self.thread: Optional[SimTask] = None
        self._handlers: Dict[str, Callable[[Delivery], None]] = {}
        #: Runtime attachment points, set by the TreadMarks / PVM layers.
        self.tmk: Any = None
        self.pvm: Any = None
        #: Replacement main body for service processors (e.g. SC-ABD page
        #: replicas): ``Cluster.run`` spawns this instead of the
        #: application function, as a daemon thread that is retired once
        #: the application threads complete.
        self.main_override: Optional[Callable[["Processor"], Any]] = None
        #: Observability facade (repro.obs), or None when disabled; the
        #: runtime layers test this pointer before recording anything.
        self.obs: Optional[Obs] = None
        #: Direct reference to the time profiler (None unless profiling):
        #: the clock primitives below are the simulator's hottest path, so
        #: they skip the facade and pay one attribute test when obs is off.
        self._profiler: Any = None

    # ------------------------------------------------------------------
    # Virtual time (app-thread side)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        assert self.thread is not None
        return self.thread.clock

    def set_now(self, t: float) -> None:
        assert self.thread is not None
        if t < self.thread.clock:
            raise ValueError(
                f"P{self.pid}: clock may not move backwards "
                f"({self.thread.clock} -> {t})")
        dt = t - self.thread.clock
        self.thread.clock = t
        if self._profiler is not None:
            self._profiler.on_advance(self.pid, dt)

    def compute(self, dt: float) -> None:
        """Charge ``dt`` virtual seconds of local computation."""
        assert self.thread is not None
        self.thread.advance(dt)
        if self._profiler is not None:
            self._profiler.on_advance(self.pid, dt)

    def unblock(self, wake_time: float) -> None:
        assert self.thread is not None
        self.cluster.engine.unblock(self.thread, wake_time)

    # ------------------------------------------------------------------
    # Handler side (runs in scheduler context at message arrival)
    # ------------------------------------------------------------------
    def charge_service(self, dt: float) -> None:
        """Charge interrupt-service CPU time to this processor.

        Modeled after TreadMarks' SIGIO request handling: servicing a peer's
        request steals compute time from whatever the processor was doing.
        """
        assert self.thread is not None
        if dt < 0:
            raise ValueError("negative service charge")
        self.thread.clock += dt
        if self._profiler is not None:
            self._profiler.on_service(self.pid, dt)

    def register(self, category: str, handler: Callable[[Delivery], None]) -> None:
        if category in self._handlers:
            raise ValueError(f"P{self.pid}: duplicate handler for {category!r}")
        self._handlers[category] = handler

    def deliver(self, delivery: Delivery) -> None:
        handler = self._handlers.get(delivery.category)
        if handler is None:
            raise RuntimeError(
                f"P{self.pid}: no handler for message category "
                f"{delivery.category!r} from P{delivery.src}")
        handler(delivery)

    def mailbox(self) -> Mailbox:
        return Mailbox(self)

    def trace(self, kind: str, detail: str = "") -> None:
        self.cluster.trace.record(self.now if self.thread else 0.0,
                                  self.pid, kind, detail)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Processor {self.pid}>"


@dataclass
class ClusterResult:
    """Outcome of one simulated parallel run."""

    results: List[Any]
    #: Virtual time at which the last processor finished.
    elapsed: float
    stats: MessageStats
    #: Per-processor finish times (load-imbalance diagnostics).
    finish_times: List[float] = field(default_factory=list)
    #: Fraction of elapsed time the FDDI ring carried a frame.
    link_utilization: float = 0.0
    #: Virtual time at which the measured window opened (0 if never marked).
    measure_from: float = 0.0

    @property
    def measured(self) -> float:
        """Elapsed virtual time inside the measured window.

        Applications open the window (via ``Cluster.start_measurement``)
        after initialization/warm-up, mirroring the paper's exclusions
        (e.g. SOR excludes the first iteration, Barnes-Hut the first
        timesteps, 3-D FFT the initial distribution).
        """
        return self.elapsed - self.measure_from


@dataclass
class ClusterConfig:
    """Substrate-level configuration for one simulated cluster.

    Bundles the knobs that describe the *environment* (as opposed to the
    runtime-protocol knobs in ``TmkConfig``): the hardware cost model, the
    fault plan for the network, protocol tracing, and the engine watchdog.
    """

    cost: Optional[CostModel] = None
    trace: Optional[Trace] = None
    #: Deterministic network fault schedule (None = perfect medium).
    faults: Optional[FaultPlan] = None
    #: Failure detector / checkpoint configuration.  ``None`` still gets
    #: a detection-only default when the fault plan schedules a permanent
    #: crash, so a crashed run surfaces ``NodeFailure`` instead of
    #: hanging the barrier until the watchdog trips.
    recovery: Optional[RecoveryConfig] = None
    #: Observability: span timeline and/or time-attribution profiler
    #: (``None`` or all-off = the historical zero-overhead paths).
    obs: Optional[ObsConfig] = None
    #: Engine watchdog: max consecutive events with every thread blocked.
    watchdog_events: int = 1_000_000
    #: Tie-break strategy among equal-virtual-time ready threads (see
    #: ``repro.sim.engine.Scheduler``); None = historical lowest-tid pick.
    scheduler: Optional[Any] = None
    #: Page-op kernel backend (``repro.kernels``): ``"pure"``, ``"numpy"``
    #: or ``"compiled"`` (falls back to numpy when unbuilt).
    #: Host-side speed only; every backend is byte-identical.
    kernels: str = DEFAULT_BACKEND


class Cluster:
    """``nprocs`` simulated workstations on one FDDI ring.

    Construct with ``Cluster(nprocs, config=ClusterConfig(...))``.  (The
    pre-:class:`ClusterConfig` spelling -- ``cost=``/``trace=``/``faults=``
    passed directly -- was deprecated in v1.1 and has been removed; most
    callers want the :func:`repro.api.run` facade anyway.)
    """

    def __init__(self, nprocs: int,
                 config: Optional[ClusterConfig] = None) -> None:
        if nprocs < 1:
            raise ValueError("need at least one processor")
        if config is None:
            config = ClusterConfig()
        self.config = config
        self.nprocs = nprocs
        self.cost = (config.cost if config.cost is not None
                     else CostModel.paper_testbed())
        self.trace = config.trace if config.trace is not None else Trace()
        self.faults = config.faults
        #: Resolved page-op kernel backend shared by every processor.
        from repro.kernels import get_backend
        self.kernels = get_backend(config.kernels)
        self.engine = Engine(watchdog_events=config.watchdog_events,
                             scheduler=config.scheduler)
        self.stats = MessageStats()
        self.net = Network(self.engine, self.cost, self.stats,
                           faults=self.faults, trace=self.trace)
        self.net.attach(self._dispatch, self._charge_service)
        self.procs = [Processor(self, pid) for pid in range(nprocs)]
        #: Observability facade; None unless the config enables it.
        self.obs: Optional[Obs] = None
        if config.obs is not None and config.obs.enabled:
            self.obs = Obs.from_config(config.obs, nprocs, self.cost)
            for proc in self.procs:
                proc.obs = self.obs
                proc._profiler = self.obs.profiler
            self.net.obs = self.obs
            self.engine.obs = self.obs
        #: Crash/checkpoint orchestration; None when neither a recovery
        #: config nor a permanent crash is in play (zero overhead).
        self.recovery: Optional[RecoveryManager] = None
        recovery_cfg = config.recovery
        if (recovery_cfg is None and self.faults is not None
                and self.faults.crash_at):
            recovery_cfg = RecoveryConfig()
        if recovery_cfg is not None:
            self.recovery = RecoveryManager(self, recovery_cfg)
        #: Pids of service processors (replica servers): they host daemon
        #: threads, never run the application function, and are excluded
        #: from the elapsed-time measurement (their quorum work is charged
        #: to the *clients* that wait on it).
        self.service_pids: set[int] = set()
        self._measure_from = 0.0
        self._measure_until: Optional[float] = None
        self._frozen_stats: Optional[MessageStats] = None
        #: Host-side observers notified of measurement-window events
        #: (e.g. the DSM sanitizer); they never affect accounting.
        self.observers: List[Any] = []

    def start_measurement(self, proc: Processor) -> None:
        """Open the measured window: reset traffic stats, mark the clock.

        Call from exactly one processor (conventionally 0), immediately
        after a synchronization point so all clocks are aligned.
        """
        self._measure_from = proc.now
        self.stats.reset()
        for observer in self.observers:
            observer.on_measurement_start()
        if self.obs is not None:
            self.obs.on_measurement_start(self.procs, proc.now)

    def stop_measurement(self, proc: Processor) -> None:
        """Close the measured window: freeze the traffic statistics.

        Use when out-of-band work (e.g. re-reading the whole result for
        verification) follows the program proper and must not count.
        """
        self._measure_until = proc.now
        self._frozen_stats = self.stats.snapshot()

    def _dispatch(self, delivery: Delivery) -> None:
        proc = self.procs[delivery.dst]
        if proc.thread is not None and proc.thread.killed:
            # A message sent before the destination crashed, arriving
            # after: the dead host processes nothing.
            self.trace.record(delivery.arrival, delivery.dst, "drop",
                              f"dead node, category={delivery.category}")
            return
        proc.deliver(delivery)

    def _charge_service(self, pid: int, dt: float) -> None:
        """Interrupt-style CPU charge from the network's reliability layer
        (ACK processing, timer-driven retransmission)."""
        self.procs[pid].charge_service(dt)

    def run(self, fn: Callable[..., Any], args: Sequence[Any] = ()) -> ClusterResult:
        """Run ``fn(proc, *args)`` on every processor to completion."""
        for proc in self.procs:
            body = proc.main_override
            if body is not None:
                proc.thread = self.engine.spawn(
                    f"P{proc.pid}", (lambda p=proc, b=body: b(p)),
                    daemon=True)
            else:
                proc.thread = self.engine.spawn(
                    f"P{proc.pid}", (lambda p=proc: fn(p, *args)))
        if self.recovery is not None:
            self.recovery.install()
        self.engine.run()
        if self.recovery is not None:
            self.recovery.finalize()
        finish = [proc.thread.clock for proc in self.procs]
        if self.obs is not None:
            self.obs.finalize(finish)
        if self.service_pids:
            elapsed = max(t for pid, t in enumerate(finish)
                          if pid not in self.service_pids)
        else:
            elapsed = max(finish)
        if self._measure_until is not None:
            elapsed = self._measure_until
        return ClusterResult(
            results=[proc.thread.result for proc in self.procs],
            elapsed=elapsed,
            stats=(self._frozen_stats if self._frozen_stats is not None
                   else self.stats),
            finish_times=finish,
            link_utilization=self.net.link.utilization(elapsed),
            measure_from=self._measure_from,
        )
