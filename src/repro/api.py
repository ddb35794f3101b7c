"""The unified experiment-running facade: ``repro.api.run(config)``.

Before this module existed, every caller spelled a run differently:
``Cluster(...)`` plus ``attach_tmk``/``attach_pvm``/``attach_ivy`` plus a
growing pile of fault/recovery/sanitizer/observability keyword arguments,
each repeated by the CLI, the bench harness, the benchmark suite, and the
examples.  The facade collapses all of that into two types and one call:

* :class:`RunConfig` -- a frozen, hashable, JSON-round-trippable
  description of one run: which experiment, which system, how many
  processors, which preset, plus the optional fault plan, crash/checkpoint
  (recovery) settings, sanitizer (analysis) settings, observability
  settings, and cost-model override.
* :class:`RunResult` -- the versioned result record: measured virtual
  time, the sequential baseline, message/byte totals, and the recovery
  ledger.  ``to_json()``/``from_json()`` round-trip exactly; the same
  schema is what the persistent result cache stores on disk.
* :func:`run` -- executes a config (verifying the parallel result against
  the sequential program, as every run in this repo always has) *through
  the persistent result cache*: a warm call returns the stored record
  without simulating anything.

:func:`run` is the only way to run an experiment; figures, tables, paper
checks, the sweep and the server all go through it.  Records carry only
the summary (``result.parallel is None``) unless the caller passes
``want_parallel=True``: the run then always executes, the live
``ParallelResult`` (stats buckets, endpoints, sanitizer, profiler) rides
on the returned record, and the summary still lands in the disk cache.
Nothing keeps a live result beyond its caller.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.races import AnalysisConfig
from repro.bench.cache import (ResultCache, cache_key_from_material,
                               canonical_json, default_cache,
                               source_fingerprint)
from repro.kernels import DEFAULT_BACKEND, KERNEL_CHOICES
from repro.obs.core import ObsConfig
from repro.scabd.config import ReplicationConfig
from repro.sim.costmodel import CostModel
from repro.sim.faults import FaultPlan
from repro.sim.recovery import RecoveryConfig

__all__ = [
    "RESULT_SCHEMA_VERSION",
    "RunConfig",
    "RunResult",
    "cache_key",
    "messages_at",
    "run",
    "seq_time",
    "speedup_series",
]

#: Version of the :class:`RunResult` JSON schema (shared with the disk
#: cache).  Bump on any incompatible field change; old cached records
#: then read as misses.
RESULT_SCHEMA_VERSION = 2

_SYSTEMS = ("tmk", "pvm", "ivy")
_PRESETS = ("tiny", "bench", "paper")


# ----------------------------------------------------------------------
# JSON helpers for the frozen config dataclasses
# ----------------------------------------------------------------------
def _jsonify(value: Any) -> Any:
    """Dataclass/tuple/frozenset -> plain JSON-encodable structures."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonify(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, (tuple, list)):
        return [_jsonify(v) for v in value]
    return value


def _retuple(value: Any) -> Any:
    """JSON lists back to (nested) tuples, as the dataclasses expect."""
    if isinstance(value, list):
        return tuple(_retuple(v) for v in value)
    return value


def _dataclass_from_json(cls: type, data: Optional[Dict[str, Any]]) -> Any:
    if data is None:
        return None
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name not in data:
            continue
        value = data[f.name]
        if cls is FaultPlan and f.name == "categories":
            value = frozenset(value) if value is not None else None
        else:
            value = _retuple(value)
        kwargs[f.name] = value
    return cls(**kwargs)


# ----------------------------------------------------------------------
# RunConfig
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunConfig:
    """Everything that determines one experiment run.

    Frozen and hashable (usable as a dict key), and JSON-round-trippable
    (usable as a sweep-worker message and as cache-key material).
    """

    #: Experiment id (``fig01`` .. ``fig12``; see ``repro.bench.harness``).
    experiment: str
    #: ``"tmk"``, ``"pvm"``, or ``"ivy"``.
    system: str = "tmk"
    nprocs: int = 8
    #: Problem-size preset: ``"tiny"``, ``"bench"``, or ``"paper"``.
    preset: str = "bench"
    #: Deterministic network fault schedule (loss, delay, crashes, ...).
    faults: Optional[FaultPlan] = None
    #: Crash recovery: checkpoint interval, failure detector, rollback.
    recovery: Optional[RecoveryConfig] = None
    #: DSM sanitizer: race detection and false-sharing analysis (tmk only).
    analysis: Optional[AnalysisConfig] = None
    #: Observability: span timeline and/or time-attribution profiler.
    obs: Optional[ObsConfig] = None
    #: Hardware cost-model override (``None`` = the paper's testbed).
    cost: Optional[CostModel] = None
    #: SC-ABD failure masking: replicate pages on a quorum of dedicated
    #: servers so minority crashes are absorbed without rollback
    #: (tmk only; an alternative to checkpointing, not an addition).
    replication: Optional[ReplicationConfig] = None
    #: Attach the runtime protocol-invariant monitors
    #: (``repro.verify.invariants``); a broken coherence rule raises
    #: ``InvariantViolation`` mid-run.  Pure observation -- results and
    #: times are identical with or without it.
    invariants: bool = False
    #: Page-ops kernel backend: ``"pure"`` (reference), ``"numpy"``
    #: (vectorized), or ``"compiled"`` (C extension; falls back to numpy
    #: when unbuilt).  All backends are byte-identical
    #: (enforced by tests/kernels/), so the cache key ignores this too.
    kernels: str = DEFAULT_BACKEND

    def __post_init__(self) -> None:
        if self.kernels not in KERNEL_CHOICES:
            raise ValueError(
                f"kernels must be one of {KERNEL_CHOICES}, "
                f"got {self.kernels!r}")
        if self.system not in _SYSTEMS:
            raise ValueError(
                f"system must be one of {_SYSTEMS}, got {self.system!r}")
        if self.preset not in _PRESETS:
            raise ValueError(
                f"preset must be one of {_PRESETS}, got {self.preset!r}")
        if self.nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {self.nprocs}")
        if self.analysis is not None and self.analysis.enabled \
                and self.system != "tmk":
            raise ValueError("the sanitizer requires system='tmk'")
        if self.replication is not None:
            if self.system != "tmk":
                raise ValueError(
                    "replication (failure masking) requires system='tmk'")
            if self.analysis is not None and self.analysis.enabled:
                raise ValueError(
                    "the sanitizer cannot run under quorum replication")
            if self.recovery is not None \
                    and self.recovery.checkpoint_interval > 0:
                raise ValueError(
                    "masking and rollback are alternatives: replication "
                    "cannot be combined with checkpointing")

    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        return {
            "experiment": self.experiment,
            "system": self.system,
            "nprocs": self.nprocs,
            "preset": self.preset,
            "faults": _jsonify(self.faults),
            "recovery": _jsonify(self.recovery),
            "analysis": _jsonify(self.analysis),
            "obs": _jsonify(self.obs),
            "cost": _jsonify(self.cost),
            "replication": _jsonify(self.replication),
            "invariants": self.invariants,
            "kernels": self.kernels,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "RunConfig":
        return cls(
            experiment=data["experiment"],
            system=data.get("system", "tmk"),
            nprocs=int(data.get("nprocs", 8)),
            preset=data.get("preset", "bench"),
            faults=_dataclass_from_json(FaultPlan, data.get("faults")),
            recovery=_dataclass_from_json(RecoveryConfig,
                                          data.get("recovery")),
            analysis=_dataclass_from_json(AnalysisConfig,
                                          data.get("analysis")),
            obs=_dataclass_from_json(ObsConfig, data.get("obs")),
            cost=_dataclass_from_json(CostModel, data.get("cost")),
            replication=_dataclass_from_json(ReplicationConfig,
                                             data.get("replication")),
            invariants=bool(data.get("invariants", False)),
            kernels=data.get("kernels", DEFAULT_BACKEND),
        )


# ----------------------------------------------------------------------
# RunResult
# ----------------------------------------------------------------------
@dataclass
class RunResult:
    """The versioned record of one run (what the disk cache stores).

    ``to_json()``/``from_json()`` round-trip byte-identically through
    :func:`repro.bench.cache.canonical_json`, which is what the sweep
    byte-identity guarantees are stated over.
    """

    experiment: str
    system: str
    nprocs: int
    preset: str
    #: Measured parallel virtual time (the speedup denominator).
    time: float
    #: Sequential virtual time of the same preset (the Table 1 number).
    seq_time: float
    #: Total messages / kilobytes inside the measured window.
    messages: int
    kbytes: float
    link_utilization: float = 0.0
    #: Crash-recovery ledger summary (``None`` for fault-free runs).
    recovery: Optional[Dict[str, Any]] = None
    #: Quorum-replication ledger summary (``None`` unless the run used
    #: the SC-ABD failure-masking mode).
    replication: Optional[Dict[str, Any]] = None
    schema_version: int = RESULT_SCHEMA_VERSION

    # -- process-local, never serialized --------------------------------
    #: The live ParallelResult when this record was computed in-process
    #: (stats buckets, endpoints, sanitizer, timeline, profiler);
    #: ``None`` when the record was served from the disk cache.
    parallel: Optional[Any] = field(default=None, compare=False, repr=False)
    #: True when this record came from the persistent cache.
    cached: bool = field(default=False, compare=False)
    #: The cache key this record was stored/found under (diagnostics).
    cache_key: Optional[str] = field(default=None, compare=False, repr=False)

    @property
    def speedup(self) -> float:
        return self.seq_time / self.time

    @property
    def etag(self) -> str:
        """Strong HTTP entity tag over the canonical result bytes.

        Two records with byte-identical canonical encodings share an
        ETag, so the serving layer's conditional requests (If-None-Match
        -> 304) are stated over exactly the same bytes as every other
        byte-identity guarantee in this repo.
        """
        import hashlib
        return '"' + hashlib.sha256(self.to_json_bytes()).hexdigest() + '"'

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "experiment": self.experiment,
            "system": self.system,
            "nprocs": self.nprocs,
            "preset": self.preset,
            "time": self.time,
            "seq_time": self.seq_time,
            "messages": self.messages,
            "kbytes": self.kbytes,
            "link_utilization": self.link_utilization,
            "recovery": self.recovery,
            "replication": self.replication,
        }

    def to_json_bytes(self) -> bytes:
        """Canonical encoding (the unit of byte-identity comparisons)."""
        return canonical_json(self.to_json()).encode()

    @classmethod
    def from_json(cls, data: Dict[str, Any], *, cached: bool = False,
                  cache_key: Optional[str] = None) -> "RunResult":
        if data.get("schema_version") != RESULT_SCHEMA_VERSION:
            raise ValueError(
                f"RunResult schema {data.get('schema_version')!r} != "
                f"{RESULT_SCHEMA_VERSION}")
        return cls(
            experiment=data["experiment"],
            system=data["system"],
            nprocs=data["nprocs"],
            preset=data["preset"],
            time=data["time"],
            seq_time=data["seq_time"],
            messages=data["messages"],
            kbytes=data["kbytes"],
            link_utilization=data.get("link_utilization", 0.0),
            recovery=data.get("recovery"),
            replication=data.get("replication"),
            cached=cached,
            cache_key=cache_key,
        )


# ----------------------------------------------------------------------
# Cache keys
# ----------------------------------------------------------------------
def _params_repr(experiment: str, preset: str) -> str:
    """The actual parameter set the registry resolves this run to.

    Included in the key so two runs with the same (experiment, preset)
    labels but different parameters (e.g. a test that swaps in a tiny
    parameterization) can never collide.
    """
    from repro.bench import harness
    exp = harness.EXPERIMENTS[experiment]
    return repr(harness.params_for(exp, preset))


def cache_key(config: RunConfig) -> str:
    """Content-addressed key for one run.

    Covers the experiment id and its resolved parameters, the system,
    the processor count, the preset, the fault/recovery/analysis/obs
    options, the cost-model constants in effect, the result schema
    version, and the source fingerprint of ``src/repro/``.
    """
    cost = config.cost if config.cost is not None else CostModel.paper_testbed()
    config_material = config.to_json()
    # Key on the *resolved* cost constants only, so an explicit default
    # cost model and cost=None produce the same key.
    config_material.pop("cost")
    # Every kernel backend computes identical diffs (enforced by
    # tests/kernels/), so the choice is a host-side speed knob, not part
    # of the run's identity.
    config_material.pop("kernels", None)
    material = {
        "kind": "run",
        "schema_version": RESULT_SCHEMA_VERSION,
        "config": config_material,
        "params": _params_repr(config.experiment, config.preset),
        "cost": _jsonify(cost),
        "source": source_fingerprint(),
    }
    return cache_key_from_material(material)


def _seq_cache_key(experiment: str, preset: str) -> str:
    """Key for a cached sequential time (no cluster: no cost model)."""
    material = {
        "kind": "seq",
        "schema_version": RESULT_SCHEMA_VERSION,
        "experiment": experiment,
        "preset": preset,
        "params": _params_repr(experiment, preset),
        "source": source_fingerprint(),
    }
    return cache_key_from_material(material)


# ----------------------------------------------------------------------
# The facade
# ----------------------------------------------------------------------
def run(config: RunConfig, *, use_cache: bool = True,
        cache: Optional[ResultCache] = None,
        want_parallel: bool = False) -> RunResult:
    """Run one experiment configuration through the result cache.

    * On a cache hit, returns the stored :class:`RunResult` without
      simulating anything (``result.cached`` is True).  Cached records
      were verified against the sequential program when first computed.
    * On a miss (or with ``want_parallel=True``, which always executes),
      simulates in-process, verifies the parallel result against the
      sequential run, and stores the record for later calls.

    ``result.parallel`` holds the live ``ParallelResult`` only when
    ``want_parallel=True``; otherwise it is dropped before returning.
    """
    if config.experiment == "all":
        raise ValueError("run() takes a single experiment id; "
                         "use repro.bench.sweep for batches")
    store = (cache if cache is not None else default_cache()) \
        if use_cache else None
    key: Optional[str] = None
    if store is not None:
        key = cache_key(config)
        if not want_parallel:
            payload = store.get(key)
            if payload is not None:
                try:
                    return RunResult.from_json(payload, cached=True,
                                               cache_key=key)
                except (KeyError, ValueError):
                    pass  # corrupt/old entry: recompute below
    result = _execute(config)
    if store is not None:
        store.put(key, result.to_json())
        result.cache_key = key
    if not want_parallel:
        result.parallel = None
    return result


def _execute(config: RunConfig) -> RunResult:
    """Simulate one run and check it against the sequential program
    (every run is also a correctness check -- including lossy and
    crash/recovery runs, whose results must match the fault-free ones)."""
    from repro.apps import base
    from repro.bench import harness
    exp = harness.EXPERIMENTS[config.experiment]
    analysis = config.analysis
    if analysis is not None and not analysis.enabled:
        analysis = None
    obs = config.obs
    if obs is not None and not obs.enabled:
        obs = None
    par = base.run_parallel(exp.app, config.system, config.nprocs,
                            harness.params_for(exp, config.preset),
                            cost=config.cost, faults=config.faults,
                            analysis=analysis, recovery=config.recovery,
                            obs=obs, replication=config.replication,
                            invariants=config.invariants,
                            kernels=config.kernels)
    seq = harness._seq(config.experiment, config.preset)
    if not base.get_app(exp.app).verify(par.result, seq.result):
        raise AssertionError(
            f"{config.experiment} ({config.system}, {config.nprocs} procs): "
            "parallel result does not match the sequential run")
    recovery = None
    if par.recovery is not None:
        report = par.recovery
        recovery = {
            "recoveries": report.recoveries,
            "failed_nodes": list(report.failed_nodes),
            "detection_latency": report.detection_latency,
            "lost_work": report.lost_work,
            "restore_time": report.restore_time,
            "restored_bytes": report.restored_bytes,
            "overhead_time": report.overhead_time,
        }
    replication = None
    if par.replication is not None:
        rep = par.replication
        replication = {
            "replicas": rep.replicas,
            "f_max": rep.f_max,
            "masked_failures": rep.masked_failures,
            "masked_nodes": list(rep.masked_nodes),
            "detection_latency": rep.detection_latency,
            "quorum_reads": rep.quorum_reads,
            "quorum_writes": rep.quorum_writes,
            "messages": rep.messages,
            "bytes": rep.bytes,
        }
    return RunResult(
        experiment=config.experiment,
        system=config.system,
        nprocs=config.nprocs,
        preset=config.preset,
        time=par.time,
        seq_time=seq.time,
        messages=par.total_messages(),
        kbytes=par.total_kbytes(),
        link_utilization=par.cluster.link_utilization,
        recovery=recovery,
        replication=replication,
        parallel=par,
    )


def seq_time(experiment: str, preset: str = "bench", *,
             use_cache: bool = True,
             cache: Optional[ResultCache] = None) -> float:
    """Sequential virtual time (Table 1), through the persistent cache."""
    store = (cache if cache is not None else default_cache()) \
        if use_cache else None
    key: Optional[str] = None
    if store is not None:
        key = _seq_cache_key(experiment, preset)
        payload = store.get(key)
        if payload is not None and isinstance(payload.get("time"), float):
            return payload["time"]
    from repro.bench import harness
    time = harness._seq(experiment, preset).time
    if store is not None:
        store.put(key, {"time": time})
    return time


def speedup_series(experiment: str, system: str,
                   nprocs_list: Sequence[int],
                   preset: str = "bench", *,
                   use_cache: bool = True,
                   cache: Optional[ResultCache] = None) -> List[float]:
    """Speedups over the sequential run (one of the paper's curves)."""
    return [run(RunConfig(experiment=experiment, system=system, nprocs=n,
                          preset=preset),
                use_cache=use_cache, cache=cache).speedup
            for n in nprocs_list]


def messages_at(experiment: str, system: str, nprocs: int = 8,
                preset: str = "bench", *,
                use_cache: bool = True,
                cache: Optional[ResultCache] = None) -> Tuple[int, float]:
    """(messages, kilobytes) for one system at ``nprocs`` (Table 2)."""
    result = run(RunConfig(experiment=experiment, system=system,
                           nprocs=nprocs, preset=preset),
                 use_cache=use_cache, cache=cache)
    return result.messages, result.kbytes
