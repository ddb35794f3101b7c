"""The repository benchmark: one workload, one seed, every metric.

Run from the repository root::

    python3 perfbench/run.py --workload tmk_grid --seed 1 --seconds 25 --trace 0

Workloads (see ``README.md`` for why each was chosen): ``tmk_grid``,
``pvm_grid``, ``observed_tmk`` and ``serve_mix``.  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics from a traced run, next
to an untraced run of the same inputs that gives ``trace.overhead_frac``.
The lines before it are a readable table (value, unit, sample count) and
an environment stamp.

Batch workloads simulate in child processes, one fresh process per pass
(``--pass``, internal), so no in-process memo of the program ever serves a
timed run.  Passes repeat while a further pass still fits in ``--seconds``,
each in the next run order the seed gives (see ``workloads``); set-up is
measured in at least five fresh processes.  Every reported time is scaled
to a reference host speed by ``hostspeed`` (see README.md); with
``--trace 0`` the table and an ``unscaled`` JSON line before the result
also give each end-to-end metric before scaling.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import queue
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from hostspeed import speed_between
from tracer import scale_snapshot

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("tmk_grid", "pvm_grid", "observed_tmk", "serve_mix")
#: Fresh processes whose set-up time feeds ``setup_s`` (batch workloads).
BATCH_SETUPS = 5
#: Servers started per ``serve_mix`` run; the last one is driven.
SERVE_SETUPS = 3
#: Slowest cold misses averaged into ``serve_mix``'s ``heaviest_run_s``.
SERVE_TAIL = 10
#: Longest a child process may take before its pass counts as failed.
CHILD_TIMEOUT = 170.0


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


# ----------------------------------------------------------------------
# Child side: one batch pass in a fresh process
# ----------------------------------------------------------------------
def child_main(workload: str, seed: int, index: int, trace: bool,
               setup_only: bool) -> int:
    from hostspeed import SpeedMeter, cpus, pin

    pin(cpus()[0])
    meter = SpeedMeter().start()
    import workloads
    from tracer import Tracer, install, install_probe

    tracer = Tracer()
    resolved = install_probe(tracer)
    if trace:
        install(tracer)
    configs = workloads.batch_configs(workload, seed, index)
    reference = workloads.load_reference()
    print(f"READY {len(configs)}", flush=True)
    out: Dict[str, Any] = {}
    if not setup_only:
        tracer.reset()
        out = workloads.run_batch_pass(workload, configs, reference)
        out["maxrss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["resolved"] = resolved
        out["trace"] = tracer.snapshot() if trace else None
    out["speed_samples"] = meter.stop()
    print(json.dumps(out), flush=True)
    return 0


def _normalize_pass(run: Dict[str, Any], ready_at: Optional[float]) -> None:
    """Turn the child's raw timestamps into reference-speed seconds."""
    out = run["result"]
    samples = out["speed_samples"]
    if ready_at is not None:
        run["raw_setup_s"] = run["setup_s"]
        run["setup_s"] *= speed_between(samples, run["started"], ready_at)
    if "runs" not in out:
        return
    for r in out["runs"]:
        r["raw_s"] = r["t1"] - r["t0"]
        r["wall_s"] = r["raw_s"] * speed_between(samples, r["t0"], r["t1"])
    speed = speed_between(samples, out["t0"], out["t1"])
    out["raw_s"] = out["t1"] - out["t0"]
    out["wall_s"] = out["raw_s"] * speed
    if out["trace"] is not None:
        out["trace"] = scale_snapshot(out["trace"], speed)


def spawn_pass(workload: str, seed: int, trace: bool, env: Dict[str, str],
               setup_only: bool = False, index: int = 0) -> Dict[str, Any]:
    """Run pass ``index`` in a child; returns its set-up time, duration
    and output."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--pass", workload,
         "--pass-index", str(index), "--seed", str(seed),
         "--trace", "1" if trace else "0"]
        + (["--setup-only"] if setup_only else []),
        stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    lines: "queue.Queue[Optional[str]]" = queue.Queue()

    def pump() -> None:
        for line in proc.stdout:
            lines.put(line)
        lines.put(None)
    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    deadline = started + CHILD_TIMEOUT
    setup_s: Optional[float] = None
    nruns = 0
    last = ""
    while True:
        try:
            line = lines.get(timeout=max(deadline - time.perf_counter(), 0))
        except queue.Empty:
            proc.kill()
            break
        if line is None:
            break
        if setup_s is None and line.startswith("READY"):
            setup_s = time.perf_counter() - started
            nruns = int(line.split()[1])
        elif line.strip():
            last = line
    proc.wait()
    reader.join(timeout=5)
    result = None
    if proc.returncode == 0:
        try:
            result = json.loads(last)
        except ValueError:
            result = None
    run = {"setup_s": setup_s, "nruns": nruns, "result": result,
           "started": started, "duration_s": time.perf_counter() - started,
           "ok": setup_s is not None and result is not None}
    if run["ok"]:
        _normalize_pass(run, started + setup_s)
    if setup_only or not run["ok"] or "runs" not in result:
        run["result"] = None
    return run


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class Times:
    """The time samples of one benchmark run, in one kind of seconds."""

    def __init__(self) -> None:
        self.setups: List[float] = []
        self.walls: List[float] = []
        self.heaviest: List[float] = []
        self.latencies: List[float] = []


class Outcome:
    """What one benchmark run measured, before it becomes metrics."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        #: Times in reference-speed seconds, and the same times unscaled.
        self.scaled = Times()
        self.raw = Times()
        self.rss: List[float] = []
        self.requests = 0
        self.resolved: Dict[str, List[str]] = {"engine": [], "kernels": []}
        self.per_layer: Dict[str, float] = {}
        self.problems: List[str] = []

    def note_resolved(self, resolved: Optional[Dict[str, List[str]]]) -> None:
        for kind, values in (resolved or {}).items():
            for value in values:
                if value not in self.resolved.setdefault(kind, []):
                    self.resolved[kind].append(value)


def _count_pass(outcome: Outcome, run: Dict[str, Any]) -> Optional[dict]:
    """Fold one child pass into the outcome; returns its output if any."""
    result = run["result"]
    if result is None:
        outcome.attempted += max(run["nruns"], 1)
        outcome.failed += max(run["nruns"], 1)
        outcome.problems.append("a pass process failed")
        return None
    outcome.attempted += len(result["runs"])
    for r in result["runs"]:
        if r["error"]:
            outcome.failed += 1
            outcome.problems.append(f"{r['id']}: {r['error'].strip()}")
    outcome.note_resolved(result["resolved"])
    return result


def _fold_walls(outcome: Outcome, result: Dict[str, Any]) -> None:
    for times, key in ((outcome.scaled, "wall_s"), (outcome.raw, "raw_s")):
        runs = [r[key] for r in result["runs"]]
        times.walls.append(result[key])
        times.heaviest.append(max(runs))
        times.latencies.extend(runs)
    outcome.requests += len(result["runs"])
    outcome.rss.append(result["maxrss_mb"])


def run_batch(workload: str, seed: int, seconds: float, trace: bool,
              env: Dict[str, str]) -> Outcome:
    outcome = Outcome()
    if trace:
        plain = spawn_pass(workload, seed, False, env)
        traced = spawn_pass(workload, seed, True, env)
        plain_out = _count_pass(outcome, plain)
        traced_out = _count_pass(outcome, traced)
        if plain_out is not None and traced_out is not None:
            outcome.per_layer = layer_metrics(
                traced_out["trace"],
                traced_out["wall_s"] / plain_out["wall_s"] - 1.0)
        return outcome
    started = time.perf_counter()
    for index in itertools.count():
        run = spawn_pass(workload, seed, False, env, index=index)
        if run["ok"]:
            outcome.scaled.setups.append(run["setup_s"])
            outcome.raw.setups.append(run["raw_setup_s"])
        result = _count_pass(outcome, run)
        if result is not None:
            _fold_walls(outcome, result)
        # Start another pass only if it would still end within budget.
        spent = time.perf_counter() - started
        if result is None or spent + run["duration_s"] > seconds:
            break
    while len(outcome.scaled.setups) < BATCH_SETUPS:
        probe = spawn_pass(workload, seed, False, env, setup_only=True)
        if not probe["ok"]:
            outcome.problems.append("a set-up process failed")
            break
        outcome.scaled.setups.append(probe["setup_s"])
        outcome.raw.setups.append(probe["raw_setup_s"])
    return outcome


def run_serve(seed: int, trace: bool, tmp: str) -> Outcome:
    import serve_load
    import workloads
    from hostspeed import cpus, pin

    reference = workloads.load_reference()
    outcome = Outcome()
    session_cpus = cpus()
    pin(session_cpus[-1])  # the client shares the server's CPU

    def count(records: List[Dict[str, Any]]) -> None:
        outcome.attempted += len(records)
        for r in records:
            if not r["ok"]:
                outcome.failed += 1
                outcome.problems.append(
                    f"{r['kind']} request answered {r['status']}")

    def fold(session: Dict[str, Any]) -> None:
        count(session["records"])
        count(session.get("schedule", []))
        for dump in session["dumps"]:
            outcome.note_resolved(dump["resolved"])

    if trace:
        plain = serve_load.run_session(tmp, 0, seed, reference, False, True,
                                       session_cpus)
        traced = serve_load.run_session(tmp, 1, seed, reference, True, True,
                                        session_cpus)
        fold(plain)
        fold(traced)
        merged = merge_snapshots([d["trace"] for d in traced["dumps"]
                                  if d["trace"] is not None])
        outcome.per_layer = layer_metrics(
            merged, traced["wall_s"] / plain["wall_s"] - 1.0,
            serve=plain)
        return outcome
    for index in range(SERVE_SETUPS):
        driven = index == SERVE_SETUPS - 1
        session = serve_load.run_session(tmp, index, seed, reference,
                                         False, driven, session_cpus)
        outcome.scaled.setups.append(session["setup_s"])
        outcome.raw.setups.append(session["raw_setup_s"])
        fold(session)
    records = session["schedule"]
    for times, key, wall in ((outcome.scaled, "latency_s", "wall_s"),
                             (outcome.raw, "raw_latency_s", "raw_wall_s")):
        times.walls.append(session[wall])
        # A served "run" is a cold miss.  Its slow end is the mean of the
        # ten slowest of the 64: a single order statistic of them swings
        # with whether two cold misses happened to queue for the worker.
        cold = sorted(r[key] for r in records if r["kind"] == "cold")
        times.heaviest.append(statistics.mean(cold[-SERVE_TAIL:]))
        times.latencies.extend(r[key] for r in records)
    outcome.requests += len(records)
    outcome.rss.extend(d["maxrss_mb"] for d in session["dumps"]
                       if d["role"] == "worker")
    return outcome


def merge_snapshots(snapshots: List[Dict[str, Any]]) -> Dict[str, Any]:
    merged: Dict[str, Dict[str, float]] = {"self_s": {}, "inclusive": {},
                                           "counts": {}}
    for snap in snapshots:
        for part, values in snap.items():
            for key, value in values.items():
                merged[part][key] = merged[part].get(key, 0) + value
    return merged


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
_SELF_LAYERS = ("engine", "cluster", "network", "tmk", "kernels", "pvm",
                "apps", "obs", "analysis", "verify", "other")
_COUNTS = ("engine.events_posted", "engine.wakeups", "cluster.deliveries",
           "cluster.compute_charges", "network.sends", "tmk.faults",
           "tmk.intervals_closed", "tmk.diffs_made", "tmk.lock_acquires",
           "tmk.barriers", "kernels.bytes_in", "pvm.sends", "pvm.recvs",
           "analysis.accesses_checked")
_INCLUSIVE = ("harness.seq_s", "harness.verify_s", "cache.get_s",
              "cache.put_s", "tmk.handler_s.consistency",
              "tmk.handler_s.locks", "tmk.handler_s.barrier")
_SERVE_CLASSES = (("fresh_hit", "fresh_hit"), ("fresh_miss", "fresh_miss"),
                  ("not_modified", "not_modified"))
_SERVE_COUNTERS = (("serve.coalesced", "coalesced"), ("serve.shed", "shed"),
                   ("serve.worker_crashes", "worker_crashes"))


def layer_metrics(snap: Dict[str, Any], overhead: float,
                  serve: Optional[Dict[str, Any]] = None) -> Dict[str, float]:
    """Per-layer metrics from a tracer snapshot (plus serve observations)."""
    self_s, counts, incl = snap["self_s"], snap["counts"], snap["inclusive"]

    def own(layer: str) -> float:
        return sum((v for k, v in self_s.items()
                    if k == layer or k.startswith(layer + ".")), 0.0)

    out = {f"{layer}.self_s": own(layer) for layer in _SELF_LAYERS}
    out.update({key: float(counts.get(key, 0)) for key in _COUNTS})
    out.update({key: incl.get(key, 0.0) for key in _INCLUSIVE})
    out["network.kbytes"] = counts.get("network.bytes", 0) / 1024.0
    out["pvm.pack_kbytes"] = counts.get("pvm.pack_bytes", 0) / 1024.0
    out["tmk.diff_requests"] = float(
        counts.get("tmk.handled._on_diff_request", 0))
    made = counts.get("tmk.diffs_made", 0)
    out["tmk.diffs_empty_frac"] = (counts.get("tmk.diffs_empty", 0) / made
                                   if made else 0.0)
    from tracer import KERNEL_FUNCS
    for fn in KERNEL_FUNCS:
        out[f"kernels.{fn}.calls"] = float(counts.get(f"kernels.{fn}.calls",
                                                      0))
        out[f"kernels.{fn}.self_s"] = self_s.get(f"kernels.{fn}", 0.0)
    gets = counts.get("cache.gets", 0)
    out["cache.hit_frac"] = counts.get("cache.hits", 0) / gets if gets else 0.0
    records = serve.get("schedule", []) if serve else []
    for name, cls in _SERVE_CLASSES:
        lat = [r["latency_s"] for r in records if r["class"] == cls]
        out[f"serve.{name}.p50_ms"] = (statistics.median(lat) * 1000.0
                                       if lat else 0.0)
    server_metrics = serve.get("server_metrics", {}) if serve else {}
    for name, key in _SERVE_COUNTERS:
        out[name] = float(server_metrics.get(key, 0))
    out["trace.overhead_frac"] = overhead
    return out


def end_to_end(outcome: Outcome, times: Times) -> Dict[str, tuple]:
    """name -> (value, samples) for every end-to-end metric.

    On the batch workloads a "request" is a run: ``requests_per_s`` is
    runs over pass time, and ``latency_p95_ms`` of 10 to 48 run times is
    the slowest run, so both repeat ``wall_s`` and ``heaviest_run_s``
    there (see README.md).
    """
    if not times.walls:
        return {}
    return {
        "setup_s": (statistics.median(times.setups), len(times.setups)),
        "wall_s": (statistics.median(times.walls), len(times.walls)),
        "heaviest_run_s": (statistics.median(times.heaviest),
                           len(times.heaviest)),
        "peak_rss_mb": (max(outcome.rss), len(outcome.rss)),
        "requests_per_s": (outcome.requests / sum(times.walls),
                           outcome.requests),
        "latency_p50_ms": (statistics.median(times.latencies) * 1000.0,
                           len(times.latencies)),
        "latency_p95_ms": (percentile(times.latencies, 95) * 1000.0,
                           len(times.latencies)),
    }


# ----------------------------------------------------------------------
# Environment stamp
# ----------------------------------------------------------------------
def _git_commit() -> Optional[str]:
    """HEAD of the checkout; None when it is no git work tree itself (git
    is kept from finding a repository in a directory above it)."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "repro")
    for dirpath, dirnames, filenames in sorted(os.walk(package)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, package).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def stamp(outcome: Outcome) -> Dict[str, Any]:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "engine": outcome.resolved.get("engine", []),
        "kernels": outcome.resolved.get("kernels", []),
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def _declared(section: str) -> List[Dict[str, Any]]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)[section]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass", dest="pass_workload",
                        help=argparse.SUPPRESS)
    parser.add_argument("--pass-index", type=int, default=0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    if args.pass_workload:
        return child_main(args.pass_workload, args.seed, args.pass_index,
                          bool(args.trace), args.setup_only)
    if args.workload is None:
        parser.error("--workload is required")

    tmp = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmp)
    env = dict(os.environ, REPRO_CACHE_DIR=os.path.join(tmp, "cache"))
    os.environ["REPRO_CACHE_DIR"] = env["REPRO_CACHE_DIR"]
    try:
        if args.workload == "serve_mix":
            outcome = run_serve(args.seed, bool(args.trace), tmp)
        else:
            outcome = run_batch(args.workload, args.seed, args.seconds,
                                bool(args.trace), env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass

    unscaled: Dict[str, Any] = {}
    if args.trace:
        declared = _declared("per_layer")
        samples = {m["name"]: 1 for m in declared}
        values = {m["name"]: outcome.per_layer.get(m["name"]) for m in declared}
    else:
        declared = _declared("end_to_end")
        measured = end_to_end(outcome, outcome.scaled)
        raw = end_to_end(outcome, outcome.raw)
        samples = {name: n for name, (_, n) in measured.items()}
        values = {m["name"]: measured.get(m["name"], (None,))[0]
                  for m in declared}
        unscaled = {m["name"]: raw.get(m["name"], (None,))[0]
                    for m in declared}
    for problem in outcome.problems[:20]:
        print(f"problem: {problem}")
    if any(v is None for v in values.values()):
        print("perfbench: the workload produced no measurement",
              file=sys.stderr)
        return 1
    print(f"{'metric':<32} {'value':>14} {'unscaled' if unscaled else '':>14} "
          f"unit   samples")
    for m in declared:
        raw_text = (f"{unscaled[m['name']]:>14.6g}" if unscaled
                    else " " * 14)
        print(f"{m['name']:<32} {values[m['name']]:>14.6g} {raw_text} "
              f"{m['unit']:<6} n={samples.get(m['name'], 0)}")
    if unscaled:
        print("unscaled " + json.dumps(unscaled, sort_keys=True))
    print("stamp " + json.dumps(stamp(outcome), sort_keys=True))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
