"""Command-line interface: ``python -m repro <command>``.

Commands::

    list                       the twelve experiment configurations
    run EXP [options]          one simulated run, with stats + breakdown
    sweep EXP.. [options]      the whole run grid, fanned across CPU cores
                               through the persistent result cache
                               (``repro sweep all --jobs 8``)
    serve [options]            HTTP service over the result cache with
                               deadlines, backpressure, coalescing, and
                               graceful degradation (``repro serve``)
    figure EXP [options]       a paper figure (speedup curves)
    table1 / table2 [options]  the paper's tables
    verify [EXP] [options]     protocol verification: explore tie-break
                               schedules of one experiment (deadlocks,
                               invariant violations, result divergence)
                               and/or run the protocol lints (--lint)
    trace APP [options]        a traced TreadMarks run (protocol timeline);
                               ``--perfetto OUT.json`` exports a Chrome/
                               Perfetto trace of the same run
    profile EXP [options]      span-based time attribution: where each
                               processor's time went, and (TreadMarks) how
                               much each of the paper's four mechanisms cost

Everything prints to stdout; all commands accept ``--preset paper`` for
the paper's full problem sizes (slow).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.kernels import DEFAULT_BACKEND, KERNEL_CHOICES

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TreadMarks vs PVM on a simulated network of "
                    "workstations (Lu et al., SC '95 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the experiment configurations")

    def add_fault_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--loss-rate", type=float, default=0.0,
                       help="probability each message/segment is dropped "
                            "(enables the user-level reliability protocol)")
        p.add_argument("--fault-seed", type=int, default=0,
                       help="seed of the deterministic fault schedule")
        p.add_argument("--fault-category", default=None,
                       help="comma-separated message categories to fault "
                            "(default: all)")
        p.add_argument("--crash", action="append", type=crash_spec,
                       default=None, metavar="NODE@TIME",
                       help="permanently crash NODE at virtual TIME "
                            "seconds (repeatable); the run detects the "
                            "failure and recovers per --ft-mode")
        p.add_argument("--checkpoint-interval", type=checkpoint_interval,
                       default=0.0, metavar="SECONDS",
                       help="coordinated checkpoint spacing in virtual "
                            "seconds (0 = disabled; recovery then "
                            "restarts from the beginning)")

    run = sub.add_parser("run", help="run one experiment configuration")
    run.add_argument("experiment", help="experiment id (fig01..fig12)")
    run.add_argument("--system", choices=("tmk", "pvm"), default="tmk")
    run.add_argument("--nprocs", type=int, default=8)
    run.add_argument("--preset", choices=("bench", "paper"), default="bench")
    run.add_argument("--race-check", choices=("off", "report", "strict"),
                     default="off",
                     help="happens-before race detection (tmk only): "
                          "'report' collects findings, 'strict' fails the "
                          "run at the first race")
    run.add_argument("--false-sharing-report", action="store_true",
                     help="print the per-page false-sharing analysis "
                          "(tmk only)")
    run.add_argument("--ft-mode", choices=("rollback", "mask"),
                     default="rollback",
                     help="fault-tolerance strategy for --crash: "
                          "'rollback' (checkpoint + re-execute, the "
                          "default) or 'mask' (SC-ABD quorum replication; "
                          "tmk only -- minority replica crashes are "
                          "absorbed with no rollback at all)")
    run.add_argument("--replicas", type=int, default=3, metavar="N",
                     help="page-replica servers in --ft-mode mask "
                          "(N replicas mask up to (N-1)//2 crashes; "
                          "default 3)")
    run.add_argument("--invariants", action="store_true",
                     help="attach the runtime protocol-invariant monitors "
                          "(repro.verify): a broken coherence rule aborts "
                          "the run with the violated rule and both events")
    run.add_argument("--kernels", choices=KERNEL_CHOICES,
                     default=DEFAULT_BACKEND,
                     help="page-ops kernel backend (repro.kernels): 'pure' "
                          "(reference), 'numpy' (vectorized), or "
                          "'compiled' (C extension; falls back to numpy "
                          "when unbuilt) -- byte-identical results "
                          f"(default: {DEFAULT_BACKEND})")
    add_fault_flags(run)

    verify = sub.add_parser(
        "verify",
        help="verify the protocols: explore tie-break schedules of one "
             "experiment (invariants on, results compared across "
             "schedules), and/or run the protocol-implementation lints")
    verify.add_argument("experiment", nargs="?", default=None,
                        help="experiment id (fig01..fig12); omit to run "
                             "only --lint")
    verify.add_argument("--system", choices=("tmk", "ivy", "pvm", "scabd"),
                        default="tmk",
                        help="runtime to explore ('scabd' = TreadMarks "
                             "programs over SC-ABD quorum replication)")
    verify.add_argument("--nprocs", type=int, default=3)
    verify.add_argument("--preset", choices=("tiny", "bench", "paper"),
                        default="tiny")
    verify.add_argument("--schedules", type=int, default=25,
                        help="schedules to explore (default 25)")
    verify.add_argument("--mode", choices=("random", "dfs"),
                        default="random",
                        help="'random': seeded random walks (replayable "
                             "by seed); 'dfs': systematic bounded-"
                             "preemption enumeration")
    verify.add_argument("--seed", type=int, default=0,
                        help="first random-walk seed (mode=random)")
    verify.add_argument("--max-flips", type=int, default=2,
                        help="preemption bound for mode=dfs (default 2)")
    verify.add_argument("--no-invariants", action="store_true",
                        help="explore schedules without the runtime "
                             "invariant monitors")
    verify.add_argument("--lint", action="store_true",
                        help="also run the protocol-implementation lints "
                             "(PRT001-PRT008)")
    verify.add_argument("--lint-paths", default="src/repro",
                        help="comma-separated paths for --lint "
                             "(default: src/repro)")

    sweep = sub.add_parser(
        "sweep",
        help="run many configurations in parallel worker processes, "
             "reading and populating the persistent result cache")
    sweep.add_argument("experiment", nargs="+",
                       help="experiment ids (fig01..fig12), or 'all'")
    sweep.add_argument("--systems", default="tmk,pvm",
                       help="comma-separated systems (default: tmk,pvm)")
    sweep.add_argument("--nprocs", default="8",
                       help="comma-separated processor counts (default: 8)")
    sweep.add_argument("--preset", choices=("tiny", "bench", "paper"),
                       default="bench")
    sweep.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: the CPU count)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="ignore and do not populate the result cache")
    sweep.add_argument("--cache-dir", default=None,
                       help="result cache directory (default: "
                            "$REPRO_CACHE_DIR or <repo>/.repro_cache)")
    sweep.add_argument("--kernels", choices=KERNEL_CHOICES,
                       default=DEFAULT_BACKEND,
                       help="page-ops kernel backend, as for 'run' "
                            f"(default: {DEFAULT_BACKEND})")
    sweep.add_argument("--json", metavar="OUT.json", default=None,
                       help="also write the full sweep report as JSON")

    serve = sub.add_parser(
        "serve",
        help="serve run/speedup/figure/profile/trace over HTTP through "
             "the result cache, with deadlines, backpressure, and "
             "graceful degradation (see DESIGN.md §5i)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8095,
                       help="listen port (0 = pick an ephemeral port; "
                            "the resolved port is printed)")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker processes for cold runs (default 2)")
    serve.add_argument("--queue-depth", type=int, default=8,
                       help="admitted requests beyond the worker count "
                            "before shedding with 429 (default 8)")
    serve.add_argument("--deadline-ms", type=float, default=30000.0,
                       help="default per-request deadline in ms "
                            "(clients override with ?deadline_ms=)")
    serve.add_argument("--cache-dir", default=None,
                       help="result cache directory (default: "
                            "$REPRO_CACHE_DIR or <repo>/.repro_cache)")
    serve.add_argument("--chaos", action="store_true",
                       help="honor ?inject=crash / ?inject=slow:SECONDS "
                            "fault-injection requests (benchmarks and "
                            "tests only)")

    figure = sub.add_parser("figure", help="render one paper figure")
    figure.add_argument("experiment", help="experiment id (fig01..fig12)")
    figure.add_argument("--nprocs", default="1,2,4,8",
                        help="comma-separated processor counts")
    figure.add_argument("--preset", choices=("bench", "paper"),
                        default="bench")

    for name, help_text in (("table1", "sequential times (Table 1)"),
                            ("table2", "messages and data (Table 2)")):
        table = sub.add_parser(name, help=help_text)
        table.add_argument("--preset", choices=("bench", "paper"),
                           default="bench")

    trace = sub.add_parser("trace",
                           help="run an app under TreadMarks with the "
                                "protocol trace enabled")
    trace.add_argument("app", help="application name (e.g. sor, is, tsp)")
    trace.add_argument("--nprocs", type=int, default=2)
    trace.add_argument("--limit", type=int, default=60,
                       help="max trace lines to print")
    trace.add_argument("--perfetto", metavar="OUT.json", default=None,
                       help="also write the run's span timeline as "
                            "Chrome/Perfetto trace-event JSON (open with "
                            "ui.perfetto.dev or chrome://tracing)")
    add_fault_flags(trace)

    profile = sub.add_parser(
        "profile",
        help="time-attribution profile (compute/wire/protocol/stalls "
             "per processor, plus TreadMarks mechanism costs)")
    profile.add_argument("experiment",
                         help="experiment id (fig01..fig12) or 'all'")
    profile.add_argument("--system", choices=("tmk", "pvm", "both"),
                         default="both")
    profile.add_argument("--nprocs", type=int, default=8)
    profile.add_argument("--preset", choices=("tiny", "bench", "paper"),
                         default="tiny")
    return parser


def crash_spec(text: str):
    """argparse type for ``--crash NODE@TIME``."""
    import argparse as _argparse
    node_s, sep, time_s = text.partition("@")
    try:
        if not sep:
            raise ValueError
        node, time = int(node_s), float(time_s)
    except ValueError:
        raise _argparse.ArgumentTypeError(
            f"malformed crash spec {text!r}: expected NODE@TIME "
            "(e.g. 2@0.5 kills node 2 at t=0.5 virtual seconds)")
    if node < 0:
        raise _argparse.ArgumentTypeError(
            f"crash node must be >= 0, got {node}")
    if time < 0:
        raise _argparse.ArgumentTypeError(
            f"crash time must be >= 0, got {time}")
    return (node, time)


def checkpoint_interval(text: str) -> float:
    """argparse type for ``--checkpoint-interval SECONDS``."""
    import argparse as _argparse
    try:
        value = float(text)
    except ValueError:
        raise _argparse.ArgumentTypeError(
            f"malformed checkpoint interval {text!r}: expected a number "
            "of virtual seconds")
    if value < 0:
        raise _argparse.ArgumentTypeError(
            f"checkpoint interval must be >= 0, got {value}")
    return value


def fault_plan(loss_rate: float, fault_seed: int,
               fault_category: Optional[str], crash=None):
    """Build a :class:`~repro.sim.faults.FaultPlan` from the CLI flags
    (``None`` when no faults were requested)."""
    if not loss_rate and not crash:
        return None
    from repro.sim.faults import FaultPlan
    categories = None
    if fault_category:
        categories = frozenset(c.strip() for c in fault_category.split(",")
                               if c.strip())
    try:
        return FaultPlan(seed=fault_seed, loss=loss_rate,
                         categories=categories, crash_at=tuple(crash or ()))
    except ValueError as exc:  # e.g. two --crash entries for one node
        raise SystemExit(f"bad fault plan: {exc}")


# ----------------------------------------------------------------------
# Command bodies (return the text they print, for testability)
# ----------------------------------------------------------------------
def cmd_list() -> str:
    from repro.bench import harness
    rows = [f"{'id':<8}{'figure':<8}{'label':<14}{'bench size':<40}",
            "-" * 70]
    for exp_id, exp in harness.EXPERIMENTS.items():
        rows.append(f"{exp_id:<8}{exp.figure:<8}{exp.label:<14}"
                    f"{harness.size_string(exp):<40}")
    return "\n".join(rows)


def cmd_run(experiment: str, system: str, nprocs: int, preset: str,
            faults=None, race_check: str = "off",
            false_sharing: bool = False,
            checkpoint_every: float = 0.0,
            ft_mode: str = "rollback", replicas: int = 3,
            invariants: bool = False,
            kernels: str = DEFAULT_BACKEND) -> str:
    from repro import api
    from repro.bench import harness
    from repro.bench.analysis import decompose, render_breakdown
    if experiment not in harness.EXPERIMENTS:
        raise SystemExit(f"unknown experiment {experiment!r}; "
                         f"try: {', '.join(harness.EXPERIMENTS)}")
    analysis = None
    if race_check != "off" or false_sharing:
        if system != "tmk":
            raise SystemExit("--race-check/--false-sharing-report require "
                             "--system tmk")
        from repro.analysis import AnalysisConfig
        analysis = AnalysisConfig(race_check=race_check,
                                  false_sharing=false_sharing)
    from repro.sim.recovery import NodeFailure
    replication = None
    if ft_mode == "mask":
        if system != "tmk":
            raise SystemExit("--ft-mode mask requires --system tmk")
        if checkpoint_every:
            raise SystemExit("--ft-mode mask has no rollback: drop "
                             "--checkpoint-interval (masking and "
                             "checkpointing are alternatives)")
        if analysis is not None:
            raise SystemExit("--race-check/--false-sharing-report cannot "
                             "run under --ft-mode mask")
        from repro.scabd import ReplicationConfig
        try:
            replication = ReplicationConfig(replicas=replicas)
        except ValueError as exc:
            raise SystemExit(f"bad --replicas: {exc}")
    recovery = None
    #: In mask mode the crash targets may be replica servers: pids
    #: nprocs .. nprocs+replicas-1, appended after the application ranks.
    crash_range = nprocs + (replicas if replication is not None else 0)
    for node, _ in (faults.crash_at if faults is not None else ()):
        if node >= crash_range:
            raise SystemExit(
                f"--crash node {node} out of range: the run has "
                f"{crash_range} processors"
                + (f" ({nprocs} application + {replicas} replica)"
                   if replication is not None else ""))
    if replication is None and (
            checkpoint_every or (faults is not None and faults.crash_at)):
        from repro.sim.recovery import RecoveryConfig
        recovery = RecoveryConfig(checkpoint_interval=checkpoint_every)
    exp = harness.EXPERIMENTS[experiment]
    config = api.RunConfig(experiment=experiment, system=system,
                           nprocs=nprocs, preset=preset, faults=faults,
                           analysis=analysis, recovery=recovery,
                           replication=replication, invariants=invariants,
                           kernels=kernels)
    try:
        # want_parallel: the report below needs the live run (stats
        # buckets, sanitizer, mechanism breakdown), not just the summary.
        result = api.run(config, want_parallel=True)
    except NodeFailure as failure:
        if replication is not None:
            raise SystemExit(
                f"unmaskable failure: {failure}\n"
                f"(hint: {replicas} replicas mask up to "
                f"{(replicas - 1) // 2} *replica* crashes; an application-"
                "rank crash or one dead replica too many aborts the run "
                "-- use --ft-mode rollback with --checkpoint-interval to "
                "survive those)")
        raise SystemExit(f"unrecoverable failure: {failure}\n"
                         "(hint: --checkpoint-interval bounds the work "
                         "lost per crash; multiple crashes within one "
                         "checkpoint interval cannot be recovered)")
    run = result.parallel
    rows = [
        f"{exp.label} / {system} / {nprocs} processors ({preset} preset)",
        "",
        f"sequential time   {result.seq_time:10.2f} virtual s",
        f"parallel time     {result.time:10.2f} virtual s",
        f"speedup           {result.speedup:10.2f}",
        f"messages          {result.messages:10d}",
        f"data              {result.kbytes:10.0f} KB",
        f"link utilization  {result.link_utilization:10.2f}",
        "",
        run.stats.summary(system),
    ]
    if faults is not None:
        rel = run.stats.reliability(system)
        rows += ["", f"fault plan: loss={faults.loss} seed={faults.seed}"]
        for category in ("drop", "retransmit", "dup_suppress", "ack"):
            counter = rel.get(category)
            if counter is not None:
                rows.append(f"  {category:<16} {counter.messages:>10d} msgs "
                            f"{counter.bytes / 1024.0:>12.1f} KB")
    if run.recovery is not None:
        report = run.recovery
        rows += ["", "crash recovery:",
                 f"  failures recovered  {report.recoveries}"
                 + (f" (nodes {report.failed_nodes})"
                    if report.failed_nodes else ""),
                 f"  detection latency   {report.detection_latency * 1e3:10.2f} ms",
                 f"  lost work re-run    {report.lost_work:10.4f} virtual s",
                 f"  checkpoint restore  {report.restore_time * 1e3:10.2f} ms "
                 f"({report.restored_bytes / 1024.0:.1f} KB)",
                 f"  total overhead      {report.overhead_time:10.4f} virtual s"]
        for category, counter in run.stats.recovery().items():
            rows.append(f"  {category:<18} {counter.messages:>8d} msgs "
                        f"{counter.bytes / 1024.0:>10.1f} KB")
    if run.replication is not None:
        rep = run.replication
        rows += ["", "failure masking (SC-ABD quorum replication):",
                 f"  replica servers     {rep.replicas} "
                 f"(masks up to {rep.f_max} replica crashes)",
                 f"  masked failures     {rep.masked_failures}"
                 + (f" (nodes {rep.masked_nodes})"
                    if rep.masked_nodes else ""),
                 f"  detection latency   {rep.detection_latency * 1e3:10.2f} ms",
                 f"  quorum reads        {rep.quorum_reads:10d}",
                 f"  quorum writes       {rep.quorum_writes:10d}",
                 f"  quorum traffic      {rep.messages:10d} msgs "
                 f"{rep.bytes / 1024.0:10.1f} KB"]
        for category, counter in run.stats.replication().items():
            rows.append(f"  {category:<18} {counter.messages:>8d} msgs "
                        f"{counter.bytes / 1024.0:>10.1f} KB")
    if system == "tmk" and run.replication is None:
        # The mechanism breakdown decomposes LRC diff/twin costs, which
        # the quorum-replicated (SC) protocol does not have.
        rows += ["", render_breakdown(exp.label, decompose(run))]
    if run.sanitizer is not None:
        rows += ["", run.sanitizer.summary()]
        if race_check != "off":
            rows += ["", run.sanitizer.race_report()]
        if false_sharing:
            rows += ["", run.sanitizer.false_sharing_report()]
    return "\n".join(rows)


def cmd_verify(experiment: Optional[str], system: str = "tmk",
               nprocs: int = 3, preset: str = "tiny",
               schedules: int = 25, mode: str = "random", seed: int = 0,
               max_flips: int = 2, invariants: bool = True,
               lint: bool = False, lint_paths: str = "src/repro") -> str:
    """Explore tie-break schedules and/or run the protocol lints.

    Raises ``SystemExit`` (nonzero) when any explored schedule deadlocks,
    breaks a protocol invariant, or diverges from the reference result,
    or when the lints produce findings.
    """
    from repro.bench import harness
    sections: List[str] = []
    failed = False
    if experiment is None and not lint:
        raise SystemExit("nothing to do: give an experiment id and/or "
                         "--lint")
    if experiment is not None:
        if experiment not in harness.EXPERIMENTS:
            raise SystemExit(f"unknown experiment {experiment!r}; "
                             f"try: {', '.join(harness.EXPERIMENTS)}")
        from repro.verify import explore_app
        exp = harness.EXPERIMENTS[experiment]
        try:
            params = harness.params_for(exp, preset)
        except ValueError as exc:
            raise SystemExit(str(exc))
        report = explore_app(exp.app, system, nprocs, params, mode=mode,
                             schedules=schedules, seed=seed,
                             max_flips=max_flips, invariants=invariants)
        sections.append(report.summary())
        failed = failed or not report.ok
    if lint:
        from pathlib import Path
        from repro.analysis.protolint import lint_paths as lint_run
        paths = [Path(p.strip()) for p in lint_paths.split(",") if p.strip()]
        for path in paths:
            if not path.exists():
                raise SystemExit(f"--lint-paths: no such path: {path}")
        findings = lint_run(paths)
        if findings:
            sections.append("\n".join(f.format() for f in findings))
            sections.append(f"protocol lint: {len(findings)} finding(s)")
            failed = True
        else:
            linted = ", ".join(str(p) for p in paths)
            sections.append(f"protocol lint: clean ({linted})")
    text = "\n\n".join(sections)
    if failed:
        raise SystemExit(text)
    return text


def cmd_sweep(experiments: List[str], systems: str, nprocs: str,
              preset: str, jobs: Optional[int], no_cache: bool,
              cache_dir: Optional[str],
              json_out: Optional[str] = None,
              kernels: str = DEFAULT_BACKEND) -> str:
    from repro.bench import sweep as sweep_mod
    system_list = tuple(s.strip() for s in systems.split(",") if s.strip())
    counts = tuple(int(v) for v in nprocs.split(","))
    try:
        configs = sweep_mod.sweep_configs(experiments, systems=system_list,
                                          nprocs=counts, preset=preset,
                                          kernels=kernels)
    except ValueError as exc:
        raise SystemExit(str(exc))
    if jobs is None:
        jobs = sweep_mod.default_jobs()
    report = sweep_mod.run_sweep(configs, jobs=jobs,
                                 use_cache=not no_cache,
                                 cache_dir=cache_dir)
    text = report.render()
    if json_out is not None:
        import json as json_mod
        with open(json_out, "w", encoding="utf-8") as fh:
            json_mod.dump(report.to_json(), fh, indent=2, sort_keys=True)
        text += f"\n\nsweep report -> {json_out}"
    return text


def cmd_serve(host: str, port: int, workers: int, queue_depth: int,
              deadline_ms: float, cache_dir: Optional[str],
              chaos: bool) -> int:
    """Run the serving layer until interrupted (prints the bound URL)."""
    import asyncio

    from repro.serve import ReproServer, ServeConfig
    try:
        config = ServeConfig(host=host, port=port, workers=workers,
                             queue_depth=queue_depth,
                             default_deadline=deadline_ms / 1000.0,
                             allow_injection=chaos)
    except ValueError as exc:
        raise SystemExit(f"bad serve configuration: {exc}")

    async def _main() -> None:
        server = ReproServer(config, cache_dir=cache_dir)
        await server.start()
        print(f"serving on http://{config.host}:{server.port} "
              f"(workers={workers}, queue={queue_depth}, "
              f"cache={server.cache_dir}"
              + (", chaos injection ENABLED" if chaos else "") + ")",
              flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def cmd_figure(experiment: str, nprocs: str, preset: str) -> str:
    from repro import api
    from repro.bench import harness
    from repro.bench.figures import render_figure
    if experiment not in harness.EXPERIMENTS:
        raise SystemExit(f"unknown experiment {experiment!r}")
    exp = harness.EXPERIMENTS[experiment]
    counts = tuple(int(v) for v in nprocs.split(","))
    tmk = api.speedup_series(experiment, "tmk", counts, preset)
    pvm = api.speedup_series(experiment, "pvm", counts, preset)
    return render_figure(
        f"Figure {exp.figure}: {exp.label} "
        f"({harness.size_string(exp, preset)})", counts, tmk, pvm)


def cmd_table(which: str, preset: str) -> str:
    from repro.bench import tables
    if which == "table1":
        return tables.render_table1(preset=preset)
    return tables.render_table2(preset=preset)


def cmd_trace(app: str, nprocs: int, limit: int, faults=None,
              perfetto: Optional[str] = None) -> str:
    from repro.apps import base
    from repro.sim.trace import Trace

    spec = base.get_app(app)
    params_module = sys.modules[spec.sequential.__module__]
    params_cls = next(v for k, v in vars(params_module).items()
                      if k.endswith("Params"))
    params = params_cls.tiny()
    trace = Trace(enabled=True)
    obs = None
    if perfetto is not None:
        from repro.obs import ObsConfig
        obs = ObsConfig(timeline=True)
    run = base.run_parallel(spec, "tmk", nprocs, params, trace=trace,
                            faults=faults, obs=obs)
    header = f"TreadMarks protocol trace: {app} (tiny preset, " \
             f"{nprocs} processors, first {limit} events)"
    text = header + "\n\n" + trace.format(limit=limit)
    if perfetto is not None:
        from repro.obs import write_chrome_trace
        write_chrome_trace(run.timeline, perfetto,
                           label=f"{app} tmk x{nprocs}")
        text += (f"\n\nPerfetto trace "
                 f"({len(run.timeline.events)} events) -> {perfetto}")
    return text


def cmd_profile(experiment: str, system: str, nprocs: int,
                preset: str) -> str:
    from repro import api
    from repro.bench import harness
    from repro.obs import ObsConfig, build_profile, render_profile
    if experiment == "all":
        exp_ids = list(harness.EXPERIMENTS)
    elif experiment in harness.EXPERIMENTS:
        exp_ids = [experiment]
    else:
        raise SystemExit(f"unknown experiment {experiment!r}; "
                         f"try: all, {', '.join(harness.EXPERIMENTS)}")
    systems = ("tmk", "pvm") if system == "both" else (system,)
    obs = ObsConfig(profile=True)
    sections = []
    for exp_id in exp_ids:
        exp = harness.EXPERIMENTS[exp_id]
        for sysname in systems:
            analysis = None
            if sysname == "tmk":
                # The false-sharing tracker feeds the mechanism breakdown.
                from repro.analysis import AnalysisConfig
                analysis = AnalysisConfig(false_sharing=True)
            config = api.RunConfig(experiment=exp_id, system=sysname,
                                   nprocs=nprocs, preset=preset,
                                   analysis=analysis, obs=obs)
            run = api.run(config, want_parallel=True).parallel
            profile = build_profile(
                run, label=f"{exp.label} ({preset}, {nprocs} procs)")
            sections.append(render_profile(profile))
    return "\n\n".join(sections)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        print(cmd_list())
    elif args.command == "run":
        plan = fault_plan(args.loss_rate, args.fault_seed, args.fault_category,
                          crash=args.crash)
        print(cmd_run(args.experiment, args.system, args.nprocs, args.preset,
                      faults=plan, race_check=args.race_check,
                      false_sharing=args.false_sharing_report,
                      checkpoint_every=args.checkpoint_interval,
                      ft_mode=args.ft_mode, replicas=args.replicas,
                      invariants=args.invariants, kernels=args.kernels))
    elif args.command == "verify":
        print(cmd_verify(args.experiment, system=args.system,
                         nprocs=args.nprocs, preset=args.preset,
                         schedules=args.schedules, mode=args.mode,
                         seed=args.seed, max_flips=args.max_flips,
                         invariants=not args.no_invariants,
                         lint=args.lint, lint_paths=args.lint_paths))
    elif args.command == "sweep":
        print(cmd_sweep(args.experiment, args.systems, args.nprocs,
                        args.preset, args.jobs, args.no_cache,
                        args.cache_dir, json_out=args.json,
                        kernels=args.kernels))
    elif args.command == "serve":
        return cmd_serve(args.host, args.port, args.workers,
                         args.queue_depth, args.deadline_ms,
                         args.cache_dir, args.chaos)
    elif args.command == "figure":
        print(cmd_figure(args.experiment, args.nprocs, args.preset))
    elif args.command in ("table1", "table2"):
        print(cmd_table(args.command, args.preset))
    elif args.command == "trace":
        plan = fault_plan(args.loss_rate, args.fault_seed, args.fault_category,
                          crash=args.crash)
        print(cmd_trace(args.app, args.nprocs, args.limit, faults=plan,
                        perfetto=args.perfetto))
    elif args.command == "profile":
        print(cmd_profile(args.experiment, args.system, args.nprocs,
                          args.preset))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
