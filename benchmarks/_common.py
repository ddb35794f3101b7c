"""Shared plumbing for the benchmark suite.

Every ``bench_fig*.py`` regenerates one of the paper's figures: it sweeps
1..8 simulated processors for both systems, renders the speedup curves,
evaluates the paper's qualitative expectations, prints the report to the
terminal (bypassing capture) and archives it under ``benchmarks/reports/``.
The pytest-benchmark timing measures the host cost of the 8-processor
TreadMarks simulation -- the heaviest unit of the sweep.
"""

from __future__ import annotations

import os

from repro import api
from repro.bench import figures, harness, paper

REPORT_DIR = os.path.join(os.path.dirname(__file__), "reports")

#: Processor counts swept by the figure benchmarks.  Set REPRO_BENCH_FAST=1
#: to sweep only 1, 2, 4, 8 (roughly halves the suite's runtime).
if os.environ.get("REPRO_BENCH_FAST"):
    NPROCS = (1, 2, 4, 8)
else:
    NPROCS = harness.NPROCS_SERIES

PRESET = os.environ.get("REPRO_BENCH_PRESET", "bench")


def emit(capsys, name: str, text: str) -> None:
    """Print a report to the real terminal and archive it."""
    os.makedirs(REPORT_DIR, exist_ok=True)
    with open(os.path.join(REPORT_DIR, f"{name}.txt"), "w") as fh:
        fh.write(text + "\n")
    with capsys.disabled():
        print()
        print(text)


def live_run(exp_id: str, system: str, nprocs: int = 8, **options):
    """One verified, always-simulated run; returns its live
    ``ParallelResult``.  ``options`` are :class:`repro.api.RunConfig`
    fields (``faults``, ``recovery``, ``analysis``, ``obs``, ...)."""
    config = api.RunConfig(experiment=exp_id, system=system, nprocs=nprocs,
                           preset=PRESET, **options)
    return api.run(config, want_parallel=True).parallel


def figure_benchmark(benchmark, capsys, exp_id: str) -> None:
    """The common body of every figure benchmark."""
    exp = harness.EXPERIMENTS[exp_id]
    # Time the heaviest unit as a *live* simulation (want_parallel always
    # simulates, so a warm persistent cache cannot turn this into a disk
    # read); the record it stores serves the series below.
    benchmark.pedantic(lambda: live_run(exp_id, "tmk"),
                       rounds=1, iterations=1)
    tmk = api.speedup_series(exp_id, "tmk", NPROCS, PRESET)
    pvm = api.speedup_series(exp_id, "pvm", NPROCS, PRESET)
    title = f"Figure {exp.figure}: {exp.label} ({PRESET} preset: " \
            f"{harness.size_string(exp, PRESET)})"
    checks = paper.check_experiment(exp_id, PRESET)
    report = "\n".join(
        [figures.render_figure(title, NPROCS, tmk, pvm), ""]
        + [str(c) for c in checks])
    emit(capsys, exp_id, report)
    failed = [c for c in checks if not c.passed]
    assert not failed, f"{exp.label}: " + "; ".join(str(c) for c in failed)
