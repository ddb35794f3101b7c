#!/usr/bin/env python
"""Measure the sweep runner and the diff kernels; emit BENCH_sweep.json.

Three measurements:

* **sweep**: the 24-run tiny-preset grid, cold-serial vs cold-parallel
  (fresh cache directories for each) and then warm (re-sweep over the
  parallel run's cache) -- wall-clock seconds, cache hit rates, and a
  byte-identity check between all three.
* **diff kernel**: host-side microbenchmark of ``make_diff`` /
  ``make_diffs`` / ``Diff.apply`` over realistic page batches (the
  simulator's hottest host-side code after the vectorization pass).
* **environment**: CPU count and preset, so numbers from a 1-core CI
  runner are not mistaken for a parallel-speedup claim.

The sweep measurement asks for the compiled kernels (built here first;
silently falls back to numpy when the toolchain cannot build it), so the
committed numbers track the fastest stack a fresh checkout can reach.

Run:   python tools/bench_sweep.py [--out BENCH_sweep.json]
Gate:  python tools/bench_sweep.py --out /tmp/fresh.json \\
           --check-baseline BENCH_sweep.json   # fail on >20% regression
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

#: Wall-clock regression tolerance for --check-baseline.
TOLERANCE = 0.20
SLACK_SECONDS = 0.25


def build_compiled_kernels():
    """Best-effort build of the C extension the sweep measurement uses."""
    script = os.path.join(os.path.dirname(__file__), "build_kernels.py")
    proc = subprocess.run([sys.executable, script], capture_output=True,
                          text=True)
    if proc.returncode != 0:
        print("note: compiled kernels unavailable, using numpy "
              f"({proc.stdout.strip() or proc.stderr.strip()})")


def bench_sweep(jobs):
    from repro.bench import harness
    from repro.bench.sweep import run_sweep, sweep_configs
    configs = sweep_configs(nprocs=(4,), preset="tiny", kernels="compiled")
    with tempfile.TemporaryDirectory() as serial_dir, \
            tempfile.TemporaryDirectory() as par_dir:
        serial = run_sweep(configs, jobs=1, cache_dir=serial_dir)
        # Drop the sequential-reference memo so the "parallel" measurement
        # is a genuinely cold start even when jobs=1 degenerates to
        # in-process execution (e.g. a 1-core CI runner).
        harness.clear_cache()
        parallel = run_sweep(configs, jobs=jobs, cache_dir=par_dir)
        harness.clear_cache()
        warm = run_sweep(configs, jobs=jobs, cache_dir=par_dir)
        serial_bytes = [r.result.to_json_bytes() for r in serial.runs]
        identical = (
            serial_bytes == [r.result.to_json_bytes() for r in parallel.runs]
            and serial_bytes == [r.result.to_json_bytes() for r in warm.runs])
    return {
        "runs": len(configs),
        "preset": "tiny",
        "nprocs": 4,
        "jobs": jobs,
        "serial_wall_seconds": round(serial.wall_seconds, 3),
        "parallel_wall_seconds": round(parallel.wall_seconds, 3),
        "parallel_speedup": round(
            serial.wall_seconds / parallel.wall_seconds, 2),
        "warm_wall_seconds": round(warm.wall_seconds, 3),
        "warm_hit_rate": warm.hit_rate,
        "byte_identical": identical,
    }


def bench_diff_kernel(pages=64, page_size=4096, rounds=50):
    import numpy as np
    from repro.tmk.diffs import make_diff, make_diffs

    rng = np.random.default_rng(1995)
    twins = [rng.integers(0, 256, page_size, dtype=np.uint8)
             for _ in range(pages)]
    currents = []
    for twin in twins:
        cur = twin.copy()
        for _ in range(8):  # a few dirty runs per page
            word = int(rng.integers(0, page_size // 4))
            cur[word * 4:(word + 1) * 4] ^= 0xFF
        currents.append(cur)
    ids = list(range(pages))

    started = time.perf_counter()
    for _ in range(rounds):
        for p, c, t in zip(ids, currents, twins):
            make_diff(p, c, t)
    per_page = time.perf_counter() - started

    started = time.perf_counter()
    for _ in range(rounds):
        diffs = make_diffs(ids, currents, twins)
    batched = time.perf_counter() - started

    scratch = twins[0].copy()
    started = time.perf_counter()
    for _ in range(rounds * pages):
        diffs[0].apply(scratch)
    apply_time = time.perf_counter() - started

    total = rounds * pages
    return {
        "pages": pages,
        "page_size": page_size,
        "diffs_measured": total,
        "make_diff_us": round(per_page / total * 1e6, 2),
        "make_diffs_us": round(batched / total * 1e6, 2),
        "batch_speedup": round(per_page / batched, 2),
        "apply_us": round(apply_time / total * 1e6, 2),
    }


def check_baseline(report, baseline_path):
    """Gate the cold-serial sweep wall-clock and the batch speedup
    against a committed report (20% + fixed slack)."""
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    ok = True
    fresh = report["sweep"]["serial_wall_seconds"]
    committed = baseline["sweep"]["serial_wall_seconds"]
    limit = committed * (1.0 + TOLERANCE) + SLACK_SECONDS
    status = "OK" if fresh <= limit else "REGRESSION"
    print(f"cold serial sweep gate: fresh {fresh:.3f}s vs baseline "
          f"{committed:.3f}s (limit {limit:.3f}s) -> {status}")
    ok = ok and fresh <= limit
    speedup = report["diff_kernel"]["batch_speedup"]
    if speedup <= 1.0:
        print(f"REGRESSION: batched diff speedup {speedup} <= 1.0")
        ok = False
    else:
        print(f"batched diff speedup gate: {speedup}x -> OK")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(__file__), "..", "BENCH_sweep.json"))
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--check-baseline", metavar="PATH",
                        help="gate wall-clock and batch speedup against "
                             "a committed report")
    args = parser.parse_args()
    jobs = args.jobs if args.jobs else max(1, os.cpu_count() or 1)

    build_compiled_kernels()
    report = {
        "environment": {"cpu_count": os.cpu_count(),
                        "python": sys.version.split()[0]},
        "sweep": bench_sweep(jobs),
        "diff_kernel": bench_diff_kernel(),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    if not report["sweep"]["byte_identical"]:
        print("FATAL: parallel/cached results diverge from cold serial",
              file=sys.stderr)
        return 1
    if report["sweep"]["warm_hit_rate"] != 1.0:
        print("FATAL: warm re-sweep was not 100% cache hits",
              file=sys.stderr)
        return 1
    if args.check_baseline and not check_baseline(report,
                                                  args.check_baseline):
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
