"""Run ``repro serve`` with the benchmark's probes in the server and workers.

Usage (from the repository root)::

    PERFBENCH_DUMP_DIR=DIR PERFBENCH_CPUS=0,1 \
        python3 perfbench/serve_host.py --port 0 ...

The arguments are those of ``repro serve``.  The serving pool starts its
workers with the ``spawn`` method, which re-imports this file in every
worker as ``__mp_main__``; that is why the probes are installed at import
time rather than under the ``__main__`` check.  The server is pinned to
the last CPU of ``PERFBENCH_CPUS`` and each worker to the first, and each
runs a
:class:`hostspeed.SpeedMeter`.  Each process records which engine and
kernel backend the program resolved, its peak RSS and its speed samples,
and on exit writes them to ``DIR/<role>-<pid>.json``.  With
``PERFBENCH_TRACE=1`` it also installs the layer tracer and adds its
numbers to that file.
"""

from __future__ import annotations

import atexit
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import tracer as _tracer  # noqa: E402

_DUMP_DIR = os.environ.get("PERFBENCH_DUMP_DIR")


def _install() -> None:
    role = "server" if __name__ == "__main__" else "worker"
    # The CPUs the whole session may use; a worker inherits the server's
    # pinning, so it cannot ask the OS.
    cpus = [int(c) for c in os.environ["PERFBENCH_CPUS"].split(",")]
    hostspeed.pin(cpus[-1 if role == "server" else 0])
    meter = hostspeed.SpeedMeter().start()
    tracer = _tracer.Tracer()
    resolved = _tracer.install_probe(tracer)
    traced = os.environ.get("PERFBENCH_TRACE") == "1"
    if traced:
        _tracer.install(tracer)

    def dump() -> None:
        record = {
            "role": role,
            "pid": os.getpid(),
            "maxrss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "resolved": resolved,
            "trace": tracer.snapshot() if traced else None,
            "speed_samples": meter.stop(),
        }
        path = os.path.join(_DUMP_DIR, f"{role}-{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump(record, fh)
    atexit.register(dump)


if _DUMP_DIR and __name__ in ("__main__", "__mp_main__"):
    _install()

if __name__ == "__main__":
    from repro.cli import main
    raise SystemExit(main(["serve"] + sys.argv[1:]))
