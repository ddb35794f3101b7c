"""Host speed meter: express measured times in reference-speed seconds.

On a shared 2-vCPU Xeon VM (2.1 GHz) the virtual CPUs run at very
different speeds from one moment to the next: a fixed pure-Python loop
took 0.17 s in one second and 0.29 s a few seconds later, in phases from
about a second to several minutes long, and the two vCPUs drift
independently.  Raw wall times of identical runs there spread by a
quarter or more.

A :class:`SpeedMeter` runs in the process that does the work, pinned to
the same vCPU: every ``PERIOD_S`` it times a fixed calibration loop and
records ``speed = REFERENCE_S / loop_time`` (1.0 at the reference speed,
below 1 when the vCPU is slow).  A measured interval is then reported as
its wall time multiplied by the mean speed sampled inside it -- the time
the same work would have taken at the reference speed.  Raw times are
printed next to the metrics.  Timestamps are ``time.perf_counter()``,
which is the system-wide monotonic clock on Linux, so samples of one
process can scale intervals timed in another.
"""

from __future__ import annotations

import os
import threading
import time
from typing import List, Sequence, Tuple

__all__ = ["PERIOD_S", "REFERENCE_S", "SpeedMeter", "cpus", "pin",
           "speed_between"]

#: Iterations of the calibration loop (about a millisecond of work).
CALIBRATION_LOOPS = 20_000
#: Calibration loop time that counts as speed 1.0 (the machine's fast
#: phase when this benchmark was written).
REFERENCE_S = 1.1e-3
#: Seconds between two calibration samples.
PERIOD_S = 0.05

Sample = Tuple[float, float]  # (perf_counter time, speed)


def _calibrate() -> None:
    s = 0
    for i in range(CALIBRATION_LOOPS):
        s += i * i


def cpus() -> List[int]:
    """The CPUs this process may run on, in order."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return [0]


def pin(cpu: int) -> None:
    """Keep this process (and the children it starts) on one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {cpu})


class SpeedMeter:
    """Samples this process's CPU speed on a background thread."""

    def __init__(self) -> None:
        self.samples: List[Sample] = []
        self._running = False
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="perfbench-speed")

    def start(self) -> "SpeedMeter":
        self._running = True
        self._thread.start()
        return self

    def stop(self) -> List[Sample]:
        self._running = False
        self._thread.join()
        return self.samples

    def _run(self) -> None:
        while self._running:
            time.sleep(PERIOD_S)
            started = time.perf_counter()
            _calibrate()
            ended = time.perf_counter()
            self.samples.append(((started + ended) / 2,
                                 REFERENCE_S / (ended - started)))


def speed_between(samples: Sequence[Sample], t0: float, t1: float) -> float:
    """Mean sampled speed over ``[t0, t1]`` (nearest sample if none fell
    inside; 1.0 without samples)."""
    inside = [s for t, s in samples if t0 <= t <= t1]
    if inside:
        return sum(inside) / len(inside)
    if not samples:
        return 1.0
    mid = (t0 + t1) / 2
    return min(samples, key=lambda sample: abs(sample[0] - mid))[1]
