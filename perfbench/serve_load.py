"""serve_mix: ``repro serve`` as a subprocess, driven by a closed loop.

One server with one worker and a fresh cache directory per session; the
worker runs on the first of the session's CPUs, the server and this
client on the last.  Set-up
is start-up (the server prints its URL once its worker is warm) plus
warming the hot keys with one ``/run`` each.  The timed part is the seeded
schedule from :func:`workloads.serve_schedule`, sent over two keep-alive
connections, each sending its next request only when the previous answer
arrived: warm ``/run`` hits, conditional re-requests that must come back
``304``, and cold ``/run`` misses on distinct short configs.

Every answer is checked: the status must be 200 (304 for conditional
requests), a body must equal the reference bytes of its config, and a 304
must carry the reference ETag.
"""

from __future__ import annotations

import glob
import hashlib
import http.client
import json
import os
import queue
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import workloads
from hostspeed import speed_between
from tracer import scale_snapshot

HERE = os.path.dirname(os.path.abspath(__file__))
CONNECTIONS = 2
_START_TIMEOUT = 120.0
_REQUEST_TIMEOUT = 120.0


def target_for(config) -> str:
    return (f"/run?experiment={config.experiment}&system={config.system}"
            f"&nprocs={config.nprocs}&preset={config.preset}")


def etag_for(body: str) -> str:
    return '"' + hashlib.sha256(body.encode()).hexdigest() + '"'


class Session:
    """One ``repro serve`` process with its own cache and dump directory."""

    def __init__(self, workdir: str, trace: bool, cpus: List[int]) -> None:
        self.workdir = workdir
        self.dump_dir = os.path.join(workdir, "dumps")
        os.makedirs(self.dump_dir)
        env = dict(os.environ, PERFBENCH_DUMP_DIR=self.dump_dir,
                   PERFBENCH_TRACE="1" if trace else "0",
                   PERFBENCH_CPUS=",".join(map(str, cpus)))
        # The server's log goes to a file: shutting down with a
        # keep-alive connection open logs a CancelledError traceback.
        self.log_path = os.path.join(workdir, "server.log")
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "serve_host.py"),
                 "--port", "0", "--workers", "1",
                 "--cache-dir", os.path.join(workdir, "cache")],
                stdout=subprocess.PIPE, stderr=log, text=True, env=env,
                start_new_session=True)
        self.port = self._await_url()

    def _await_url(self) -> int:
        lines: "queue.Queue[Optional[str]]" = queue.Queue()

        def pump() -> None:
            for line in self.proc.stdout:
                lines.put(line)
            lines.put(None)
        threading.Thread(target=pump, daemon=True).start()
        deadline = time.monotonic() + _START_TIMEOUT
        while True:
            try:
                line = lines.get(timeout=max(deadline - time.monotonic(), 0))
            except queue.Empty:
                line = None
            if line is None:
                self.stop()
                with open(self.log_path) as log:
                    tail = log.read()[-2000:]
                raise RuntimeError(f"repro serve did not start:\n{tail}")
            match = re.search(r"serving on http://[^:]+:(\d+)", line)
            if match:
                return int(match.group(1))

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=_REQUEST_TIMEOUT)

    def stop(self) -> List[Dict[str, Any]]:
        """Interrupt the server, wait for it, return the process dumps.

        The server runs in its own process group; whatever of the group
        outlives the server (a worker it could not shut down) is killed
        and waited for, so no process of the session survives it.
        """
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        _reap_group(self.proc.pid)
        dumps = []
        for path in sorted(glob.glob(os.path.join(self.dump_dir, "*.json"))):
            with open(path) as fh:
                dumps.append(json.load(fh))
        return dumps


def _group_alive(pgid: int) -> bool:
    """Whether any process of group ``pgid`` is still running (not a zombie)."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            return True
    return False


def _reap_group(pgid: int, timeout: float = 30.0) -> None:
    """Kill every process left in group ``pgid`` and wait until none runs."""
    deadline = time.monotonic() + timeout
    while _group_alive(pgid):
        if time.monotonic() > deadline:
            raise RuntimeError(f"processes of group {pgid} did not exit")
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _get(conn: http.client.HTTPConnection, target: str,
         headers: Dict[str, str]) -> Tuple[int, Dict[str, str], str]:
    conn.request("GET", target, headers=headers)
    response = conn.getresponse()
    body = response.read().decode()
    return response.status, {k.lower(): v for k, v in
                              response.getheaders()}, body


def _request(conn, kind: str, config, reference: Dict[str, str]
             ) -> Dict[str, Any]:
    """Send one request and check its answer against the reference."""
    expected = reference.get(workloads.ref_key(config), "")
    headers = {}
    if kind == "conditional":
        headers["If-None-Match"] = etag_for(expected)
    started = time.perf_counter()
    status, hdrs, body = _get(conn, target_for(config), headers)
    ended = time.perf_counter()
    if kind == "conditional":
        ok = status == 304 and hdrs.get("etag") == etag_for(expected)
    else:
        ok = status == 200 and body == expected
    served = hdrs.get("x-repro-served", "unclassified")
    if status == 304:
        cls = "not_modified"
    else:
        cls = f"{served}_{hdrs.get('x-repro-cache', 'none')}"
    return {"kind": kind, "class": cls, "status": status,
            "t0": started, "t1": ended, "ok": ok}


def set_up(workdir: str, reference: Dict[str, str], trace: bool,
           cpus: List[int]
           ) -> Tuple[Session, Tuple[float, float], List[Dict[str, Any]]]:
    """Start a server and warm its hot keys; returns the set-up interval."""
    started = time.perf_counter()
    session = Session(workdir, trace, cpus)
    try:
        conn = session.connect()
        try:
            records = [_request(conn, "hit", config, reference)
                       for config in workloads.serve_hot()]
        finally:
            conn.close()
    except BaseException:
        session.stop()
        raise
    return session, (started, time.perf_counter()), records


def drive(session: Session, schedule, reference: Dict[str, str]
          ) -> Tuple[Tuple[float, float], List[Dict[str, Any]],
                     Dict[str, Any]]:
    """Run the schedule over the closed-loop connections."""
    records: List[Optional[Dict[str, Any]]] = [None] * len(schedule)
    cursor = iter(range(len(schedule)))
    lock = threading.Lock()

    def client() -> None:
        conn = session.connect()
        try:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                kind, config = schedule[i]
                started = time.perf_counter()
                try:
                    records[i] = _request(conn, kind, config, reference)
                except (OSError, http.client.HTTPException):
                    # A dropped connection fails the request (and its
                    # wait counts as latency); reconnect and go on.
                    records[i] = {"kind": kind, "class": "error",
                                  "status": 0, "ok": False, "t0": started,
                                  "t1": time.perf_counter()}
                    conn.close()
                    conn = session.connect()
        finally:
            conn.close()

    started = time.perf_counter()
    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    interval = (started, time.perf_counter())
    conn = session.connect()
    try:
        status, _, body = _get(conn, "/metrics", {})
    finally:
        conn.close()
    server_metrics = json.loads(body) if status == 200 else {}
    return interval, [r for r in records if r is not None], server_metrics


def run_session(root_tmp: str, index: int, seed: int,
                reference: Dict[str, str], trace: bool,
                drive_schedule: bool, cpus: List[int]) -> Dict[str, Any]:
    """One set-up, optionally followed by the timed schedule.

    Times come back in reference-speed seconds (see ``hostspeed``): cold
    misses and the schedule's wall time scale with the worker's vCPU,
    warm answers with the server's (the client shares it), set-up with
    both.
    """
    workdir = os.path.join(root_tmp, f"session-{index}")
    session, setup, setup_records = set_up(workdir, reference, trace, cpus)
    out: Dict[str, Any] = {"records": setup_records}
    try:
        if drive_schedule:
            interval, records, server_metrics = drive(
                session, workloads.serve_schedule(seed), reference)
            out.update(schedule=records, server_metrics=server_metrics)
    finally:
        out["dumps"] = session.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    worker = [s for d in out["dumps"] if d["role"] == "worker"
              for s in d["speed_samples"]]
    server = [s for d in out["dumps"] if d["role"] == "server"
              for s in d["speed_samples"]]
    out["raw_setup_s"] = setup[1] - setup[0]
    out["setup_s"] = out["raw_setup_s"] * speed_between(worker + server,
                                                        *setup)
    for r in out["records"] + out.get("schedule", []):
        r["raw_latency_s"] = r["t1"] - r["t0"]
        r["latency_s"] = r["raw_latency_s"] * speed_between(
            worker if r["kind"] == "cold" else server, r["t0"], r["t1"])
    if drive_schedule:
        out["raw_wall_s"] = interval[1] - interval[0]
        out["wall_s"] = out["raw_wall_s"] * speed_between(worker, *interval)
        for d in out["dumps"]:
            if d["trace"] is not None:
                d["trace"] = scale_snapshot(
                    d["trace"], speed_between(d["speed_samples"], *interval))
    return out
