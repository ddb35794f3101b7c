"""Golden-trace regression: the protocol's event shape is pinned.

For every one of the paper's twelve configurations, under both systems,
one 4-processor tiny-preset run is fingerprinted as:

* the timeline digest (per-kind event counts -- how many page faults,
  diff requests, barrier episodes, lock forwards, ... the run produced),
* the measured virtual time (exact: the simulator is deterministic),
* the total message/byte statistics.

Any protocol change that alters event counts, timing, or traffic shows
up here as a readable per-key diff.  Intentional changes regenerate the
snapshot with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/obs/test_golden_traces.py
"""

import json
import os
import pathlib

import pytest

from repro import api
from repro.bench import harness
from repro.obs import ObsConfig

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_traces.json"
NPROCS = 4
OBS = ObsConfig(timeline=True, profile=True)


def fingerprint(exp_id: str, system: str) -> dict:
    config = api.RunConfig(experiment=exp_id, system=system, nprocs=NPROCS,
                           preset="tiny", obs=OBS)
    run = api.run(config, use_cache=False, want_parallel=True).parallel
    return {
        "digest": run.timeline.digest(),
        "time_us": round(run.time * 1e6, 3),
        "messages": run.total_messages(),
        "bytes": run.stats.total(system).bytes,
    }


def all_fingerprints() -> dict:
    return {f"{exp_id}/{system}": fingerprint(exp_id, system)
            for exp_id in harness.EXPERIMENTS
            for system in ("tmk", "pvm")}


def diff_lines(golden: dict, actual: dict) -> list:
    """Readable per-key differences between two fingerprint maps."""
    lines = []
    for key in sorted(set(golden) | set(actual)):
        if key not in golden:
            lines.append(f"{key}: not in golden file (new config?)")
            continue
        if key not in actual:
            lines.append(f"{key}: missing from this run")
            continue
        want, got = golden[key], actual[key]
        for field in sorted(set(want) | set(got)):
            if want.get(field) == got.get(field):
                continue
            if field == "digest":
                kinds = sorted(set(want["digest"]) | set(got["digest"]))
                for kind in kinds:
                    w = want["digest"].get(kind, 0)
                    g = got["digest"].get(kind, 0)
                    if w != g:
                        lines.append(
                            f"{key}: {kind} events {w} -> {g}")
            else:
                lines.append(f"{key}: {field} {want.get(field)} -> "
                             f"{got.get(field)}")
    return lines


def test_golden_traces():
    actual = all_fingerprints()
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        GOLDEN_PATH.write_text(json.dumps(actual, indent=1, sort_keys=True)
                               + "\n")
    if not GOLDEN_PATH.exists():
        pytest.fail(f"golden file missing: {GOLDEN_PATH}\n"
                    "regenerate with REPRO_UPDATE_GOLDEN=1")
    golden = json.loads(GOLDEN_PATH.read_text())
    lines = diff_lines(golden, actual)
    if lines:
        pytest.fail("golden trace mismatch "
                    "(REPRO_UPDATE_GOLDEN=1 regenerates if intentional):\n  "
                    + "\n  ".join(lines))


def test_golden_covers_all_configs():
    golden = json.loads(GOLDEN_PATH.read_text())
    expected = {f"{exp_id}/{system}" for exp_id in harness.EXPERIMENTS
                for system in ("tmk", "pvm")}
    assert set(golden) == expected


def test_fingerprints_have_protocol_signal():
    """Sanity on the fingerprint itself: TreadMarks runs show DSM events,
    PVM runs show messaging events, and nothing was ring-dropped."""
    golden = json.loads(GOLDEN_PATH.read_text())
    for key, entry in golden.items():
        digest = entry["digest"]
        assert digest["__dropped__"] == 0, key
        assert entry["messages"] > 0, key
        if key.endswith("/tmk"):
            assert digest.get("barrier", 0) > 0, key
            assert digest.get("page_fault", 0) > 0, key
        else:
            assert digest.get("pvm_recv", 0) > 0, key
            assert digest.get("send", 0) > 0, key
