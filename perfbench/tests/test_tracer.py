"""Tests of the benchmark's tracer and inputs.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import os
import time

import pytest

import hostspeed
import tracer as tr
import workloads
from repro import api
from repro.bench import harness


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def drain(gen):
    try:
        value = next(gen)
        while True:
            value = gen.send(value)
    except StopIteration as stop:
        return stop.value


# ----------------------------------------------------------------------
# Generator-aware spans
# ----------------------------------------------------------------------
def test_gen_span_times_resumes_not_creation():
    clock = FakeClock()
    t = tr.Tracer(clock)

    def body():
        clock.tick(1.0)        # first resume: 1 s
        got = yield "a"
        clock.tick(2.0)        # second resume: 2 s
        yield got
        clock.tick(4.0)        # last resume: 4 s
        return "done"

    t.reset()
    gen = t.gen_span(body, "app")()
    clock.tick(8.0)            # creation to first resume: nobody's work
    assert next(gen) == "a"
    clock.tick(16.0)           # suspended: the engine's time, not the app's
    assert gen.send("b") == "b"
    clock.tick(32.0)
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "done"
    assert t.self_s["app"] == 7.0
    assert t.self_s[tr.OTHER] == 56.0


def test_gen_span_delegation_splits_self_time():
    clock = FakeClock()
    t = tr.Tracer(clock)

    def inner():
        clock.tick(3.0)
        yield "effect"
        clock.tick(5.0)
        return 10

    traced_inner = t.gen_span(inner, "runtime")

    def main():
        clock.tick(1.0)
        value = yield from traced_inner()
        clock.tick(2.0)
        return value

    assert drain(t.gen_span(main, "app")()) == 10
    assert t.self_s["app"] == 3.0
    assert t.self_s["runtime"] == 8.0


def test_gen_span_forwards_throw_and_close():
    clock = FakeClock()
    t = tr.Tracer(clock)
    seen = []

    def body():
        try:
            yield 1
        except ValueError:
            seen.append("caught")
            yield 2
        finally:
            seen.append("closed")

    gen = t.gen_span(body, "x")()
    assert next(gen) == 1
    assert gen.throw(ValueError()) == 2
    gen.close()
    assert seen == ["caught", "closed"]
    assert t._state()[0] == [tr.OTHER]


def test_span_stack_unwinds_on_exception():
    clock = FakeClock()
    t = tr.Tracer(clock)

    def boom():
        clock.tick(1.0)
        raise KeyError("x")

    with pytest.raises(KeyError):
        t.span(boom, "layer")()
    assert t._state()[0] == [tr.OTHER]
    assert t.self_s["layer"] == 1.0


# ----------------------------------------------------------------------
# Whole-program tracing
# ----------------------------------------------------------------------
TINY = [api.RunConfig(experiment="fig02", system="tmk", nprocs=4,
                      preset="tiny"),
        api.RunConfig(experiment="fig04", system="pvm", nprocs=4,
                      preset="tiny")]


@pytest.fixture
def installed():
    harness.clear_cache()
    t = tr.Tracer()
    tr.install(t)
    try:
        yield t
    finally:
        t.uninstall()
        harness.clear_cache()


def test_traced_results_are_byte_identical(installed):
    installed.uninstall()
    plain = [api.run(c, use_cache=False).to_json_bytes() for c in TINY]
    harness.clear_cache()
    tr.install(installed)
    traced = [api.run(c, use_cache=False).to_json_bytes() for c in TINY]
    assert traced == plain
    assert installed.counts["tmk.diffs_made"] > 0
    assert installed.counts["pvm.sends"] > 0
    assert installed.self_s["apps"] > 0


@pytest.mark.parametrize("engine", ["threads", "coro"])
def test_self_times_nonnegative_and_within_wall(installed, engine):
    config = api.RunConfig(experiment="fig07", system="tmk", nprocs=4,
                           preset="tiny", engine=engine)
    installed.reset()
    started = time.perf_counter()
    api.run(config, use_cache=False)
    wall = time.perf_counter() - started
    layers = {k: v for k, v in installed.self_s.items()
              if k not in (tr.OTHER, tr.WAIT)}
    assert all(v >= 0 for v in installed.self_s.values())
    assert layers["tmk"] > 0 and layers["engine"] > 0
    assert sum(layers.values()) <= wall


def test_uninstall_restores_every_patch():
    from repro.sim.engine import Engine
    from repro.tmk import diffs
    before = (Engine.post, diffs.make_diffs, diffs._DEFAULT,
              harness._seq, harness.EXPERIMENTS["fig01"])
    t = tr.install(tr.Tracer())
    assert Engine.post is not before[0]
    t.uninstall()
    assert (Engine.post, diffs.make_diffs, diffs._DEFAULT, harness._seq,
            harness.EXPERIMENTS["fig01"]) == before


def test_probe_reports_kernel_fallback():
    t = tr.Tracer()
    seen = tr.install_probe(t)
    try:
        api.run(api.RunConfig(experiment="fig01", system="pvm", nprocs=2,
                              preset="tiny"), use_cache=False)
        from repro.kernels import get_backend
        get_backend("compiled")
    finally:
        t.uninstall()
        harness.clear_cache()
    assert "threads" in seen["engine"]
    assert any(v.startswith("compiled->") for v in seen["kernels"])


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def test_seed_fixes_inputs():
    assert workloads.grid_configs("tmk", 3) == workloads.grid_configs("tmk", 3)
    assert workloads.grid_configs("tmk", 3) != workloads.grid_configs("tmk", 4)
    assert sorted(map(workloads.ref_key, workloads.grid_configs("pvm", 3))) \
        == sorted(map(workloads.ref_key, workloads.grid_configs("pvm", 4)))
    later = workloads.grid_configs("pvm", 3, index=1)
    assert later == workloads.grid_configs("pvm", 3, index=1)
    assert later != workloads.grid_configs("pvm", 3)
    assert sorted(map(workloads.ref_key, later)) \
        == sorted(map(workloads.ref_key, workloads.grid_configs("pvm", 3)))
    one, two = workloads.serve_schedule(5), workloads.serve_schedule(6)
    assert one == workloads.serve_schedule(5) and one != two
    colds = [c for kind, c in one if kind == "cold"]
    assert len(set(colds)) == len(colds)
    assert not set(colds) & set(workloads.serve_hot())


def test_reference_covers_every_input():
    reference = workloads.load_reference()
    keys = {workloads.ref_key(c) for c in workloads.serve_pool()}
    for wl in workloads.BATCH_WORKLOADS:
        keys |= {workloads.ref_key(c) for c in workloads.batch_configs(wl, 1)}
    assert keys <= set(reference)
    assert os.path.getsize(workloads.REFERENCE_PATH) < 64 * 1024


# ----------------------------------------------------------------------
# Host speed scaling
# ----------------------------------------------------------------------
def test_speed_between_averages_samples_inside_the_interval():
    samples = [(1.0, 0.5), (2.0, 1.0), (3.0, 0.9), (9.0, 0.2)]
    assert hostspeed.speed_between(samples, 1.5, 3.5) == pytest.approx(0.95)
    assert hostspeed.speed_between(samples, 8.0, 8.1) == 0.2  # nearest
    assert hostspeed.speed_between([], 0.0, 1.0) == 1.0


def test_speed_meter_samples_and_stops():
    meter = hostspeed.SpeedMeter().start()
    time.sleep(5 * hostspeed.PERIOD_S)
    samples = meter.stop()
    assert len(samples) >= 2
    assert all(speed > 0 for _, speed in samples)
    assert [t for t, _ in samples] == sorted(t for t, _ in samples)
