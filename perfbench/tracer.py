"""Host-time tracer for the benchmark: per-layer self time and work counts.

The tracer wraps the public functions and methods of each layer of
``repro`` from the outside -- no file of the program changes -- and keeps,
per host thread, a stack of the layers whose code is running.  Time is
always charged to the layer on top of the stack, so a layer's *self time*
is the time its own code ran, children excluded, and the self times of all
layers sum to at most the traced wall time.

Three kinds of call need care:

* Generator functions (the ``*_g`` runtime API and the application
  mains) do their work when resumed, not when called.  Their wrapper
  returns a generator that opens the layer's span around each resume
  only, so an app main's self time is its resumes minus the runtime
  generators it delegates to.
* ``threading.Event.wait`` is a *pause*: on the threads engine a
  simulated processor waits there while another runs, and that time
  belongs to no layer.
* The page-op kernels are plain callables inside ``KernelBackend``
  records; the tracer swaps in traced copies of the records.

Work counters (events posted, deliveries, faults, diffs, bytes, ...) are
taken at the same boundaries.  :func:`install` patches, the returned
object's ``uninstall`` undoes every patch.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import importlib
import inspect
import pkgutil
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["LAYERS", "KERNEL_FUNCS", "OTHER", "WAIT", "Tracer", "install",
           "install_probe", "scale_snapshot"]

#: Layer name -> the module or package whose public code it owns.
LAYERS: Tuple[Tuple[str, str], ...] = (
    ("engine", "repro.sim.engine"),
    ("cluster", "repro.sim.cluster"),
    ("network", "repro.sim.network"),
    ("tmk", "repro.tmk"),
    ("pvm", "repro.pvm"),
    ("apps", "repro.apps"),
    ("harness", "repro.bench.harness"),
    ("obs", "repro.obs"),
    ("analysis", "repro.analysis"),
    ("verify", "repro.verify"),
    ("cache", "repro.bench.cache"),
)

#: The six functions of the frozen page-op kernel interface.
KERNEL_FUNCS = ("make_diff", "make_diff_batch", "apply_diff",
                "apply_diff_batch", "twin_compare", "fault_scan")

#: Pseudo-layer charged while no traced code runs on a thread.
OTHER = "other"
#: Pseudo-layer charged while a thread waits on an event (no layer's time).
WAIT = "wait"


class Tracer:
    """Span stacks per thread plus the accumulated per-layer numbers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: Self seconds by layer (kernel functions as ``kernels.<fn>``).
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Inclusive seconds of selected calls (``harness.seq_s``, ...).
        self.inclusive: Dict[str, float] = defaultdict(float)
        #: Work counters.
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Span primitives
    # ------------------------------------------------------------------
    def _state(self) -> list:
        """This thread's ``[stack, last_switch_time]``."""
        try:
            return self._local.st
        except AttributeError:
            st = self._local.st = [[OTHER], self.clock()]
            return st

    def span(self, fn: Callable, layer: str) -> Callable:
        """Wrap a plain callable: ``layer`` is on top while it runs."""
        clock, self_s, state = self.clock, self.self_s, self._state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = state()
            stack = st[0]
            now = clock()
            self_s[stack[-1]] += now - st[1]
            stack.append(layer)
            st[1] = now
            try:
                return fn(*args, **kwargs)
            finally:
                now = clock()
                self_s[stack.pop()] += now - st[1]
                st[1] = now
        return traced

    def gen_span(self, fn: Callable, layer: str) -> Callable:
        """Wrap a generator function: the span covers each resume."""
        resumes = self._resumes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return resumes(fn(*args, **kwargs), layer)
        return traced

    def _resumes(self, gen, layer: str):
        clock, self_s, state = self.clock, self.self_s, self._state
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            st = state()
            stack = st[0]
            now = clock()
            self_s[stack[-1]] += now - st[1]
            stack.append(layer)
            st[1] = now
            try:
                if error is None:
                    effect = gen.send(value)
                else:
                    effect, error = gen.throw(error), None
            except StopIteration as stop:
                return stop.value
            finally:
                now = clock()
                self_s[stack.pop()] += now - st[1]
                st[1] = now
            try:
                value = yield effect
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - re-thrown inside
                value, error = None, exc

    def wrap(self, fn: Callable, layer: str) -> Callable:
        if inspect.isgeneratorfunction(fn):
            return self.gen_span(fn, layer)
        return self.span(fn, layer)

    def timed(self, fn: Callable, key: str) -> Callable:
        """Add the inclusive wall time of every call to ``inclusive[key]``."""
        clock, inclusive = self.clock, self.inclusive

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                inclusive[key] += clock() - started
        return traced

    def counted(self, fn: Callable, key: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return traced

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch(self, owner: Any, name: str, value: Any) -> None:
        """Set ``owner.name``; :meth:`uninstall` puts the original back."""
        original = vars(owner)[name]
        self._undo.append(lambda: setattr(owner, name, original))
        setattr(owner, name, value)

    def patch_item(self, mapping: dict, key: Any, value: Any) -> None:
        """Set ``mapping[key]``; :meth:`uninstall` puts the original back."""
        original = mapping[key]
        self._undo.append(lambda: mapping.__setitem__(key, original))
        mapping[key] = value

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget everything measured so far (e.g. set-up work)."""
        self.self_s.clear()
        self.inclusive.clear()
        self.counts.clear()
        self._state()[1] = self.clock()

    def snapshot(self) -> Dict[str, Any]:
        """Plain-JSON copy of everything measured so far."""
        return {"self_s": dict(self.self_s),
                "inclusive": dict(self.inclusive),
                "counts": dict(self.counts)}


def scale_snapshot(snap: Dict[str, Any], factor: float) -> Dict[str, Any]:
    """A :meth:`Tracer.snapshot` with every time multiplied by ``factor``."""
    return {"self_s": {k: v * factor for k, v in snap["self_s"].items()},
            "inclusive": {k: v * factor
                          for k, v in snap["inclusive"].items()},
            "counts": snap["counts"]}


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def _modules(name: str) -> List[Any]:
    """The module ``name`` plus, for a package, all of its submodules."""
    root = importlib.import_module(name)
    mods = [root]
    if hasattr(root, "__path__"):
        for info in pkgutil.walk_packages(root.__path__, name + "."):
            mods.append(importlib.import_module(info.name))
    return mods


def _layer_of(module: str) -> Optional[str]:
    for layer, prefix in LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


def _wrap_class(tracer: Tracer, cls: type, layer: str,
                wrapped: Dict[int, Tuple[Any, Any]]) -> None:
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_") and attr != "__init__":
            continue
        if isinstance(raw, (staticmethod, classmethod)):
            fn = raw.__func__
            if inspect.isfunction(fn):
                tracer.patch(cls, attr, type(raw)(tracer.wrap(fn, layer)))
        elif inspect.isfunction(raw) and not inspect.iscoroutinefunction(raw):
            new = tracer.wrap(raw, layer)
            wrapped[id(raw)] = (raw, new)
            tracer.patch(cls, attr, new)


def _wrap_layers(tracer: Tracer) -> Dict[int, Tuple[Any, Any]]:
    """Span every public function and method of every layer."""
    wrapped: Dict[int, Tuple[Any, Any]] = {}
    for layer, package in LAYERS:
        for mod in _modules(package):
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") \
                        or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) \
                        and not inspect.iscoroutinefunction(obj):
                    new = tracer.wrap(obj, layer)
                    wrapped[id(obj)] = (obj, new)
                    tracer.patch(mod, name, new)
                elif inspect.isclass(obj) \
                        and not issubclass(obj, (BaseException, enum.Enum)):
                    _wrap_class(tracer, obj, layer, wrapped)
    # ``from module import fn`` made copies of the names: rebind them.
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for name, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                tracer.patch(mod, name, hit[1])
    return wrapped


def _kernel_wrapper(tracer: Tracer, fn: Callable, fname: str) -> Callable:
    """Span + call count + bytes read for one kernel function."""
    counts = tracer.counts
    inner = tracer.span(fn, f"kernels.{fname}")
    calls_key = f"kernels.{fname}.calls"

    if fname == "make_diff":
        def traced(current, twin):
            counts[calls_key] += 1
            counts["kernels.bytes_in"] += current.nbytes + twin.nbytes
            runs = inner(current, twin)
            counts["tmk.diffs_made"] += 1
            counts["tmk.diffs_empty"] += not runs
            return runs
    elif fname == "make_diff_batch":
        def traced(currents, twins):
            counts[calls_key] += 1
            counts["kernels.bytes_in"] += sum(c.nbytes + t.nbytes for c, t
                                              in zip(currents, twins))
            runs_list = inner(currents, twins)
            counts["tmk.diffs_made"] += len(runs_list)
            counts["tmk.diffs_empty"] += sum(1 for r in runs_list if not r)
            return runs_list
    elif fname == "apply_diff":
        def traced(page_view, runs):
            counts[calls_key] += 1
            counts["kernels.bytes_in"] += sum(len(b) for _, b in runs)
            return inner(page_view, runs)
    elif fname == "apply_diff_batch":
        def traced(page_view, runs_list):
            counts[calls_key] += 1
            counts["kernels.bytes_in"] += sum(len(b) for runs in runs_list
                                              for _, b in runs)
            return inner(page_view, runs_list)
    elif fname == "twin_compare":
        def traced(current, twin):
            counts[calls_key] += 1
            counts["kernels.bytes_in"] += current.nbytes + twin.nbytes
            return inner(current, twin)
    else:  # fault_scan
        def traced(valid, lo, hi):
            counts[calls_key] += 1
            counts["kernels.bytes_in"] += max(hi - lo, 0)
            return inner(valid, lo, hi)
    return functools.wraps(fn)(traced)


def _wrap_kernels(tracer: Tracer) -> None:
    """Swap every registered kernel backend for a traced copy."""
    kernels = importlib.import_module("repro.kernels")
    registry = getattr(kernels, "_REGISTRY", None)
    if registry is None:
        return
    swapped: Dict[int, Tuple[Any, Any]] = {}

    def traced_copy(backend: Any) -> Any:
        if id(backend) not in swapped:
            swapped[id(backend)] = (backend, dataclasses.replace(backend, **{
                f: _kernel_wrapper(tracer, getattr(backend, f), f)
                for f in KERNEL_FUNCS}))
        return swapped[id(backend)][1]

    for name, backend in list(registry.items()):
        tracer.patch_item(registry, name, traced_copy(backend))
    try:  # a built C extension registers itself lazily: trace it too
        compiled = importlib.import_module("repro.kernels.compiled")
    except ImportError:
        compiled = None
    if getattr(compiled, "BACKEND", None) is not None:
        traced_copy(compiled.BACKEND)
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for name, obj in list(vars(mod).items()):
            hit = swapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                tracer.patch(mod, name, hit[1])


def _hook(tracer: Tracer, owner: Any, name: str,
          make: Callable[[Callable], Callable]) -> None:
    """Replace ``owner.name`` (already span-wrapped or not) by ``make(it)``."""
    current = vars(owner).get(name)
    if current is None:
        return
    tracer.patch(owner, name, make(current))


def _add_counters(tracer: Tracer) -> None:
    """Work counters at the layer boundaries the benchmark reports."""
    counts = tracer.counts
    engine = importlib.import_module("repro.sim.engine")
    cluster = importlib.import_module("repro.sim.cluster")
    network = importlib.import_module("repro.sim.network")
    _hook(tracer, engine.Engine, "post",
          lambda f: tracer.counted(f, "engine.events_posted"))
    _hook(tracer, engine.Engine, "unblock",
          lambda f: tracer.counted(f, "engine.wakeups"))
    _hook(tracer, cluster.Processor, "deliver",
          lambda f: tracer.counted(f, "cluster.deliveries"))
    _hook(tracer, cluster.Processor, "compute",
          lambda f: tracer.counted(f, "cluster.compute_charges"))

    def send_counter(send):
        @functools.wraps(send)
        def traced(self, src, dst, category, payload, nbytes, **kwargs):
            counts["network.sends"] += 1
            counts["network.bytes"] += nbytes
            return send(self, src, dst, category, payload, nbytes, **kwargs)
        return traced
    _hook(tracer, network.UdpChannel, "send", send_counter)
    _hook(tracer, network.TcpChannel, "send", send_counter)

    def register_hook(register):
        @functools.wraps(register)
        def traced(self, category, handler):
            module = getattr(handler, "__module__", "") or ""
            layer = _layer_of(module) or OTHER
            fname = getattr(handler, "__name__", "handler")
            handler = tracer.span(handler, layer)
            handler = tracer.timed(
                handler, f"{layer}.handler_s.{module.rsplit('.', 1)[-1]}")
            handler = tracer.counted(handler, f"{layer}.handled.{fname}")
            return register(self, category, handler)
        return traced
    _hook(tracer, cluster.Processor, "register", register_hook)

    def run_hook(run):
        @functools.wraps(run)
        def traced(self, *args, **kwargs):
            result = run(self, *args, **kwargs)
            for proc in self.procs:
                endpoint = getattr(proc, "tmk", None)
                counts["tmk.faults"] += getattr(endpoint, "fault_count", 0)
            return result
        return traced
    _hook(tracer, cluster.Cluster, "run", run_hook)

    consistency = importlib.import_module("repro.tmk.consistency")

    def close_hook(close):
        @functools.wraps(close)
        def traced(*args, **kwargs):
            record = close(*args, **kwargs)
            counts["tmk.intervals_closed"] += record is not None
            return record
        return traced
    _hook(tracer, consistency.LrcCore, "close_interval", close_hook)

    for modname, method, key in (("repro.tmk.barrier", "barrier_g",
                                  "tmk.barriers"),
                                 ("repro.tmk.locks", "acquire_g",
                                  "tmk.lock_acquires")):
        mod = importlib.import_module(modname)
        for obj in list(vars(mod).values()):
            if inspect.isclass(obj) and obj.__module__ == modname:
                _hook(tracer, obj, method,
                      lambda f, key=key: tracer.counted(f, key))

    pvm_api = importlib.import_module("repro.pvm.api")
    buffers = importlib.import_module("repro.pvm.buffers")
    _hook(tracer, pvm_api.Pvm, "_send_frozen_g",
          lambda f: tracer.counted(f, "pvm.sends"))
    _hook(tracer, pvm_api.Pvm, "_consume",
          lambda f: tracer.counted(f, "pvm.recvs"))

    def pack_hook(pack):
        @functools.wraps(pack)
        def traced(self, *args, **kwargs):
            before = self.nbytes
            result = pack(self, *args, **kwargs)
            counts["pvm.pack_bytes"] += self.nbytes - before
            return result
        return traced
    _hook(tracer, buffers.SendBuffer, "pack", pack_hook)

    races = importlib.import_module("repro.analysis.races")

    def access_hook(on_access):
        @functools.wraps(on_access)
        def traced(self, core, runs, *args, **kwargs):
            counts["analysis.accesses_checked"] += bool(runs)
            return on_access(self, core, runs, *args, **kwargs)
        return traced
    _hook(tracer, races.Sanitizer, "on_access", access_hook)

    cache = importlib.import_module("repro.bench.cache")

    def get_hook(get):
        get = tracer.timed(get, "cache.get_s")

        @functools.wraps(get)
        def traced(*args, **kwargs):
            payload = get(*args, **kwargs)
            counts["cache.gets"] += 1
            counts["cache.hits"] += payload is not None
            return payload
        return traced
    _hook(tracer, cache.ResultCache, "get", get_hook)
    _hook(tracer, cache.ResultCache, "put",
          lambda f: tracer.timed(f, "cache.put_s"))


def _wrap_harness(tracer: Tracer, wrapped: Dict[int, Tuple[Any, Any]]) -> None:
    """Sequential reference runs and result verification, inclusive."""
    harness = importlib.import_module("repro.bench.harness")
    _hook(tracer, harness, "_seq",
          lambda f: tracer.timed(tracer.span(f, "harness"), "harness.seq_s"))
    base = importlib.import_module("repro.apps.base")
    # AppSpec records hold the raw app functions: point them at the
    # wrapped ones, and time verification as harness work.
    for name, spec in list(base.APPS.items()):
        fields = {}
        for field in ("sequential", "tmk_main", "pvm_main"):
            fn = getattr(spec, field)
            hit = wrapped.get(id(fn))
            fields[field] = (hit[1] if hit is not None and hit[0] is fn
                             else tracer.wrap(fn, "apps"))
        fields["verify"] = tracer.timed(tracer.span(spec.verify, "harness"),
                                        "harness.verify_s")
        tracer.patch_item(base.APPS, name, dataclasses.replace(spec, **fields))


def install(tracer: Optional[Tracer] = None) -> Tracer:
    """Trace every layer of the (imported) program; returns the tracer."""
    tracer = tracer if tracer is not None else Tracer()
    importlib.import_module("repro.api")
    importlib.import_module("repro.bench.sweep")
    wrapped = _wrap_layers(tracer)
    _wrap_kernels(tracer)
    _add_counters(tracer)
    _wrap_harness(tracer, wrapped)
    tracer.patch(threading.Event, "wait",
                 tracer.span(threading.Event.wait, WAIT))
    return tracer


def install_probe(tracer: Tracer) -> Dict[str, List[str]]:
    """Record which engine and kernel backend the program resolves.

    Cheap enough for untraced runs: it wraps only ``Engine.__init__`` and
    ``repro.kernels.get_backend``.  Kernel entries read
    ``requested->resolved``, so a fallback (``compiled->numpy``) shows.
    """
    seen: Dict[str, List[str]] = {"engine": [], "kernels": []}

    def note(kind: str, value: str) -> None:
        if value not in seen[kind]:
            seen[kind].append(value)

    engine = importlib.import_module("repro.sim.engine")

    def init_hook(init):
        @functools.wraps(init)
        def traced(self, *args, **kwargs):
            init(self, *args, **kwargs)
            note("engine", str(getattr(self, "backend", "?")))
        return traced
    _hook(tracer, engine.Engine, "__init__", init_hook)

    kernels = importlib.import_module("repro.kernels")

    def get_backend_hook(get_backend):
        @functools.wraps(get_backend)
        def traced(*args, **kwargs):
            backend = get_backend(*args, **kwargs)
            requested = args[0] if args else kwargs.get(
                "name", getattr(kernels, "DEFAULT_BACKEND", "default"))
            note("kernels", f"{requested}->{backend.name}")
            return backend
        return traced
    _hook(tracer, kernels, "get_backend", get_backend_hook)
    return seen
