"""Per-layer wall-clock tracing, installed from outside the program.

The tracer wraps the public entry points of each layer (repo module) with
timing closures.  Targets are resolved by attribute from a *live* set-up
(``type(pilot.agent.scheduler)``, whatever class that is), so a refactor
that renames or merges classes moves spans instead of breaking the
benchmark; a target that cannot be resolved is listed in ``absent``.

Everything runs on one thread, so spans nest like a call stack.  A span's
**self time** is its duration minus the time covered by its child spans;
the self times of all spans under the root therefore add up to the root's
duration exactly (``closure_gap`` only measures float rounding).

Three kinds of boundary are timed:

* plain calls (``scheduler.schedule``, ``profiler.record``, ...);
* generator-returning entry points (``Agent.run_task``,
  ``DataManager.stage``, ``ServiceClient.infer``, ...): the returned
  generator is replaced by :class:`GenProxy`, which times every resume and
  forwards ``send``/``throw``/``close``;
* everything handed to ``engine.process`` / ``engine.call_later``: process
  generators and deferred callbacks are labelled by the module that defines
  them, so the engine's dispatch loop is charged only for its own work.

Callbacks appended directly to ``Event.callbacks`` cannot be intercepted
from outside; they run inside the dispatch loop and are charged to
``sim.engine``.
"""

from __future__ import annotations

import json
from functools import lru_cache
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, path from the workload context to a live object, methods).  The
#: *type* of the resolved object is patched.  ``name:kind`` picks the wrapper
#: (``Tracer._<kind>``): ``gen`` for methods returning a generator,
#: ``process`` / ``call_later`` for the two engine hooks whose payload is
#: labelled too, ``peak`` to also sample the scheduler's queue depth.
TARGETS: List[Tuple[str, str, Tuple[str, ...]]] = [
    ("pilot.session", "session", ("run",)),
    ("sim.engine", "session.engine",
     ("run", "schedule", "timeout", "event", "all_of", "any_of",
      "process:process", "call_later:call_later")),
    ("sim.engine", "clients.0.socket.inbox", ("put", "get")),
    ("comm.bus", "session.bus", ("publish",)),
    ("comm.bus", "clients.0.socket", ("request", "send")),
    ("comm.bus", "handles.0.instance.socket", ("reply",)),
    ("pilot.task_manager", "tmgr", ("submit_tasks", "wait_tasks")),
    ("pilot.agent", "pilots.0.agent", ("run_task:gen",)),
    ("pilot.agent.scheduler", "pilots.0.agent.scheduler",
     ("schedule:peak", "release", "withdraw")),
    ("pilot.agent.scheduler", "pilots.1.agent.scheduler",
     ("schedule:peak", "release", "withdraw")),
    ("hpc.node", "pilots.0.nodes", ("find_fit",)),
    ("hpc.node", "pilots.0.nodes.0", ("allocate", "release")),
    ("pilot.agent.executor", "pilots.0.agent.executor",
     ("execute:gen", "launch:gen")),
    ("pilot.profiler", "session.profiler", ("record",)),
    ("pilot.data_manager", "tmgr.data_manager", ("stage:gen",)),
    ("data", "session.data.transfers", ("transfer:gen",)),
    ("data", "session.data", ("admit", "touch")),
    ("hpc.network", "link", ("transfer",)),
    ("core.client", "clients.0", ("infer:gen",)),
    ("core.load_balancer", "balancer", ("pick",)),
    ("serving.backend", "handles.0.instance.host", ("infer", "infer_batch")),
    ("workflows.campaign", "runner", ("run_campaign:gen", "submit")),
    ("resilience", "session.resilience.recovery", ("task_failed",)),
    ("observability", "session.observability", ("task_submitted",)),
    ("observability", "session.observability.tracer", ("on_task_state",)),
    ("observability", "session.observability.monitors",
     ("observe_exec", "observe_latency", "on_sample")),
]

#: module (below ``repro.``) -> layer, first matching prefix wins; a module
#: matching nothing is its own layer, so new modules show up by name
MODULE_LAYERS: List[Tuple[str, str]] = [
    ("sim", "sim.engine"),
    ("comm", "comm.bus"),
    ("resilience", "resilience"),
    ("observability", "observability"),
    ("data", "data"),
    ("serving", "serving.backend"),
    ("pilot.agent.executor", "pilot.agent.executor"),
    ("pilot.agent.scheduler", "pilot.agent.scheduler"),
    ("pilot.agent.sharded", "pilot.agent.scheduler"),
    ("pilot.agent.reference", "pilot.agent.scheduler"),
    ("pilot.agent", "pilot.agent"),
]

HARNESS = "harness"


@lru_cache(maxsize=None)
def layer_of_module(module: Optional[str]) -> str:
    if not module or not module.startswith("repro."):
        return HARNESS
    name = module[len("repro."):]
    for prefix, layer in MODULE_LAYERS:
        if name == prefix or name.startswith(prefix + "."):
            return layer
    return name


def resolve(root: Any, path: str) -> Any:
    """Walk ``a.b.0.c`` from *root*; raises LookupError when a step fails."""
    obj = root
    for part in path.split("."):
        try:
            obj = obj[int(part)] if part.isdigit() else getattr(obj, part)
        except (AttributeError, IndexError, KeyError, TypeError) as exc:
            raise LookupError(f"{path}: no {part!r} ({exc})") from None
        if obj is None:
            raise LookupError(f"{path}: {part!r} is None")
    return obj


class GenProxy:
    """Stands in for a generator and times each of its resumes."""

    __slots__ = ("_tracer", "_gen", "_key", "_process", "__name__")

    def __init__(self, tracer: "Tracer", gen: Any, key: int,
                 process: bool = False) -> None:
        self._tracer = tracer
        self._gen = gen
        self._key = key
        self._process = process
        self.__name__ = getattr(gen, "__name__", "generator")

    def send(self, value: Any) -> Any:
        tracer = self._tracer
        if not tracer.active:
            return self._gen.send(value)
        if self._process:
            tracer.process_resumes += 1
        return tracer.span(self._key, self._gen.send, (value,))

    def throw(self, *exc: Any) -> Any:
        tracer = self._tracer
        if not tracer.active:
            return self._gen.throw(*exc)
        if self._process:
            tracer.process_resumes += 1
        return tracer.span(self._key, self._gen.throw, exc)

    def close(self) -> None:
        self._gen.close()

    def __iter__(self) -> "GenProxy":
        return self

    def __next__(self) -> Any:
        return self.send(None)


class Tracer:
    """Aggregates self time per (layer, name) and keeps the first spans."""

    def __init__(self, span_cap: int = 50_000) -> None:
        self.active = False
        self.span_cap = span_cap
        self.keys: List[Tuple[str, str]] = []
        self._key_of: Dict[Tuple[str, str], int] = {}
        self.calls: List[int] = []
        self.self_s: List[float] = []
        #: generators started per key (``calls`` counts their resumes)
        self.started: List[int] = []
        #: (id, parent id, key, start, duration) of the first span_cap spans
        self.spans: List[Tuple[int, int, int, float, float]] = []
        self.absent: List[str] = []
        self.process_resumes = 0
        self.pending_peak = 0
        self.root_s = 0.0
        self._seq = 0
        self._open = 0
        self._child_s = 0.0
        self._patched: set = set()

    # -- span accounting --------------------------------------------------------
    def key(self, layer: str, name: str) -> int:
        k = self._key_of.get((layer, name))
        if k is None:
            k = self._key_of[(layer, name)] = len(self.keys)
            self.keys.append((layer, name))
            self.calls.append(0)
            self.self_s.append(0.0)
            self.started.append(0)
        return k

    def span(self, key: int, fn: Callable, args: tuple = (),
             kwargs: Optional[dict] = None) -> Any:
        """Run ``fn(*args, **kwargs)`` as one span under the open span."""
        parent = self._open
        self._seq += 1
        me = self._open = self._seq
        saved = self._child_s
        self._child_s = 0.0
        t0 = perf_counter()
        try:
            if kwargs:
                return fn(*args, **kwargs)
            return fn(*args)
        finally:
            dur = perf_counter() - t0
            self.self_s[key] += dur - self._child_s
            self.calls[key] += 1
            self._child_s = saved + dur
            self._open = parent
            if me <= self.span_cap:
                self.spans.append((me, parent, key, t0, dur))

    def run_root(self, fn: Callable[[], Any]) -> Any:
        """Run the timed phase as the root span; spans record only here."""
        key = self.key(HARNESS, "timed_phase")
        self.active = True
        self._child_s = 0.0
        try:
            return self.span(key, fn)
        finally:
            self.root_s = self._child_s  # what the root span handed "up"
            self.active = False

    # -- wrapping ---------------------------------------------------------------
    def wrap_generator(self, gen: Any, process: bool = False) -> Any:
        if isinstance(gen, GenProxy) or not hasattr(gen, "gi_code"):
            if process and isinstance(gen, GenProxy):
                gen._process = True
            return gen
        frame = gen.gi_frame
        module = frame.f_globals.get("__name__") if frame is not None else None
        code = gen.gi_code
        key = self.key(layer_of_module(module),
                       getattr(code, "co_qualname", code.co_name))
        if self.active:
            self.started[key] += 1
        return GenProxy(self, gen, key, process)

    def _plain(self, fn: Callable, key: int) -> Callable:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            return tracer.span(key, fn, args, kwargs)
        return traced

    def _gen(self, fn: Callable, key: int) -> Callable:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if tracer.active:
                tracer.started[key] += 1
            return GenProxy(tracer, fn(*args, **kwargs), key)
        return traced

    def _process(self, fn: Callable, key: int) -> Callable:
        tracer = self

        def traced(engine: Any, generator: Any) -> Any:
            generator = tracer.wrap_generator(generator, process=True)
            if not tracer.active:
                return fn(engine, generator)
            return tracer.span(key, fn, (engine, generator))
        return traced

    def _call_later(self, fn: Callable, key: int) -> Callable:
        tracer = self

        def fire(flight: tuple) -> None:
            cb_key, cb, arg = flight
            if tracer.active:
                tracer.span(cb_key, cb, (arg,))
            else:
                cb(arg)

        def traced(engine: Any, delay: float, cb: Callable, arg: Any = None,
                   *rest: Any, **kwargs: Any) -> Any:
            func = getattr(cb, "__func__", cb)
            cb_key = tracer.key(
                layer_of_module(getattr(func, "__module__", None)),
                getattr(func, "__qualname__", repr(func)))
            flight = (cb_key, cb, arg)
            if not tracer.active:
                return fn(engine, delay, fire, flight, *rest, **kwargs)
            return tracer.span(key, fn, (engine, delay, fire, flight) + rest,
                               kwargs)
        return traced

    def _peak(self, fn: Callable, key: int) -> Callable:
        """Like :meth:`_plain`, and samples the scheduler's queue depth."""
        tracer = self

        def traced(scheduler: Any, *args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(scheduler, *args, **kwargs)
            try:
                return tracer.span(key, fn, (scheduler,) + args, kwargs)
            finally:
                depth = getattr(scheduler, "queue_length", 0)
                if depth > tracer.pending_peak:
                    tracer.pending_peak = depth
        return traced

    def install(self, ctx: Any) -> None:
        """Patch every resolvable target class found on the live *ctx*."""
        for layer, path, methods in TARGETS:
            try:
                cls = type(resolve(ctx, path))
            except LookupError as exc:
                self.absent.extend(f"{layer}:{path}.{m} ({exc})"
                                   for m in methods)
                continue
            for method in methods:
                self._patch(layer, path, cls, method)

    def _patch(self, layer: str, path: str, cls: type, method: str) -> None:
        name, _, kind = method.partition(":")
        owner = next((k for k in cls.__mro__ if name in vars(k)), None)
        raw = vars(owner)[name] if owner is not None else None
        if not callable(raw) or isinstance(raw, (staticmethod, classmethod)):
            self.absent.append(f"{layer}:{path}.{name} (no plain method on "
                               f"{cls.__name__})")
            return
        if (owner, name) in self._patched:
            return
        self._patched.add((owner, name))
        key = self.key(layer, f"{owner.__name__}.{name}")
        wrapper = getattr(self, f"_{kind or 'plain'}")(raw, key)
        wrapper.__name__ = name
        wrapper.__wrapped__ = raw
        setattr(owner, name, wrapper)

    # -- results ----------------------------------------------------------------
    def layers(self) -> Dict[str, Dict[str, float]]:
        """``layer -> {"self_s", "calls"}`` summed over the layer's spans."""
        out: Dict[str, Dict[str, float]] = {}
        for (layer, _), calls, self_s in zip(self.keys, self.calls,
                                             self.self_s):
            row = out.setdefault(layer, {"self_s": 0.0, "calls": 0})
            row["self_s"] += self_s
            row["calls"] += calls
        return out

    def calls_of(self, layer: str, suffix: str) -> int:
        """Calls (for generators: starts) of ``<Class>.<suffix>`` spans."""
        total = 0
        for k, (lay, name) in enumerate(self.keys):
            if lay == layer and name.split(".")[-1] == suffix:
                total += self.started[k] or self.calls[k]
        return total

    def summary(self) -> Dict[str, Any]:
        layers = self.layers()
        total = sum(row["self_s"] for row in layers.values())
        root = self.root_s
        return {
            "root_s": root,
            "closure_gap": abs(total - root) / root if root else 0.0,
            "spans": self._seq,
            "spans_kept": len(self.spans),
            "process_resumes": self.process_resumes,
            "pending_peak": self.pending_peak,
            "absent": list(self.absent),
            "layers": {layer: {"self_s": row["self_s"],
                               "share": row["self_s"] / root if root else 0.0,
                               "calls": row["calls"]}
                       for layer, row in sorted(layers.items())},
            "by_name": {f"{layer}:{name}": {"self_s": self.self_s[k],
                                            "calls": self.calls[k],
                                            "started": self.started[k]}
                        for k, (layer, name) in enumerate(self.keys)
                        if self.calls[k] or self.started[k]},
        }

    def write_chrome_trace(self, path: str) -> int:
        """Write the kept spans as Chrome trace-event JSON (Perfetto)."""
        if not self.spans:
            return 0
        origin = min(s[3] for s in self.spans)
        events = [{"name": self.keys[key][1], "cat": self.keys[key][0],
                   "ph": "X", "pid": 1, "tid": 1,
                   "ts": round((t0 - origin) * 1e6, 3),
                   "dur": round(dur * 1e6, 3),
                   "args": {"id": me, "parent": parent}}
                  for me, parent, key, t0, dur in self.spans]
        events.sort(key=lambda e: e["ts"])
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh,
                      separators=(",", ":"))
        return len(events)
