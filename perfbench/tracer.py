"""Outside-in span tracer for the benchmark's traced run.

The tracer never edits ``src/``: :func:`instrument` replaces the public entry
points of each ``repro`` layer (class attributes and module functions) with
wrappers that open a span, call the original and close the span, and
:meth:`Tracer.uninstall` puts the originals back.  Spans live in flat
in-memory arrays (kind, parent, start, end, self time) and are written out
once, when the run ends.

Self time is exact: each open span accumulates the durations of its direct
children, and at close its self time is its duration minus that sum.  The
benchmark opens one ``bench`` span around every unit, so the self times of
all layers add up to the traced wall time, minus the few instructions of
the benchmark loop between units.

Simulation processes are generators driven by the engine; their bodies are
traced per resume: :class:`_TracedGenerator` stands in for the generator
and times every ``send``/``throw`` the engine makes.
"""

from __future__ import annotations

import functools
import json
import time
from array import array

#: Layers in report order; every span kind belongs to one of them.
LAYERS = (
    "bench",
    "simulation",
    "engine",
    "slave",
    "net",
    "sched",
    "master",
    "storage",
    "obs",
    "check",
    "ec",
    "testbed",
    "campaign",
    "cache",
    "journal",
)


class Tracer:
    """Records nested spans; see the module docstring."""

    def __init__(self) -> None:
        #: Span kind id -> (layer, qualified name).
        self.kinds: list[tuple[str, str]] = []
        self._kind_ids: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        #: Open spans, innermost last: [span index, child time so far].
        self._stack: list[list] = []
        #: Counters filled by result hooks (productive assigns, cache hits...).
        self.counters: dict[str, float] = {}
        #: Reed-Solomon coders seen, for their decode-plan cache counters.
        self.coders: dict[int, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def kind_id(self, layer: str, name: str) -> int:
        if layer not in LAYERS:
            raise ValueError(f"unknown layer {layer!r}")
        key = f"{layer}:{name}"
        kid = self._kind_ids.get(key)
        if kid is None:
            kid = self._kind_ids[key] = len(self.kinds)
            self.kinds.append((layer, name))
        return kid

    def open(self, kid: int) -> list:
        stack = self._stack
        index = len(self.kind)
        self.kind.append(kid)
        self.parent.append(stack[-1][0] if stack else -1)
        self.end.append(0.0)
        self.self_time.append(0.0)
        frame = [index, 0.0]
        stack.append(frame)
        self.start.append(time.perf_counter())
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        index = frame[0]
        duration = end - self.start[index]
        self.end[index] = end
        self.self_time[index] = duration - frame[1]
        if stack:
            stack[-1][1] += duration

    def wrap(self, layer: str, name: str, fn, on_result=None):
        """A ``functools.wraps`` copy of ``fn`` that records one span per call.

        ``on_result(args, result)`` runs after the span closes, so hook work
        is not charged to the layer.
        """
        kid = self.kind_id(layer, name)
        tracer_open, tracer_close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer_open(kid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer_close(frame)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def wrap_generator(self, layer: str, name: str, fn):
        """Wrap a generator function so each resume of its body is a span."""
        kid = self.kind_id(layer, name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _TracedGenerator(fn(*args, **kwargs), tracer, kid)

        return traced

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, layer: str, name: str | None = None,
              on_result=None, generator: bool = False) -> None:
        original = owner.__dict__[attr]
        label = name or f"{getattr(owner, '__name__', owner)}.{attr}"
        if generator:
            replacement = self.wrap_generator(layer, label, original)
        else:
            replacement = self.wrap(layer, label, original, on_result)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span: a JSON header line, then the raw arrays."""
        header = {
            "kinds": [list(kind) for kind in self.kinds],
            "spans": len(self.kind),
            "arrays": ["kind:i32", "parent:i32", "start:f64", "end:f64", "self:f64"],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.kind, self.parent, self.start, self.end, self.self_time):
                column.tofile(handle)


class _TracedGenerator:
    """Generator stand-in that records one span per engine resume."""

    __slots__ = ("_generator", "_tracer", "_kid")

    def __init__(self, generator, tracer: Tracer, kid: int) -> None:
        self._generator = generator
        self._tracer = tracer
        self._kid = kid

    def send(self, value):
        frame = self._tracer.open(self._kid)
        try:
            return self._generator.send(value)
        finally:
            self._tracer.close(frame)

    def throw(self, error):
        frame = self._tracer.open(self._kid)
        try:
            return self._generator.throw(error)
        finally:
            self._tracer.close(frame)

    def close(self) -> None:
        self._generator.close()


def _public_methods(cls) -> list[str]:
    return [
        attr
        for attr, value in vars(cls).items()
        if not attr.startswith("_") and callable(value) and not isinstance(value, type)
    ]


def instrument(tracer: Tracer) -> None:
    """Wrap the entry points of every ``repro`` layer the benchmark reaches."""
    from repro.check import invariants
    from repro.core import scheduler
    from repro.ec import codec, reed_solomon
    from repro.experiments import cache, campaign, tournament
    from repro.mapreduce import master, simulation, slave
    from repro.obs import collector, events
    from repro.sim import engine, resources
    from repro.storage import degraded, repair
    from repro.testbed import localfs

    count = tracer.count

    # engine: the dispatch loop.  Its self time is everything a dispatched
    # entry runs that no other layer claims.
    tracer.patch(
        engine.Simulator, "run", "engine",
        on_result=lambda args, _r: count("engine.dispatched", args[0].dispatched),
    )
    # simulation: trial assembly and result building around the loop.
    for module in (simulation, campaign):
        tracer.patch(module, "run_simulation", "simulation", name="run_simulation")

    # slave: the bodies of the per-node and per-task processes.
    for name in ("slave_process", "map_task_process", "reduce_task_process"):
        tracer.patch(slave, name, "slave", name=name, generator=True)

    # net: flow start/cancel, the completion callback, and every
    # max-min reallocation (called from all three).
    tracer.patch(resources.FluidNetwork, "transfer", "net")
    tracer.patch(resources.FluidNetwork, "cancel", "net")
    tracer.patch(resources.FluidNetwork, "_reschedule", "net")
    completion_kid = tracer.kind_id("net", "FluidNetwork.completion")
    call_at = engine.Simulator.__dict__["call_at"]

    @functools.wraps(call_at)
    def traced_call_at(self, when, fn):
        # The completion callback is a closure built inside _reschedule;
        # it can only be reached where it is handed to the engine.
        if getattr(fn, "__qualname__", "").endswith("_reschedule.<locals>.fire"):
            inner = fn

            def fn():
                frame = tracer.open(completion_kid)
                try:
                    inner()
                finally:
                    tracer.close(frame)

        return call_at(self, when, fn)

    tracer._patches.append((engine.Simulator, "call_at", call_at))
    engine.Simulator.call_at = traced_call_at

    # sched: one call per heartbeat; productive when it assigns anything.
    def on_assign(_args, result):
        if result[0] or result[1]:
            count("sched.productive")

    tracer.patch(scheduler.Scheduler, "assign", "sched", on_result=on_assign)

    # master: every public JobTracker method.
    for attr in _public_methods(master.JobTracker):
        tracer.patch(master.JobTracker, attr, "master")

    # storage: degraded-read and repair planning.
    tracer.patch(degraded.DegradedReadPlanner, "plan", "storage")
    tracer.patch(repair.RepairPlanner, "plan", "storage")

    # obs: the event bus and the collector's hooks (the bus subscription
    # binds _on_event when a collector is built, after this patch).
    observer_hooks = (
        "slot_changed", "register_links", "flow_started", "flow_finished",
        "flow_cancelled", "rates_updated", "finalize", "_on_event",
    )
    tracer.patch(events.EventBus, "emit", "obs")
    for attr in observer_hooks:
        tracer.patch(collector.ObservabilityCollector, attr, "obs")

    # check: the sanitizer's hooks, the engine's per-dispatch one included.
    for attr in observer_hooks + ("on_trial_built", "on_dispatch"):
        tracer.patch(invariants.InvariantMonitor, attr, "check")

    # ec: codec entry points and the coder kernels beneath them.
    def on_encode(args, _result):
        count("ec.encode_bytes", sum(len(block) for stripe in args[1] for block in stripe))

    def on_reconstruct(args, _result):
        tracer.coders[id(args[0])] = args[0]

    tracer.patch(codec.ErasureCodec, "encode_stripes", "ec", on_result=on_encode)
    tracer.patch(codec.ErasureCodec, "degraded_read", "ec")
    tracer.patch(codec.ErasureCodec, "decode_natives", "ec")
    tracer.patch(reed_solomon.ReedSolomon, "encode", "ec")
    tracer.patch(reed_solomon.ReedSolomon, "encode_stripes", "ec")
    tracer.patch(reed_solomon.ReedSolomon, "decode", "ec")
    tracer.patch(
        reed_solomon.ReedSolomon, "reconstruct_block", "ec", on_result=on_reconstruct
    )

    # testbed: the filesystem calls the ec-storage workload makes.
    tracer.patch(localfs.HdfsRaidFilesystem, "write_file", "testbed")
    tracer.patch(localfs.HdfsRaidFilesystem, "repair_failed_nodes", "testbed")

    # campaign: the tournament driver, the engine, and the trial runner.
    # functools.wraps keeps sweep_trial's qualified name, which is part of
    # the result-cache key, so warm passes still hit.
    tracer.patch(tournament, "run_tournament", "campaign", name="run_tournament")
    tracer.patch(tournament, "sweep_trial", "campaign", name="sweep_trial")
    tracer.patch(campaign.CampaignEngine, "run", "campaign")

    def on_get(_args, result):
        count("cache.hits" if result is not None else "cache.misses")

    tracer.patch(cache.ResultCache, "get", "cache", on_result=on_get)
    tracer.patch(cache.ResultCache, "put", "cache")
    tracer.patch(campaign.Journal, "append_done", "journal")
    tracer.patch(campaign.Journal, "append_failure", "journal")


_ENCODE = ("ErasureCodec.encode_stripes", "ReedSolomon.encode", "ReedSolomon.encode_stripes")
_RECONSTRUCT = (
    "ErasureCodec.degraded_read",
    "ErasureCodec.decode_natives",
    "ReedSolomon.reconstruct_block",
    "ReedSolomon.decode",
)


def summarize(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer metrics of a traced pass that took ``wall`` seconds."""
    import numpy as np

    kind = np.frombuffer(tracer.kind, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    start = np.frombuffer(tracer.start, dtype=np.float64)
    end = np.frombuffer(tracer.end, dtype=np.float64)
    self_time = np.frombuffer(tracer.self_time, dtype=np.float64)
    duration = end - start
    kinds = len(tracer.kinds)
    counts = np.bincount(kind, minlength=kinds)
    self_by_kind = np.bincount(kind, weights=self_time, minlength=kinds)
    duration_by_kind = np.bincount(kind, weights=duration, minlength=kinds)
    layer_of = [layer for layer, _name in tracer.kinds]

    def kid(layer, name):
        return tracer._kind_ids.get(f"{layer}:{name}")

    def n(layer, *names):
        return float(sum(counts[k] for k in (kid(layer, x) for x in names) if k is not None))

    def inclusive(layer, *names):
        return float(sum(
            duration_by_kind[k] for k in (kid(layer, x) for x in names) if k is not None
        ))

    def layer_self(layer):
        return float(sum(self_by_kind[k] for k in range(kinds) if layer_of[k] == layer))

    def layer_calls(layer):
        return float(sum(counts[k] for k in range(kinds) if layer_of[k] == layer))

    def self_us(layer, name, q):
        k = kid(layer, name)
        values = self_time[kind == k] if k is not None else self_time[:0]
        return float(np.percentile(values, q) * 1e6) if values.size else 0.0

    def outermost(layer, names):
        # Inclusive time of the spans of ``names`` not nested in their own layer.
        ids = [k for k in (kid(layer, x) for x in names) if k is not None]
        if not ids:
            return 0.0
        in_layer = np.array([x == layer for x in layer_of] + [False])
        parent_in_layer = in_layer[np.where(parent >= 0, kind[parent], kinds)]
        chosen = np.isin(kind, ids) & ~parent_in_layer
        return float(duration[chosen].sum())

    values: dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layer_self(layer)
        values[f"{layer}.share"] = values[f"{layer}.self_s"] / wall
    counters = tracer.counters
    assign_calls = n("sched", "Scheduler.assign")
    plan_hits = plan_misses = 0
    for coder in tracer.coders.values():
        info = coder.plan_cache_info()
        plan_hits += info["plan_hits"] + info["row_hits"]
        plan_misses += info["plan_misses"] + info["row_misses"]
    values.update({
        "engine.dispatched": counters.get("engine.dispatched", 0.0),
        "net.transfers": n("net", "FluidNetwork.transfer"),
        "net.cancels": n("net", "FluidNetwork.cancel"),
        "net.reallocs": n("net", "FluidNetwork._reschedule"),
        "net.realloc_us_p50": self_us("net", "FluidNetwork._reschedule", 50),
        "net.realloc_us_p99": self_us("net", "FluidNetwork._reschedule", 99),
        "sched.assign_calls": assign_calls,
        "sched.productive_frac": (
            counters.get("sched.productive", 0.0) / assign_calls if assign_calls else 0.0
        ),
        "sched.assign_us_p50": self_us("sched", "Scheduler.assign", 50),
        "sched.assign_us_p99": self_us("sched", "Scheduler.assign", 99),
        "master.heartbeats": n("master", "JobTracker.heartbeat"),
        "storage.plans": layer_calls("storage"),
        "obs.emits": n("obs", "EventBus.emit"),
        "obs.hook_calls": layer_calls("obs") - n("obs", "EventBus.emit"),
        "check.hook_calls": layer_calls("check"),
        "ec.encode_bytes": counters.get("ec.encode_bytes", 0.0),
        "ec.encode_s": outermost("ec", _ENCODE),
        "ec.reconstruct_calls": n("ec", "ReedSolomon.reconstruct_block"),
        "ec.reconstruct_s": outermost("ec", _RECONSTRUCT),
        "ec.plan_cache_hit_frac": (
            plan_hits / (plan_hits + plan_misses) if plan_hits + plan_misses else 0.0
        ),
        "campaign.runner_s": inclusive("campaign", "sweep_trial"),
        "cache.hits": counters.get("cache.hits", 0.0),
        "cache.misses": counters.get("cache.misses", 0.0),
        "cache.get_s": inclusive("cache", "ResultCache.get"),
        "cache.put_s": inclusive("cache", "ResultCache.put"),
        "journal.appends": layer_calls("journal"),
        "journal.s": inclusive("journal", "Journal.append_done", "Journal.append_failure"),
        "trace.spans": float(len(kind)),
        "trace.wall_s": wall,
        "trace.coverage": float(self_time.sum()) / wall,
    })
    return values
