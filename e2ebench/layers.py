"""Per-layer tracing from the benchmark's own files.

``Tracer.install`` wraps public entry points of the ``repro`` packages
(the layers) in span recorders.  A span is ``[name, start, end, parent,
task]``: spans live in memory for the whole traced run and are written
out once, as a Chrome trace, when it ends.  A layer's self time is its
spans' duration minus the time their child spans cover; shares are of
the traced task time, and ``unattributed_share`` is the tasks' own self
time (everything no wrapped entry point covers).

Counts are taken at the same boundaries (e.g. every ``Link.send``), so
per-flow ratios are measured where the work happens.
"""

from __future__ import annotations

import gzip
import json
import statistics
import time
from typing import Callable, Dict, List, Optional

import repro.engine
import repro.engine.hybrid
import repro.experiments.runner
import repro.parallel
from repro import ResultCache
from repro.controllersim.controller import Controller
from repro.core.flow_buffer import FlowPacketBuffer
from repro.core.mechanisms import BufferMechanism
from repro.metrics.collector import MetricsSuite, PathMetricsSuite
from repro.netsim.link import Link
from repro.openflow.channel import ControlChannel
from repro.openflow.flowtable import FlowTable
from repro.openflow.pktbuffer import PacketBuffer
from repro.simkit.simulator import Simulator
from repro.simkit.stations import ServiceStation
from repro.switchsim.agent import OpenFlowAgent
from repro.switchsim.datapath import Datapath

#: Layers whose self time is reported as ``<layer>.self_share``.
SHARE_LAYERS = ("simkit", "switchsim", "openflow", "core", "controllersim",
                "netsim", "metrics", "engine", "parallel")
#: Layers whose whole-call time is reported as ``<layer>.build_share``.
BUILD_LAYERS = ("trafficgen", "scenarios")
#: Stations whose submits are reported per flow.
STATIONS = ("switch-cpu", "switch-bus", "ofconn-apply", "controller-cpu")

#: Every per-layer metric: name -> unit (the traced run prints all).
PER_LAYER = {
    "simkit.self_share": "share",
    "simkit.events_per_flow": "count/flow",
    **{f"simkit.submits_per_flow.{s}": "count/flow" for s in STATIONS},
    "switchsim.self_share": "share",
    "switchsim.ingress_per_flow": "count/flow",
    "switchsim.misses_per_flow": "count/flow",
    "openflow.self_share": "share",
    "openflow.lookups_per_flow": "count/flow",
    "openflow.lookup_hit_ratio": "ratio",
    "openflow.ctrl_bytes_per_flow": "bytes/flow",
    "core.self_share": "share",
    "core.packet_ins_per_flow": "count/flow",
    "core.buffered_per_flow": "count/flow",
    "controllersim.self_share": "share",
    "controllersim.messages_per_flow": "count/flow",
    "netsim.self_share": "share",
    "netsim.sends_per_flow": "count/flow",
    "metrics.self_share": "share",
    "metrics.snapshot_ms": "ms",
    "trafficgen.build_share": "share",
    "scenarios.build_share": "share",
    "engine.self_share": "share",
    "engine.aggregated_packet_ratio": "ratio",
    "parallel.self_share": "share",
    "parallel.cold_sweep_ms": "ms",
    "parallel.warm_sweep_ms": "ms",
    "parallel.cache_get_us": "us",
    "parallel.cache_put_us": "us",
    "parallel.warm_hit_ratio": "ratio",
    "bufferpool.rejections_per_flow": "count/flow",
    "faults.retries_per_flow": "count/flow",
    "unattributed_share": "share",
    "trace.overhead_ratio": "ratio",
    "host.ref_ms": "ms",
}

TASK = "task"


def _layer(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        self._task = -1
        self._undo: List[tuple] = []
        self._sim_events: Dict[tuple, int] = {}
        #: id(station) -> role, for the testbed of the current task.
        self._station_roles: Dict[int, str] = {}

    # -- recording ------------------------------------------------------
    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack
        index = len(self.spans)
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._task]
        self.spans.append(span)
        stack.append(index)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()

    def task(self, task_id: int, fn: Callable, *args):
        """Run one repetition as a root ``task`` span."""
        self._task = task_id
        return self.call(TASK, fn, *args)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    # -- wrapping -------------------------------------------------------
    def wrap(self, owner, attr: str, name: str,
             hook: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (and overrides in subclasses) by a span.

        ``hook(args, kwargs, result)`` runs after each normal return.
        """
        owners = [owner]
        if isinstance(owner, type):
            pending = list(owner.__subclasses__())
            while pending:
                cls = pending.pop()
                pending.extend(cls.__subclasses__())
                if attr in cls.__dict__:
                    owners.append(cls)
        for target in owners:
            original = (target.__dict__[attr] if isinstance(target, type)
                        else getattr(target, attr))
            setattr(target, attr, self._wrapper(name, original, hook))
            self._undo.append((target, attr, original))

    def _wrapper(self, name, original, hook):
        call = self.call
        if hook is None:
            def wrapper(*args, **kwargs):
                return call(name, original, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                result = call(name, original, *args, **kwargs)
                hook(args, kwargs, result)
                return result
        wrapper.__name__ = getattr(original, "__name__", name)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        return wrapper

    def restore(self) -> None:
        """Put every wrapped entry point back."""
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def install(self, sweep: bool) -> None:
        """Wrap the layers' entry points.

        A sweep runs its repetitions in forked workers, whose spans the
        parent never sees; it wraps only the parent-side orchestration.
        """
        count = self.count
        if sweep:
            self.wrap(repro.parallel, "run_sweep_jobs", "parallel.run")
            self.wrap(ResultCache, "get", "parallel.cache_get")
            self.wrap(ResultCache, "put", "parallel.cache_put")
            return

        def sim_events(args, kwargs, result):
            sim = args[0]
            self._sim_events[(self._task, id(sim))] = sim.events_executed

        def lookup(args, kwargs, result):
            count("lookups")
            if result is not None:
                count("lookup_hits")

        def ctrl_bytes(args, kwargs, result):
            channel, message = args[0], args[1]
            count("ctrl_bytes", channel.wire_size(message))

        def aggregate(args, kwargs, result):
            count("aggregated_packets",
                  args[1] if len(args) > 1 else kwargs["count"])

        def counter(key):
            return lambda args, kwargs, result: count(key)

        def station_roles(args, kwargs, testbed):
            roles = {id(testbed.controller.station): "controller-cpu"}
            for switch in testbed.switches:
                roles[id(switch.cpu.station)] = "switch-cpu"
                roles[id(switch.bus.station)] = "switch-bus"
                roles[id(switch.agent.apply_station)] = "ofconn-apply"
            self._station_roles = roles

        def submit(args, kwargs, result):
            role = self._station_roles.get(id(args[0]))
            if role is not None:
                count(f"submit.{role}")

        self.wrap(Simulator, "run", "simkit.run", sim_events)
        self.wrap(ServiceStation, "submit", "simkit.submit", submit)
        self.wrap(Datapath, "ingress", "switchsim.ingress",
                  counter("ingress"))
        self.wrap(Datapath, "egress", "switchsim.egress")
        self.wrap(OpenFlowAgent, "handle_miss", "switchsim.handle_miss",
                  counter("misses"))
        self.wrap(OpenFlowAgent, "handle_controller_message",
                  "switchsim.handle_controller_message")
        self.wrap(FlowTable, "lookup", "openflow.lookup", lookup)
        self.wrap(PacketBuffer, "store", "openflow.store",
                  counter("buffered"))
        self.wrap(PacketBuffer, "release", "openflow.release")
        self.wrap(ControlChannel, "send_to_controller",
                  "openflow.send_to_controller", ctrl_bytes)
        self.wrap(ControlChannel, "send_to_switch",
                  "openflow.send_to_switch", ctrl_bytes)
        for attr in ("on_miss", "on_packet_out", "on_flow_mod_release"):
            self.wrap(BufferMechanism, attr, f"core.{attr}")
        for attr in ("buffer_first_packet", "buffer_subsequent_packet"):
            self.wrap(FlowPacketBuffer, attr, f"core.{attr}",
                      counter("buffered"))
        for attr in ("release_all", "drop_all", "expire_older_than"):
            self.wrap(FlowPacketBuffer, attr, f"core.{attr}")
        self.wrap(Controller, "handle_message", "controllersim.handle_message",
                  counter("controller_messages"))
        self.wrap(Link, "send", "netsim.send", counter("link_sends"))
        self.wrap(MetricsSuite, "snapshot", "metrics.snapshot")
        self.wrap(PathMetricsSuite, "snapshot", "metrics.snapshot")
        self.wrap(repro.experiments.runner, "build_scenario",
                  "scenarios.build", station_roles)
        self.wrap(repro.engine, "install_hybrid_drivers", "engine.install")
        self.wrap(repro.engine.hybrid.HybridFlowDriver, "start",
                  "engine.start")
        self.wrap(Datapath, "forward_aggregate", "engine.forward_aggregate",
                  aggregate)
        for fn in ("arithmetic_last_egress", "hit_path_latency",
                   "hit_path_spacing", "train_last_egress"):
            self.wrap(repro.engine.hybrid, fn, f"engine.{fn}")

    # -- analysis -------------------------------------------------------
    def self_times(self) -> tuple:
        """(self seconds per layer, total task seconds)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, task in spans:
            if parent >= 0:
                child[parent] += end - start
        by_layer: Dict[str, float] = {}
        total = 0.0
        for index, (name, start, end, parent, task) in enumerate(spans):
            duration = end - start
            layer = _layer(name)
            by_layer[layer] = by_layer.get(layer, 0.0) + duration - child[index]
            if parent < 0:
                if name != TASK:
                    raise RuntimeError(f"span {name!r} outside any task")
                total += duration
        return by_layer, total

    def durations(self, name: str) -> List[float]:
        """Seconds of every outermost span called ``name``.

        A span nested in one of the same name (an override calling
        ``super()``) is part of its parent's duration, not a call.
        """
        spans = self.spans
        return [end - start for n, start, end, parent, _ in spans
                if n == name and (parent < 0 or spans[parent][0] != name)]

    @property
    def events_executed(self) -> int:
        return sum(self._sim_events.values())

    def write_chrome_trace(self, path, tasks: int = 16) -> None:
        """The spans of the first ``tasks`` tasks as Chrome JSON (gzip).

        Every span feeds the metrics; the file keeps a sample small
        enough to open in Perfetto.
        """
        origin = self.spans[0][1] if self.spans else 0.0
        events = [{"name": name, "cat": _layer(name), "ph": "X",
                   "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                   "pid": 1, "tid": 1, "args": {"task": task,
                                                "parent": parent}}
                  for name, start, end, parent, task in self.spans
                  if task < tasks]
        with gzip.open(path, "wt", compresslevel=1) as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)


def per_layer_metrics(tracer: Tracer, traced, untraced,
                      ref_ms: float) -> tuple:
    """(metric values, bases) of one traced run.

    ``traced`` and ``untraced`` are the two runs' Measurements; every
    ratio's numerator and denominator land in ``bases``.
    """
    by_layer, task_s = tracer.self_times()
    counts = dict(tracer.counts)
    flows = traced.counts.get("flows", 0)
    values: Dict[str, float] = {}
    bases: Dict[str, list] = {}

    def ratio(name, numerator, denominator):
        values[name] = numerator / denominator if denominator else 0.0
        bases[name] = [numerator, denominator]

    attributed = 0.0
    for layer in SHARE_LAYERS:
        ratio(f"{layer}.self_share", by_layer.get(layer, 0.0), task_s)
        attributed += values[f"{layer}.self_share"]
    for layer in BUILD_LAYERS:
        ratio(f"{layer}.build_share", by_layer.get(layer, 0.0), task_s)
        attributed += values[f"{layer}.build_share"]
    ratio("unattributed_share", by_layer.get(TASK, 0.0), task_s)

    ratio("simkit.events_per_flow", tracer.events_executed, flows)
    for station in STATIONS:
        ratio(f"simkit.submits_per_flow.{station}",
              counts.get(f"submit.{station}", 0), flows)
    ratio("switchsim.ingress_per_flow", counts.get("ingress", 0), flows)
    ratio("switchsim.misses_per_flow", counts.get("misses", 0), flows)
    ratio("openflow.lookups_per_flow", counts.get("lookups", 0), flows)
    ratio("openflow.lookup_hit_ratio", counts.get("lookup_hits", 0),
          counts.get("lookups", 0))
    ratio("openflow.ctrl_bytes_per_flow", counts.get("ctrl_bytes", 0), flows)
    ratio("core.packet_ins_per_flow", traced.counts.get("packet_ins", 0),
          flows)
    ratio("core.buffered_per_flow", counts.get("buffered", 0), flows)
    ratio("controllersim.messages_per_flow",
          counts.get("controller_messages", 0), flows)
    ratio("netsim.sends_per_flow", counts.get("link_sends", 0), flows)
    ratio("engine.aggregated_packet_ratio",
          counts.get("aggregated_packets", 0),
          traced.counts.get("logical_packets", 0))
    ratio("bufferpool.rejections_per_flow",
          traced.counts.get("rejections", 0), flows)
    ratio("faults.retries_per_flow", traced.counts.get("retries", 0), flows)
    ratio("parallel.warm_hit_ratio", traced.warm_hits, traced.warm_gets)
    ratio("trace.overhead_ratio", traced.flows_per_s, untraced.flows_per_s)

    factor = traced.factor
    snapshots = tracer.durations("metrics.snapshot")
    values["metrics.snapshot_ms"] = (
        statistics.fmean(snapshots) * 1000.0 * factor if snapshots else 0.0)
    gets = tracer.durations("parallel.cache_get")
    puts = tracer.durations("parallel.cache_put")
    values["parallel.cache_get_us"] = (
        statistics.fmean(gets) * 1e6 * factor if gets else 0.0)
    values["parallel.cache_put_us"] = (
        statistics.fmean(puts) * 1e6 * factor if puts else 0.0)
    values["parallel.cold_sweep_ms"] = (
        statistics.median(traced.cold_ms) if traced.cold_ms else 0.0)
    values["parallel.warm_sweep_ms"] = (
        statistics.median(traced.warm_ms) if traced.warm_ms else 0.0)
    values["host.ref_ms"] = ref_ms
    bases["share_sum"] = [attributed + values["unattributed_share"], 1.0]
    return values, bases
