"""The benchmark's workloads, run through the public ``repro`` API.

Three serial workloads repeat a fixed grid of *cells* (one buffer
configuration at one sending rate, with its own run seed) for a fixed
number of passes; one pass is one timed slice, bracketed by the host
reference kernel.  ``sweep`` runs a reduced figsharing study through
the parallel engine, cold then warm, once per pass.

Every repetition's simulated outputs are digested.  A repetition fails
if it raises, if a faultless cell comes back incomplete, or if its
digest differs from the first pass's or from the one pinned for the
seed in ``baseline.json``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import repro.parallel
import repro.parallel.engine
from repro import (BufferConfig, ResultCache, buffer_16, buffer_256,
                   derive_seed, flow_buffer_256, no_buffer, run_once)
from repro.bufferpool import SCOPE_PORT, dt_pool, static_pool
from repro.core import MECHANISM_FLOW, MECHANISM_PACKET
from repro.engine import HYBRID
from repro.experiments.calibration import prototype_calibration
from repro.experiments.figures import (SHARING_CAPACITY, SHARING_FANIN,
                                       SHARING_RATE_MBPS,
                                       run_figsharing_experiment,
                                       scale_workload, workload_a_factory,
                                       workload_b_factory)
from repro.metrics.series import TimeSeries
from repro.scenarios import SINGLE, build_scenario, fanin_scenario
from repro.simkit import RandomStreams, mbps

from hostref import HostClock, adjustment, time_reference

#: A fixed pass count gives every run the same sample count; at least
#: this many repetitions per run leave ten samples beyond the p90.
MIN_TASK_SAMPLES = 100

#: §IV workload A at a quarter of the paper's 1000 flows per
#: repetition (the miss path per flow is the same).  At this size a full
#: garbage collection lands in about one repetition in twenty, so the
#: p90 sits in the body of the distribution, not on the edge of the GC
#: tail, and 243 repetitions fit one run.
BENEFITS_FLOWS = 250
BENEFITS_RATES = (20.0, 50.0, 80.0)
MECHANISM_RATES = (20.0, 50.0, 80.0, 95.0)
#: figscale's 64-packet trains.  Flows per repetition are kept small
#: for the same reasons as ``BENEFITS_FLOWS``: a full collection in one
#: repetition out of twenty, and 100+ repetitions in one run.
SCALE_FLOWS = 250
#: Reduced figsharing grid: {static, dt(2)} × {0, 1 %} loss × both
#: granularities on fanin:4, 32 tasks per sweep.
SWEEP_FLOWS = 250
SWEEP_REPETITIONS = 4
SWEEP_LOSS_RATES = (0.0, 0.01)
SWEEP_WORKERS = 2


def digest(obj) -> str:
    """Short sha256 of a dataclass's fields (sample series included)."""
    data = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, TimeSeries):
            value = [value.times, value.values]
        elif dataclasses.is_dataclass(value):
            value = dataclasses.asdict(value)
        data[f.name] = value
    text = json.dumps(data, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Cell:
    """One grid point of a serial workload: everything one rep needs."""

    key: str
    config: BufferConfig
    factory: Callable
    rate_mbps: float
    seed: int
    calibration: object = None
    scenario: object = None

    def build_workload(self):
        """The workload factory call (the trafficgen layer)."""
        return self.factory(mbps(self.rate_mbps), RandomStreams(self.seed))

    def run(self, workload):
        """``run_once`` on a fresh testbed."""
        return run_once(self.config, workload, calibration=self.calibration,
                        seed=self.seed, scenario=self.scenario)

    def build_testbed(self, workload):
        """The testbed ``run_once`` would build (set-up probe only)."""
        return build_scenario(self.scenario or SINGLE, self.config, workload,
                              calibration=self.calibration, seed=self.seed)


def _grid(seed, configs, rates, factory, **kwargs) -> List[Cell]:
    cells = []
    for config in configs:
        for rate in rates:
            index = len(cells)
            cells.append(Cell(key=f"{config.label}@{rate:g}", config=config,
                              factory=factory, rate_mbps=rate,
                              seed=derive_seed(seed, rate, index), **kwargs))
    return cells


def benefits_cells(seed: int) -> List[Cell]:
    """§IV: every flow misses, so nearly all work is the miss path."""
    return _grid(seed, (no_buffer(), buffer_16(), buffer_256()),
                 BENEFITS_RATES, workload_a_factory(n_flows=BENEFITS_FLOWS))


def mechanism_cells(seed: int) -> List[Cell]:
    """§V: cross-sequenced multi-packet flows on the prototype calibration."""
    return _grid(seed, (buffer_256(), flow_buffer_256()), MECHANISM_RATES,
                 workload_b_factory(), calibration=prototype_calibration())


def _scale_factory(rate_bps, rng):
    return scale_workload(SCALE_FLOWS)


def scale_cells(seed: int) -> List[Cell]:
    """figscale trains on the hybrid engine; the rate is the pacing label."""
    hybrid = SINGLE.with_engine(HYBRID)
    cells = []
    for config in (flow_buffer_256(), buffer_256()):
        for replica in range(2):
            index = len(cells)
            cells.append(Cell(key=f"{config.label}#{replica}", config=config,
                              factory=_scale_factory, rate_mbps=4.0,
                              seed=derive_seed(seed, 4.0, index),
                              scenario=hybrid))
    return cells


def _sweep_configs():
    return (BufferConfig(mechanism=MECHANISM_PACKET, capacity=SHARING_CAPACITY),
            BufferConfig(mechanism=MECHANISM_FLOW, capacity=SHARING_CAPACITY))


def _sweep_pools():
    return (static_pool(scope=SCOPE_PORT), dt_pool(alpha=2.0, scope=SCOPE_PORT))


def sweep_first_cell(seed: int) -> Cell:
    """The sweep's first grid point, for the set-up probe."""
    return Cell(key="sweep", config=_sweep_configs()[0],
                factory=workload_a_factory(n_flows=SWEEP_FLOWS),
                rate_mbps=SHARING_RATE_MBPS,
                seed=derive_seed(seed, SHARING_RATE_MBPS, 0),
                scenario=fanin_scenario(SHARING_FANIN).with_pool(
                    _sweep_pools()[0]))


#: Serial workloads: name -> (grid function, seconds of ``--seconds``
#: one pass is charged).  A pass of ``scale`` takes about 0.45 nominal
#: seconds but is charged 0.3: its GC tail makes the p90 need more
#: samples, and its runs are the shortest of the four.
SERIAL = {
    "benefits": (benefits_cells, 0.55),
    "mechanism": (mechanism_cells, 0.7),
    "scale": (scale_cells, 0.3),
}
#: Nominal seconds of one sweep pass (cold + warm).
SWEEP_PASS_S = 1.7
WORKLOADS = tuple(SERIAL) + ("sweep",)


def first_cell(name: str, seed: int) -> Cell:
    """The first cell a workload builds (what ``setup_s`` times)."""
    if name == "sweep":
        return sweep_first_cell(seed)
    return SERIAL[name][0](seed)[0]


def passes_for(name: str, seconds: float) -> int:
    """Fixed pass count for a run of nominally ``seconds``."""
    if name == "sweep":
        per_pass, tasks = SWEEP_PASS_S, 8 * SWEEP_REPETITIONS
    else:
        grid, per_pass = SERIAL[name]
        tasks = len(grid(0))
    return max(math.ceil(MIN_TASK_SAMPLES / tasks), round(seconds / per_pass))


@dataclass
class Measurement:
    """What one measured run produced."""

    flows: int = 0
    raw_s: float = 0.0
    adjusted_s: float = 0.0
    #: Per pass: flows completed per adjusted / raw second.
    pass_rates: List[float] = field(default_factory=list)
    pass_raw_rates: List[float] = field(default_factory=list)
    task_raw_ms: List[float] = field(default_factory=list)
    task_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: cell key -> digest of its simulated outputs.
    digests: Dict[str, str] = field(default_factory=dict)
    #: Counts from the simulated outputs (per-layer bases).
    counts: Dict[str, float] = field(default_factory=dict)
    #: Sweep only: adjusted ms of each cold / warm pass, cache stats.
    cold_ms: List[float] = field(default_factory=list)
    warm_ms: List[float] = field(default_factory=list)
    warm_hits: int = 0
    warm_gets: int = 0
    #: Host adjustment factor of every timed slice.
    factors: List[float] = field(default_factory=list)

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def add_task(self, seconds: float, factor: float) -> None:
        """One repetition, timed as its own bracketed slice."""
        self.factors.append(factor)
        self.task_raw_ms.append(seconds * 1000.0)
        self.task_ms.append(seconds * 1000.0 * factor)

    def add_pass(self, flows: int, raw_s: float, adjusted_s: float) -> None:
        self.flows += flows
        self.raw_s += raw_s
        self.adjusted_s += adjusted_s
        self.pass_rates.append(flows / adjusted_s)
        self.pass_raw_rates.append(flows / raw_s)

    @property
    def flows_per_s(self) -> float:
        """Median over passes of flows per adjusted second."""
        return statistics.median(self.pass_rates)

    @property
    def raw_flows_per_s(self) -> float:
        return statistics.median(self.pass_raw_rates)

    def check_digest(self, key: str, value: str,
                     pinned: Optional[Dict[str, str]]) -> Optional[str]:
        first = self.digests.setdefault(key, value)
        if value != first:
            return f"{key}: digest {value} != first pass {first}"
        if pinned is not None and pinned.get(key) != value:
            return f"{key}: digest {value} != pinned {pinned.get(key)}"
        return None

    @property
    def factor(self) -> float:
        return statistics.fmean(self.factors) if self.factors else 1.0


def _count_run(m: Measurement, metrics, workload) -> None:
    m.count("flows", metrics.total_flows)
    m.count("packet_ins", metrics.packet_in_count)
    m.count("retries", metrics.packet_in_retry_count)
    m.count("rejections", metrics.buffer_full_rejections)
    m.count("logical_packets", workload.n_packets)


def run_serial(name: str, seed: int, passes: int, clock: HostClock,
               tracer=None,
               pinned: Optional[Dict[str, str]] = None) -> Measurement:
    """``passes`` passes over the workload's grid.

    Every repetition is its own slice, bracketed by the reference
    kernel: the host's speed changes on a sub-second scale.
    """
    cells = SERIAL[name][0](seed)
    m = Measurement()
    before = clock.bracket()
    for p in range(passes):
        flows, raw, adjusted = 0, 0.0, 0.0
        for index, cell in enumerate(cells):
            m.attempted += 1
            started = time.perf_counter()
            try:
                if tracer is None:
                    workload = cell.build_workload()
                    metrics = cell.run(workload)
                else:
                    workload, metrics = tracer.task(
                        p * len(cells) + index, _traced_rep, tracer, cell)
            except Exception as exc:  # a failed repetition is counted
                m.failures.append(f"{cell.key} pass {p}: "
                                  f"{type(exc).__name__}: {exc}")
                before = clock.bracket()
                continue
            seconds = time.perf_counter() - started
            flows += metrics.completed_flows
            _count_run(m, metrics, workload)
            problem = (f"{cell.key}: incomplete "
                       f"({metrics.completed_flows}/{metrics.total_flows})"
                       if metrics.incomplete
                       or metrics.completed_flows != metrics.total_flows
                       else m.check_digest(cell.key, digest(metrics), pinned))
            if problem:
                m.failures.append(f"pass {p}: {problem}")
            after = clock.bracket()
            factor = adjustment(before, after)
            before = after
            m.add_task(seconds, factor)
            raw += seconds
            adjusted += seconds * factor
        if raw > 0:
            m.add_pass(flows, raw, adjusted)
    return m


def _traced_rep(tracer, cell: Cell):
    workload = tracer.call("trafficgen.build", cell.build_workload)
    return workload, cell.run(workload)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_TASK_TIMING = "bench_task_timing"


def _timed_execute(task):
    """Worker side: one sweep task, bracketed by the reference kernel.

    The workers' cores, not the idle parent's, set the sweep's speed, so
    each task carries its own ``(raw seconds, adjustment)`` back to the
    parent on its metrics object.  Back-to-back tasks in one worker
    share the reference call between them.
    """
    before = _WORKER_REF.pop() if _WORKER_REF else time_reference()
    started = time.perf_counter()
    pid, metrics, observation = _ORIGINAL_EXECUTE(task)
    seconds = time.perf_counter() - started
    after = time_reference()
    _WORKER_REF.append(after)
    setattr(metrics, _TASK_TIMING, (seconds, adjustment(before, after)))
    return pid, metrics, observation


#: The last reference timing of this worker process.  Workers are forked
#: from a parent that never runs tasks, so each starts with it empty.
_WORKER_REF: List[float] = []
_ORIGINAL_EXECUTE = repro.parallel.engine.execute_task_with_pid


class _TimingCache(ResultCache):
    """Collects the workers' task timings as results reach the cache."""

    def __init__(self, root):
        super().__init__(root)
        self.task_timings: List[tuple] = []

    def put(self, key, metrics) -> None:
        timing = metrics.__dict__.pop(_TASK_TIMING, None)
        if timing is not None:
            self.task_timings.append(timing)
        super().put(key, metrics)


def _sweep_once(seed: int, cache: ResultCache):
    return run_figsharing_experiment(
        loss_rates=SWEEP_LOSS_RATES, pools=_sweep_pools(),
        repetitions=SWEEP_REPETITIONS, n_flows=SWEEP_FLOWS,
        base_seed=seed, workers=SWEEP_WORKERS, cache=cache)


def _sweep_digest(data) -> str:
    rows = [digest(row) for label in sorted(data.sweeps)
            for row in data.sweeps[label].rows]
    return hashlib.sha256(",".join(rows).encode()).hexdigest()[:16]


def _check_sweep(m: Measurement, data, pinned, what: str) -> None:
    m.attempted += 1
    problems = [f"{what}: {failure.label} rep {failure.rep}: {failure.error}"
                for failure in data.report.failures]
    for label, result in data.sweeps.items():
        for row in result.rows:
            if label.endswith("@loss:0") and row.completion_rate != 1.0:
                problems.append(f"{what}: faultless {label} incomplete "
                                f"({row.completed_flows}/{row.total_flows})")
    problem = m.check_digest("sweep", _sweep_digest(data), pinned)
    if problem:
        problems.append(f"{what}: {problem}")
    m.failures.extend(problems)


def run_sweep(seed: int, passes: int, clock: HostClock, workdir: str,
              tracer=None,
              pinned: Optional[Dict[str, str]] = None) -> Measurement:
    """``passes`` × (cold sweep into a fresh cache, then warm rerun).

    A cold pass is adjusted by its tasks' time-weighted worker factor;
    the warm pass, which only reads the cache, by the parent's brackets.
    """
    m = Measurement()
    repro.parallel.engine.execute_task_with_pid = _timed_execute
    try:
        for p in range(passes):
            cache_dir = tempfile.mkdtemp(prefix="cache-", dir=workdir)
            try:
                cache = _TimingCache(cache_dir)
                run = functools.partial(_sweep_once, seed, cache)
                started = time.perf_counter()
                cold = run() if tracer is None else tracer.task(2 * p, run)
                cold_s = time.perf_counter() - started
                before = clock.bracket()
                gets = cache.hits + cache.misses
                hits = cache.hits
                started = time.perf_counter()
                warm = (run() if tracer is None
                        else tracer.task(2 * p + 1, run))
                warm_s = time.perf_counter() - started
                after = clock.bracket()
            finally:
                shutil.rmtree(cache_dir, ignore_errors=True)
            for seconds, factor in cache.task_timings:
                m.add_task(seconds, factor)
            raw = sum(seconds for seconds, _ in cache.task_timings)
            cold_factor = sum(seconds * factor for seconds, factor
                              in cache.task_timings) / raw
            m.cold_ms.append(cold_s * 1000.0 * cold_factor)
            m.warm_ms.append(warm_s * 1000.0 * adjustment(before, after))
            m.warm_gets += cache.hits + cache.misses - gets
            m.warm_hits += cache.hits - hits
            _check_sweep(m, cold, pinned, f"pass {p} cold")
            _check_sweep(m, warm, pinned, f"pass {p} warm")
            flows = 0
            for result in cold.sweeps.values():
                for row in result.rows:
                    reps = row.repetitions
                    flows += round(row.completed_flows * reps)
                    m.count("flows", row.total_flows * reps)
                    m.count("packet_ins", row.packet_ins_per_run * reps)
                    m.count("retries", row.retries_per_run * reps)
                    m.count("rejections", row.full_rejections * reps)
            m.add_pass(flows, cold_s, cold_s * cold_factor)
    finally:
        repro.parallel.engine.execute_task_with_pid = _ORIGINAL_EXECUTE
    return m


def run_workload(name: str, seed: int, passes: int, clock: HostClock,
                 workdir: str, tracer=None,
                 pinned: Optional[Dict[str, str]] = None) -> Measurement:
    """Dispatch to the serial or the sweep runner."""
    if name == "sweep":
        return run_sweep(seed, passes, clock, workdir, tracer, pinned)
    return run_serial(name, seed, passes, clock, tracer, pinned)
