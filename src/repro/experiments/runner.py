"""Run orchestration: single runs, repetitions and rate sweeps.

The paper's method is: for each sending rate, run the workload 20 times
and report the per-rate statistics.  :func:`run_once` executes one
repetition on a fresh testbed; :func:`sweep` maps a workload factory over
(rates × repetitions) and aggregates into figure-ready rows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from ..core import BufferConfig
from ..faults import FaultSpec, install_faults
from ..metrics import RunMetrics, Summary, percentile, summarize
from ..scenarios import SINGLE, ScenarioSpec, build_scenario
from ..simkit import RandomStreams, mbps
from ..trafficgen import Workload
from .calibration import TestbedCalibration

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..obs import ObsCollector, RunObserver
    from ..parallel import ProgressTracker, ResultCache

#: Factory signature: (rate_bps, rng) -> Workload.
WorkloadFactory = Callable[[float, RandomStreams], Workload]


def derive_seed(base_seed: int, rate_mbps: float, rep: int) -> int:
    """Seed of one repetition — a pure function of its grid coordinates.

    The parallel engine (:mod:`repro.parallel`) leans on this: seeds may
    depend only on ``(base_seed, rate_mbps, rep)``, never on scheduling
    or completion order, so any execution order reproduces the serial
    sweep bit-for-bit.
    """
    return base_seed * 100_003 + int(rate_mbps) * 1_009 + rep


_INCOMPLETE_WARNING = (
    "run_once: flows were still incomplete when the extend budget ran "
    "out; the snapshot's `incomplete` flag is set and delay statistics "
    "cover completed flows only (this warning is shown once)")


def run_once(buffer_config: BufferConfig, workload: Workload,
             calibration: Optional[TestbedCalibration] = None,
             seed: int = 0, settle: float = 0.020, drain: float = 0.250,
             max_extends: int = 20,
             obs: Optional["RunObserver"] = None,
             scenario: Optional[ScenarioSpec] = None,
             faults: Optional[FaultSpec] = None) -> RunMetrics:
    """One repetition: build a fresh testbed, play the workload, snapshot.

    ``scenario`` selects the topology (a
    :class:`~repro.scenarios.ScenarioSpec`); the default is the paper's
    single-switch Fig. 1 testbed, bit-identical to the historical direct
    ``build_testbed`` path.  ``faults`` (a
    :class:`~repro.faults.FaultSpec`) arms deterministic control-plane
    fault injection on the built testbed; ``None`` (or a null spec)
    leaves the run untouched.  ``settle`` gives the OpenFlow handshake time
    to finish before traffic; ``drain`` lets in-flight control traffic
    land after the last send.  If flows are still incomplete at the
    nominal deadline (deep queues at high rates), the run is extended in
    100 ms steps while progress is being made, up to ``max_extends``
    times; exhausting that budget with flows still incomplete bumps the
    ``run.incomplete_extends_exhausted`` counter on the testbed registry
    (visible in observed runs' metric snapshots) and emits a warning.

    ``obs`` attaches a :class:`repro.obs.RunObserver` to the testbed's
    event emitters before traffic and snapshots its registry at the end;
    the returned metrics are identical with or without it.
    """
    spec = scenario if scenario is not None else SINGLE
    testbed = build_scenario(spec, buffer_config, workload,
                             calibration=calibration, seed=seed)
    install_faults(testbed, faults)
    sim = testbed.sim
    if obs is not None:
        obs.attach(testbed, calibration=calibration)
    testbed.controller.start_handshake()
    engine = (scenario if scenario is not None else SINGLE).engine
    if engine.is_hybrid:
        # The engine seam: hybrid scenarios hand traffic to per-pktgen
        # drivers that keep miss-path packets discrete and advance
        # table-hit tails analytically (DESIGN.md §16).
        from ..engine import install_hybrid_drivers
        drivers = install_hybrid_drivers(testbed, calibration=calibration)
        for driver in drivers:
            driver.start(at=settle)
    else:
        for pktgen in testbed.pktgens:
            pktgen.start(at=settle)

    deadline = settle + workload.duration + drain
    sim.run(until=deadline)

    tracker = testbed.metrics.delay_tracker
    extends = 0
    previous_completed = -1
    while (tracker.completed_flows < tracker.total_flows
           and extends < max_extends
           and tracker.completed_flows != previous_completed):
        previous_completed = tracker.completed_flows
        deadline += 0.100
        sim.run(until=deadline)
        extends += 1

    active_end = max(
        settle + workload.duration,
        testbed.metrics.capture_up.last_time() or 0.0,
        testbed.metrics.capture_down.last_time() or 0.0,
    ) + 0.005
    # Loads are normalized over the send window plus a small margin: a
    # congested post-send drain lengthens delays but must not dilute the
    # reported control-path rate.
    load_end = settle + workload.duration + 0.050
    snapshot = testbed.metrics.snapshot(settle, min(active_end, sim.now),
                                        load_end=load_end)
    # The metrics suites see only switches; the pool is a testbed-level
    # component, so its peak lands on the snapshot here.
    if testbed.pool is not None:
        snapshot.pool_peak_units = testbed.pool.peak_occupancy
    if (snapshot.incomplete and extends >= max_extends
            and testbed.registry is not None):
        # Structured counterpart of the warning below: observed runs see
        # it in their metric snapshots / Prometheus export.
        testbed.registry.counter("run.incomplete_extends_exhausted").inc()
    if obs is not None:
        obs.finish(testbed, snapshot)
    testbed.shutdown()
    if snapshot.incomplete:
        warnings.warn(_INCOMPLETE_WARNING, RuntimeWarning, stacklevel=2)
    return snapshot


@dataclass
class RateAggregate:
    """Per-sending-rate statistics over all repetitions (one figure row)."""

    rate_mbps: float
    label: str
    repetitions: int
    # Control path load (Fig. 2 / 9), Mbps averaged over repetitions.
    load_up_mbps: float
    load_down_mbps: float
    # CPU usage (Fig. 3-4 / 10-11), percent.
    controller_usage: Summary
    switch_usage: Summary
    # Delays (Fig. 5-7 / 12), pooled across repetitions, seconds.
    setup_delay: Summary
    controller_delay: Summary
    switch_delay: Summary
    forwarding_delay: Summary
    # Buffer utilization (Fig. 8 / 13), units.
    buffer_avg_units: float
    buffer_max_units: float
    # Request accounting (the §V story).
    packet_ins_per_run: float
    packet_ins_per_flow: float
    retries_per_run: float
    completed_flows: float
    total_flows: int
    packets_dropped: float
    # Resilience accounting (figresilience; zero for faultless sweeps).
    flows_abandoned: float = 0.0
    #: p99 of the pooled setup delays, seconds (0 when nothing pooled).
    setup_delay_p99: float = 0.0
    # Buffer-sharing accounting (figsharing; zero for private buffers).
    #: Mean buffer rejections per run (exhaustion / pool-policy squeeze).
    full_rejections: float = 0.0
    #: Worst shared-pool peak occupancy across repetitions, units.
    pool_peak_units: float = 0.0

    @property
    def completion_rate(self) -> float:
        """Fraction of flows whose setup completed (1.0 = all)."""
        if self.total_flows <= 0:
            return 0.0
        return self.completed_flows / self.total_flows


def aggregate(rate_mbps: float, label: str,
              runs: Sequence[RunMetrics]) -> RateAggregate:
    """Fold repetition snapshots into one figure row."""
    if not runs:
        raise ValueError("cannot aggregate zero runs")
    pooled_setup: List[float] = []
    pooled_ctrl: List[float] = []
    pooled_switch: List[float] = []
    pooled_fwd: List[float] = []
    for run in runs:
        pooled_setup.extend(run.setup_delays)
        pooled_ctrl.extend(run.controller_delays)
        pooled_switch.extend(run.switch_delays)
        pooled_fwd.extend(run.forwarding_delays)
    n = len(runs)
    return RateAggregate(
        rate_mbps=rate_mbps,
        label=label,
        repetitions=n,
        load_up_mbps=sum(r.control_load_up_mbps for r in runs) / n,
        load_down_mbps=sum(r.control_load_down_mbps for r in runs) / n,
        controller_usage=summarize(
            r.controller_usage_percent for r in runs),
        switch_usage=summarize(r.switch_usage_percent for r in runs),
        setup_delay=summarize(pooled_setup),
        controller_delay=summarize(pooled_ctrl),
        switch_delay=summarize(pooled_switch),
        forwarding_delay=summarize(pooled_fwd),
        buffer_avg_units=sum(r.buffer_avg_units for r in runs) / n,
        buffer_max_units=max(r.buffer_max_units for r in runs),
        packet_ins_per_run=sum(r.packet_in_count for r in runs) / n,
        packet_ins_per_flow=sum(
            r.redundant_packet_in_ratio for r in runs) / n,
        retries_per_run=sum(r.packet_in_retry_count for r in runs) / n,
        completed_flows=sum(r.completed_flows for r in runs) / n,
        total_flows=runs[0].total_flows,
        packets_dropped=sum(r.packets_dropped for r in runs) / n,
        flows_abandoned=sum(
            getattr(r, "flows_abandoned", 0) for r in runs) / n,
        setup_delay_p99=(percentile(pooled_setup, 99)
                         if pooled_setup else 0.0),
        full_rejections=sum(
            getattr(r, "buffer_full_rejections", 0) for r in runs) / n,
        pool_peak_units=float(max(
            getattr(r, "pool_peak_units", 0) for r in runs)),
    )


@dataclass
class SweepResult:
    """All rows of one mechanism's rate sweep."""

    label: str
    rows: List[RateAggregate] = field(default_factory=list)

    def row_at(self, rate_mbps: float) -> RateAggregate:
        """The row for an exact sending rate."""
        for row in self.rows:
            if row.rate_mbps == rate_mbps:
                return row
        raise KeyError(f"no row at {rate_mbps} Mbps in {self.label!r}")

    def series(self, getter: Callable[[RateAggregate], float]) -> List[float]:
        """Extract one metric across the sweep (figure y-values)."""
        return [getter(row) for row in self.rows]

    @property
    def rates(self) -> List[float]:
        """Figure x-values."""
        return [row.rate_mbps for row in self.rows]


def sweep(buffer_config: BufferConfig, workload_factory: WorkloadFactory,
          rates_mbps: Sequence[float], repetitions: int,
          calibration: Optional[TestbedCalibration] = None,
          base_seed: int = 0, workers: Optional[int] = None,
          cache: Optional["ResultCache"] = None,
          progress: "None | bool | ProgressTracker" = None,
          obs: Optional["ObsCollector"] = None,
          scenario: Optional[ScenarioSpec] = None,
          faults: Optional[FaultSpec] = None) -> SweepResult:
    """The paper's method: repetitions at every sending rate.

    ``workers``/``cache``/``progress`` hand the sweep to the
    :mod:`repro.parallel` engine (multi-core execution, on-disk result
    cache, telemetry) — output is bit-identical either way.  The default
    (all three None/1) runs serially in-process.

    ``obs`` collects per-repetition traces and metric snapshots into a
    :class:`repro.obs.ObsCollector` (serial and parallel paths alike);
    ``scenario`` selects the topology every repetition runs on.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if ((workers is not None and workers != 1) or cache is not None
            or progress is not None):
        from ..parallel import parallel_sweep
        return parallel_sweep(buffer_config, workload_factory, rates_mbps,
                              repetitions, calibration=calibration,
                              base_seed=base_seed, workers=workers,
                              cache=cache, progress=progress, obs=obs,
                              scenario=scenario, faults=faults)
    # The seed table is computed up front from grid coordinates alone;
    # the in-loop assertion guards the determinism invariant the parallel
    # engine's bit-identical guarantee rests on.
    seed_table = {(rate, rep): derive_seed(base_seed, rate, rep)
                  for rate in rates_mbps for rep in range(repetitions)}
    result = SweepResult(label=buffer_config.label)
    for rate in rates_mbps:
        runs = []
        for rep in range(repetitions):
            seed = derive_seed(base_seed, rate, rep)
            assert seed == seed_table[(rate, rep)], (
                "repetition seed must be a pure function of "
                "(base_seed, rate, rep), independent of execution order")
            rng = RandomStreams(seed)
            workload = workload_factory(mbps(rate), rng)
            observer = (obs.observer_for(buffer_config.label, rate, rep,
                                         seed)
                        if obs is not None else None)
            runs.append(run_once(buffer_config, workload,
                                 calibration=calibration, seed=seed,
                                 obs=observer, scenario=scenario,
                                 faults=faults))
            if obs is not None:
                obs.add(observer.observation)
        result.rows.append(aggregate(rate, buffer_config.label, runs))
    return result
