"""End-to-end and per-layer benchmark of the repro simulator.

Run from the repository root::

    python3 e2ebench/run.py --workload benefits --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` prints the per-layer metrics of a traced run (and writes
its spans to ``e2ebench/_out/trace-<workload>.json.gz``).  Every timed
metric is host-speed adjusted (see ``hostref.py`` and README.md).  The
last stdout line is the result object; the lines before it are the host
stamp and the raw, unadjusted diagnostics.

``--pin-seeds N`` instead re-pins the digests of seeds 0..N-1 in
``baseline.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"
BASELINE = BENCH / "baseline.json"

#: A run whose reference-kernel quartiles spread wider than this (the
#: flows_per_s bound in BENCHMARK.json) is flagged unsteady.
UNSTEADY_SPREAD = 0.1
UNITS = {"flows_per_s": "1/s", "task_p50_ms": "ms", "task_p90_ms": "ms",
         "setup_s": "s", "peak_rss_mb": "MB"}
#: Fresh-interpreter set-up probes per run (the median is reported).
SETUP_PROBES = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=("benefits", "mechanism", "scale", "sweep"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin-seeds", type=int, metavar="N")
    args = parser.parse_args(argv)
    if args.pin_seeds is None and args.workload is None:
        parser.error("--workload is required")
    return args


def source_digest() -> str:
    """sha256 over every ``src/**/*.py`` (path and contents)."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def host_stamp(clock) -> dict:
    """Where and on what a record was taken; flags an unsteady host."""
    from hostref import REF_NOMINAL_MS
    q1, median, q3 = clock.quartiles_ms()
    spread = (q3 - q1) / median if median else 0.0
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "commit": commit(), "src_sha256": source_digest(),
            "ref_nominal_ms": REF_NOMINAL_MS,
            "ref_ms_quartiles": [q1, median, q3],
            "ref_spread": spread,
            "unsteady": spread > UNSTEADY_SPREAD}


def peak_rss_mb(include_children: bool) -> float:
    """Peak RSS of this process (and its reaped children), in MB."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def setup_probes(workload: str, seed: int) -> list:
    """Fresh-interpreter set-up timings: (raw s, adjusted s) each."""
    from hostref import adjustment
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    results = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload,
             str(seed)], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=120, check=True)
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        results.append((probe["raw_s"], probe["raw_s"] * adjustment(
            probe["before_s"], probe["after_s"])))
    return results


def quantiles(values):
    """(p50, p90) of a sample."""
    return statistics.median(values), statistics.quantiles(values, n=10)[8]


def load_pins(workload: str, seed: int):
    pins = json.loads(BASELINE.read_text())["digests"]
    return pins.get(workload, {}).get(str(seed))


def warm_up(workload: str, seed: int) -> None:
    """One untimed repetition: lazy imports and caches settle first."""
    import workloads
    cell = workloads.first_cell(workload, seed)
    cell.run(cell.build_workload())


def end_to_end(args, clock) -> tuple:
    import workloads
    passes = workloads.passes_for(args.workload, args.seconds)
    m = workloads.run_workload(args.workload, args.seed, passes, clock,
                               str(OUT), pinned=load_pins(args.workload,
                                                          args.seed))
    rss = peak_rss_mb(include_children=args.workload == "sweep")
    probes = setup_probes(args.workload, args.seed)
    p50, p90 = quantiles(m.task_ms)
    raw_p50, raw_p90 = quantiles(m.task_raw_ms)
    values = {"flows_per_s": m.flows_per_s,
              "task_p50_ms": p50, "task_p90_ms": p90,
              "setup_s": statistics.median(a for _, a in probes),
              "peak_rss_mb": rss}
    diagnostics = {
        "raw": {"flows_per_s": m.raw_flows_per_s, "task_p50_ms": raw_p50,
                "task_p90_ms": raw_p90,
                "setup_s": statistics.median(r for r, _ in probes)},
        "bases": {"flows": m.flows, "adjusted_s": m.adjusted_s,
                  "raw_s": m.raw_s,
                  "task_samples": len(m.task_ms), "passes": passes,
                  "setup_probes": len(probes)},
        "fail_frac": [len(m.failures) / max(m.attempted, 1),
                      len(m.failures), m.attempted],
        "failures": m.failures[:10],
        "pinned": load_pins(args.workload, args.seed) is not None,
    }
    return values, UNITS, m, diagnostics


def per_layer(args, clock) -> tuple:
    import layers
    import workloads
    passes = max(2, -(-workloads.passes_for(args.workload, args.seconds)
                      // 3))
    pinned = load_pins(args.workload, args.seed)
    untraced = workloads.run_workload(args.workload, args.seed, passes,
                                      clock, str(OUT), pinned=pinned)
    tracer = layers.Tracer()
    tracer.install(sweep=args.workload == "sweep")
    try:
        traced = workloads.run_workload(args.workload, args.seed, passes,
                                        clock, str(OUT), tracer=tracer,
                                        pinned=pinned)
    finally:
        tracer.restore()
    traced.attempted += untraced.attempted
    traced.failures[:0] = untraced.failures
    if traced.digests != untraced.digests:
        traced.failures.append(
            f"traced digests {traced.digests} != untraced "
            f"{untraced.digests}")
    ref_ms = statistics.median(clock.refs) * 1000.0
    values, bases = layers.per_layer_metrics(tracer, traced, untraced, ref_ms)
    trace_path = OUT / f"trace-{args.workload}.json.gz"
    tracer.write_chrome_trace(trace_path)
    diagnostics = {"bases": bases, "passes": passes,
                   "spans": len(tracer.spans),
                   "chrome_trace": str(trace_path.relative_to(ROOT)),
                   "digests_equal": traced.digests == untraced.digests,
                   "fail_frac": [len(traced.failures)
                                 / max(traced.attempted, 1),
                                 len(traced.failures), traced.attempted],
                   "failures": traced.failures[:10]}
    return values, layers.PER_LAYER, traced, diagnostics


def pin_seeds(count: int) -> int:
    """Re-pin the digests of seeds ``0..count-1`` for every workload."""
    import workloads
    from hostref import HostClock
    OUT.mkdir(exist_ok=True)
    baseline = json.loads(BASELINE.read_text())
    digests = {}
    for name in workloads.WORKLOADS:
        digests[name] = {}
        for seed in range(count):
            m = workloads.run_workload(name, seed, 1, HostClock(), str(OUT))
            if m.failures:
                print(f"{name} seed {seed}: {m.failures}", file=sys.stderr)
                return 1
            digests[name][str(seed)] = m.digests
        print(f"pinned {name}: {count} seeds", file=sys.stderr)
    baseline["digests"] = digests
    BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True)
                        + "\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    warnings.filterwarnings("ignore", message="run_once: flows were still",
                            category=RuntimeWarning)
    if args.pin_seeds is not None:
        return pin_seeds(args.pin_seeds)
    from hostref import HostClock
    OUT.mkdir(exist_ok=True)
    warm_up(args.workload, args.seed)
    clock = HostClock()
    measure = per_layer if args.trace else end_to_end
    values, units, m, diagnostics = measure(args, clock)
    stamp = host_stamp(clock)
    if stamp["unsteady"]:
        print(f"warning: unsteady host: reference kernel quartiles "
              f"{stamp['ref_ms_quartiles']} ms spread "
              f"{stamp['ref_spread']:.3f} > {UNSTEADY_SPREAD}",
              file=sys.stderr)
    print(json.dumps({"host": stamp}))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "diagnostics": diagnostics}))
    failed = len(m.failures)
    print(json.dumps({
        "correct": failed == 0, "attempted": m.attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
