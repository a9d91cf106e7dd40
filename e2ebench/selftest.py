"""Self-test of the benchmark's host-speed adjustment.

Run from the repository root::

    python3 e2ebench/selftest.py

It checks two things and exits 0 only if both hold:

1. The reference kernel imports nothing from ``repro`` and does a fixed
   amount of work: every call returns the pinned checksum.
2. With this process pinned to one core, ``benefits`` runs alternately
   alone and beside a busy-loop hog pinned to the same core.  The raw
   ``flows_per_s`` must drop visibly (by at least ``MIN_RAW_DROP``),
   while the adjusted ``flows_per_s`` must stay within the benchmark's
   bound of the unhogged runs.
"""

from __future__ import annotations

import ast
import json
import os
import statistics
import subprocess
import sys
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
#: The benchmark's bound on flows_per_s (BENCHMARK.json).
BOUND = 0.1
#: Raw flows_per_s must fall at least this much beside the hog.
MIN_RAW_DROP = 0.25
#: Passes over the benefits grid per measurement, and measurements per side.
PASSES = 4
ROUNDS = 3

HOG = "import os, sys\nos.sched_setaffinity(0, {int(sys.argv[1])})\nwhile True:\n    pass\n"


def check_kernel() -> list:
    """Problems with the reference kernel's isolation or fixed work."""
    import hostref
    problems = []
    tree = ast.parse((BENCH / "hostref.py").read_text())
    for node in ast.walk(tree):
        names = ([alias.name for alias in node.names]
                 if isinstance(node, ast.Import)
                 else [node.module or ""] if isinstance(node, ast.ImportFrom)
                 else [])
        problems += [f"hostref imports {name}" for name in names
                     if name.split(".")[0] == "repro"]
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, hostref; hostref.time_reference(); "
         "print([m for m in sys.modules if m.split('.')[0] == 'repro'])"],
        env=dict(os.environ, PYTHONPATH=str(BENCH)), capture_output=True,
        text=True, timeout=60)
    if probe.returncode != 0 or probe.stdout.strip() != "[]":
        problems.append(f"reference kernel run pulled in repro or failed: "
                        f"{probe.stdout.strip()} {probe.stderr.strip()}")
    checksums = {hostref.reference_kernel() for _ in range(3)}
    if checksums != {hostref.REF_CHECKSUM}:
        problems.append(f"reference kernel checksums {checksums} != pinned "
                        f"{hostref.REF_CHECKSUM}")
    return problems


def measure(seed: int) -> tuple:
    """(adjusted, raw) flows_per_s of a short benefits run."""
    import hostref
    import workloads
    m = workloads.run_serial("benefits", seed, PASSES, hostref.HostClock())
    if m.failures:
        raise RuntimeError(f"benefits failed: {m.failures[:3]}")
    return m.flows_per_s, m.raw_flows_per_s


def check_hog(seed: int) -> tuple:
    """(problems, report) of alone-vs-hogged runs on one core."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    measure(seed)  # warm-up: lazy imports and caches settle first
    alone, hogged = [], []
    for _ in range(ROUNDS):
        alone.append(measure(seed))
        hog = subprocess.Popen([sys.executable, "-c", HOG, str(cpu)])
        try:
            hogged.append(measure(seed))
        finally:
            hog.kill()
            hog.wait(timeout=30)
    adj_alone = statistics.median(a for a, _ in alone)
    adj_hogged = statistics.median(a for a, _ in hogged)
    raw_alone = statistics.median(r for _, r in alone)
    raw_hogged = statistics.median(r for _, r in hogged)
    report = {"cpu": cpu, "adjusted_alone": adj_alone,
              "adjusted_hogged": adj_hogged, "raw_alone": raw_alone,
              "raw_hogged": raw_hogged,
              "adjusted_change": adj_hogged / adj_alone - 1.0,
              "raw_change": raw_hogged / raw_alone - 1.0}
    problems = []
    if abs(report["adjusted_change"]) > BOUND:
        problems.append(f"adjusted flows_per_s moved "
                        f"{report['adjusted_change']:+.3f} beside the hog "
                        f"(bound {BOUND})")
    if report["raw_change"] > -MIN_RAW_DROP:
        problems.append(f"raw flows_per_s moved only "
                        f"{report['raw_change']:+.3f}: the hog did not load "
                        f"the core")
    return problems, report


def main() -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    warnings.filterwarnings("ignore", message="run_once: flows were still",
                            category=RuntimeWarning)
    problems = check_kernel()
    hog_problems, report = check_hog(seed=1)
    problems += hog_problems
    print(json.dumps({"hog": report, "problems": problems}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
