"""Regression tests for the ``BENCH_kernel.json`` record builder."""

from __future__ import annotations

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "benchmarks"))

import kernelrecord
import perf_gate


def test_build_record_skips_probes_missing_from_after():
    # A partial measuring run (only one probe re-measured) must still
    # produce a record instead of KeyError-ing on the absent probes.
    record = kernelrecord.build_record({"event_loop": 0.01},
                                       testbed_window_s=1.0)
    assert set(record["benchmarks"]) == {"event_loop"}
    bench = record["benchmarks"]["event_loop"]
    assert bench["after"]["seconds"] == 0.01
    assert bench["speedup"] > 0


def test_build_record_carries_after_only_probes():
    # A probe with no committed *before* still lands in the record,
    # without a fabricated speedup.
    record = kernelrecord.build_record(
        {"event_loop": 0.01, "brand_new_probe": 0.5},
        testbed_window_s=1.0)
    bench = record["benchmarks"]["brand_new_probe"]
    assert bench["after"]["seconds"] == 0.5
    assert "before" not in bench
    assert "speedup" not in bench


def test_perf_gate_help_renders():
    # argparse %-formats every help string: a bare "%" in one crashes
    # --help with a ValueError instead of printing usage.
    with pytest.raises(SystemExit) as exit_info:
        perf_gate.main(["--help"])
    assert exit_info.value.code == 0
