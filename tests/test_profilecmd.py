"""The ``profile`` and ``bench diff`` CLI subcommands."""

from __future__ import annotations

import json
import pathlib

from repro.experiments.cli import main as cli_main


def test_profile_command_writes_artifacts_and_prints_table(tmp_path,
                                                           capsys):
    code = cli_main(["profile", "--scenario", "fanin:2", "--flows", "40",
                     "--reps", "1", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "self-time" in captured.out
    assert "station:" in captured.out

    beats = [json.loads(line) for line in
             (tmp_path / "heartbeats.jsonl").read_text().splitlines()]
    assert beats and all(b["record"] == "heartbeat" for b in beats)
    assert all("events_scheduled" in b for b in beats)

    trace = json.loads((tmp_path / "trace.json").read_text())
    names = [e["args"]["name"] for e in trace["traceEvents"]
             if e.get("name") == "process_name"]
    assert any(name.startswith("wall-clock ") for name in names)

    profile = json.loads((tmp_path / "profile.json").read_text())
    assert profile["events"] > 0 and profile["components"]


def test_profile_command_rejects_bad_scenario(capsys):
    assert cli_main(["profile", "--scenario", "nosuch:9"]) == 2
    assert capsys.readouterr().err


def _record(schema, rate, extra=None):
    doc = {"schema": schema,
           "benchmarks": {"event_loop": {
               "units": 20000,
               "after": {"seconds": 20000 / rate,
                         "events_per_sec": rate}}}}
    doc.update(extra or {})
    return doc


def test_bench_diff_compares_v1_and_v2_records(tmp_path, capsys):
    old = tmp_path / "old.json"
    new = tmp_path / "new.json"
    old.write_text(json.dumps(_record("bench-kernel/1", 1_000_000.0)))
    new.write_text(json.dumps(_record(
        "bench-kernel/2", 1_100_000.0,
        {"components": {"station:ovs-cpu": 0.4, "link": 0.1},
         "obs_overhead": {"event_loop_profiled_ratio": 1.08}})))
    code = cli_main(["bench", "diff", str(old), str(new)])
    captured = capsys.readouterr()
    assert code == 0
    assert "+10.0%" in captured.out
    assert "station:ovs-cpu" in captured.out
    assert "1.080x" in captured.out


#: The shard sections of the record committed before sharded execution
#: was removed, abridged to one worker count and one codec.
_REMOVED_SHARD_SECTIONS = {
    "shard_scaling": {
        "scenario": "line:4", "flows": 1600, "rate_mbps": 40.0,
        "link_propagation_delay": 0.005, "cpu_count": 1, "events": 119985,
        "floor_workers_2": 1.8,
        "serial": {"seconds": 0.982129, "events_per_sec": 122168.2},
        "workers": {"2": {"seconds": 1.291091, "events_per_sec": 92933.1,
                          "speedup_vs_serial": 0.761}}},
    "shard_transport": {
        "scenario": "line:4", "flows": 400, "rate_mbps": 40.0,
        "link_propagation_delay": 0.005, "workers": 2, "cpu_count": 1,
        "rounds": 52, "floor_overhead_ratio_shm": 3.0,
        "inline_rounds_wall_seconds": 0.192534,
        "codecs": {"shm": {"rounds_wall_seconds": 0.272008,
                           "overhead_ms_per_round": 1.5283,
                           "serialize_seconds": 0.063594,
                           "bytes_total": 662355, "rounds_coalesced": 3}},
        "overhead_ratio_shm": 1.607},
}


def test_bench_diff_reads_records_with_removed_shard_sections(tmp_path,
                                                              capsys):
    committed = pathlib.Path(__file__).resolve().parent.parent \
        / "BENCH_kernel.json"
    record = json.loads(committed.read_text())
    old = tmp_path / "old.json"
    old.write_text(json.dumps({**record, **_REMOVED_SHARD_SECTIONS}))
    code = cli_main(["bench", "diff", str(old), str(committed)])
    out = capsys.readouterr().out
    assert code == 0
    for probe in record["benchmarks"]:
        assert probe in out
    for component in record["components"]:
        assert component in out
    assert "shard" not in out.split("\n", 1)[1]


def test_bench_diff_fail_below_gates_regressions(tmp_path, capsys):
    old = tmp_path / "old.json"
    new = tmp_path / "new.json"
    old.write_text(json.dumps(_record("bench-kernel/1", 1_000_000.0)))
    new.write_text(json.dumps(_record("bench-kernel/2", 500_000.0)))
    assert cli_main(["bench", "diff", str(old), str(new)]) == 0
    capsys.readouterr()
    assert cli_main(["bench", "diff", str(old), str(new),
                     "--fail-below", "0.3"]) == 1
    assert "FAIL" in capsys.readouterr().err


def test_bench_diff_rejects_non_bench_records(tmp_path, capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"schema": "something-else"}))
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps(_record("bench-kernel/1", 1.0)))
    assert cli_main(["bench", "diff", str(bogus), str(ok)]) == 2
    assert "not a BENCH_kernel record" in capsys.readouterr().err
