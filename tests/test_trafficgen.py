"""Tests for schedules, workloads and the pktgen driver."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.core import flow_buffer_256
from repro.engine import HYBRID, PACKET
from repro.experiments import run_once
from repro.netsim import Host, Link
from repro.packets import (FLAG_ACK, FLAG_SYN, tcp_control_packet,
                           tcp_packet, udp_packet)
from repro.scenarios import SINGLE
from repro.simkit import RandomStreams, Simulator, mbps, transmission_delay
from repro.trafficgen import (HOST1_IP, HOST1_MAC, HOST2_IP, HOST2_MAC,
                              PacketGenerator, batched_multi_packet_flows,
                              constant_gap_times, cross_sequence,
                              flow_train_flows, mixed_tcp_udp,
                              poisson_times, recurring_flows,
                              single_packet_flows, tcp_eviction_scenario)
from repro.trafficgen.workloads import _forged_source_ip


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

def test_constant_gap_times_paced_at_rate():
    times = constant_gap_times(4, frame_len=1000, rate_bps=mbps(100))
    gap = transmission_delay(1000, mbps(100))
    assert times == pytest.approx([0.0, gap, 2 * gap, 3 * gap])


def test_constant_gap_jitter_requires_rng():
    with pytest.raises(ValueError):
        constant_gap_times(2, 1000, mbps(100), jitter_fraction=0.1)


def test_constant_gap_jitter_bounded():
    rng = RandomStreams(1)
    gap = transmission_delay(1000, mbps(100))
    times = constant_gap_times(100, 1000, mbps(100), jitter_fraction=0.1,
                               rng=rng)
    for i, t in enumerate(times):
        assert abs(t - i * gap) <= 0.1 * gap + 1e-12
        assert t >= 0.0


def test_poisson_times_monotone():
    rng = RandomStreams(2)
    times = poisson_times(50, rate_pps=1000, rng=rng)
    assert all(b > a for a, b in zip(times, times[1:]))


def test_cross_sequence_order():
    order = cross_sequence(3, 2)
    assert order == [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]


def test_cross_sequence_validation():
    with pytest.raises(ValueError):
        cross_sequence(0, 1)
    with pytest.raises(ValueError):
        cross_sequence(1, 0)


# ---------------------------------------------------------------------------
# Workload A (single-packet flows)
# ---------------------------------------------------------------------------

def test_single_packet_flows_structure():
    workload = single_packet_flows(mbps(50), n_flows=100)
    assert workload.n_packets == 100
    assert workload.n_flows == 100
    assert all(spec.n_packets == 1 for spec in workload.flows.values())


def test_single_packet_flows_all_sources_distinct():
    workload = single_packet_flows(mbps(50), n_flows=300)
    sources = {p.ip.src_ip for _, p in workload.entries}
    assert len(sources) == 300


def test_single_packet_flows_frame_size():
    workload = single_packet_flows(mbps(50), n_flows=10, frame_len=1000)
    assert all(p.wire_len == 1000 for _, p in workload.entries)
    assert workload.total_bytes == 10_000


def test_single_packet_flows_five_tuples_match_specs():
    workload = single_packet_flows(mbps(50), n_flows=20)
    for _, packet in workload.entries:
        spec = workload.flows[packet.flow_id]
        assert packet.five_tuple == spec.five_tuple


# ---------------------------------------------------------------------------
# Workload B (batched flows)
# ---------------------------------------------------------------------------

def test_batched_flows_structure():
    workload = batched_multi_packet_flows(mbps(50), n_flows=10,
                                          packets_per_flow=4, batch_size=5)
    assert workload.n_flows == 10
    assert workload.n_packets == 40
    assert all(spec.n_packets == 4 for spec in workload.flows.values())


def test_batched_flows_cross_sequencing_within_batch():
    workload = batched_multi_packet_flows(mbps(50), n_flows=5,
                                          packets_per_flow=3, batch_size=5,
                                          rng=None, jitter_fraction=0.0)
    first_five = [p.flow_id for _, p in workload.entries[:5]]
    assert first_five == [0, 1, 2, 3, 4]
    seqs = [p.seq_in_flow for _, p in workload.entries]
    assert seqs == [0] * 5 + [1] * 5 + [2] * 5


def test_batched_flows_batch_gap_separates_batches():
    gap = 0.5
    workload = batched_multi_packet_flows(mbps(100), n_flows=10,
                                          packets_per_flow=2, batch_size=5,
                                          batch_gap=gap)
    batch1_end = max(t for t, p in workload.entries if p.flow_id < 5)
    batch2_start = min(t for t, p in workload.entries if p.flow_id >= 5)
    assert batch2_start - batch1_end >= gap * 0.99


def test_batched_flows_entries_sorted():
    rng = RandomStreams(3)
    workload = batched_multi_packet_flows(mbps(95), rng=rng)
    times = [t for t, _ in workload.entries]
    assert times == sorted(times)


def test_batched_flows_validation():
    with pytest.raises(ValueError):
        batched_multi_packet_flows(mbps(50), n_flows=7, batch_size=5)


@given(st.integers(1, 4), st.integers(1, 6))
def test_batched_flows_packet_accounting(batches, packets_per_flow):
    workload = batched_multi_packet_flows(mbps(50), n_flows=batches * 5,
                                          packets_per_flow=packets_per_flow)
    assert workload.n_packets == batches * 5 * packets_per_flow
    per_flow = {}
    for _, packet in workload.entries:
        per_flow[packet.flow_id] = per_flow.get(packet.flow_id, 0) + 1
    assert all(count == packets_per_flow for count in per_flow.values())


# ---------------------------------------------------------------------------
# PacketGenerator
# ---------------------------------------------------------------------------

def _wired_host(sim):
    host = Host(sim, "h", "00:00:00:00:00:01", "10.0.0.1")
    link = Link(sim, "l", mbps(100))
    sent = []
    link.connect(sent.append)
    host.attach(link)
    return host, sent


def test_pktgen_replays_whole_workload(sim):
    host, sent = _wired_host(sim)
    workload = single_packet_flows(mbps(100), n_flows=25)
    generator = PacketGenerator(sim, host, workload)
    generator.start()
    sim.run()
    assert generator.finished
    assert len(sent) == 25


def test_pktgen_fresh_packets_per_run():
    """Stamps from one repetition must not leak into the next."""
    workload = single_packet_flows(mbps(100), n_flows=5)
    for _ in range(2):
        sim = Simulator()
        host, sent = _wired_host(sim)
        generator = PacketGenerator(sim, host, workload)
        generator.start()
        sim.run()
        assert all(p.created_at is not None for p in sent)
        assert all(p.switch_in_at is None for p in sent)
    # The template packets themselves were never stamped.
    assert all(p.created_at is None for _, p in workload.entries)


def test_pktgen_start_offset(sim):
    host, sent = _wired_host(sim)
    workload = single_packet_flows(mbps(100), n_flows=1)
    PacketGenerator(sim, host, workload).start(at=0.5)
    sim.run()
    assert sent[0].created_at == pytest.approx(0.5)


def test_pktgen_stop_cancels_remaining(sim):
    host, sent = _wired_host(sim)
    workload = single_packet_flows(mbps(100), n_flows=100)
    generator = PacketGenerator(sim, host, workload)
    generator.start()
    sim.schedule(workload.duration / 2, generator.stop)
    sim.run()
    assert 0 < generator.packets_sent < 100
    assert not generator.finished


# ---------------------------------------------------------------------------
# Per-flow templates: equal to per-packet construction
# ---------------------------------------------------------------------------

def _fields(packet):
    return (packet.flow_id, packet.seq_in_flow, packet.eth, packet.ip,
            packet.l4, packet.wire_len, packet.payload_len)


def _assert_matches_reference(workload, reference):
    """Entry-by-entry equality with a per-packet reference train.

    Templated packets are built in the same order as per-packet ones,
    so uids must still rise strictly along the (time-sorted) entries.
    """
    assert len(workload.entries) == len(reference)
    for (t, packet), (ref_t, ref_packet) in zip(workload.entries, reference):
        assert t == ref_t
        assert _fields(packet) == _fields(ref_packet)
        assert packet.created_at is None
    uids = [packet.uid for _, packet in workload.entries]
    assert all(a < b for a, b in zip(uids, uids[1:]))


@pytest.mark.parametrize("seed", [None, 3, 41])
def test_batched_flows_match_per_packet_construction(seed):
    rate, frame_len, batch_gap, jitter = mbps(50), 1000, 0.005, 0.02
    workload = batched_multi_packet_flows(
        rate, n_flows=10, packets_per_flow=6, batch_size=5,
        batch_gap=batch_gap, frame_len=frame_len,
        rng=RandomStreams(seed) if seed is not None else None,
        jitter_fraction=jitter)
    rng = RandomStreams(seed) if seed is not None else None
    gap = transmission_delay(frame_len, rate)
    order = cross_sequence(5, 6)
    reference = []
    batch_start = 0.0
    for batch_index in range(2):
        for slot, (flow_in_batch, seq) in enumerate(order):
            flow_id = batch_index * 5 + flow_in_batch
            t = batch_start + slot * gap
            if rng is not None:
                t = max(t + rng.uniform("pktgen-jitter", -jitter * gap,
                                        jitter * gap), batch_start)
            reference.append((t, udp_packet(
                HOST1_MAC, HOST2_MAC, _forged_source_ip(flow_id), HOST2_IP,
                2000 + flow_id, 9, frame_len=frame_len, flow_id=flow_id,
                seq_in_flow=seq)))
        batch_start += len(order) * gap + batch_gap
    reference.sort(key=lambda entry: entry[0])
    _assert_matches_reference(workload, reference)


def test_recurring_flows_match_per_packet_construction():
    rate = mbps(20)
    workload = recurring_flows(rate, n_flows=4, rounds=3, frame_len=500)
    gap = transmission_delay(500, rate)
    reference = [
        ((round_index * 4 + flow_id) * gap, udp_packet(
            HOST1_MAC, HOST2_MAC, _forged_source_ip(flow_id), HOST2_IP,
            3000 + flow_id, 9, frame_len=500, flow_id=flow_id,
            seq_in_flow=round_index))
        for round_index in range(3) for flow_id in range(4)]
    _assert_matches_reference(workload, reference)


@pytest.mark.parametrize("initial_packets", [0, 3])
def test_tcp_eviction_matches_per_packet_construction(initial_packets):
    rate = mbps(50)
    workload = tcp_eviction_scenario(rate, initial_packets=initial_packets,
                                     idle_gap=0.5, burst_packets=4)
    gap = transmission_delay(1000, rate)
    reference = []
    t = 0.0
    for seq in range(2 + initial_packets + 4):
        if seq == 2 + initial_packets:
            t += 0.5
        if seq < 2:
            packet = tcp_control_packet(
                HOST1_MAC, HOST2_MAC, HOST1_IP, HOST2_IP, 45000, 80,
                flags=FLAG_SYN if seq == 0 else FLAG_ACK)
        else:
            packet = tcp_packet(HOST1_MAC, HOST2_MAC, HOST1_IP, HOST2_IP,
                                45000, 80, flags=FLAG_ACK, frame_len=1000)
        packet.flow_id, packet.seq_in_flow = 0, seq
        reference.append((t, packet))
        t += gap
    _assert_matches_reference(workload, reference)


def test_mixed_tcp_udp_matches_per_packet_construction():
    rate = mbps(50)
    workload = mixed_tcp_udp(rate, n_tcp_flows=3, packets_per_tcp=5,
                             n_udp_flows=12)
    gap = transmission_delay(1000, rate)
    reference = []
    for slot, (_, packet) in enumerate(workload.entries):
        flow_id, seq = packet.flow_id, packet.seq_in_flow
        if flow_id >= 3:
            index = flow_id - 3
            ref = udp_packet(HOST1_MAC, HOST2_MAC, _forged_source_ip(index),
                             HOST2_IP, 5000 + index % 1000, 9,
                             frame_len=1000, flow_id=flow_id, seq_in_flow=0)
        elif seq == 0:
            ref = tcp_control_packet(HOST1_MAC, HOST2_MAC, HOST1_IP,
                                     HOST2_IP, 40000 + flow_id, 80,
                                     flags=FLAG_SYN, flow_id=flow_id,
                                     seq_in_flow=0)
        else:
            ref = tcp_packet(HOST1_MAC, HOST2_MAC, HOST1_IP, HOST2_IP,
                             40000 + flow_id, 80, flags=FLAG_ACK,
                             frame_len=1000, flow_id=flow_id,
                             seq_in_flow=seq)
        reference.append((slot * gap, ref))
    _assert_matches_reference(workload, reference)
    for flow_id in range(3):
        seqs = sorted(p.seq_in_flow for _, p in workload.entries
                      if p.flow_id == flow_id)
        assert seqs == list(range(5))


def _hybrid_train():
    return flow_train_flows(mbps(4), n_flows=12, packets_per_flow=6,
                            flow_rate=500.0)


@pytest.mark.parametrize("engine,factory", [
    (PACKET, lambda: batched_multi_packet_flows(
        mbps(50), n_flows=10, packets_per_flow=6, rng=RandomStreams(4))),
    (HYBRID, lambda: batched_multi_packet_flows(
        mbps(50), n_flows=10, packets_per_flow=6, rng=RandomStreams(4))),
    (HYBRID, _hybrid_train),
], ids=["packet-batched", "hybrid-batched", "hybrid-train"])
def test_run_once_replays_one_workload_identically(engine, factory):
    """Replaying the same Workload object twice gives the same run.

    Shared headers and templates must carry nothing from one replay into
    the next: stamps land on per-run copies only.
    """
    workload = factory()
    scenario = SINGLE.with_engine(engine)
    first = run_once(flow_buffer_256(), workload, seed=4, scenario=scenario)
    second = run_once(flow_buffer_256(), workload, seed=4,
                      scenario=scenario)
    assert first.completed_flows == first.total_flows
    # TimeSeries carries no __eq__, so compare fields by value.
    for field in dataclasses.fields(first):
        mine, theirs = getattr(first, field.name), getattr(second, field.name)
        if hasattr(mine, "times"):
            mine, theirs = ((list(x.times), list(x.values))
                            for x in (mine, theirs))
        assert mine == theirs, field.name
    assert all(packet.created_at is None and packet.switch_in_at is None
               for _, packet in workload.entries)
