"""Cost model oracles: exact per-round byte counts at the CIFAR-10-shaped
setting (hand-derived below), MAC accounting, ledger arithmetic, transfer
times, latency composition and directionality.

Hand derivation for the reference setting (5 devices, 10000 samples each,
batch 100, split activation 8*8*128 = 8192 elements, 4-byte raw elements,
1-byte quantized codes, 2-byte labels, 43-byte record headers):
  classic vgg11:  2 * 4 * 34,435,466 * 5                  = 1,377,418,640
  classic resnet9: 2 * 4 * 9,652,874 * 5                  =   386,114,960
  split:    (2*4*75,648 + 2*10000*8192*4 + 2*10000) * 5   = 3,279,925,920
  split, device frozen: no model sync, no gradient down
            (10000*8192*4 + 2*10000) * 5                  = 1,638,500,000
  local_loss: head = 8192*10+10 = 81,930 params
            (2*4*(75,648+81,930) + 10000*8192*4 + 20,000) * 5 = 1,644,803,120
  replay tx: record = 43 + 2*100 + 100*8192 = 819,443 per batch
            819,443 * 100 batches * 5                     =   409,721,500
  replay buffer round: zero device traffic.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sflsim import models, netsim

CIFAR_LIKE = dict(samples_per_device=10_000, devices=5, batch_size=100)

GIB = 2**30


def test_classic_bytes_exact():
    report = netsim.comm_bytes_per_round("classic", models.ZOO["vgg11"], **CIFAR_LIKE)
    assert report.total_bytes == 1_377_418_640
    assert report.gib == pytest.approx(1.28279, abs=1e-4)
    r9 = netsim.comm_bytes_per_round("classic", models.ZOO["resnet9"], **CIFAR_LIKE)
    assert r9.total_bytes == 386_114_960
    assert r9.gib == pytest.approx(0.35958, abs=1e-4)


def test_split_bytes_exact():
    report = netsim.comm_bytes_per_round("split", models.ZOO["vgg11"], **CIFAR_LIKE)
    assert report.total_bytes == 3_279_925_920
    assert report.gib == pytest.approx(3.05467, abs=1e-4)
    # same cell for the resnet9 spec: identical device stack and activation
    r9 = netsim.comm_bytes_per_round("split", models.ZOO["resnet9"], **CIFAR_LIKE)
    assert r9.total_bytes == 3_279_925_920


def test_split_frozen_device_skips_model_sync():
    frozen = netsim.comm_bytes_per_round("split", models.ZOO["vgg11"], freeze_device=True,
                                         **CIFAR_LIKE)
    assert frozen.total_bytes == 1_638_500_000
    assert frozen.purpose_bytes["gradient"] == 0


def test_local_loss_bytes_exact():
    report = netsim.comm_bytes_per_round("local_loss", models.ZOO["vgg11"], **CIFAR_LIKE)
    assert report.total_bytes == 1_644_803_120
    assert report.purpose_bytes["gradient"] == 0  # no gradient downlink


def test_replay_bytes_exact():
    tx = netsim.comm_bytes_per_round("replay_tx", models.ZOO["vgg11"], **CIFAR_LIKE)
    assert tx.total_bytes == 409_721_500
    assert tx.gib == pytest.approx(0.38158, abs=1e-4)
    assert tx.purpose_bytes["gradient"] == 0
    assert tx.purpose_bytes["model_up"] == 0
    idle = netsim.comm_bytes_per_round("replay_buffer", models.ZOO["vgg11"], **CIFAR_LIKE)
    assert idle.total_bytes == 0


def test_replay_quant_off_uses_raw_elements():
    tx = netsim.comm_bytes_per_round("replay_tx", models.ZOO["vgg11"], quantized=False,
                                     **CIFAR_LIKE)
    # payload grows 4x: record = 43 + 200 + 100*8192*4 = 3,277,043 per batch
    assert tx.total_bytes == 3_277_043 * 100 * 5


def test_ragged_last_batch_accounting():
    # 25 samples in batches of 10: two full records and one 5-sample record
    spec = models.ZOO["tiny_vgg"]
    tx = netsim.comm_bytes_per_round("replay_tx", spec, samples_per_device=25,
                                     devices=1, batch_size=10)
    rec_full = 43 + 2 * 10 + 10 * 256
    rec_last = 43 + 2 * 5 + 5 * 256
    assert tx.total_bytes == 2 * rec_full + rec_last


def test_cost_ratio_is_exact_byte_quotient():
    ratio = netsim.cost_ratio("split", "replay_tx", models.ZOO["vgg11"], **CIFAR_LIKE)
    assert ratio == 3_279_925_920 / 409_721_500
    lgl = netsim.cost_ratio("local_loss", "replay_tx", models.ZOO["vgg11"], **CIFAR_LIKE)
    assert lgl == 1_644_803_120 / 409_721_500


def test_computation_units_convention():
    spec = models.ZOO["vgg11"]
    split = netsim.computation_units("split", spec, samples_per_device=10_000)
    replay = netsim.computation_units("replay_tx", spec, samples_per_device=10_000)
    classic = netsim.computation_units("classic", spec, samples_per_device=10_000)
    facts = models.analyze(spec)
    assert split.device_units == 2 * facts.device_macs * 10_000
    assert replay.device_units == split.device_units // 2  # forward only
    frozen = netsim.computation_units("split", spec, samples_per_device=10_000, freeze_device=True)
    assert frozen == netsim.ComputeReport(replay.device_units, split.server_units)
    assert classic.device_units == 2 * (facts.device_macs + facts.server_macs) * 10_000
    assert classic.server_units == 0
    assert split.server_units == 2 * facts.server_macs * 10_000
    idle = netsim.computation_units("replay_buffer", spec, samples_per_device=10_000)
    assert idle.device_units == 0
    assert idle.server_units == split.server_units  # server still trains from cache


def test_profiles_pinned():
    assert netsim.PROFILES["wifi"].uplink_mbps == 50.0
    assert netsim.PROFILES["wifi"].downlink_mbps == 50.0
    assert netsim.PROFILES["4g"].uplink_mbps == 10.0
    assert netsim.PROFILES["4g"].downlink_mbps == 42.0
    assert netsim.PROFILES["3g"].uplink_mbps == 3.0
    assert netsim.PROFILES["3g"].downlink_mbps == 6.0


def test_transfer_time_hand_value():
    # 6.25 MB over 50 Mbps is exactly one second
    assert netsim.transfer_time(6_250_000, 50.0) == pytest.approx(1.0)
    assert netsim.transfer_time(0, 3.0) == 0.0
    with pytest.raises(netsim.NetsimError):
        netsim.transfer_time(10, 0.0)


def test_purposes_fix_their_directions():
    assert netsim.PURPOSES == {
        "activation": "up", "labels": "up", "model_up": "up",
        "gradient": "down", "model_down": "down",
    }


def test_ledger_totals_and_slices():
    ledger = netsim.TrafficLedger()
    ledger.record(0, 0, "activation", 100)
    ledger.record(0, 0, "gradient", 40)
    ledger.record(0, 1, "activation", 100)
    ledger.record(1, 0, "labels", 6)
    assert ledger.total() == 246
    assert ledger.total(direction="up") == 206
    assert ledger.total(round_index=0) == 240
    assert ledger.total(purpose="activation") == 200
    assert ledger.total(device=0) == 146
    traffic = ledger.per_device_traffic(0, [0, 1])
    assert traffic == {0: (100, 40), 1: (100, 0)}
    ledger.record(0, 1, "activation", 60)  # same (round, device, purpose): one row
    assert len(ledger.entries) == 4  # distinct (round, device, purpose) keys
    assert ledger.entries[0, 1, "activation"] == 160
    # a listed device that sent nothing reads (0, 0); queries add no rows
    assert ledger.per_device_traffic(0, [1, 2]) == {1: (160, 0), 2: (0, 0)}
    assert len(ledger.entries) == 4
    with pytest.raises(netsim.NetsimError):
        ledger.record(0, 0, "nonsense", 1)
    with pytest.raises(netsim.NetsimError):
        ledger.record(0, 0, "labels", -1)


# Some records land on the same cell, some record 0 bytes, and filters also
# name rounds and devices that hold nothing or lie outside the table.
ledger_records = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 4),
                                    st.sampled_from(list(netsim.PURPOSES)),
                                    st.integers(0, 10**12)), max_size=40)


@settings(derandomize=True, deadline=None, database=None, max_examples=30)
@given(ledger_records)
def test_ledger_answers_every_query_as_a_plain_dict_does(records):
    ledger, want = netsim.TrafficLedger(), {}
    for key in records:
        ledger.record(*key)
        want[key[:3]] = want.get(key[:3], 0) + key[3]
    want = {key: n for key, n in want.items() if n}  # a zero-byte record leaves no row
    rounds, devices = [None, -1, *range(8)], [None, -1, *range(7)]
    for direction in (None, "up", "down"):
        for purpose in (None, *netsim.PURPOSES):
            for t in rounds:
                for k in devices:
                    got = ledger.total(direction, purpose, t, k)
                    assert type(got) is int
                    assert got == sum(n for (r, d, p), n in want.items()
                                      if t in (None, r) and k in (None, d)
                                      and purpose in (None, p)
                                      and direction in (None, netsim.PURPOSES[p]))
    for t in rounds[1:]:
        traffic = ledger.per_device_traffic(t, devices[1:])
        for k in devices[1:]:
            up = sum(n for (r, d, p), n in want.items()
                     if (r, d) == (t, k) and netsim.PURPOSES[p] == "up")
            everything = sum(n for (r, d, _), n in want.items() if (r, d) == (t, k))
            assert traffic[k] == (up, everything - up)
            assert all(type(n) is int for n in traffic[k])
    assert dict(ledger.entries) == want and len(ledger.entries) == len(want)
    assert list(ledger.entries) == sorted(
        want, key=lambda key: (key[0], key[1], list(netsim.PURPOSES).index(key[2])))
    # Rows added into another ledger round by round, as an array or as the
    # bytes a worker sends, rebuild it.
    copy = netsim.TrafficLedger()
    for t in range(6):
        copy.add_rows(t, [2, 3, 4], ledger.rows(t, [2, 3, 4]).tobytes())
        copy.add_rows(t, [0, 1], ledger.rows(t, [0, 1]))
    assert dict(copy.entries) == want
    for t in range(6):
        copy.add_rows(t, [0, 1, 2, 3, 4], ledger.rows(t, [0, 1, 2, 3, 4]))
    assert dict(copy.entries) == {key: 2 * n for key, n in want.items()}


def test_ledger_entries_are_a_read_only_view():
    ledger = netsim.TrafficLedger()
    entries = ledger.entries
    ledger.record(3, 2, "gradient", 7)
    assert dict(entries) == {(3, 2, "gradient"): 7}
    with pytest.raises(KeyError):
        entries[3, 2, "labels"]
    with pytest.raises(TypeError):
        entries[3, 2, "labels"] = 1


def test_a_dropped_ledger_is_freed_at_once():
    # With no reference cycle, the table goes with the ledger's last
    # reference, not at some later full collection.
    ledger = netsim.TrafficLedger()
    ledger.record(0, 0, "labels", 1)
    assert len(ledger.entries) == 1
    freed = weakref.ref(ledger)
    gc.disable()
    try:
        del ledger
        assert freed() is None
    finally:
        gc.enable()


def test_ledger_refuses_what_its_table_cannot_hold():
    ledger = netsim.TrafficLedger()
    for round_index, device in ((-1, 0), (0, -1)):
        with pytest.raises(netsim.NetsimError):
            ledger.record(round_index, device, "labels", 1)
    ledger.record(0, 0, "labels", 2**63 - 1)
    with pytest.raises(OverflowError):  # a full cell does not wrap
        ledger.record(0, 0, "labels", 1)
    width = len(netsim.PURPOSES)
    for rows in (np.zeros((2, width), np.int64), -np.ones((1, width), np.int64)):
        with pytest.raises(netsim.NetsimError):
            ledger.add_rows(1, [0], rows)
    assert dict(ledger.entries) == {(0, 0, "labels"): 2**63 - 1}


def test_a_long_ledger_stays_small():
    # 1,000 rounds of 16 devices and 4 purposes: 64,000 rows, as 8-byte cells.
    ledger = netsim.TrafficLedger()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for t in range(1000):
            for k in range(16):
                for purpose in ("model_down", "activation", "labels", "model_up"):
                    ledger.record(t, k, purpose, 1000 + k)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(ledger.entries) == 64_000
    assert grown < 2 * 2**20, grown


def test_round_latency_composition():
    profile = netsim.PROFILES["wifi"]
    compute = netsim.ComputeReport(device_units=5e8, server_units=5e9)
    traffic = {0: (6_250_000, 6_250_000), 1: (0, 0)}
    report = netsim.round_latency(traffic, compute, profile,
                                  device_speed=5e8, server_speed=5e9)
    # device 0: 1 s compute + 1 s up + 1 s down + 1 s server
    assert report.per_device[0] == pytest.approx(4.0)
    assert report.per_device[1] == pytest.approx(2.0)
    assert report.round_latency_s == pytest.approx(4.0)  # max over devices
    assert 0.0 < report.comm_share < 1.0


def device_traffic(report):
    """{device: (up, down)} of a cost report, for round_latency."""
    return {d: (report.per_device_up, report.per_device_down) for d in range(report.devices)}


def test_comm_share_strictly_increases_as_bandwidth_drops():
    spec = models.ZOO["vgg11"]
    report = netsim.comm_bytes_per_round("split", spec, **CIFAR_LIKE)
    compute = netsim.computation_units("split", spec, samples_per_device=10_000)
    traffic = device_traffic(report)
    shares = []
    for name in ("wifi", "4g", "3g"):
        lat = netsim.round_latency(traffic, compute, netsim.PROFILES[name],
                                   device_speed=5e8, server_speed=5e9)
        shares.append(lat.comm_share)
    assert shares[0] < shares[1] < shares[2]


def test_replay_latency_beats_split_everywhere():
    spec = models.ZOO["vgg11"]
    for name in ("wifi", "4g", "3g"):
        profile = netsim.PROFILES[name]
        lats = {}
        for method in ("split", "replay_tx"):
            rep = netsim.comm_bytes_per_round(method, spec, **CIFAR_LIKE)
            comp = netsim.computation_units(method, spec, samples_per_device=10_000)
            lats[method] = netsim.round_latency(device_traffic(rep), comp, profile,
                                                device_speed=5e8, server_speed=5e9).round_latency_s
        assert lats["replay_tx"] < lats["split"]
