"""Replay buffer oracles: transmission schedule arithmetic, store/fetch
contracts, byte fidelity, memory accounting, distance proxy."""

from __future__ import annotations

import numpy as np
import pytest

from sflsim import buffer, quantize


def _record(round_tag, device_id=0, batch_index=0, values=None, quantized=True, labels=(0, 0)):
    a = values if values is not None else np.arange(8, dtype=np.float32).reshape(2, 4)
    return quantize.encode(a, round_tag=round_tag, device_id=device_id,
                           batch_index=batch_index,
                           labels=np.array(labels, dtype=np.uint16), quantized=quantized)


def test_switch_schedule_hand_values():
    assert buffer.switch_is_on(0, 2)
    assert not buffer.switch_is_on(1, 2)
    assert buffer.switch_is_on(2, 2)
    for t in range(10):
        assert buffer.switch_is_on(t, 1)
    assert buffer.switch_is_on(0, 8)  # round zero always transmits


def test_switch_counts_are_ceil_t_over_rho():
    for t_total in (64, 63, 65, 1):
        for rho in (1, 2, 4, 8, 5):
            count = sum(buffer.switch_is_on(t, rho) for t in range(t_total))
            assert count == -(-t_total // rho)


def test_switch_rejects_bad_args():
    with pytest.raises(buffer.BufferError):
        buffer.switch_is_on(-1, 2)
    with pytest.raises(buffer.BufferError):
        buffer.switch_is_on(0, 0)


def test_store_rejected_when_switch_off():
    buf = buffer.ReplayBuffer(period=2)
    with pytest.raises(buffer.BufferError, match="switch"):
        buf.store(_record(round_tag=1))
    buf.store(_record(round_tag=2))  # on-round accepted


def test_fetch_miss_before_first_refresh():
    buf = buffer.ReplayBuffer(period=2)
    with pytest.raises(buffer.BufferMiss):
        buf.fetch(device_id=0, batch_index=0)


def test_store_fetch_round_trip_and_replacement():
    buf = buffer.ReplayBuffer(period=2)
    first = _record(round_tag=0, device_id=3, batch_index=7, labels=(5, 1))
    stored = buf.store(first)
    assert stored == len(quantize.serialize(first)) == buf.total_bytes()
    got = buf.fetch(3, 7)
    assert got is not first  # the buffer keeps bytes, not the record
    assert got.round_tag == 0
    assert np.array_equal(got.payload, first.payload)
    assert got.labels.tolist() == [5, 1]
    assert quantize.serialize(got) == quantize.serialize(first)
    assert np.array_equal(quantize.decode(got), quantize.decode(first))

    newer = _record(round_tag=2, device_id=3, batch_index=7,
                    values=np.full((2, 4), 3.0, dtype=np.float32))
    buf.store(newer)
    got = buf.fetch(3, 7)
    assert got.round_tag == 2
    assert len(buf) == 1  # replaced, not appended


def test_memory_accounting_matches_wire_bytes():
    buf = buffer.ReplayBuffer(period=1)
    records = [_record(round_tag=0, device_id=d, batch_index=b)
               for d in range(3) for b in range(4)]
    stored = [buf.store(rec) for rec in records]
    assert stored == [len(quantize.serialize(r)) for r in records]
    assert len(buf) == 12
    assert buf.total_bytes() == sum(stored)
    # refreshing every key leaves the footprint unchanged
    before = buf.total_bytes()
    for rec in records:
        buf.store(_record(round_tag=1, device_id=rec.device_id, batch_index=rec.batch_index))
    assert buf.total_bytes() == before


def test_distance_proxy_zero_for_identical_raw_records():
    buf = buffer.ReplayBuffer(period=1)
    a = np.random.default_rng(0).uniform(-1, 1, size=(3, 2, 2, 2)).astype(np.float32)
    buf.store(quantize.encode(a, round_tag=0, device_id=0, batch_index=0, quantized=False))
    delta = buffer.buffer_distance_proxy(buf, 0, 0, a)
    assert delta == 0.0


def test_distance_proxy_bounded_by_quantization_for_frozen_inputs():
    buf = buffer.ReplayBuffer(period=2)
    rng = np.random.default_rng(1)
    a = rng.uniform(-1, 1, size=(4, 2, 2, 2)).astype(np.float32)
    rec = quantize.encode(a, round_tag=0, device_id=0, batch_index=0)
    buf.store(rec)
    delta = buffer.buffer_distance_proxy(buf, 0, 0, a)
    # per-sample L2 of quantization noise <= scale/2 * sqrt(elements) + slack
    per_sample_bound = rec.scale / 2 * np.sqrt(8) * 1.001
    assert 0.0 < delta <= per_sample_bound


def test_distance_proxy_sees_stale_activations():
    buf = buffer.ReplayBuffer(period=2)
    a = np.random.default_rng(2).uniform(-1, 1, size=(4, 1, 2, 2)).astype(np.float32)
    buf.store(quantize.encode(a, round_tag=0, device_id=0, batch_index=0, quantized=False))
    fresh = a[:, :, :, ::-1]  # a flip: what this round would have sent
    stale = buffer.buffer_distance_proxy(buf, 0, 0, fresh)
    assert stale > 0.0
