"""Quantizer oracles: hand-packed wire fixture, round-trip error bound,
grid idempotence, endpoint coverage, rounding convention, gradient-gap
error against an independently scripted two-forward-two-backward check."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from sflsim import kernel, quantize

from _helpers import quantizer_property_suite


def test_constant_tensor_contract():
    rec = quantize.encode(np.full((3, 4), 2.5, dtype=np.float32), round_tag=1, device_id=0, batch_index=0)
    assert rec.scale == 0.0
    assert np.all(rec.payload == 0)
    assert rec.min_val == np.float32(2.5)
    back = quantize.decode(rec)
    assert np.array_equal(back, np.full((3, 4), 2.5, dtype=np.float32))


def test_rounding_is_half_away_from_zero():
    # range [0, 255] gives scale exactly 1; 0.5 must round up to code 1
    # (numpy's default half-to-even would give 0)
    a = np.array([0.0, 0.5, 2.5, 255.0], dtype=np.float32)
    rec = quantize.encode(a, round_tag=0, device_id=0, batch_index=0)
    assert rec.scale == 1.0
    assert rec.payload.tolist() == [0, 1, 3, 255]


def test_endpoint_codes_present():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a = rng.uniform(-5, 5, size=17).astype(np.float32)
        rec = quantize.encode(a, round_tag=0, device_id=0, batch_index=0)
        assert rec.payload.min() == 0
        assert rec.payload.max() == 255


def test_round_trip_error_bound_and_idempotence_bulk():
    # the full 1e4-trial property suite (also run by the acceptance gate)
    quantizer_property_suite(trials=10_000, seed=123)


def test_rejects_non_finite():
    with pytest.raises(quantize.QuantizeError):
        quantize.encode(np.array([1.0, np.nan]), round_tag=0, device_id=0, batch_index=0)
    with pytest.raises(quantize.QuantizeError):
        quantize.encode(np.array([1.0, np.inf]), round_tag=0, device_id=0, batch_index=0)


@pytest.mark.parametrize("shape", [(0,), (0, 3), (2, 0, 4)])
def test_empty_tensors(shape):
    # q8 has no min/max to take, so it refuses with its own error; raw
    # carries an empty payload and round-trips it
    empty = np.zeros(shape, dtype=np.float32)
    with pytest.raises(quantize.QuantizeError, match="empty"):
        quantize.encode(empty, 0, 0, 0)
    rec = quantize.encode(empty, 0, 0, 0, quantized=False)
    back = quantize.parse(quantize.serialize(rec))
    assert back.payload.shape == shape
    assert quantize.decode(back).shape == shape


def test_wire_format_hand_packed():
    a = np.array([[0.0, 1.0], [2.0, 255.0]], dtype=np.float32)
    labels = np.array([3, 7], dtype=np.uint16)
    rec = quantize.encode(a, round_tag=9, device_id=2, batch_index=5, labels=labels)
    blob = quantize.serialize(rec)

    expected = b"QACT"
    expected += struct.pack("<I", 9)       # round tag
    expected += struct.pack("<H", 2)       # device id
    expected += struct.pack("<I", 5)       # batch index
    expected += struct.pack("<B", 2)       # rank
    expected += struct.pack("<II", 2, 2)   # dims
    expected += struct.pack("<f", 1.0)     # scale = (255-0)/255
    expected += struct.pack("<f", 0.0)     # min
    expected += struct.pack("<I", 2)       # label count
    expected += struct.pack("<HH", 3, 7)   # labels
    expected += bytes([0, 1, 2, 255])      # codes
    assert blob == expected
    assert quantize.wire_bytes(2, 2, 4) == len(blob)

    back = quantize.parse(blob)
    assert back.round_tag == 9 and back.device_id == 2 and back.batch_index == 5
    assert back.payload.shape == (2, 2)
    assert np.array_equal(back.payload, rec.payload)
    assert np.array_equal(back.labels, labels)
    assert back.scale == rec.scale and back.min_val == rec.min_val


def test_wire_format_raw_codec_round_trip():
    a = np.array([1.25, -2.5], dtype=np.float32)
    rec = quantize.encode(a, round_tag=1, device_id=0, batch_index=2,
                          labels=np.array([1, 0], dtype=np.uint16), quantized=False)
    assert rec.codec == "raw"
    assert np.array_equal(quantize.decode(rec), a)  # bit-exact passthrough
    blob = quantize.serialize(rec)
    assert blob[:4] == b"RACT"
    back = quantize.parse(blob)
    assert np.array_equal(quantize.decode(back), a)
    assert quantize.wire_bytes(1, 2, 8) == len(blob)


def test_parse_errors():
    a = np.arange(6, dtype=np.float32).reshape(2, 3)
    blob = quantize.serialize(quantize.encode(a, round_tag=0, device_id=0, batch_index=0))
    with pytest.raises(quantize.QuantizeError, match="magic"):
        quantize.parse(b"XXXX" + blob[4:])
    with pytest.raises(quantize.QuantizeError, match="truncat"):
        quantize.parse(blob[:-2])
    with pytest.raises(quantize.QuantizeError, match="trailing"):
        quantize.parse(blob + b"\x00")
    # rank 4 with every dim 65536: 2**64 elements, 0 once wrapped to int64
    oversized = b"QACT" + struct.pack("<IHIB4IffI", 0, 0, 0, 4, *(65536,) * 4, 0.0, 0.0, 0)
    with pytest.raises(quantize.QuantizeError, match="truncat"):
        quantize.parse(oversized)


def test_quantization_error_matches_scripted_oracle():
    # independent two-forward-two-backward computation with raw kernel calls
    init = np.random.default_rng(5)
    server = [kernel.Flatten(), kernel.Dense(16, 3, rng=init, dtype=np.float64)]
    rng = np.random.default_rng(6)
    a = rng.uniform(-1, 1, size=(4, 1, 4, 4))
    labels = np.array([0, 1, 2, 0])

    rec = quantize.encode(a, round_tag=0, device_id=0, batch_index=0)
    a_hat = quantize.decode(rec, dtype=np.float64)
    vecs = []
    for x in (a_hat, a):
        trace = kernel.forward(server, x)
        _, grad = kernel.softmax_cross_entropy(trace.output, labels)
        grads = kernel.backward(server, trace, grad)
        vecs.append(kernel.grad_vector(grads))
    expected = float(np.linalg.norm(vecs[0] - vecs[1]))

    eps = quantize.quantization_error(a, server, labels, vecs[1])
    assert eps == pytest.approx(expected, rel=1e-12)
    assert eps > 0.0
