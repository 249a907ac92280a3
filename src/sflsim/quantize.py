"""Per-tensor affine 8-bit activation quantization and the wire format.

One record covers one batch of activations plus its labels. The affine map
uses a single (scale, min) pair per tensor: scale = (max - min) / 255, code
= round-half-away-from-zero((a - min) / scale) clamped to [0, 255]. Internal
arithmetic runs in float64; the stored scale/min are float32 (wire width),
and quantization uses the stored float32 values so that requantizing a
decoded grid is exact. Constant tensors get scale 0 and all-zero codes.

A "raw" codec variant carries the untouched float32 payload for runs with
quantization disabled; decoding it is a bit-exact passthrough.

Wire layout, little-endian: magic (QACT quantized / RACT raw), round tag
u32, device id u16, batch index u32, rank u8, dims u32 each, scale f32,
min f32, label count u32, labels u16 each, then the payload (u8 codes or
f32 values).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import kernel

MAGIC_Q8 = b"QACT"
MAGIC_RAW = b"RACT"

# The fixed part of a record around its dims: magic, round tag, device id,
# batch index, rank ... scale, min, label count.
HEAD = struct.Struct("<4sIHIB")
TAIL = struct.Struct("<ffI")
FIXED_BYTES = HEAD.size + TAIL.size


class QuantizeError(ValueError):
    """Non-finite input, malformed record bytes, or codec misuse."""


_EMPTY_LABELS = np.zeros(0, dtype=np.uint16)


@dataclass
class ActivationRecord:
    round_tag: int
    device_id: int
    batch_index: int
    shape: tuple
    codec: str
    scale: float
    min_val: float
    labels: np.ndarray = field(default_factory=lambda: _EMPTY_LABELS.copy())
    codes: np.ndarray | None = None
    values: np.ndarray | None = None

    def payload_bytes(self):
        n = math.prod(self.shape)
        return n if self.codec == "q8" else 4 * n


def quantize(a, round_tag, device_id, batch_index, labels=None):
    """Affine-quantize a tensor to uint8 codes with one (scale, min) pair."""
    a = np.asarray(a)
    if a.size == 0:
        raise QuantizeError(f"cannot quantize an empty tensor of shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise QuantizeError("cannot quantize non-finite values")
    a64 = a.astype(np.float64)
    lo = np.float32(a64.min())
    hi = a64.max()
    scale = np.float32((hi - float(lo)) / 255.0)
    if scale == 0.0:
        codes = np.zeros(a.shape, dtype=np.uint8)
    else:
        # round half away from zero: arguments are >= 0 so floor(x + 0.5)
        x = (a64 - float(lo)) / float(scale)
        codes = np.clip(np.floor(x + 0.5), 0, 255).astype(np.uint8)
    return ActivationRecord(
        round_tag=int(round_tag),
        device_id=int(device_id),
        batch_index=int(batch_index),
        shape=tuple(a.shape),
        codec="q8",
        scale=float(scale),
        min_val=float(lo),
        labels=_as_labels(labels),
        codes=codes,
    )


def encode(a, round_tag, device_id, batch_index, labels=None, quantized=True):
    """Build a record with the quantized (q8) or passthrough (raw) codec."""
    if quantized:
        return quantize(a, round_tag, device_id, batch_index, labels)
    a = np.asarray(a, dtype=np.float32)
    if not np.all(np.isfinite(a)):
        raise QuantizeError("cannot encode non-finite values")
    return ActivationRecord(
        round_tag=int(round_tag),
        device_id=int(device_id),
        batch_index=int(batch_index),
        shape=tuple(a.shape),
        codec="raw",
        scale=1.0,
        min_val=0.0,
        labels=_as_labels(labels),
        values=a.copy(),
    )


def decode(record, dtype=np.float32):
    """Recover the activation tensor: min + scale * code for q8 (float64
    internally); raw records come back bit-exact."""
    if record.codec == "q8":
        out = record.min_val + record.scale * record.codes.astype(np.float64)
        return out.astype(dtype)
    return record.values.astype(dtype) if dtype != np.float32 else record.values.copy()


def _as_labels(labels):
    if labels is None:
        return _EMPTY_LABELS.copy()
    arr = np.asarray(labels)
    if arr.size and (arr.min() < 0 or arr.max() > np.iinfo(np.uint16).max):
        raise QuantizeError("labels must fit in uint16")
    return arr.astype(np.uint16)


def wire_bytes(rank, n_labels, payload_bytes):
    """Serialized record size: fixed header + 4 per dim + 2 per label + payload."""
    return FIXED_BYTES + 4 * rank + 2 * n_labels + payload_bytes


def record_wire_bytes(record):
    """Exact serialized size of one record."""
    return wire_bytes(len(record.shape), len(record.labels), record.payload_bytes())


def serialize(record):
    magic = MAGIC_Q8 if record.codec == "q8" else MAGIC_RAW
    rank = len(record.shape)
    blob = bytearray(HEAD.pack(magic, record.round_tag, record.device_id, record.batch_index, rank))
    blob += struct.pack(f"<{rank}I", *record.shape)
    blob += TAIL.pack(record.scale, record.min_val, len(record.labels))
    blob += record.labels.astype("<u2").tobytes()
    if record.codec == "q8":
        blob += np.ascontiguousarray(record.codes, dtype=np.uint8).tobytes()
    else:
        blob += np.ascontiguousarray(record.values, dtype="<f4").tobytes()
    return bytes(blob)


def parse(blob):
    if blob[:4] == MAGIC_Q8:
        codec = "q8"
    elif blob[:4] == MAGIC_RAW:
        codec = "raw"
    else:
        raise QuantizeError(f"bad record magic {blob[:4]!r}")
    off = 0

    def take(n):
        nonlocal off
        if off + n > len(blob):
            raise QuantizeError("truncated activation record")
        chunk = blob[off : off + n]
        off += n
        return chunk

    _, round_tag, device_id, batch_index, rank = HEAD.unpack(take(HEAD.size))
    shape = struct.unpack(f"<{rank}I", take(4 * rank))
    scale, min_val, n_labels = TAIL.unpack(take(TAIL.size))
    labels = np.frombuffer(take(2 * n_labels), dtype="<u2").copy()
    n = math.prod(shape)  # Python int: cannot wrap, take() bounds it
    payload = take(n if codec == "q8" else 4 * n)
    if off != len(blob):
        raise QuantizeError("trailing bytes after activation record")
    try:
        array = np.frombuffer(payload, dtype=np.uint8 if codec == "q8" else "<f4").reshape(shape)
    except ValueError as exc:  # numpy's own rank and size limits
        raise QuantizeError(f"record shape {shape} is beyond numpy's limits") from exc
    codes, values = (array.copy(), None) if codec == "q8" else (None, array.copy())
    return ActivationRecord(
        round_tag=round_tag,
        device_id=device_id,
        batch_index=batch_index,
        shape=tuple(shape),
        codec=codec,
        scale=scale,
        min_val=min_val,
        labels=labels,
        codes=codes,
        values=values,
    )


def quantization_error(a, server_layers, labels, quantized=True, clean_grad=None):
    """Gradient gap the codec induces on the server stack.

    Runs the server forward/backward on the decoded activations and on
    the originals, and returns the L2 norm of the parameter-gradient
    difference for the batch. A caller that already holds the flat gradient
    on the originals (``kernel.grad_vector`` layout) passes it as
    ``clean_grad`` and saves that pass. Zero when quantization is disabled
    (identity codec).
    """
    if not quantized:
        return 0.0
    a = np.asarray(a)
    rec = quantize(a, round_tag=0, device_id=0, batch_index=0)
    a_hat = decode(rec, dtype=a.dtype)
    quantized_grad = kernel.grad_vector(kernel.loss_grads(server_layers, a_hat, labels)[1])
    if clean_grad is None:
        clean_grad = kernel.grad_vector(kernel.loss_grads(server_layers, a, labels)[1])
    return float(np.linalg.norm(quantized_grad - clean_grad))
