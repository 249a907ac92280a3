"""Per-tensor affine 8-bit activation quantization and the wire format.

One record covers one batch of activations plus its labels. Its payload
array is the only source of its codec and shape: uint8 codes for q8,
float32 values for raw. The affine map uses a single (scale, min) pair per
tensor: scale = (max - min) / 255, code = round-half-away-from-zero((a -
min) / scale) clamped to [0, 255]. Internal arithmetic runs in float64; the
stored scale/min are float32 (wire width), and quantization uses the stored
float32 values so that requantizing a decoded grid is exact. Constant
tensors get scale 0 and all-zero codes.

The raw codec carries the untouched float32 payload for runs with
quantization disabled; decoding it is a bit-exact passthrough.

Wire layout, little-endian: magic (QACT quantized / RACT raw), round tag
u32, device id u16, batch index u32, rank u8, dims u32 each, scale f32,
min f32, label count u32, labels u16 each, then the payload (u8 codes or
f32 values).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import kernel

MAGIC_Q8 = b"QACT"
MAGIC_RAW = b"RACT"

# codec -> (wire magic, payload dtype)
CODECS = {"q8": (MAGIC_Q8, np.dtype(np.uint8)), "raw": (MAGIC_RAW, np.dtype("<f4"))}

# The fixed part of a record around its dims: magic, round tag, device id,
# batch index, rank ... scale, min, label count.
HEAD = struct.Struct("<4sIHIB")
TAIL = struct.Struct("<ffI")
FIXED_BYTES = HEAD.size + TAIL.size


class QuantizeError(ValueError):
    """Non-finite input, malformed record bytes, or codec misuse."""


@dataclass
class ActivationRecord:
    round_tag: int
    device_id: int
    batch_index: int
    scale: float
    min_val: float
    labels: np.ndarray
    payload: np.ndarray  # uint8 codes (q8) or float32 values (raw)

    @property
    def codec(self):
        return "q8" if self.payload.dtype == np.uint8 else "raw"


def encode(a, round_tag, device_id, batch_index, labels=None, quantized=True):
    """Build a record: uint8 codes with one (scale, min) pair (q8), or a
    float32 copy of the tensor (raw)."""
    a = np.asarray(a) if quantized else np.array(a, dtype=np.float32, order="C")
    if quantized and a.size == 0:
        raise QuantizeError(f"cannot quantize an empty tensor of shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise QuantizeError("cannot encode non-finite values")
    scale, lo, payload = 1.0, 0.0, a
    if quantized:
        a64 = a.astype(np.float64)
        lo = np.float32(a64.min())
        scale = np.float32((a64.max() - float(lo)) / 255.0)
        if scale == 0.0:
            payload = np.zeros(a.shape, dtype=np.uint8)
        else:
            # round half away from zero: arguments are >= 0 so floor(x + 0.5)
            x = (a64 - float(lo)) / float(scale)
            payload = np.clip(np.floor(x + 0.5), 0, 255).astype(np.uint8)
    return ActivationRecord(
        round_tag=int(round_tag),
        device_id=int(device_id),
        batch_index=int(batch_index),
        scale=float(scale),
        min_val=float(lo),
        labels=_as_labels(labels),
        payload=payload,
    )


def decode(record, dtype=np.float32):
    """Recover the activation tensor: min + scale * code for q8 (float64
    internally); raw records come back bit-exact, as a copy."""
    if record.codec == "q8":
        out = record.min_val + record.scale * record.payload.astype(np.float64)
        return out.astype(dtype)
    return record.payload.astype(dtype)


def _as_labels(labels):
    arr = np.asarray(() if labels is None else labels)
    if arr.size and (arr.min() < 0 or arr.max() > np.iinfo(np.uint16).max):
        raise QuantizeError("labels must fit in uint16")
    return arr.astype(np.uint16)


def wire_bytes(rank, n_labels, payload_bytes):
    """Serialized record size: fixed header + 4 per dim + 2 per label + payload."""
    return FIXED_BYTES + 4 * rank + 2 * n_labels + payload_bytes


def serialize(record):
    magic, dtype = CODECS[record.codec]
    shape = record.payload.shape
    blob = bytearray(HEAD.pack(magic, record.round_tag, record.device_id, record.batch_index, len(shape)))
    blob += struct.pack(f"<{len(shape)}I", *shape)
    blob += TAIL.pack(record.scale, record.min_val, len(record.labels))
    blob += record.labels.astype("<u2").tobytes()
    blob += np.ascontiguousarray(record.payload, dtype=dtype).tobytes()
    return bytes(blob)


def parse(blob):
    dtype = next((dt for magic, dt in CODECS.values() if blob[:4] == magic), None)
    if dtype is None:
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
    # Python int: cannot wrap, take() bounds it
    payload = take(math.prod(shape) * dtype.itemsize)
    if off != len(blob):
        raise QuantizeError("trailing bytes after activation record")
    try:
        array = np.frombuffer(payload, dtype=dtype).reshape(shape)
    except ValueError as exc:  # numpy's own rank and size limits
        raise QuantizeError(f"record shape {shape} is beyond numpy's limits") from exc
    return ActivationRecord(round_tag, device_id, batch_index, scale, min_val, labels, array.copy())


def quantization_error(a, server_layers, labels, clean_grad):
    """Gradient gap the 8-bit codec induces on the server stack.

    Runs the server forward/backward on the decoded activations and returns
    the L2 norm of the difference between that parameter gradient and
    ``clean_grad``, the caller's flat gradient (``kernel.grad_vector``
    layout) on the originals, for the batch.
    """
    a = np.asarray(a)
    a_hat = decode(encode(a, round_tag=0, device_id=0, batch_index=0), dtype=a.dtype)
    grads = kernel.loss_grads(server_layers, a_hat, labels, input_grad=False)[1]
    return math.sqrt(kernel.sq_norm(kernel.grad_vector(grads) - clean_grad))
