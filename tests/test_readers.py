"""Property tests for the binary readers: activation records, SFL1
checkpoints and IDX file pairs.

A valid blob must round-trip; every truncation and every single-byte change
of one must either parse or raise the reader's own error type, never any
other exception. Examples are derandomised so every run tests the same set.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sflsim import data, kernel, netsim, quantize

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=40)

u16 = st.integers(0, 2**16 - 1)
u32 = st.integers(0, 2**32 - 1)


@st.composite
def records(draw, batch_labels=False):
    """A record of the q8 or raw codec; with ``batch_labels`` it carries
    one label per row of a rank >= 1 batch, as training records do."""
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=int(batch_labels), max_size=4)))
    if batch_labels:
        n_labels = shape[0]
    else:
        n_labels = draw(st.integers(0, 6))
    labels = draw(st.lists(u16, min_size=n_labels, max_size=n_labels))
    a = np.random.default_rng(draw(u32)).normal(0.0, 3.0, size=shape).astype(np.float32)
    return quantize.encode(
        a, draw(u32), draw(u16), draw(u32),
        labels=np.array(labels, dtype=np.int64), quantized=draw(st.booleans()),
    )


def corruptions(blob, flip):
    """Every proper prefix of ``blob``, then ``blob`` with each byte in turn
    XORed with ``flip`` (1..255)."""
    for n in range(len(blob)):
        yield blob[:n]
    for i in range(len(blob)):
        changed = bytearray(blob)
        changed[i] ^= flip
        yield bytes(changed)


@PROPERTY
@given(records())
def test_record_round_trips(record):
    back = quantize.parse(quantize.serialize(record))
    for name in ("round_tag", "device_id", "batch_index", "codec", "scale", "min_val"):
        assert getattr(back, name) == getattr(record, name)
    assert back.payload.shape == record.payload.shape
    assert back.labels.dtype == np.uint16
    assert np.array_equal(back.labels, record.labels)
    assert quantize.decode(back).tobytes() == quantize.decode(record).tobytes()


@PROPERTY
@given(records())
def test_valid_blob_round_trips_byte_exact(record):
    blob = quantize.serialize(record)
    assert quantize.serialize(quantize.parse(blob)) == blob


@PROPERTY
@given(records(batch_labels=True))
def test_record_size_has_one_source(record):
    shape = record.payload.shape
    batch, rank = shape[0], len(shape)
    predicted = netsim.record_bytes(
        batch, math.prod(shape[1:]), rank, quantized=record.codec == "q8"
    )
    assert len(quantize.serialize(record)) == predicted


@PROPERTY
@given(records(), st.integers(1, 255))
def test_corrupt_record_raises_only_quantize_error(record, flip):
    for blob in corruptions(quantize.serialize(record), flip):
        try:
            quantize.parse(blob)
        except quantize.QuantizeError:
            pass


def _stack(seed):
    rng = np.random.default_rng(seed)
    return [
        kernel.Conv3x3(1, 2, rng=rng),
        kernel.ReLU(),
        kernel.MaxPool2x2(),
        kernel.Flatten(),
        kernel.Dense(8, 3, rng=rng),
    ]


@settings(derandomize=True, deadline=None, database=None, max_examples=4)
@given(u32, st.integers(1, 255))
def test_corrupt_checkpoint_raises_only_kernel_error(tmp_path_factory, seed, flip):
    path = tmp_path_factory.mktemp("ckpt") / "w.sfl"
    kernel.save_weights(path, _stack(seed))
    blob = path.read_bytes()
    for corrupt in corruptions(blob, flip):
        path.write_bytes(corrupt)
        try:
            kernel.load_weights(path, _stack(0))
        except kernel.KernelError:
            pass


@settings(derandomize=True, deadline=None, database=None, max_examples=15)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3), u32, st.integers(1, 255))
def test_corrupt_idx_pair_raises_only_data_error(tmp_path_factory, count, rows, cols, seed, flip):
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(count, 1, rows, cols)) / 255.0
    labels = rng.integers(0, 10, size=count)
    ip = tmp_path_factory.mktemp("idx") / "images.idx"
    lp = ip.with_name("labels.idx")
    data.write_idx(ip, lp, images, labels)
    good = {ip: ip.read_bytes(), lp: lp.read_bytes()}
    for path, blob in good.items():
        for corrupt in corruptions(blob, flip):
            path.write_bytes(corrupt)
            try:
                data.load_idx(ip, lp, seed=0)
            except data.DataError:
                pass
        path.write_bytes(blob)


def test_counts_numpy_cannot_shape_raise_reader_errors(tmp_path):
    # Headers that fit their payload but name an array numpy cannot build.
    for shape in [(1,) * 70, (0, 2**32 - 1, 2**32 - 1, 2**32 - 1)]:
        blob = (quantize.HEAD.pack(quantize.MAGIC_Q8, 0, 0, 0, len(shape))
                + struct.pack(f"<{len(shape)}I", *shape)
                + quantize.TAIL.pack(1.0, 0.0, 0) + bytes(math.prod(shape)))
        with pytest.raises(quantize.QuantizeError, match="numpy"):
            quantize.parse(blob)
    ip, lp = tmp_path / "images.idx", tmp_path / "labels.idx"
    ip.write_bytes(struct.pack(">IIII", data.IDX_IMAGE_MAGIC, 0, 2**32 - 1, 2**32 - 1))
    lp.write_bytes(struct.pack(">II", data.IDX_LABEL_MAGIC, 0))
    with pytest.raises(data.DataError, match="pixels"):
        data.load_idx(ip, lp, seed=0)
