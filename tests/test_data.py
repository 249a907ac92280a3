"""Data plumbing oracles: blob generation, a hand-packed IDX fixture,
round trips, sharding properties, flip augmentation."""

from __future__ import annotations

import gc
import struct
import sys
import warnings

import numpy as np
import pytest

from sflsim import data


def test_blobs_shapes_and_range():
    ds = data.generate_blobs(classes=3, per_class=20, image_shape=(1, 8, 8), noise_sigma=0.1, seed=0)
    assert ds.images.shape == (60, 1, 8, 8)
    assert ds.images.dtype == np.float32
    assert ds.labels.shape == (60,)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    assert np.all(np.bincount(ds.labels) == 20)


def test_blobs_image_too_large_to_allocate_is_a_data_error():
    # 2**64 pixels a class: numpy refuses the template draw before allocating.
    with pytest.raises(data.DataError, match="cannot allocate"):
        data.generate_blobs(2, 1, image_shape=(1, 2**32, 2**32), noise_sigma=0.1, seed=0)


def test_blobs_deterministic_and_seed_sensitive():
    a = data.generate_blobs(classes=2, per_class=10, image_shape=(1, 8, 8), noise_sigma=0.1, seed=5)
    b = data.generate_blobs(classes=2, per_class=10, image_shape=(1, 8, 8), noise_sigma=0.1, seed=5)
    c = data.generate_blobs(classes=2, per_class=10, image_shape=(1, 8, 8), noise_sigma=0.1, seed=6)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.images, c.images)


def test_blobs_splits_partition_indices():
    ds = data.generate_blobs(classes=2, per_class=50, image_shape=(1, 8, 8), noise_sigma=0.1, seed=1)
    pre, tr, te = ds.splits["pretrain"], ds.splits["train"], ds.splits["test"]
    combined = np.concatenate([pre, tr, te])
    assert len(set(combined.tolist())) == 100
    assert sorted(combined.tolist()) == list(range(100))
    assert len(tr) == 50  # half to train, quarter each to pretrain/test
    assert len(pre) == 25 and len(te) == 25


def test_blobs_low_noise_is_template_separable():
    # sigma 0.05: nearest class template classifies every sample
    ds = data.generate_blobs(classes=2, per_class=30, image_shape=(1, 8, 8), noise_sigma=0.05, seed=2)
    templates = [ds.images[ds.labels == c].mean(axis=0) for c in range(2)]
    flat = ds.images.reshape(len(ds.labels), -1)
    dists = np.stack([np.linalg.norm(flat - t.reshape(1, -1), axis=1) for t in templates])
    assert np.array_equal(dists.argmin(axis=0), ds.labels)


def test_idx_hand_packed_fixture(tmp_path):
    # two 2x2 ubyte images and labels, packed by hand per the IDX layout:
    # u32 big-endian magic, dims, then raw payload
    img_bytes = struct.pack(">III", 0x00000803, 2, 2) + struct.pack(">I", 2)
    # packing order: magic, count, rows, cols
    img_bytes = struct.pack(">IIII", 0x00000803, 2, 2, 2) + bytes([0, 51, 102, 153, 204, 255, 10, 20])
    lbl_bytes = struct.pack(">II", 0x00000801, 2) + bytes([1, 0])
    ip = tmp_path / "imgs.idx"
    lp = tmp_path / "lbls.idx"
    ip.write_bytes(img_bytes)
    lp.write_bytes(lbl_bytes)

    ds = data.load_idx(ip, lp, seed=0)
    assert ds.images.shape == (2, 1, 2, 2)
    assert ds.labels.tolist() == [1, 0]
    expected0 = np.array([[0, 51], [102, 153]], dtype=np.float32) / 255.0
    assert np.allclose(ds.images[0, 0], expected0)
    assert ds.images[1, 0, 1, 1] == np.float32(20 / 255)


def test_idx_write_load_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    images = (rng.integers(0, 256, size=(5, 1, 4, 4)) / 255.0).astype(np.float32)
    labels = rng.integers(0, 3, size=5).astype(np.int64)
    ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
    data.write_idx(ip, lp, images, labels)
    ds = data.load_idx(ip, lp, seed=0)
    assert np.array_equal(ds.labels, labels)
    assert np.allclose(ds.images, images, atol=1e-7)


@pytest.mark.parametrize("seed", [0, 7])
def test_load_idx_splits_its_data_by_seed(tmp_path, seed):
    ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
    data.write_idx(ip, lp, np.zeros((21, 1, 2, 2), dtype=np.float32), np.arange(21) % 3)
    ds = data.load_idx(ip, lp, seed)
    want = data.make_splits(21, seed)
    assert set(ds.splits) == set(want)
    assert all(np.array_equal(ds.splits[k], want[k]) for k in want)
    combined = np.concatenate([ds.splits[k] for k in ("pretrain", "train", "test")])
    assert sorted(combined.tolist()) == list(range(21))


def test_load_idx_closes_its_files(tmp_path, monkeypatch):
    # An unclosed file warns from its finaliser, where an error-level
    # warning cannot propagate; it surfaces through sys.unraisablehook.
    ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
    data.write_idx(ip, lp, np.zeros((3, 1, 2, 2), dtype=np.float32), np.arange(3))
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        data.load_idx(ip, lp, seed=0)
        gc.collect()
    assert not unraisable


def test_idx_distinct_errors(tmp_path):
    good_img = struct.pack(">IIII", 0x00000803, 1, 2, 2) + bytes(4)
    good_lbl = struct.pack(">II", 0x00000801, 1) + bytes(1)

    bad_magic = tmp_path / "bad.idx"
    bad_magic.write_bytes(struct.pack(">IIII", 0x00000805, 1, 2, 2) + bytes(4))
    lbl = tmp_path / "l.idx"
    lbl.write_bytes(good_lbl)
    with pytest.raises(data.DataError, match="magic"):
        data.load_idx(bad_magic, lbl, seed=0)

    img = tmp_path / "i.idx"
    img.write_bytes(good_img)
    bad_lbl_magic = tmp_path / "bl.idx"
    bad_lbl_magic.write_bytes(struct.pack(">II", 0x00000803, 1) + bytes(1))
    with pytest.raises(data.DataError, match="magic"):
        data.load_idx(img, bad_lbl_magic, seed=0)

    truncated = tmp_path / "t.idx"
    truncated.write_bytes(good_img[:-2])
    with pytest.raises(data.DataError, match="truncat"):
        data.load_idx(truncated, lbl, seed=0)

    two_lbl = tmp_path / "two.idx"
    two_lbl.write_bytes(struct.pack(">II", 0x00000801, 2) + bytes(2))
    with pytest.raises(data.DataError, match="count"):
        data.load_idx(img, two_lbl, seed=0)


def test_shard_uniform_properties():
    for n, k in ((100, 5), (103, 4), (7, 7), (10, 3)):
        indices = np.arange(n)
        shards = data.shard_uniform(indices, k, seed=9)
        assert len(shards) == k
        combined = np.concatenate(shards)
        assert sorted(combined.tolist()) == list(range(n))
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1
    again = data.shard_uniform(np.arange(100), 5, seed=9)
    first = data.shard_uniform(np.arange(100), 5, seed=9)
    for a, b in zip(again, first):
        assert np.array_equal(a, b)


def test_shard_uniform_rejects_more_shards_than_samples():
    with pytest.raises(data.DataError):
        data.shard_uniform(np.arange(3), 4, seed=0)


def test_hflip_mask_involution_and_probability():
    rng = np.random.default_rng(4)
    images = rng.random((10, 1, 4, 4)).astype(np.float32)
    flipped = data.augment_hflip(images, np.random.default_rng(0), p=1.0)
    assert np.array_equal(flipped, images[:, :, :, ::-1])
    twice = data.augment_hflip(flipped, np.random.default_rng(0), p=1.0)
    assert np.array_equal(twice, images)
    same = data.augment_hflip(images, np.random.default_rng(0), p=0.0)
    assert np.array_equal(same, images)
    a = data.augment_hflip(images, np.random.default_rng(8), p=0.5)
    b = data.augment_hflip(images, np.random.default_rng(8), p=0.5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, images)  # seed 8 flips at least one of 10


def test_assign_splits_for_external_data():
    rng = np.random.default_rng(5)
    images = rng.random((20, 1, 4, 4)).astype(np.float32)
    labels = rng.integers(0, 2, size=20).astype(np.int64)
    ds = data.Dataset(images=images, labels=labels, splits=data.make_splits(20, seed=1))
    combined = np.concatenate([ds.splits[k] for k in ("pretrain", "train", "test")])
    assert sorted(combined.tolist()) == list(range(20))
