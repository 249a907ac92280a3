"""Model zoo oracles: hand parameter counts, partition/concat contracts,
layer-string parsing, deterministic builds, central pretraining."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from _helpers import pinned

from sflsim import data, kernel, models

# Hand parameter counts (3x3 convs with bias, dense with bias).
#
# TinyVGG on 16x16x1, 2 classes:
#   C8: 9*1*8+8 = 80        C16: 9*8*16+16 = 1168      (device: 1248)
#   C32: 9*16*32+32 = 4640  Dense(2*2*32 -> 2): 128*2+2 = 258  (server: 4898)
TINY_VGG_DEVICE_PARAMS = 1248
TINY_VGG_SERVER_PARAMS = 4898

# VGG11 on 32x32x3, 10 classes, four 2x2 pools so the first FC sees 512*2*2:
#   convs: 1792 + 73856 + 295168 + 590080 + 1180160 + 3*2359808 = 9220480
#   FCs: 2048*4096+4096 = 8392704; 4096*4096+4096 = 16781312; 4096*10+10 = 40970
VGG11_TOTAL_PARAMS = 34_435_466
VGG11_DEVICE_PARAMS = 75_648

# ResNet9: device as VGG11 (75648); server RB256 + RB512 + RB512 + FC10 where
#   RB(i,o) = (9io+o) + (9oo+o) + (io+o):
#   RB(128,256) = 295168+590080+33024 = 918272
#   RB(256,512) = 1180160+2359808+131584 = 3671552
#   RB(512,512) = 2359808+2359808+262656 = 4982272
#   FC: 512*10+10 = 5130
RESNET9_TOTAL_PARAMS = 9_652_874


def test_tiny_vgg_facts():
    spec = models.ZOO["tiny_vgg"]
    facts = models.analyze(spec)
    assert facts.device_params == TINY_VGG_DEVICE_PARAMS
    assert facts.server_params == TINY_VGG_SERVER_PARAMS
    assert facts.total_params == TINY_VGG_DEVICE_PARAMS + TINY_VGG_SERVER_PARAMS
    assert facts.activation_shape == (16, 4, 4)
    assert facts.activation_elements == 256


def test_vgg11_facts():
    spec = models.ZOO["vgg11"]
    facts = models.analyze(spec)
    assert facts.total_params == VGG11_TOTAL_PARAMS
    assert facts.device_params == VGG11_DEVICE_PARAMS
    assert facts.activation_shape == (128, 8, 8)
    assert facts.activation_elements == 8192


def test_resnet9_facts():
    spec = models.ZOO["resnet9"]
    facts = models.analyze(spec)
    assert facts.total_params == RESNET9_TOTAL_PARAMS
    assert facts.device_params == VGG11_DEVICE_PARAMS
    assert facts.activation_elements == 8192


@pytest.mark.parametrize("name", sorted(models.ZOO))
def test_analyze_is_where_the_cut_is_resolved(name):
    spec = models.ZOO[name]
    descs, split = models.expand(spec)
    assert models.analyze(spec).op_index == split
    for op_index in (1, split, len(descs) - 1):
        assert models.analyze(spec, op_index).op_index == op_index
    for op_index in (0, len(descs)):
        with pytest.raises(models.ModelError, match=f"^op_index {op_index} out of range"):
            models.analyze(spec, op_index)


def test_built_model_matches_analytic_counts():
    for spec in (models.ZOO["tiny_vgg"], models.ZOO["tiny_res"]):
        model = models.build_model(spec, seed=3)
        built = sum(layer.param_count() for layer in model)
        assert built == models.analyze(spec).total_params


def test_built_vgg11_matches_hand_count():
    model = models.build_model(models.ZOO["vgg11"], seed=0)
    assert sum(layer.param_count() for layer in model) == VGG11_TOTAL_PARAMS


def test_build_is_deterministic():
    a = models.build_model(models.ZOO["tiny_vgg"], seed=11)
    b = models.build_model(models.ZOO["tiny_vgg"], seed=11)
    c = models.build_model(models.ZOO["tiny_vgg"], seed=12)
    for la, lb in zip(a, b):
        for k in la.params():
            assert np.array_equal(la.params()[k], lb.params()[k])
    assert not np.array_equal(a[0].params()["w"], c[0].params()["w"])


# SHA-256 of build_model(spec, seed)'s parameters, from pinned_digests.json:
# per layer index, kind, key (sorted), shape and dtype, then the raw bytes. A
# change in the order or shape of the init draws moves every trained weight;
# it fails here first.
INIT_WEIGHTS = pinned("init_weights")


@pytest.mark.parametrize("name", sorted(INIT_WEIGHTS))
def test_init_weights_are_pinned(name):
    entry = INIT_WEIGHTS[name]
    digest = hashlib.sha256()
    for i, layer in enumerate(models.build_model(models.ZOO[entry["model"]], seed=entry["seed"])):
        for key, arr in sorted(layer.params().items()):
            digest.update(f"{i}.{layer.kind}.{key}{arr.shape}{arr.dtype}".encode())
            digest.update(arr.tobytes())
    assert digest.hexdigest() == entry["sha256"]["params"]


def test_forward_shapes_through_zoo():
    for spec in (models.ZOO["tiny_vgg"], models.ZOO["tiny_res"]):
        model = models.build_model(spec, seed=5)
        x = np.zeros((3,) + spec.input_shape, dtype=np.float32)
        out = kernel.forward(model, x).output
        assert out.shape == (3, spec.num_classes)


def test_partition_boundaries():
    model = models.build_model(models.ZOO["tiny_vgg"], seed=1)
    n = len(model)
    with pytest.raises(models.ModelError):
        models.partition(model, 0)
    with pytest.raises(models.ModelError):
        models.partition(model, n)
    device, server = models.partition(model, models.analyze(models.ZOO["tiny_vgg"]).op_index)
    assert len(device) + len(server) == n
    assert sum(l.param_count() for l in device) == TINY_VGG_DEVICE_PARAMS


def test_partition_concat_round_trip():
    model = models.build_model(models.ZOO["tiny_vgg"], seed=2)
    device, server = models.partition(model, models.analyze(models.ZOO["tiny_vgg"]).op_index)
    rebuilt = device + server
    assert len(rebuilt) == len(model)
    for la, lb in zip(model, rebuilt):
        assert la is lb  # same objects, same order


def test_partitioned_forward_equals_full_forward():
    spec = models.ZOO["tiny_vgg"]
    model = models.build_model(spec, seed=9)
    device, server = models.partition(model, models.analyze(spec).op_index)
    x = np.random.default_rng(0).standard_normal((4,) + spec.input_shape).astype(np.float32)
    full = kernel.forward(model, x).output
    act = kernel.forward(device, x).output
    split = kernel.forward(server, act).output
    assert np.array_equal(full, split)


def test_layer_string_parsing_variants():
    spec = models.ModelSpec(
        name="custom",
        layer_string="C4-MP|C8-MP-Flatten-FC16-FC",
        input_shape=(1, 8, 8),
        num_classes=3,
    )
    facts = models.analyze(spec)
    # C4: 9*1*4+4 = 40; C8: 9*4*8+8 = 296; flatten 2*2*8 = 32
    # FC16: 32*16+16 = 528 (with ReLU, not final); FC -> Dense(16, 3) = 51
    assert facts.total_params == 40 + 296 + 528 + 51
    model = models.build_model(spec, seed=0)
    x = np.zeros((2, 1, 8, 8), dtype=np.float32)
    assert kernel.forward(model, x).output.shape == (2, 3)
    # final dense has no trailing relu
    assert model[-1].kind == "dense"


def test_layer_string_rejects_garbage():
    bad = models.ModelSpec(name="bad", layer_string="C4-XX|FC", input_shape=(1, 8, 8), num_classes=2)
    with pytest.raises(models.ModelError):
        models.analyze(bad)
    no_split = models.ModelSpec(name="ns", layer_string="C4-FC", input_shape=(1, 8, 8), num_classes=2)
    with pytest.raises(models.ModelError):
        models.build_model(no_split, seed=0)


def test_auxiliary_head_shape():
    spec = models.ZOO["tiny_vgg"]
    head = models.auxiliary_head(spec, seed=4, op_index=models.analyze(spec).op_index)
    assert len(head) == 2  # flatten + dense
    assert head[-1].kind == "dense"
    # maps flattened split activation (256) to num_classes
    assert head[-1].params()["w"].shape == (256, spec.num_classes)
    act = np.zeros((5, 16, 4, 4), dtype=np.float32)
    out = kernel.forward(head, act).output
    assert out.shape == (5, spec.num_classes)


def test_pretrain_returns_deterministic_stack():
    spec = models.ZOO["tiny_vgg"]
    ds = data.generate_blobs(classes=2, per_class=40, image_shape=(1, 16, 16), noise_sigma=0.1, seed=7)
    model = models.build_model(spec, seed=7)

    def run():
        return models.pretrain_device_side(
            model, ds, epochs=2, lr=0.05, batch_size=8, seed=13,
            op_index=models.analyze(spec).op_index,
        )

    a = run()
    b = run()
    for la, lb in zip(a, b):
        for k in la.params():
            assert np.array_equal(la.params()[k], lb.params()[k])
    # pretraining trains a clone, never the input model
    fresh = models.build_model(spec, seed=7)
    for la, lb in zip(model, fresh):
        for k in la.params():
            assert np.array_equal(la.params()[k], lb.params()[k])


def test_pretrain_zero_epochs_is_init():
    spec = models.ZOO["tiny_vgg"]
    ds = data.generate_blobs(classes=2, per_class=20, image_shape=(1, 16, 16), noise_sigma=0.1, seed=8)
    model = models.build_model(spec, seed=21)
    stack = models.pretrain_device_side(model, ds, epochs=0, lr=0.05, batch_size=8, seed=13,
                                        op_index=models.analyze(spec).op_index)
    device, _ = models.partition(model, models.analyze(spec).op_index)
    for la, lb in zip(stack, device):
        for k in la.params():
            assert np.array_equal(la.params()[k], lb.params()[k])
