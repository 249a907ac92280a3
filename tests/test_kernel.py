"""Layer kernel oracles: hand-computed forwards, finite-difference backprop,
softmax cross-entropy identities, SGD arithmetic, checkpoint round-trips."""

from __future__ import annotations

import itertools
import math
import struct

import numpy as np
import pytest
from numpy._core import einsumfunc

from sflsim import config as config_mod
from sflsim import diagnostics, kernel, models, runtime

from _helpers import (
    FD_STEP, central_differences, conditioned_input, fd_check_layer, make_layer_instances,
)


def test_conv3x3_all_ones_kernel_hand_values():
    # all-ones 1->1 kernel on a 3x3 ones image, zero padding:
    # center sees 9 ones, edges 6, corners 4
    rng = np.random.default_rng(0)
    conv = kernel.Conv3x3(1, 1, rng=rng, dtype=np.float64)
    conv.params()["w"][:] = 1.0
    conv.params()["b"][:] = 0.0
    x = np.ones((1, 1, 3, 3))
    y = kernel.forward([conv], x).output
    assert y.shape == (1, 1, 3, 3)
    assert y[0, 0, 1, 1] == 9.0
    assert y[0, 0, 0, 1] == 6.0
    assert y[0, 0, 0, 0] == 4.0


def test_conv1x1_is_channel_mix():
    rng = np.random.default_rng(1)
    conv = kernel.Conv1x1(2, 1, rng=rng, dtype=np.float64)
    conv.params()["w"][:] = np.array([[2.0, 3.0]])
    conv.params()["b"][:] = 1.0
    x = np.zeros((1, 2, 2, 2))
    x[0, 0] = 1.0
    x[0, 1] = 10.0
    y = kernel.forward([conv], x).output
    assert np.all(y == 2.0 * 1.0 + 3.0 * 10.0 + 1.0)


# The einsum/tensordot formulation the convolutions had before they became
# direct matmuls. The kernel must match it byte for byte: values and, on
# every axis of size > 1, strides (the layout of an output decides how a
# later contraction sums it).


def _windows(x_padded):
    return np.lib.stride_tricks.sliding_window_view(x_padded, (3, 3), axis=(2, 3))


def _reference_conv3x3(w, b, x, dy, per_example, input_grad):
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    y = np.einsum("bchwij,ocij->bohw", _windows(xp), w, optimize=True)
    y += b[None, :, None, None]
    if per_example:
        grads = {"w": np.einsum("bchwij,bohw->bocij", _windows(xp), dy, optimize=True),
                 "b": dy.sum(axis=(2, 3))}
    else:
        grads = {"w": np.tensordot(dy, _windows(xp), axes=([0, 2, 3], [0, 2, 3])),
                 "b": dy.sum(axis=(0, 2, 3))}
    dx = None
    if input_grad:
        dyp = np.pad(dy, ((0, 0), (0, 0), (1, 1), (1, 1)))
        dx = np.einsum("bohwij,ocij->bchw", _windows(dyp), w[:, :, ::-1, ::-1], optimize=True)
    return y, grads, dx


def _reference_conv1x1(w, b, x, dy, per_example, input_grad):
    y = np.einsum("bchw,oc->bohw", x, w, optimize=True)
    y += b[None, :, None, None]
    batch, axes = ("b", (2, 3)) if per_example else ("", (0, 2, 3))
    grads = {"w": np.einsum(f"bchw,bohw->{batch}oc", x, dy, optimize=True),
             "b": dy.sum(axis=axes)}
    dx = np.einsum("bohw,oc->bchw", dy, w, optimize=True) if input_grad else None
    return y, grads, dx


def _transposed_copy(a):
    """The same values with reversed strides."""
    out = np.ascontiguousarray(a.transpose(3, 2, 1, 0)).transpose(3, 2, 1, 0)
    assert not out.flags["C_CONTIGUOUS"] and np.array_equal(out, a)
    return out


def _assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    for axis, n in enumerate(want.shape):
        if n > 1:
            assert got.strides[axis] == want.strides[axis], (axis, got.strides, want.strides)


@pytest.mark.parametrize("c_in", [1, 8, 16])
@pytest.mark.parametrize("batch", [1, 3, 5, 16])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["conv3x3", "conv1x1"])
def test_conv_is_its_einsum_reference_byte_for_byte(kind, dtype, batch, c_in):
    make, reference = {"conv3x3": (kernel.Conv3x3, _reference_conv3x3),
                       "conv1x1": (kernel.Conv1x1, _reference_conv1x1)}[kind]
    rng = np.random.default_rng(batch * 100 + c_in)
    conv = make(c_in, 16, rng, dtype)
    # A ReLU'd input, as every conv but the first sees: exact zeros included.
    x_c = np.maximum(rng.standard_normal((batch, c_in, 8, 6)), 0).astype(dtype)
    dy_c = rng.standard_normal((batch, 16, 8, 6)).astype(dtype)
    for layout in (lambda a: a, _transposed_copy):
        x, dy = layout(x_c), layout(dy_c)
        y, cache = conv.forward(x)
        for per_example in (False, True):
            for input_grad in (False, True):
                want_y, want_grads, want_dx = reference(conv.w, conv.b, x, dy,
                                                        per_example, input_grad)
                grads, dx = conv.backward(cache, dy, per_example, input_grad)
                _assert_same_array(y, want_y)
                assert grads.keys() == want_grads.keys()
                for name in want_grads:
                    _assert_same_array(grads[name], want_grads[name])
                if input_grad:
                    _assert_same_array(dx, want_dx)
                else:
                    assert dx is None


def test_maxpool_forward_and_gradient_routing():
    pool = kernel.MaxPool2x2()
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    trace = kernel.forward([pool], x)
    assert trace.output.shape == (1, 1, 1, 1)
    assert trace.output[0, 0, 0, 0] == 4.0
    grads = kernel.backward([pool], trace, np.ones_like(trace.output))
    expected = np.array([[[[0.0, 0.0], [0.0, 1.0]]]])
    assert np.array_equal(grads.input_grad, expected)


# Which of a window's four quadrants (row-major: 0 top-left, 1 top-right,
# 2 bottom-left, 3 bottom-right) share its max: all four, and every pair.
TIE_PATTERNS = [(0, 1, 2, 3), *itertools.combinations(range(4), 2)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_maxpool_ties_route_to_first_max_in_row_major_order(dtype):
    b, c, h, w = 2, 7, 4, 6
    rng = np.random.default_rng(11)
    x = rng.uniform(-1.0, 0.0, size=(b, c, h, w)).astype(dtype)
    dy = rng.standard_normal((b, c, h // 2, w // 2)).astype(dtype)
    want_y = np.empty(dy.shape, dtype=dtype)
    want_dx = np.zeros(x.shape, dtype=dtype)
    for n, (i, j, r, s) in enumerate(np.ndindex(dy.shape)):
        tied = TIE_PATTERNS[n % len(TIE_PATTERNS)]
        top = n % 5  # 0.0 included: a window after ReLU is often all zeros
        for q in tied:
            x[i, j, 2 * r + q // 2, 2 * s + q % 2] = top
        want_y[i, j, r, s] = top
        first = tied[0]
        want_dx[i, j, 2 * r + first // 2, 2 * s + first % 2] = dy[i, j, r, s]
    # The same values in C order and as a transposed copy (reversed strides).
    transposed = np.ascontiguousarray(x.transpose(3, 2, 1, 0)).transpose(3, 2, 1, 0)
    assert not transposed.flags["C_CONTIGUOUS"] and np.array_equal(transposed, x)
    for x_in in (x, transposed):
        pool = kernel.MaxPool2x2()
        trace = kernel.forward([pool], x_in)
        dx = kernel.backward([pool], trace, dy).input_grad
        for got, want in ((trace.output, want_y), (dx, want_dx)):
            assert got.flags["C_CONTIGUOUS"]
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_maxpool_nan_window_routes_no_gradient():
    pool = kernel.MaxPool2x2()
    x = np.array([[[[1.0, np.nan, 5.0, 6.0], [3.0, 4.0, 7.0, 8.0]]]])
    trace = kernel.forward([pool], x)
    assert np.isnan(trace.output[0, 0, 0, 0]) and trace.output[0, 0, 0, 1] == 8.0
    dx = kernel.backward([pool], trace, np.ones_like(trace.output)).input_grad
    assert np.array_equal(dx, [[[[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]]])


def test_maxpool_rejects_odd_spatial_dims():
    pool = kernel.MaxPool2x2()
    with pytest.raises(kernel.KernelError):
        kernel.forward([pool], np.zeros((1, 1, 3, 4)))


def test_dense_identity_weights():
    rng = np.random.default_rng(2)
    dense = kernel.Dense(3, 3, rng=rng, dtype=np.float64)
    dense.params()["w"][:] = np.eye(3)
    dense.params()["b"][:] = 0.0
    x = np.array([[1.0, -2.0, 3.0]])
    y = kernel.forward([dense], x).output
    assert np.array_equal(y, x)


def test_relu_and_flatten():
    x = np.array([[[[-1.0, 2.0], [0.5, -3.0]]]])
    y = kernel.forward([kernel.ReLU()], x).output
    assert np.array_equal(y, np.array([[[[0.0, 2.0], [0.5, 0.0]]]]))
    f = kernel.forward([kernel.Flatten()], x).output
    assert f.shape == (1, 4)
    assert np.array_equal(f, np.array([[-1.0, 2.0, 0.5, -3.0]]))


def test_weight_init_range_and_determinism():
    # uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)); same seed gives identical bits
    a = kernel.Dense(16, 8, rng=np.random.default_rng(7))
    b = kernel.Dense(16, 8, rng=np.random.default_rng(7))
    assert np.array_equal(a.params()["w"], b.params()["w"])
    assert a.params()["w"].dtype == np.float32
    bound = 1.0 / math.sqrt(16)
    assert np.max(np.abs(a.params()["w"])) <= bound
    assert np.max(np.abs(a.params()["b"])) <= bound


def test_softmax_cross_entropy_uniform_logits():
    for c in (2, 5, 10):
        logits = np.zeros((4, c))
        labels = np.arange(4) % c
        loss, grad = kernel.softmax_cross_entropy(logits, labels)
        assert loss == pytest.approx(math.log(c), rel=1e-12)
        assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-12)


def test_softmax_cross_entropy_two_class_hand_value():
    # logits [0, 0], true label 1: grad = softmax - onehot = [0.5, -0.5]
    loss, grad = kernel.softmax_cross_entropy(np.zeros((1, 2)), np.array([1]))
    assert loss == pytest.approx(math.log(2.0))
    assert np.allclose(grad, np.array([[0.5, -0.5]]))


def test_softmax_cross_entropy_rejects_bad_labels():
    with pytest.raises(kernel.KernelError):
        kernel.softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
    with pytest.raises(kernel.KernelError):
        kernel.softmax_cross_entropy(np.zeros((2, 3)), np.array([-1, 0]))


def test_softmax_cross_entropy_fd_on_logits():
    rng = np.random.default_rng(11)
    logits = rng.standard_normal((3, 5))
    labels = np.array([0, 4, 2])
    _, grad = kernel.softmax_cross_entropy(logits, labels)
    numeric = central_differences(
        lambda: kernel.softmax_cross_entropy(logits, labels)[0], logits, step=1e-6)
    assert np.max(np.abs(grad - numeric)) < 1e-7


@pytest.mark.parametrize("spec", [models.tiny_vgg(), models.tiny_res()], ids=lambda s: s.name)
def test_loss_grads_is_the_hand_sequence(spec):
    # forward -> softmax cross-entropy -> backward, bit for bit, in float32
    model = models.build_model(spec, seed=3)
    _, server = models.partition(model, model.default_split)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((6, *models.analyze(spec).activation_shape)).astype(np.float32)
    labels = rng.integers(0, spec.num_classes, size=6)
    loss, grads = kernel.loss_grads(server, x, labels)
    trace = kernel.forward(server, x)
    want_loss, dlogits = kernel.softmax_cross_entropy(trace.output, labels)
    want = kernel.backward(server, trace, dlogits)
    assert loss == want_loss
    pairs = [(grads.input_grad, want.input_grad)]
    for got, ref in zip(grads.layers, want.layers, strict=True):
        assert got.keys() == ref.keys()
        pairs += [(got[k], ref[k]) for k in ref]
    for got, ref in pairs:
        assert got.dtype == ref.dtype == np.float32
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
    with pytest.raises(kernel.KernelError, match="labels"):
        kernel.loss_grads(server, x, np.full(6, spec.num_classes))
    with pytest.raises(kernel.KernelError, match="labels"):
        kernel.loss_grads(server, x, labels.astype(np.float64))


def test_sgd_step_hand_value():
    rng = np.random.default_rng(3)
    dense = kernel.Dense(1, 1, rng=rng, dtype=np.float64)
    dense.params()["w"][:] = 1.0
    grads = kernel.Gradients(layers=[{"w": np.array([[0.5]]), "b": np.zeros(1)}], input_grad=None)
    kernel.sgd_step([dense], grads, lr=0.1)
    assert dense.params()["w"][0, 0] == pytest.approx(0.95)


def test_backward_rejects_stale_trace():
    rng = np.random.default_rng(4)
    dense = kernel.Dense(3, 2, rng=rng, dtype=np.float64)
    layers = [dense]
    x = np.ones((2, 3))
    trace = kernel.forward(layers, x)
    grads = kernel.backward(layers, trace, np.ones((2, 2)))
    kernel.sgd_step(layers, grads, lr=0.1)
    with pytest.raises(kernel.KernelError):
        kernel.backward(layers, trace, np.ones((2, 2)))


def test_backward_rejects_mismatched_grad_shape():
    rng = np.random.default_rng(4)
    dense = kernel.Dense(3, 2, rng=rng, dtype=np.float64)
    trace = kernel.forward([dense], np.ones((2, 3)))
    with pytest.raises(kernel.KernelError):
        kernel.backward([dense], trace, np.ones((2, 3)))


@pytest.mark.parametrize("kind_index", range(7))
def test_per_example_grads_sum_to_batch_grads(kind_index):
    layer, shape = make_layer_instances(77)[kind_index]
    shape = (3, *shape[1:])
    x = np.random.default_rng(78).standard_normal(shape)
    trace = kernel.forward([layer], x)
    dy = np.random.default_rng(79).standard_normal(trace.output.shape)
    batch = kernel.backward([layer], trace, dy)
    rows = kernel.backward([layer], trace, dy, per_example=True)
    assert set(rows.layers[0]) == set(batch.layers[0])
    for name, g in batch.layers[0].items():
        assert rows.layers[0][name].shape == (3, *g.shape)
        np.testing.assert_allclose(rows.layers[0][name].sum(axis=0), g, rtol=1e-12, atol=1e-14)
    assert np.array_equal(rows.input_grad, batch.input_grad)


def _bottom_stack(kind, rng):
    """A float32 stack with ``kind`` at the bottom, and its input."""
    if kind == "dense":
        return [kernel.Dense(12, 5, rng), kernel.ReLU(), kernel.Dense(5, 3, rng)], (4, 12)
    make = {"conv3x3": kernel.Conv3x3, "conv1x1": kernel.Conv1x1,
            "resblock": kernel.ResidualBlock}[kind]
    n_flat = 3 * (9 if kind == "resblock" else 36)
    stack = [make(2, 3, rng), kernel.ReLU(), kernel.Flatten(), kernel.Dense(n_flat, 3, rng)]
    return stack, (4, 2, 6, 6)


@pytest.mark.parametrize("per_example", [False, True])
@pytest.mark.parametrize("kind", ["dense", "conv3x3", "conv1x1", "resblock"])
def test_backward_without_input_grad_keeps_parameter_grads(kind, per_example):
    rng = np.random.default_rng(21)
    layers, shape = _bottom_stack(kind, rng)
    x = rng.standard_normal(shape).astype(np.float32)
    trace = kernel.forward(layers, x)
    dy = rng.standard_normal(trace.output.shape).astype(np.float32)
    full = kernel.backward(layers, trace, dy, per_example=per_example)
    cut = kernel.backward(layers, trace, dy, per_example=per_example, input_grad=False)
    assert full.input_grad is not None and cut.input_grad is None
    for got, want in zip(cut.layers, full.layers, strict=True):
        assert got.keys() == want.keys()
        for k in want:
            assert got[k].dtype == want[k].dtype and got[k].shape == want[k].shape
            assert got[k].tobytes() == want[k].tobytes()


@pytest.mark.parametrize("spec", [models.tiny_vgg(), models.tiny_res()], ids=lambda s: s.name)
def test_predict_is_forward_output_bit_for_bit(spec):
    layers = models.build_model(spec, seed=5).layers
    x = np.random.default_rng(6).standard_normal((5, *spec.input_shape)).astype(np.float32)
    got = kernel.predict(layers, x)
    want = kernel.forward(layers, x).output
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_hot_path_does_no_einsum_planning(monkeypatch):
    def planner(*args, **kwargs):
        raise AssertionError("einsum_path called")

    # np.einsum(..., optimize=...) plans through einsumfunc's own name.
    monkeypatch.setattr(np, "einsum_path", planner)
    monkeypatch.setattr(einsumfunc, "einsum_path", planner)
    rng = np.random.default_rng(31)
    for spec in (models.tiny_vgg(), models.tiny_res()):
        layers = models.build_model(spec, seed=32).layers
        x = rng.standard_normal((4, *spec.input_shape)).astype(np.float32)
        labels = rng.integers(0, spec.num_classes, size=4)
        kernel.loss_grads(layers, x, labels)
        trace = kernel.forward(layers, x)
        kernel.backward(layers, trace, np.ones_like(trace.output), per_example=True)
    cfg = config_mod.from_dict({
        "version": 1, "mode": "replay", "model": "tiny_res", "devices": 2, "rounds": 1,
        "lr": 0.05, "batch_size": 8, "pretrain_epochs": 1, "diagnostics": True, "seed": 33,
        "dataset": {"kind": "blobs", "per_class": 16, "noise_sigma": 0.3},
    })
    out = runtime.run_training(cfg)
    state = out.state
    record = diagnostics.record_round(state, 1, 0, state.global_device, state.global_server)
    assert diagnostics.round_record([record]).t == 1


def test_per_example_grads_keep_stack_checks():
    rng = np.random.default_rng(5)
    dense = kernel.Dense(3, 2, rng=rng, dtype=np.float64)
    layers = [dense]
    trace = kernel.forward(layers, np.ones((4, 3)))
    rows = kernel.backward(layers, trace, np.ones((4, 2)), per_example=True)
    with pytest.raises(kernel.KernelError, match="grad shape"):
        kernel.sgd_step(layers, rows, lr=0.1)
    with pytest.raises(kernel.KernelError, match="loss grad shape"):
        kernel.backward(layers, trace, np.ones((4, 3)), per_example=True)
    kernel.sgd_step(layers, kernel.backward(layers, trace, np.ones((4, 2))), lr=0.1)
    with pytest.raises(kernel.KernelError, match="stale"):
        kernel.backward(layers, trace, np.ones((4, 2)), per_example=True)


@pytest.mark.parametrize("kind_index", range(7))
def test_finite_difference_all_layer_kinds(kind_index):
    # 50 random instances per kind, float64, central differences
    for seed in range(50):
        instances = make_layer_instances(1000 + seed)
        layer, shape = instances[kind_index]
        rng = np.random.default_rng(2000 + seed)
        x = conditioned_input(rng, shape)
        fd_check_layer(layer, x, rng)


def test_finite_difference_mixed_stack():
    # conv -> relu -> pool -> flatten -> dense as one stack, fd on the dense
    # readout objective, checking input grad end to end
    init = np.random.default_rng(21)
    layers = [
        kernel.Conv3x3(1, 2, rng=init, dtype=np.float64),
        kernel.ReLU(),
        kernel.MaxPool2x2(),
        kernel.Flatten(),
        kernel.Dense(2 * 2 * 2, 3, rng=init, dtype=np.float64),
    ]
    rng = np.random.default_rng(22)
    x = conditioned_input(rng, (2, 1, 4, 4))
    trace = kernel.forward(layers, x)
    readout = rng.standard_normal(trace.output.shape)
    grads = kernel.backward(layers, trace, readout)

    numeric = central_differences(
        lambda: float(np.sum(kernel.forward(layers, x).output * readout)), x, FD_STEP)
    scale = max(np.max(np.abs(grads.input_grad)), np.max(np.abs(numeric)), 1e-8)
    assert np.max(np.abs(grads.input_grad - numeric)) / scale < 1e-4


def test_forward_is_finite_on_random_stacks():
    for seed in range(10):
        init = np.random.default_rng(300 + seed)
        layers = [
            kernel.Conv3x3(2, 3, rng=init),
            kernel.ReLU(),
            kernel.MaxPool2x2(),
            kernel.Conv1x1(3, 2, rng=init),
            kernel.Flatten(),
            kernel.Dense(2 * 4 * 4, 5, rng=init),
        ]
        x = np.random.default_rng(400 + seed).standard_normal((3, 2, 8, 8)).astype(np.float32)
        trace = kernel.forward(layers, x)
        assert np.all(np.isfinite(trace.output))
        grads = kernel.backward(layers, trace, np.ones_like(trace.output))
        for layer_grads in grads.layers:
            for g in layer_grads.values():
                assert np.all(np.isfinite(g))


def test_residual_block_wiring():
    # main path conv1 -> relu -> conv2 -> pool, skip path conv1x1 -> pool,
    # sum, final relu; with all-zero convs the output is relu(0 + skip)
    init = np.random.default_rng(31)
    rb = kernel.ResidualBlock(1, 1, rng=init, dtype=np.float64)
    p = rb.params()
    p["conv1.w"][:] = 0.0
    p["conv1.b"][:] = 0.0
    p["conv2.w"][:] = 0.0
    p["conv2.b"][:] = 0.0
    p["skip.w"][:] = 1.0
    p["skip.b"][:] = 0.0
    x = np.array([[[[1.0, -2.0], [3.0, 4.0]]]])
    y = kernel.forward([rb], x).output
    # skip = pool(1x1(x)) = pool(x) = 4, main = pool(conv2(...)+b) = 0
    assert y.shape == (1, 1, 1, 1)
    assert y[0, 0, 0, 0] == 4.0


def test_residual_block_checks_its_cache():
    # Both paths run through kernel.forward/backward: a cache taken by another
    # block of the same shape, or before an update, is refused, not
    # differentiated against the wrong activations or weights.
    init = np.random.default_rng(33)
    block, other = kernel.ResidualBlock(2, 3, rng=init), kernel.ResidualBlock(2, 3, rng=init)
    x = np.random.default_rng(34).standard_normal((2, 2, 4, 4)).astype(np.float32)
    y, cache = other.forward(x)
    with pytest.raises(kernel.KernelError, match="does not belong"):
        block.backward(cache, np.ones_like(y))
    trace = kernel.forward([block], x)
    dy = np.ones_like(trace.output)
    kernel.sgd_step([block], kernel.backward([block], trace, dy), lr=0.1)
    with pytest.raises(kernel.KernelError, match="stale"):
        block.backward(trace.caches[0], dy)


def test_checkpoint_round_trip_and_errors(tmp_path):
    init = np.random.default_rng(41)
    layers = [
        kernel.Conv3x3(1, 2, rng=init),
        kernel.ReLU(),
        kernel.MaxPool2x2(),
        kernel.Flatten(),
        kernel.Dense(2 * 2 * 2, 3, rng=init),
    ]
    path = tmp_path / "weights.sfl"
    kernel.save_weights(path, layers)

    raw = path.read_bytes()
    assert raw[:4] == b"SFL1"

    init2 = np.random.default_rng(99)
    fresh = [
        kernel.Conv3x3(1, 2, rng=init2),
        kernel.ReLU(),
        kernel.MaxPool2x2(),
        kernel.Flatten(),
        kernel.Dense(2 * 2 * 2, 3, rng=init2),
    ]
    kernel.load_weights(path, fresh)
    for a, b in zip(layers, fresh):
        for k, v in a.params().items():
            assert np.array_equal(v, b.params()[k])

    bad_magic = tmp_path / "bad_magic.sfl"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(kernel.KernelError, match="magic"):
        kernel.load_weights(bad_magic, fresh)

    truncated = tmp_path / "truncated.sfl"
    truncated.write_bytes(raw[:-7])
    with pytest.raises(kernel.KernelError, match="truncat"):
        kernel.load_weights(truncated, fresh)

    wrong_arch = [kernel.Dense(4, 4, rng=np.random.default_rng(1))]
    with pytest.raises(kernel.KernelError):
        kernel.load_weights(path, wrong_arch)

    # rank 4 with every dim 65536: 2**64 elements, 0 once wrapped to int64
    oversized = tmp_path / "oversized.sfl"
    header = struct.pack("<I", 1) + struct.pack("<BB", kernel.KIND_TAGS["dense"], 2)
    oversized.write_bytes(b"SFL1" + header + struct.pack("<5I", 4, *(65536,) * 4))
    with pytest.raises(kernel.KernelError):
        kernel.load_weights(oversized, wrong_arch)


def test_checkpoint_header_of_another_stack_is_rejected(tmp_path):
    # Same kinds and payload size, different shapes: only the header differs.
    init = np.random.default_rng(43)
    path = tmp_path / "weights.sfl"
    kernel.save_weights(path, [kernel.Dense(2, 3, rng=init)])
    other = [kernel.Dense(8, 1, rng=init)]
    before = kernel.param_vector(other)
    with pytest.raises(kernel.KernelError, match="header"):
        kernel.load_weights(path, other)
    assert np.array_equal(kernel.param_vector(other), before)
    with pytest.raises(kernel.KernelError, match="header"):
        kernel.load_weights(path, [kernel.Conv1x1(2, 3, rng=init)])


def test_param_vector_round_trip():
    init = np.random.default_rng(51)
    layers = [kernel.Dense(3, 4, rng=init), kernel.ReLU(), kernel.Dense(4, 2, rng=init)]
    vector = kernel.param_vector(layers)
    vector += 1.0  # a copy, not a view
    assert not np.array_equal(vector[4:16].reshape(3, 4), layers[0].params()["w"])  # keys sorted: b, w

    other = [kernel.Dense(3, 4, rng=np.random.default_rng(1)), kernel.ReLU(), kernel.Dense(4, 2, rng=np.random.default_rng(2))]
    versions = [layer.version for layer in other]
    kernel.load_param_vector(other, kernel.param_vector(layers))
    assert np.array_equal(other[0].params()["w"], layers[0].params()["w"])
    assert kernel.param_vector(other).tobytes() == kernel.param_vector(layers).tobytes()
    assert all(layer.params()["w"].dtype == np.float32 for layer in other[::2])
    assert [layer.version for layer in other] == [v + 1 for v in versions]
    with pytest.raises(kernel.KernelError):
        kernel.load_param_vector(other, kernel.param_vector([kernel.Dense(2, 2, rng=init)]))


# One float32 stack per layer kind at a desk shape, batch 16, and both desk
# server halves (built by the stack builders below from a seeded rng).
def _desk_server_half(spec, rng):
    model = models.build_model(spec, seed=int(rng.integers(1 << 30)))
    device, server = models.partition(model, model.default_split)
    x = rng.standard_normal((16, *spec.input_shape)).astype(np.float32)
    return server, kernel.forward(device, x).output


ROWS_STACKS = {
    "dense": lambda rng: ([kernel.Dense(64, 10, rng)], (16, 64)),
    "conv3x3": lambda rng: ([kernel.Conv3x3(8, 16, rng)], (16, 8, 8, 8)),
    "conv1x1": lambda rng: ([kernel.Conv1x1(8, 16, rng)], (16, 8, 8, 8)),
    "maxpool2x2": lambda rng: ([kernel.MaxPool2x2()], (16, 8, 8, 8)),
    "relu": lambda rng: ([kernel.ReLU()], (16, 8, 8, 8)),
    "flatten": lambda rng: ([kernel.Flatten()], (16, 8, 4, 4)),
    "resblock": lambda rng: ([kernel.ResidualBlock(16, 32, rng)], (16, 16, 4, 4)),
    "tiny_vgg_server": lambda rng: _desk_server_half(models.tiny_vgg(), rng),
    "tiny_res_server": lambda rng: _desk_server_half(models.tiny_res(), rng),
}


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _assert_rows_match(got, want, exact):
    if exact:
        assert _same_bits(got, want)
    else:
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("name", sorted(ROWS_STACKS))
def test_trace_rows_equals_a_forward_on_the_first_rows(name):
    # Bit for bit at the observer's cut (SAMPLE_GRAD_CAP = 8 rows of a
    # larger probe) and at the whole batch. At 1 and 3 rows this build's
    # BLAS takes other paths for a small or ragged row count (a 1-row Dense
    # is a gemv), so the forward on x[:n] itself differs in the last bit.
    rng = np.random.default_rng(41)
    layers, x = ROWS_STACKS[name](rng)
    if isinstance(x, tuple):
        x = rng.standard_normal(x).astype(np.float32)
    full = kernel.forward(layers, x)
    dy = rng.standard_normal(full.output.shape).astype(np.float32)
    for n in (1, 3, diagnostics.SAMPLE_GRAD_CAP, len(x)):
        exact = n in (diagnostics.SAMPLE_GRAD_CAP, len(x))
        cut = kernel.trace_rows(full, n)
        ref = kernel.forward(layers, x[:n])
        assert cut.stamp == ref.stamp
        _assert_rows_match(cut.output, ref.output, exact)
        for per_example in (False, True):
            got = kernel.backward(layers, cut, dy[:n], per_example=per_example)
            want = kernel.backward(layers, ref, dy[:n], per_example=per_example)
            _assert_rows_match(got.input_grad, want.input_grad, exact)
            for g, w in zip(got.layers, want.layers, strict=True):
                assert g.keys() == w.keys()
                for k in w:
                    _assert_rows_match(g[k], w[k], exact)
    with pytest.raises(kernel.KernelError, match="cannot cut"):
        kernel.trace_rows(full, len(x) + 1)
    if any(layer.params() for layer in layers):
        before = kernel.trace_rows(full, 3)
        kernel.sgd_step(layers, kernel.backward(layers, full, dy), lr=0.1)
        for cut in (before, kernel.trace_rows(full, 3)):
            with pytest.raises(kernel.KernelError, match="stale trace"):
                kernel.backward(layers, cut, dy[:3], per_example=True)
