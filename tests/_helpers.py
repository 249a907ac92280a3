"""Shared test oracles: finite-difference gradient checks (on
kernel.central_differences), conditioned inputs, a per-layer FedAvg
reference and the pinned digests of pinned_digests.json."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from sflsim import kernel
from sflsim.kernel import central_differences

FD_STEP = 1e-5
FD_RTOL = 1e-4

PINNED_DIGESTS = json.loads(Path(__file__).with_name("pinned_digests.json").read_text())
PINNED_READS = set()  # the (section, entry) pairs that a test module has read


def pinned(section, name=None):
    """The entries of one section of pinned_digests.json, or its entry
    ``name``, noting each entry read in PINNED_READS."""
    entries = PINNED_DIGESTS["digests"][section]
    names = list(entries) if name is None else [name]
    PINNED_READS.update((section, n) for n in names)
    return entries if name is None else entries[name]


def conditioned_input(rng, shape, margin=1e-3):
    """Random input kept away from ReLU kinks and maxpool ties.

    Values are drawn uniformly, then redrawn while any entry sits within
    `margin` of zero or any 2x2 pool window has two entries closer than
    `margin`. Events are measure-zero under the draw, so this terminates
    fast; it conditions the finite-difference oracle, it does not weaken it.
    """
    for _ in range(200):
        x = rng.uniform(-1.0, 1.0, size=shape)
        if np.min(np.abs(x)) <= margin:
            continue
        if len(shape) == 4 and shape[2] % 2 == 0 and shape[3] % 2 == 0:
            b, c, h, w = shape
            windows = x.reshape(b, c, h // 2, 2, w // 2, 2)
            windows = windows.transpose(0, 1, 2, 4, 3, 5).reshape(-1, 4)
            gaps = np.sort(windows, axis=1)
            if np.min(np.diff(gaps, axis=1)) <= margin:
                continue
        return x
    raise RuntimeError("could not condition input")


def fedavg_reference(weight_sets, sample_counts):
    """FedAvg over per-layer parameter dicts, layer by layer and key by key:
    W_0 + sum_k lambda_k * (W_k - W_0) in float64, summed in set order.
    Returns the float64 sums (before any cast to the parameter dtype); an
    exact oracle for the flat-vector ``runtime.fedavg``."""
    n = sum(sample_counts)
    lambdas = [c / n for c in sample_counts]
    out = []
    for li, layer0 in enumerate(weight_sets[0]):
        agg = {}
        for key, ref in layer0.items():
            acc = np.zeros(ref.shape, np.float64)
            for lam, ws in zip(lambdas, weight_sets):
                acc += lam * (ws[li][key].astype(np.float64) - ref.astype(np.float64))
            agg[key] = ref.astype(np.float64) + acc
        out.append(agg)
    return out


def flat_state(layer_dicts):
    """Per-layer parameter dicts as one float64 vector in the layout of
    ``kernel.param_vector``: layers in order, keys sorted within a layer."""
    return np.concatenate(
        [d[k].reshape(-1).astype(np.float64) for d in layer_dicts for k in sorted(d)]
    )


def _rel_err(analytic, numeric):
    scale = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1e-8)
    return np.max(np.abs(analytic - numeric)) / scale


def fd_check_layer(layer, x, rng, step=FD_STEP, rtol=FD_RTOL):
    """Central finite differences vs analytic backward for one layer.

    Uses a fixed random linear readout J = sum(y * R) so dJ/dy = R, which
    exercises the full gradient path without needing a loss. Checks every
    parameter entry and every input entry. Requires float64 inputs/params.
    """
    layers = [layer]
    trace = kernel.forward(layers, x)
    readout = rng.standard_normal(trace.output.shape)
    grads = kernel.backward(layers, trace, readout)

    def objective():
        return float(np.sum(kernel.forward(layers, x).output * readout))

    for name, param in layer.params().items():
        numeric = central_differences(objective, param, step)
        err = _rel_err(grads.layers[0][name], numeric)
        assert err <= rtol, f"{layer.kind} param {name}: fd rel err {err:.3e}"

    err = _rel_err(grads.input_grad, central_differences(objective, x, step))
    assert err <= rtol, f"{layer.kind} input grad: fd rel err {err:.3e}"


def quantizer_property_suite(trials, seed):
    """Round-trip bound, grid idempotence, endpoint coverage, constant
    handling over random tensors. Shared by the module test and the
    acceptance gate (criterion: 1e4 trials under 30 s)."""
    from sflsim import quantize

    rng = np.random.default_rng(seed)
    for t in range(trials):
        size = int(rng.integers(2, 65))
        loc = rng.uniform(-10.0, 10.0)
        width = rng.uniform(0.01, 20.0)
        a = (loc + width * rng.random(size)).astype(np.float32)
        if float(a.max()) == float(a.min()):
            a[0] += np.float32(width)
        rec = quantize.encode(a, round_tag=t, device_id=0, batch_index=0)

        # endpoint codes 0 and 255 both present for non-constant tensors
        assert rec.payload.min() == 0 and rec.payload.max() == 255

        # round-trip error <= scale/2 + 1 ulp of the largest magnitude
        back = quantize.decode(rec)
        bound = rec.scale / 2.0 + float(np.spacing(np.abs(a).max()))
        err = float(np.max(np.abs(back.astype(np.float64) - a.astype(np.float64))))
        assert err <= bound, f"trial {t}: round-trip err {err} > bound {bound}"

        # quantizing the dequantized grid reproduces codes, scale, and min
        again = quantize.encode(back, round_tag=t, device_id=0, batch_index=0)
        assert np.array_equal(again.payload, rec.payload), f"trial {t}: codes moved"
        assert again.scale == rec.scale and again.min_val == rec.min_val

    # constant tensors: scale 0, codes 0, exact reconstruction
    for value in (-3.5, 0.0, 7.25):
        rec = quantize.encode(np.full(9, value, dtype=np.float32), round_tag=0, device_id=0, batch_index=0)
        assert rec.scale == 0.0 and np.all(rec.payload == 0)
        assert np.array_equal(quantize.decode(rec), np.full(9, value, dtype=np.float32))


def make_layer_instances(seed):
    """One randomly shaped instance of every layer kind, float64."""
    rng = np.random.default_rng(seed)
    c_in = int(rng.integers(1, 5))
    c_out = int(rng.integers(1, 5))
    n_in = int(rng.integers(2, 33))
    n_out = int(rng.integers(2, 17))
    hw = int(rng.choice([4, 6, 8]))
    init = np.random.default_rng(seed + 1)
    return [
        (kernel.Dense(n_in, n_out, rng=init, dtype=np.float64), (2, n_in)),
        (kernel.Conv3x3(c_in, c_out, rng=init, dtype=np.float64), (2, c_in, hw, hw)),
        (kernel.Conv1x1(c_in, c_out, rng=init, dtype=np.float64), (2, c_in, hw, hw)),
        (kernel.MaxPool2x2(), (2, c_in, hw, hw)),
        (kernel.ReLU(), (2, c_in, hw, hw)),
        (kernel.Flatten(), (2, c_in, hw, hw)),
        (kernel.ResidualBlock(c_in, c_out, rng=init, dtype=np.float64), (2, c_in, 6, 6)),
    ]
