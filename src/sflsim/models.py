"""Model specs, the desk/analytic zoo, partitioning, and central pretraining.

Architectures are compact layer strings like ``"C8-MP-C16-MP|C32-MP-FC"``:
``C{n}`` a 3x3 conv (+ReLU), ``MP`` 2x2 maxpool, ``RB{n}`` a downsampling
residual block, ``FC{n}`` a dense layer (+ReLU unless final), ``FC`` the
final classifier over num_classes, ``Flatten`` explicit (auto-inserted
before the first dense otherwise). The ``|`` marks the device/server split.

TinyVGG/TinyRes are built and trained at desk scale; the VGG11- and
ResNet9-shaped specs exist for the analytic cost model and are never
trained here.
"""

from __future__ import annotations

import copy
import functools
import re
from dataclasses import dataclass

import numpy as np

from . import kernel


class ModelError(ValueError):
    """Bad layer string, illegal partition point, or shape mismatch."""


@dataclass(frozen=True)
class ModelSpec:
    name: str
    layer_string: str
    input_shape: tuple
    num_classes: int


@dataclass(frozen=True)
class LayerDesc:
    """Resolved layer descriptor: kind plus concrete in/out shapes."""

    kind: str
    in_shape: tuple
    out_shape: tuple
    arg: int = 0

    def param_count(self):
        if self.kind == "conv3x3":
            return 9 * self.in_shape[0] * self.arg + self.arg
        if self.kind == "dense":
            return self.in_shape[0] * self.arg + self.arg
        if self.kind == "resblock":
            c_in, c_out = self.in_shape[0], self.arg
            return (9 * c_in * c_out + c_out) + (9 * c_out * c_out + c_out) + (c_in * c_out + c_out)
        return 0

    def forward_macs(self):
        if self.kind == "conv3x3":
            _, h, w = self.in_shape
            return 9 * self.in_shape[0] * self.arg * h * w
        if self.kind == "dense":
            return self.in_shape[0] * self.arg
        if self.kind == "resblock":
            c_in, c_out = self.in_shape[0], self.arg
            _, h, w = self.in_shape
            return (9 * c_in * c_out + 9 * c_out * c_out + c_in * c_out) * h * w
        return 0


@dataclass(frozen=True)
class ModelFacts:
    """Analytic facts used by the cost model; no weights are materialized."""

    total_params: int
    device_params: int
    server_params: int
    activation_shape: tuple
    activation_elements: int
    device_macs: int
    server_macs: int
    op_index: int


_TOKEN_RE = re.compile(r"^(C|RB|FC)(\d+)$")


def expand(spec):
    """Layer string -> (list of LayerDesc, default split index).

    One pass over the device tokens, then the server tokens; the split index
    is where the server tokens start. Each side holds a token and each token
    emits a descriptor or raises, so both sides get layers. Convs get a trailing ReLU; dense layers
    too except the final one; a Flatten is inserted before the first dense
    when the activation is still spatial. Shapes are threaded and validated
    as descriptors are emitted.
    """
    parts = spec.layer_string.split("|")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise ModelError(f"layer string needs one '|' split point: {spec.layer_string!r}")
    device_tokens, server_tokens = (part.split("-") for part in parts)
    tokens = device_tokens + server_tokens
    last_dense = max((i for i, token in enumerate(tokens) if token.startswith("FC")), default=-1)

    descs, split_index, shape = [], None, tuple(spec.input_shape)
    for i, token in enumerate(tokens):
        if i == len(device_tokens):
            split_index = len(descs)
        m = _TOKEN_RE.match(f"FC{spec.num_classes}" if token == "FC" else token)
        kind, arg = (m.group(1), int(m.group(2))) if m else (token, 0)
        if kind == "MP":
            if len(shape) != 3 or shape[1] % 2 or shape[2] % 2:
                raise ModelError(f"maxpool needs even spatial input, got {shape}")
            out = (shape[0], shape[1] // 2, shape[2] // 2)
            descs.append(LayerDesc("maxpool2x2", shape, out))
        elif kind == "Flatten":
            out = (int(np.prod(shape)),)
            descs.append(LayerDesc("flatten", shape, out))
        elif m is None:
            raise ModelError(f"unknown layer token {token!r} in {spec.layer_string!r}")
        elif kind == "C":
            if len(shape) != 3:
                raise ModelError(f"conv needs spatial input, got {shape}")
            out = (arg, shape[1], shape[2])
            descs.append(LayerDesc("conv3x3", shape, out, arg))
            descs.append(LayerDesc("relu", out, out))
        elif kind == "RB":
            if len(shape) != 3 or shape[1] % 2 or shape[2] % 2:
                raise ModelError(f"residual block needs even spatial input, got {shape}")
            out = (arg, shape[1] // 2, shape[2] // 2)
            descs.append(LayerDesc("resblock", shape, out, arg))
        else:  # FC
            if len(shape) == 3:
                flat = (int(np.prod(shape)),)
                descs.append(LayerDesc("flatten", shape, flat))
                shape = flat
            out = (arg,)
            descs.append(LayerDesc("dense", shape, out, arg))
            if i != last_dense:
                descs.append(LayerDesc("relu", out, out))
        shape = descs[-1].out_shape
    return descs, split_index


@functools.cache
def analyze(spec, op_index=None):
    """Analytic parameter/MAC/activation facts at a partition point, the one
    place a missing ``op_index`` becomes the layer string's ``|``. Cached:
    a spec is frozen and so are its facts, and the runtime's cost model
    asks for the same ones every round."""
    descs, split_index = expand(spec)
    idx = split_index if op_index is None else op_index
    if not 0 < idx < len(descs):
        raise ModelError(f"op_index {idx} out of range (0, {len(descs)})")
    device, server = descs[:idx], descs[idx:]
    act_shape = device[-1].out_shape
    return ModelFacts(
        total_params=sum(d.param_count() for d in descs),
        device_params=sum(d.param_count() for d in device),
        server_params=sum(d.param_count() for d in server),
        activation_shape=act_shape,
        activation_elements=int(np.prod(act_shape)),
        device_macs=sum(d.forward_macs() for d in device),
        server_macs=sum(d.forward_macs() for d in server),
        op_index=idx,
    )


def _instantiate(desc, rng, dtype):
    if desc.kind == "conv3x3":
        return kernel.Conv3x3(desc.in_shape[0], desc.arg, rng=rng, dtype=dtype)
    if desc.kind == "dense":
        return kernel.Dense(desc.in_shape[0], desc.arg, rng=rng, dtype=dtype)
    if desc.kind == "resblock":
        return kernel.ResidualBlock(desc.in_shape[0], desc.arg, rng=rng, dtype=dtype)
    if desc.kind == "maxpool2x2":
        return kernel.MaxPool2x2()
    if desc.kind == "relu":
        return kernel.ReLU()
    if desc.kind == "flatten":
        return kernel.Flatten()
    raise ModelError(f"cannot instantiate {desc.kind}")


def build_model(spec, seed, dtype=np.float32):
    """A spec's layer list, with seeded uniform(-1/sqrt(fan_in), ..) weights."""
    descs, _ = expand(spec)
    rng = np.random.default_rng(seed)
    return [_instantiate(d, rng, dtype) for d in descs]


def partition(layers, op_index):
    """Split a layer stack at a boundary: (device stack, server stack)."""
    if not 0 < op_index < len(layers):
        raise ModelError(f"op_index {op_index} out of range (0, {len(layers)})")
    return layers[:op_index], layers[op_index:]


def clone_stack(layers):
    """Independent copy of a layer stack with identical parameter bits."""
    return copy.deepcopy(list(layers))


def head_descs(activation_shape, num_classes):
    """The local-loss head's descriptors: Flatten, then Dense to the classes."""
    flat = (int(np.prod(activation_shape)),)
    return [
        LayerDesc("flatten", tuple(activation_shape), flat),
        LayerDesc("dense", flat, (num_classes,), num_classes),
    ]


def auxiliary_head(spec, seed, op_index):
    """Local-loss head: Flatten + Dense from the split activation to classes."""
    facts = analyze(spec, op_index)
    rng = np.random.default_rng(seed)
    return [_instantiate(d, rng, np.float32)
            for d in head_descs(facts.activation_shape, spec.num_classes)]


def pretrain_device_side(layers, dataset, epochs, lr, batch_size, seed, op_index):
    """Centrally train a clone of the full stack on the pretrain split, then
    return its device half, cut at ``op_index``. epochs=0 returns the
    initial half (the no-pretraining ablation). ``layers`` is never mutated."""
    clone = clone_stack(layers)
    images, labels = dataset.subset("pretrain")
    rng = np.random.default_rng(seed)
    n = len(labels)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            take = order[start : start + batch_size]
            _, grads = kernel.loss_grads(clone, images[take], labels[take], input_grad=False)
            kernel.sgd_step(clone, grads, lr)
    device, _ = partition(clone, op_index)
    return device


# The desk specs share one device side and split after its second maxpool.
# The analytic VGG11 and ResNet9 shapes have 34.4M and 9.65M parameters.
ZOO = {spec.name: spec for spec in (
    ModelSpec("tiny_vgg", "C8-MP-C16-MP|C32-MP-FC", (1, 16, 16), 2),
    ModelSpec("tiny_res", "C8-MP-C16-MP|RB32-FC", (1, 16, 16), 2),
    ModelSpec("vgg11", "C64-MP-C128-MP|C256-C256-MP-C512-C512-MP-C512-C512-FC4096-FC4096-FC10",
              (3, 32, 32), 10),
    ModelSpec("resnet9", "C64-MP-C128-MP|RB256-RB512-RB512-FC10", (3, 32, 32), 10),
)}
