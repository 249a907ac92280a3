"""Minimal exact-backprop layer kernel on numpy arrays.

Layers are stateful objects holding float32 parameters (float64 in test mode)
and exposing forward/backward with explicit caches. Stack-level helpers run a
list of layers as one network (forward keeps a Trace for backward, predict
keeps none), cut a trace to its first samples (trace_rows), validate
traces, take the cross-entropy loss and its gradients in one call
(loss_grads), and apply plain SGD. A weight checkpoint (SFL1) is
the stack's own header followed by its param_vector. central_differences is
the finite-difference oracle for the analytic gradients.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"SFL1"

KIND_TAGS = {
    "dense": 1,
    "conv3x3": 2,
    "conv1x1": 3,
    "maxpool2x2": 4,
    "relu": 5,
    "flatten": 6,
    "resblock": 7,
}


class KernelError(ValueError):
    """Shape, trace, label, or checkpoint contract violation."""


def _uniform_init(rng, shape, fan_in, dtype):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class Layer:
    """Base layer: parameters, forward with cache, exact backward."""

    kind = "base"

    def __init__(self):
        self.version = 0

    def params(self):
        return {}

    def param_count(self):
        return sum(int(p.size) for p in self.params().values())

    def forward(self, x):
        raise NotImplementedError

    def backward(self, cache, dy, per_example=False, input_grad=True):
        """(parameter grads, input grad). With ``per_example`` every
        parameter grad keeps the batch axis in front: row i is the gradient
        of sample i's share of the loss. With ``input_grad`` off the input
        grad is not computed and comes back as None."""
        raise NotImplementedError

    def bump(self):
        self.version += 1


class _WeightBias(Layer):
    """A layer with weight ``w`` and bias ``b`` (n_out entries), drawn in
    that order from uniform(-1/sqrt(fan_in), 1/sqrt(fan_in))."""

    def __init__(self, w_shape, n_out, fan_in, rng, dtype):
        super().__init__()
        self.w = _uniform_init(rng, w_shape, fan_in, dtype)
        self.b = _uniform_init(rng, (n_out,), fan_in, dtype)

    def params(self):
        return {"w": self.w, "b": self.b}


class Dense(_WeightBias):
    kind = "dense"

    def __init__(self, n_in, n_out, rng, dtype=np.float32):
        self.n_in = int(n_in)
        super().__init__((self.n_in, int(n_out)), int(n_out), self.n_in, rng, dtype)

    def forward(self, x):
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise KernelError(f"dense expects (batch, {self.n_in}), got {x.shape}")
        return x @ self.w + self.b, x

    def backward(self, cache, dy, per_example=False, input_grad=True):
        x = cache
        if per_example:
            grads = {"w": np.einsum("bi,bo->bio", x, dy), "b": dy}
        else:
            grads = {"w": x.T @ dy, "b": dy.sum(axis=0)}
        return grads, dy @ self.w.T if input_grad else None


# The convolutions are direct matmuls. Each one gets, byte for byte, the
# operands that numpy builds for the contraction named in its comment (an
# einsum plan, numpy._core.einsumfunc._parse_eq_to_batch_matmul, or a
# tensordot): the same values in the same memory layout, so BLAS sums in the
# same order and no bit differs from the einsum formulation that
# tests/test_kernel.py keeps as a reference.


def _pad1(x):
    """Zero-pad the two spatial axes by one on each side, in C order."""
    b, c, h, w = x.shape
    xp = np.zeros((b, c, h + 2, w + 2), dtype=x.dtype)
    xp[:, :, 1:-1, 1:-1] = x
    return xp


def _im2col(xp, transposed=False):
    """The 3x3 windows of a padded (B, C, H+2, W+2) batch as the C-ordered
    (9C, BHW) matrix: rows in (c, i, j) order, columns in (b, h, w) order.
    ``transposed`` builds its transpose, the C-ordered (BHW, 9C) matrix,
    directly rather than by a second copy."""
    b, c, h, w = xp.shape
    h, w = h - 2, w - 2
    if transposed:
        out = np.empty((b, h, w, c, 3, 3), dtype=xp.dtype)
        cols = out.transpose(3, 4, 5, 0, 1, 2)
    else:
        out = cols = np.empty((c, 3, 3, b, h, w), dtype=xp.dtype)
    for i in range(3):
        for j in range(3):
            cols[:, i, j] = xp[:, :, i : i + h, j : j + w].transpose(1, 0, 2, 3)
    return out.reshape(-1, 9 * c) if transposed else out.reshape(9 * c, -1)


def _channel_rows(x):
    """(B, C, H, W) -> (C, BHW), columns in (b, h, w) order: a view where
    the layout allows one, else a C-ordered copy."""
    return x.transpose(1, 0, 2, 3).reshape(x.shape[1], -1)


def _from_channel_rows(y, like):
    """A (N, BHW) matmul output as a (B, N, H, W) view, spatial dims as in
    ``like``."""
    b, _, h, w = like.shape
    return y.reshape(-1, b, h, w).transpose(1, 0, 2, 3)


class Conv3x3(_WeightBias):
    """3x3 convolution, stride 1, zero padding 1 (spatial size preserved)."""

    kind = "conv3x3"

    def __init__(self, c_in, c_out, rng, dtype=np.float32):
        self.c_in = int(c_in)
        super().__init__((int(c_out), self.c_in, 3, 3), int(c_out), 9 * self.c_in, rng, dtype)

    def forward(self, x):
        if x.ndim != 4 or x.shape[1] != self.c_in:
            raise KernelError(f"conv3x3 expects (batch, {self.c_in}, h, w), got {x.shape}")
        xp = _pad1(x)
        # ocij,bchwij->bohw
        y = _from_channel_rows(self.w.reshape(self.w.shape[0], -1) @ _im2col(xp), x)
        y += self.b[None, :, None, None]
        return y, xp

    def backward(self, cache, dy, per_example=False, input_grad=True):
        rows = _im2col(cache, transposed=True)
        if per_example:
            # bohw,bchwij->bocij
            b, o, h, w = dy.shape
            dw = (dy.reshape(b, o, h * w) @ rows.reshape(b, h * w, -1)).reshape(b, *self.w.shape)
            db = dy.sum(axis=(2, 3))
        else:
            # np.tensordot(dy, windows, axes=([0, 2, 3], [0, 2, 3]))
            dw = (_channel_rows(dy) @ rows).reshape(self.w.shape)
            db = dy.sum(axis=(0, 2, 3))
        if not input_grad:
            return {"w": dw, "b": db}, None
        # ocij,bohwij->bchw on the flipped kernel
        w_flip = self.w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(self.c_in, -1)
        dx = _from_channel_rows(w_flip @ _im2col(_pad1(dy)), dy)
        return {"w": dw, "b": db}, dx


class Conv1x1(_WeightBias):
    """1x1 convolution (per-pixel channel mix), used as downsample projection."""

    kind = "conv1x1"

    def __init__(self, c_in, c_out, rng, dtype=np.float32):
        self.c_in = int(c_in)
        super().__init__((int(c_out), self.c_in), int(c_out), self.c_in, rng, dtype)

    def forward(self, x):
        if x.ndim != 4 or x.shape[1] != self.c_in:
            raise KernelError(f"conv1x1 expects (batch, {self.c_in}, h, w), got {x.shape}")
        if self.c_in == 1:
            # oc,bchw->bohw: einsum drops the size-1 c axis and only multiplies
            y = self.w.reshape(1, -1, 1, 1) * x
        else:
            # oc,bchw->bohw
            y = _from_channel_rows(self.w @ _channel_rows(x), x)
        y += self.b[None, :, None, None]
        return y, x

    def backward(self, cache, dy, per_example=False, input_grad=True):
        x = cache
        pixels = x.transpose(0, 2, 3, 1)
        if per_example:
            # bohw,bchw->boc
            b, o = dy.shape[:2]
            dw = dy.reshape(b, o, -1) @ pixels.reshape(b, -1, self.c_in)
            db = dy.sum(axis=(2, 3))
        else:
            # bohw,bchw->oc
            dw = _channel_rows(dy) @ pixels.reshape(-1, self.c_in)
            db = dy.sum(axis=(0, 2, 3))
        if not input_grad:
            return {"w": dw, "b": db}, None
        # oc,bohw->bchw
        dx = _from_channel_rows(self.w.T @ _channel_rows(dy), dy)
        return {"w": dw, "b": db}, dx


# The four 2x2-window positions, in row-major order: (row, column) offsets.
_QUADRANTS = ((0, 0), (0, 1), (1, 0), (1, 1))


class MaxPool2x2(Layer):
    """2x2 max pooling, stride 2, over the four strided quadrant views.

    The backward routes each output gradient to the first quadrant, in
    row-major order, whose input equals the max; entries that get no
    gradient are +0.0. A NaN input makes its window's max NaN, which no
    input equals, so that window routes no gradient (an argmax would pick
    the NaN); the runtime's non-finite check stops such a run anyway. A
    window whose max is a tie of -0.0 and +0.0 may output either zero.
    """

    kind = "maxpool2x2"

    def forward(self, x):
        if x.ndim != 4 or x.shape[2] % 2 or x.shape[3] % 2:
            raise KernelError(f"maxpool2x2 needs even spatial dims, got {x.shape}")
        q = [x[:, :, r::2, c::2] for r, c in _QUADRANTS]
        # C order whatever the input's layout: the operands a later conv
        # hands to matmul, and so its bits, depend on its input's strides.
        y = np.ascontiguousarray(np.maximum(np.maximum(q[0], q[1]), np.maximum(q[2], q[3])))
        return y, (x, y)

    def backward(self, cache, dy, per_example=False, input_grad=True):
        if not input_grad:
            return {}, None
        x, y = cache
        dx = np.zeros(x.shape, dtype=dy.dtype)
        free = None  # windows no earlier quadrant took
        for r, c in _QUADRANTS:
            hit = x[:, :, r::2, c::2] == y
            if free is None:
                free = ~hit
            else:
                hit &= free
                if (r, c) != _QUADRANTS[-1]:
                    free ^= hit
            np.copyto(dx[:, :, r::2, c::2], dy, where=hit)
        return {}, dx


class ReLU(Layer):
    kind = "relu"

    def forward(self, x):
        return np.maximum(x, 0), x > 0

    def backward(self, cache, dy, per_example=False, input_grad=True):
        return {}, dy * cache if input_grad else None


class Flatten(Layer):
    kind = "flatten"

    def forward(self, x):
        return x.reshape(x.shape[0], -1), x.shape[1:]

    def backward(self, cache, dy, per_example=False, input_grad=True):
        return {}, dy.reshape(len(dy), *cache) if input_grad else None


class ResidualBlock(Layer):
    """Downsampling residual block.

    Main path: conv3x3 -> ReLU -> conv3x3 -> maxpool2x2.
    Skip path: conv1x1 -> maxpool2x2. Output: ReLU(main + skip).
    Halves the spatial dims and maps c_in to c_out channels. Each path is a
    layer stack run by the stack-level forward and backward, with their
    ownership and stale-trace checks.
    """

    kind = "resblock"

    def __init__(self, c_in, c_out, rng, dtype=np.float32):
        super().__init__()
        conv1 = Conv3x3(c_in, c_out, rng, dtype)
        conv2 = Conv3x3(c_out, c_out, rng, dtype)
        skip = Conv1x1(c_in, c_out, rng, dtype)
        self.named = (("conv1", conv1), ("conv2", conv2), ("skip", skip))
        self.main = [conv1, ReLU(), conv2, MaxPool2x2()]
        self.side = [skip, MaxPool2x2()]

    def _keyed(self, of):
        """``of(sub-layer)`` for each named sub-layer, merged under the
        block's "<name>.<key>" keys."""
        return {f"{name}.{k}": v for name, sub in self.named for k, v in of(sub).items()}

    def params(self):
        return self._keyed(lambda sub: sub.params())

    def bump(self):
        super().bump()
        for sub in self.main + self.side:
            sub.bump()

    def forward(self, x):
        main, side = forward(self.main, x), forward(self.side, x)
        summed = main.output + side.output
        mask = summed > 0
        return np.maximum(summed, 0), (main, side, mask)

    def backward(self, cache, dy, per_example=False, input_grad=True):
        main, side, mask = cache
        d_sum = dy * mask
        g_main = backward(self.main, main, d_sum, per_example, input_grad)
        g_side = backward(self.side, side, d_sum, per_example, input_grad)
        by_layer = dict(zip(self.main + self.side, g_main.layers + g_side.layers))
        grads = self._keyed(by_layer.__getitem__)
        return grads, g_main.input_grad + g_side.input_grad if input_grad else None


def stamp(layers):
    """A stack's identity: its layers' ids and their parameter versions."""
    return tuple(id(l) for l in layers), tuple(l.version for l in layers)


@dataclass
class Trace:
    """Forward record: per-layer caches plus the stack's stamp."""

    output: np.ndarray
    caches: list
    stamp: tuple


@dataclass
class Gradients:
    """Per-layer parameter gradients (dicts keyed like params()) + input grad.

    ``input_grad`` is None when backward ran with ``input_grad=False``."""

    layers: list
    input_grad: np.ndarray | None


def forward(layers, x):
    """Run a layer stack; returns a Trace consumable by backward."""
    caches = []
    for layer in layers:
        x, cache = layer.forward(x)
        caches.append(cache)
    return Trace(output=x, caches=caches, stamp=stamp(layers))


def predict(layers, x):
    """Run a layer stack for its output only; keeps no Trace. Equal, bit
    for bit, to forward(layers, x).output."""
    for layer in layers:
        x = layer.forward(x)[0]
    return x


def trace_rows(trace, n):
    """The trace of the first ``n`` samples, cut from a trace of the whole
    batch without a second forward. Every layer acts on each sample alone,
    so the cut holds what forward(layers, x[:n]) computes, up to rounding
    that BLAS may do differently for another row count. Caches are cut
    generically: arrays by their leading axis, tuples entry by entry, nested
    traces (a residual block's paths) recursively; anything else (Flatten's
    per-sample shape) is kept. The stamp is the whole batch's, so backward
    still rejects the cut once a parameter changes."""
    if not 1 <= n <= len(trace.output):
        raise KernelError(f"cannot cut {n} rows from a batch of {len(trace.output)}")
    return _cut_rows(trace, n)


def _cut_rows(value, n):
    if isinstance(value, Trace):
        return Trace(value.output[:n], [_cut_rows(c, n) for c in value.caches], value.stamp)
    if isinstance(value, tuple):
        return tuple(_cut_rows(v, n) for v in value)
    return value[:n] if isinstance(value, np.ndarray) else value


def backward(layers, trace, loss_grad, per_example=False, input_grad=True):
    """Exact backprop through a stack using the caches from forward.

    Rejects traces from a different stack or taken before a parameter
    update (stale), and gradients whose shape does not match the output.
    With ``per_example`` the parameter gradients keep the batch index
    (one row per sample, as in Goodfellow, arXiv:1510.01799); sgd_step
    rejects them. With ``input_grad`` off the bottom layer skips its input
    gradient, which the parameter gradients never read, and the result's
    input_grad is None.
    """
    ids, versions = stamp(layers)
    if trace.stamp[0] != ids:
        raise KernelError("trace does not belong to this layer stack")
    if trace.stamp[1] != versions:
        raise KernelError("stale trace: parameters changed since forward")
    if loss_grad.shape != trace.output.shape:
        raise KernelError(
            f"loss grad shape {loss_grad.shape} != output shape {trace.output.shape}"
        )
    dy = loss_grad
    per_layer = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        grads, dy = layers[i].backward(trace.caches[i], dy, per_example, input_grad or i > 0)
        per_layer[i] = grads
    return Gradients(layers=per_layer, input_grad=dy)


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy over the batch; returns (loss, dL/dlogits)."""
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise KernelError(f"logits must be 2-d, got {logits.shape}")
    if labels.shape != (logits.shape[0],):
        raise KernelError("labels must be one integer per row")
    if not np.issubdtype(labels.dtype, np.integer):
        raise KernelError("labels must be integers")
    c = logits.shape[1]
    if labels.min() < 0 or labels.max() >= c:
        raise KernelError(f"labels must lie in [0, {c})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    loss = float(-np.mean(np.log(probs[np.arange(n), labels])))
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad.astype(logits.dtype)


def loss_grads(layers, x, labels, input_grad=True):
    """Forward, mean softmax cross-entropy and exact backward of a stack on
    one batch; returns (loss, Gradients). ``input_grad`` as in backward."""
    trace = forward(layers, x)
    loss, dlogits = softmax_cross_entropy(trace.output, labels)
    return loss, backward(layers, trace, dlogits, input_grad=input_grad)


def sgd_step(layers, grads, lr):
    """In-place w -= lr * g on every layer with parameters."""
    if len(grads.layers) != len(layers):
        raise KernelError("gradient list does not match layer stack")
    for layer, layer_grads in zip(layers, grads.layers):
        if not layer_grads:
            continue
        params = layer.params()
        if set(layer_grads) != set(params):
            raise KernelError(f"gradient keys {set(layer_grads)} != params {set(params)}")
        for name, g in layer_grads.items():
            p = params[name]
            if g.shape != p.shape:
                raise KernelError(f"grad shape {g.shape} != param shape {p.shape}")
            p -= (lr * g).astype(p.dtype)
        layer.bump()


def _flat(dicts):
    """The arrays of a list of per-layer dicts as one float64 vector, keys
    visited in sorted order per layer."""
    chunks = [d[k].reshape(-1).astype(np.float64) for d in dicts for k in sorted(d)]
    return np.concatenate(chunks) if chunks else np.zeros(0)


def param_vector(layers):
    """All parameters flattened into one float64 vector, in the layout of
    grad_vector and load_param_vector; the one in-memory snapshot format."""
    return _flat([layer.params() for layer in layers])


def load_param_vector(layers, vector):
    """Inverse of param_vector: scatter a flat vector back into the stack,
    cast to each parameter's dtype; every layer's version is bumped."""
    vector = np.asarray(vector, dtype=np.float64).reshape(-1)
    offset = 0
    for layer in layers:
        params = layer.params()
        for k in sorted(params):
            p = params[k]
            chunk = vector[offset : offset + p.size]
            if chunk.size != p.size:
                raise KernelError("vector too short for this layer stack")
            p[...] = chunk.reshape(p.shape).astype(p.dtype)
            offset += p.size
        layer.bump()
    if offset != vector.size:
        raise KernelError(f"vector has {vector.size} entries, stack holds {offset}")


def grad_vector(grads):
    """All gradients flattened into one float64 vector, matching param_vector order."""
    return _flat(grads.layers)


def central_differences(f, values, step):
    """(f(v + h) - f(v - h)) / 2h for every entry v of ``values``, in
    row-major order: each entry is set in place, ``f()`` is evaluated, and
    the entry is restored. The one finite-difference loop, shared by the
    selftest and the test suite's gradient oracles."""
    numeric = np.zeros_like(values)
    for i in np.ndindex(values.shape):
        orig = values[i]
        values[i] = orig + step
        hi = f()
        values[i] = orig - step
        lo = f()
        values[i] = orig
        numeric[i] = (hi - lo) / (2.0 * step)
    return numeric


def _sfl1_header(layers):
    """SFL1 header of a stack: magic, u32 layer count, then per layer a u8
    kind tag and u8 parameter count, and per parameter (sorted keys, the
    param_vector order) a u32 rank and u32 dims. Little-endian."""
    blob = bytearray(MAGIC + struct.pack("<I", len(layers)))
    for layer in layers:
        params = layer.params()
        blob += struct.pack("<BB", KIND_TAGS[layer.kind], len(params))
        for k in sorted(params):
            shape = params[k].shape
            blob += struct.pack(f"<I{len(shape)}I", len(shape), *shape)
    return bytes(blob)


def save_weights(path, layers):
    """Write an SFL1 checkpoint: the stack's header, then its param_vector
    as little-endian float32."""
    with open(path, "wb") as fh:
        fh.write(_sfl1_header(layers))
        fh.write(param_vector(layers).astype("<f4").tobytes())


def load_weights(path, layers):
    """Read an SFL1 checkpoint into a stack whose own header it must match
    byte for byte."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise KernelError(f"bad checkpoint magic {raw[:4]!r}")
    header = _sfl1_header(layers)
    if raw[: len(header)] != header:
        raise KernelError("checkpoint header does not match this layer stack")
    payload = raw[len(header) :]
    size = 4 * sum(layer.param_count() for layer in layers)
    if len(payload) < size:
        raise KernelError("truncated checkpoint")
    if len(payload) > size:
        raise KernelError("trailing bytes after checkpoint payload")
    load_param_vector(layers, np.frombuffer(payload, dtype="<f4"))
