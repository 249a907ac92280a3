"""Minimal exact-backprop layer kernel on numpy arrays.

Layers are stateful objects holding float32 parameters (float64 in test mode)
and exposing forward/backward with explicit caches. Stack-level helpers run a
list of layers as one network (forward keeps a Trace for backward, predict
keeps none; backward's one hook, visit(layer, cache, dy), shows a caller
each layer's cache and output grad, as Layer.sample_grads reads them),
validate traces, take the cross-entropy loss and its gradients in one call
(loss_grads), and apply plain SGD. A weight checkpoint (SFL1) is the stack's
own header followed by its param_vector. central_differences is the
finite-difference oracle for the analytic gradients.
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

    def backward(self, cache, dy, input_grad=True, visit=None):
        """(parameter grads, input grad); with ``input_grad`` off the input
        grad is None. A layer holding stacks (ResidualBlock) passes the stack
        backward's hook ``visit`` on to them."""
        raise NotImplementedError

    def sample_grads(self, cache, dy):
        """Per-sample parameter grads from the forward cache and output grad:
        row i is the grad of sample i's share of the loss (Goodfellow,
        arXiv:1510.01799), so the first rows of cache and dy give the first
        rows. Empty here; a ResidualBlock's sub-layers have their own, and
        backward's hook visits them."""
        return {}

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

    def backward(self, cache, dy, input_grad=True, visit=None):
        return {"w": cache.T @ dy, "b": dy.sum(axis=0)}, dy @ self.w.T if input_grad else None

    def sample_grads(self, cache, dy):
        return {"w": np.einsum("bi,bo->bio", cache, dy), "b": dy}


# The convolutions are direct matmuls. But for the conv3x3 weight gradients,
# each gets, byte for byte, the operands that numpy builds for the
# contraction named in its comment (an einsum plan, or
# numpy._core.einsumfunc._parse_eq_to_batch_matmul): the same values in the
# same memory layout, so BLAS sums in the same order and no bit differs from
# the einsum formulation that tests/test_kernel.py keeps as a reference.
# Every conv3x3 window matrix is the (9C, BHW) matrix of shifted views of an
# unpadded batch (_windows), one read-only view whose bounds the ndarray
# constructor checks against the block it reads. The weight gradients take
# their (BHW, 9C) operand as its transpose, a view, so no second matrix is
# built. BLAS sums that view in another order than einsum's C-ordered copy,
# so their reference is the same matmul on a window matrix built by np.pad.


def _windows(x):
    """The 3x3 windows of an unpadded (B, C, H, W) batch, zero-padded by
    one, as the C-ordered (9C, BHW) matrix: rows in (c, i, j) order, columns
    in (b, h, w) order. The batch is copied once, channel-major, into a
    (C, BHW) block with W + 1 zeros at each end, so that tap (i, j) is the
    block shifted by (i-1)W + (j-1) entries. The nine shifted taps are one
    read-only view of the block, made by the ndarray constructor, which
    refuses strides that reach outside it; one copy of that view fills the
    matrix. Four fills then zero the entries that a shift carried across a
    row or sample edge, which are exactly the window entries that fall in
    the padding."""
    b, c, h, w = x.shape
    n, margin = b * h * w, w + 1
    block = np.zeros((c, n + 2 * margin), dtype=x.dtype)
    block[:, margin : margin + n].reshape(c, b, h, w)[...] = x.transpose(1, 0, 2, 3)
    step = x.itemsize
    shifted = np.ndarray((c, 3, 3, n), x.dtype, block, 0, (block.strides[0], w * step, step, step))
    shifted.flags.writeable = False
    out = shifted.copy()
    taps = out.reshape(c, 3, 3, b, h, w)
    taps[:, 0, :, :, :1] = 0
    taps[:, 2, :, :, -1:] = 0
    taps[:, :, 0, :, :, :1] = 0
    taps[:, :, 2, :, :, -1:] = 0
    return out.reshape(9 * c, n)


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
    """3x3 convolution, stride 1, zero padding 1 (spatial size preserved).

    The forward caches its input as it is, not its window matrix (_windows):
    the weight gradients (backward and sample_grads) rebuild that matrix and
    read it through a transposed view, and the input gradient reads the
    window matrix of dy."""

    kind = "conv3x3"

    def __init__(self, c_in, c_out, rng, dtype=np.float32):
        self.c_in = int(c_in)
        super().__init__((int(c_out), self.c_in, 3, 3), int(c_out), 9 * self.c_in, rng, dtype)

    def forward(self, x):
        if x.ndim != 4 or x.shape[1] != self.c_in:
            raise KernelError(f"conv3x3 expects (batch, {self.c_in}, h, w), got {x.shape}")
        # ocij,bchwij->bohw
        y = _from_channel_rows(self.w.reshape(self.w.shape[0], -1) @ _windows(x), x)
        y += self.b[None, :, None, None]
        return y, x

    def backward(self, cache, dy, input_grad=True, visit=None):
        # bohw,bchwij->ocij, on the transposed window matrix
        dw = (_channel_rows(dy) @ _windows(cache).T).reshape(self.w.shape)
        grads = {"w": dw, "b": dy.sum(axis=(0, 2, 3))}
        if not input_grad:
            return grads, None
        # ocij,bohwij->bchw on the flipped kernel
        w_flip = self.w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(self.c_in, -1)
        return grads, _from_channel_rows(w_flip @ _windows(dy), dy)

    def sample_grads(self, cache, dy):
        # bohw,bchwij->bocij, on the transposed window matrix; its columns
        # run in (b, h, w) order, so the reshape is a view
        b, o, h, w = dy.shape
        rows = _windows(cache).T.reshape(b, h * w, -1)
        dw = (dy.reshape(b, o, h * w) @ rows).reshape(b, *self.w.shape)
        return {"w": dw, "b": dy.sum(axis=(2, 3))}


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

    def backward(self, cache, dy, input_grad=True, visit=None):
        # bohw,bchw->oc
        dw = _channel_rows(dy) @ cache.transpose(0, 2, 3, 1).reshape(-1, self.c_in)
        grads = {"w": dw, "b": dy.sum(axis=(0, 2, 3))}
        # oc,bohw->bchw
        return grads, _from_channel_rows(self.w.T @ _channel_rows(dy), dy) if input_grad else None

    def sample_grads(self, cache, dy):
        # bohw,bchw->boc
        b, o = dy.shape[:2]
        dw = dy.reshape(b, o, -1) @ cache.transpose(0, 2, 3, 1).reshape(b, -1, self.c_in)
        return {"w": dw, "b": dy.sum(axis=(2, 3))}


# The four 2x2-window positions, in row-major order: (row, column) offsets.
_QUADRANTS = ((0, 0), (0, 1), (1, 0), (1, 1))


class MaxPool2x2(Layer):
    """2x2 max pooling, stride 2. The forward takes the max of column
    pairs, then of row pairs; the backward works on the four strided
    quadrant views (_QUADRANTS).

    The backward routes each output gradient to the first quadrant, in
    row-major order, whose input equals the max; entries that get no
    gradient are +0.0. A NaN input makes its window's max NaN, which no
    input equals, so that window routes no gradient (an argmax would pick
    the NaN); the runtime's non-finite check stops such a run anyway. A
    window whose max is a tie of -0.0 and +0.0 may output either zero.

    The four quadrants tile the input gradient, so the backward writes each
    entry once and fills nothing beforehand: through unsigned-integer views
    of the same width, a quadrant gets dy's bit pattern where it takes the
    window (-0.0, infinities and NaN payloads intact) and all-zero bits,
    +0.0, elsewhere.
    """

    kind = "maxpool2x2"

    def forward(self, x):
        if x.ndim != 4 or x.shape[2] % 2 or x.shape[3] % 2:
            raise KernelError(f"maxpool2x2 needs even spatial dims, got {x.shape}")
        h, w = x.shape[2:]
        # Pool in the input's own memory order: (B, C, H, W), or (C, B, H, W)
        # as a conv's output arrives; any other layout is copied once.
        c_first = not x.flags.c_contiguous and x.transpose(1, 0, 2, 3).flags.c_contiguous
        u = x.transpose(1, 0, 2, 3) if c_first else np.ascontiguousarray(x)
        # Column pairs as one 1-d loop, max(q00, q01) on even rows and
        # max(q10, q11) on odd ones, then the max of each row pair: the
        # association max(max(q00, q01), max(q10, q11)), so NaN, -0.0 and
        # ties give the bits of the quadrant-view form.
        row_pairs = u.shape[0] * u.shape[1] * h // 2
        cols = u.reshape(-1, 2)
        rows = np.maximum(cols[:, 0], cols[:, 1]).reshape(row_pairs, 2, w // 2)
        y = np.maximum(rows[:, 0], rows[:, 1]).reshape(*u.shape[:2], h // 2, w // 2)
        if c_first:
            # C order whatever the input's layout: the operands a later conv
            # hands to matmul, and so its bits, depend on its input's strides.
            y = np.ascontiguousarray(y.transpose(1, 0, 2, 3))
        return y, (x, y)

    def backward(self, cache, dy, input_grad=True, visit=None):
        if not input_grad:
            return {}, None
        x, y = cache
        dx = np.empty(x.shape, dtype=dy.dtype)
        bits = np.dtype(f"u{dy.itemsize}")
        # A conv's input gradient arrives laid out (C, B, H, W); one C-order
        # copy costs less than reading it strided four times.
        dx_bits, dy_bits = dx.view(bits), np.ascontiguousarray(dy).view(bits)
        free = None  # windows no earlier quadrant took
        for r, c in _QUADRANTS:
            hit = x[:, :, r::2, c::2] == y
            if free is None:
                free = ~hit
            else:
                hit &= free
                if (r, c) != _QUADRANTS[-1]:
                    free ^= hit
            np.multiply(dy_bits, hit, out=dx_bits[:, :, r::2, c::2])
        return {}, dx


class ReLU(Layer):
    kind = "relu"

    def forward(self, x):
        return np.maximum(x, 0), x > 0

    def backward(self, cache, dy, input_grad=True, visit=None):
        return {}, dy * cache if input_grad else None


class Flatten(Layer):
    kind = "flatten"

    def forward(self, x):
        return x.reshape(x.shape[0], -1), x.shape[1:]

    def backward(self, cache, dy, input_grad=True, visit=None):
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

    def backward(self, cache, dy, input_grad=True, visit=None):
        main, side, mask = cache
        d_sum = dy * mask
        g_main = backward(self.main, main, d_sum, input_grad, visit)
        g_side = backward(self.side, side, d_sum, input_grad, visit)
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


def backward(layers, trace, loss_grad, input_grad=True, visit=None):
    """Exact backprop through a stack using the caches from forward.

    Rejects traces from a different stack or taken before a parameter
    update (stale), and gradients whose shape does not match the output.
    With ``input_grad`` off the bottom layer skips its input gradient,
    which the parameter gradients never read, and the result's input_grad
    is None. ``visit(layer, cache, dy)``, if given, is called before each
    layer's backward with its forward cache and output gradient, and
    once for each sub-layer of a residual block; it reads them, and must
    not write them.
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
        if visit is not None:
            visit(layers[i], trace.caches[i], dy)
        grads, dy = layers[i].backward(trace.caches[i], dy, input_grad or i > 0, visit)
        per_layer[i] = grads
    return Gradients(layers=per_layer, input_grad=dy)


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy over the batch; returns (loss, dL/dlogits)."""
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise KernelError(f"logits must be 2-d, got {logits.shape}")
    if labels.shape != (logits.shape[0],):
        raise KernelError("labels must be one integer per row")
    if labels.dtype.kind not in "iu":
        raise KernelError("labels must be integers")
    c = logits.shape[1]
    if labels.min() < 0 or labels.max() >= c:
        raise KernelError(f"labels must lie in [0, {c})")
    # np.max, np.sum and np.mean as their ufunc reductions, bit for bit
    probs = np.exp(logits - np.maximum.reduce(logits, axis=1, keepdims=True))
    probs /= np.add.reduce(probs, axis=1, keepdims=True)
    n = logits.shape[0]
    rows = np.arange(n)
    picked = probs[rows, labels]
    total = np.add.reduce(np.log(picked))
    loss = float(-total.dtype.type(total / np.intp(n)))
    # Softmax minus one-hot, over n, in C order whatever the logits' layout
    # (a later matmul's bits depend on its operand's strides): the probs
    # themselves unless they need that copy.
    grad = np.ascontiguousarray(probs)
    grad[rows, labels] = picked - 1.0
    grad /= n
    return loss, grad.astype(logits.dtype, copy=False)


def loss_grads(layers, x, labels, input_grad=True, visit=None):
    """Forward, mean softmax cross-entropy and exact backward of a stack on
    one batch; returns (loss, Gradients). ``input_grad`` and ``visit`` as
    in backward."""
    trace = forward(layers, x)
    loss, dlogits = softmax_cross_entropy(trace.output, labels)
    return loss, backward(layers, trace, dlogits, input_grad=input_grad, visit=visit)


def sgd_step(layers, grads, lr):
    """In-place w -= lr * g on every layer with parameters."""
    if len(grads.layers) != len(layers):
        raise KernelError("gradient list does not match layer stack")
    for layer, layer_grads in zip(layers, grads.layers):
        if not layer_grads:
            continue
        params = layer.params()
        if layer_grads.keys() != params.keys():
            raise KernelError(f"gradient keys {set(layer_grads)} != params {set(params)}")
        for name, g in layer_grads.items():
            p = params[name]
            if g.shape != p.shape:
                raise KernelError(f"grad shape {g.shape} != param shape {p.shape}")
            # A Python float lr keeps g's dtype (NEP 50): no copy then.
            p -= (lr * g).astype(p.dtype, copy=False)
        layer.bump()


def _flat(dicts, dtype=np.float64):
    """The arrays of a list of per-layer dicts as one vector of ``dtype``
    (None: their own), keys visited in sorted order per layer."""
    chunks = [d[k].reshape(-1) for d in dicts for k in sorted(d)]
    return np.concatenate(chunks, dtype=dtype) if chunks else np.zeros(0, dtype)


def param_vector(layers, dtype=np.float64):
    """All parameters flattened into one vector, float64 unless ``dtype``
    says otherwise (None: the parameters' own), in the layout of
    grad_vector and load_param_vector; the one in-memory snapshot format."""
    return _flat([layer.params() for layer in layers], dtype)


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
            p[...] = chunk.reshape(p.shape)  # the cast rounds as astype does
            offset += p.size
        layer.bump()
    if offset != vector.size:
        raise KernelError(f"vector has {vector.size} entries, stack holds {offset}")


def _slots(layer):
    """{params() key: (owner, attribute)} of a layer; a residual block's
    parameters are held by its named sub-layers."""
    if isinstance(layer, ResidualBlock):
        return {f"{name}.{k}": slot for name, sub in layer.named for k, slot in _slots(sub).items()}
    return {k: (layer, k) for k in layer.params()}


def pack_params(layers):
    """Copy every parameter of ``layers`` into one new block of their dtype,
    in param_vector order, and rebind each as a C-contiguous view of it of
    its shape; returns the block. From then on param_vector(layers) is the
    block as float64, and a vector loads as ``block[...] = vector`` plus
    each layer's bump(). Mixed dtypes are refused."""
    slots = [slot for layer in layers for _, slot in sorted(_slots(layer).items())]
    arrays = [getattr(owner, attr) for owner, attr in slots]
    if len({a.dtype for a in arrays}) > 1:
        raise KernelError(f"cannot pack mixed dtypes {sorted({a.dtype.str for a in arrays})}")
    block = np.concatenate(arrays, axis=None) if arrays else np.zeros(0)
    offset = 0
    for (owner, attr), a in zip(slots, arrays):
        setattr(owner, attr, block[offset : offset + a.size].reshape(a.shape))
        offset += a.size
    return block


def grad_vector(grads):
    """All gradients flattened into one float64 vector, matching param_vector order."""
    return _flat(grads.layers)


def sq_norm(v):
    """Squared L2 norm, as numpy's pairwise sum of squares. A BLAS dot
    (``v @ v``, ``np.linalg.norm``) rounds by how its threads split v."""
    return float(np.sum(np.square(v)))


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
