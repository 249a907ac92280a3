"""Empirical convergence diagnostics for server-side split training.

Measures the quantities a first-order convergence bound for the server
stack is made of — per-round gradient norms, the quantization-induced
gradient gap (eps), the replay-staleness activation gap (delta), a
gradient-bound estimate G and a smoothness estimate L — and assembles
them into a bound report:

    LHS = (1/Gamma) * sum_t eta_t * ||grad F_S||^2
    RHS = 4*(F_0 - F*)/(3*Gamma)
          + G*(1/Gamma) * sum_t eta_t * (mean_k(delta_k + eps_k) + (L/2)*eta_t)

with Gamma = sum_t eta_t and F* anchored at the minimum observed loss.
G and L are sampled maxima, not proven suprema, so the LHS <= RHS check
is warning-grade: the report says whether it held, and callers log
rather than assert.

Everything here is a pure observer: estimators read model parameters and
run extra forward/backward passes on probe data drawn from a dedicated
RNG stream, but never step an optimizer or touch a training RNG, so
enabling diagnostics cannot change a training trajectory bit.
"""

from __future__ import annotations

import csv
import math
import dataclasses

import numpy as np

from . import buffer as buffer_mod
from . import data as data_mod
from . import kernel, models, quantize

PROBE_CAP = 64  # probe-subset size per device for gradient norms
SAMPLE_GRAD_CAP = 8  # per-sample gradients per device per round (for G)

CSV_COLUMNS = (
    "t",
    "eta",
    "grad_norm_sq",
    "eps_mean",
    "delta_mean",
    "loss",
    "gamma",
    "lhs_running",
    "rhs_running",
)


class DiagnosticsError(ValueError):
    """Malformed records, empty estimator input, or a bad report request."""


@dataclasses.dataclass
class DiagnosticsRecord:
    """One round's measurements over a set of devices (record_round: one
    device; round_record: all of them), each device's taken after its SGD
    steps, before aggregation."""

    t: int
    eta: float
    grad_norm_sq: float  # mean over devices of ||grad F_S||^2 on the probe
    eps: dict  # device -> quantization gradient-gap estimate
    delta: dict  # device -> buffer staleness estimate
    loss: float  # mean probe server loss
    gamma: float  # running sum of eta through this round
    max_sample_grad_sq: float  # max per-sample squared gradient norm seen
    server_params: np.ndarray | None  # first device's stack, at L centres only
    probe: tuple | None = None  # first device's (activations, labels), final round only

    @property
    def eps_mean(self):
        return float(np.mean(list(self.eps.values()))) if self.eps else 0.0

    @property
    def delta_mean(self):
        return float(np.mean(list(self.delta.values()))) if self.delta else 0.0


def _is_centre(t, rounds):
    """Whether round ``t`` of a ``rounds``-round run is a trajectory centre
    of the L estimate: every max(1, rounds // 8)-th round from 0, so at
    most nine per run. The one rule for both the snapshots record_round
    keeps and the centres trajectory_smoothness reads."""
    return t % max(1, rounds // 8) == 0


def record_round(state, t, device_id, device_stack, server_stack):
    """Measure one device in round ``t`` of a running training state, as
    it finishes its SGD steps: ``device_stack`` (None when the server stack
    is the whole model) and ``server_stack`` hold its trained weights. The
    state's fields read are batches, dataset, probe_indices, diag_rng,
    buffer, diagnostics_records and config. No training state is mutated;
    the only write is to the frozen-forward memo (see probe_batch).

    This costs two server passes: the probe batch, whose trace also gives G
    through a per-example backward on its first rows, and the decoded probe
    batch inside quantization_error (which reuses the probe gradient for
    the clean side). A lossless pipeline skips the second pass: its eps is
    0. A frozen device side adds no pass after round 0: the probe and the
    staleness batch come from the memo. The first device keeps its server
    parameters only at trajectory centres (_is_centre) and its probe only
    in the final round, for trajectory_smoothness.
    """
    cfg = state.config
    a, y = probe_batch(state, device_id, device_stack)
    trace = kernel.forward(server_stack, a)
    loss, dlogits = kernel.softmax_cross_entropy(trace.output, y)
    g = kernel.grad_vector(kernel.backward(server_stack, trace, dlogits, input_grad=False))
    quantized_pipeline = cfg.mode == "replay" and cfg.quantized
    first = device_id == min(state.batches)
    return DiagnosticsRecord(
        t=t,
        eta=cfg.lr,
        grad_norm_sq=float(g @ g),
        eps={device_id: quantize.quantization_error(a, server_stack, y, g)
             if quantized_pipeline else 0.0},
        delta={device_id: _staleness(state, device_id)},
        loss=loss,
        gamma=sum(r.eta for r in state.diagnostics_records) + cfg.lr,
        max_sample_grad_sq=max(0.0, float(_sample_grad_sqs(server_stack, trace, y).max())),
        server_params=(kernel.param_vector(server_stack)
                       if first and _is_centre(t, cfg.rounds) else None),
        probe=(a, y) if first and t == cfg.rounds - 1 else None,
    )


def round_record(device_records):
    """A round's DiagnosticsRecord from its devices' ones (record_round), in
    device order: the mean probe norm and loss, every device's eps and
    delta, the largest sample gradient, and the first device's snapshot and
    probe."""
    return dataclasses.replace(
        device_records[0],
        grad_norm_sq=float(np.mean([r.grad_norm_sq for r in device_records])),
        eps={k: v for r in device_records for k, v in r.eps.items()},
        delta={k: v for r in device_records for k, v in r.delta.items()},
        loss=float(np.mean([r.loss for r in device_records])),
        max_sample_grad_sq=max(r.max_sample_grad_sq for r in device_records),
    )


def probe_batch(state, device_id, device_stack):
    """One device's fixed probe as the server sees it: (activations, labels).

    Without a device stack (classic) the server sees the probe images. A
    frozen device stack is the shared global stack and never steps, so its
    probe activations come from ``state.frozen_forward`` under the key
    ("probe", device): computed once per stack stamp, read-only, and shared
    with every later round. An unfrozen stack is run afresh.
    """
    probe = state.probe_indices[device_id]
    x = state.dataset.images[probe]
    y = state.dataset.labels[probe]
    if not device_stack:
        return x, y
    if not state.frozen_device:
        return kernel.predict(device_stack, x), y
    return state.frozen_forward(("probe", device_id), x), y


def _sample_grad_sqs(server_layers, trace, labels):
    """Squared norms of the single-sample loss gradients of the first
    n = min(len(labels), SAMPLE_GRAD_CAP) samples, from one per-example
    backward pass on those rows of ``trace`` (a forward of the server stack
    on the batch ``labels`` belong to), each norm summed in float64.

    Row i of the mean loss's per-example gradient times n is sample i's own
    loss gradient; the scaling is exact when n is a power of two.
    """
    n = min(len(labels), SAMPLE_GRAD_CAP)
    trace = kernel.trace_rows(trace, n)
    _, dlogits = kernel.softmax_cross_entropy(trace.output, labels[:n])
    grads = kernel.backward(server_layers, trace, dlogits * n, per_example=True,
                            input_grad=False)
    flat = [
        layer_grads[key].reshape(n, -1)
        for layer_grads in grads.layers
        for key in sorted(layer_grads)
    ]
    # One grad_vector-layout float64 row at a time keeps the peak small.
    sqs = np.empty(n)
    for i in range(n):
        row = np.concatenate([f[i] for f in flat]).astype(np.float64)
        sqs[i] = row @ row
    return sqs


def _staleness(state, device_id):
    """Buffer-vs-fresh activation distance for one device (0 off-replay).

    The fresh side replays the frozen device forward on one cached batch
    with this round's augmentation setting; the batch index and the
    augmentation draws come from the diagnostics RNG so the measurement
    never consumes training RNG state. Without augmentation the forward is
    the memo's (state.frozen_forward).
    """
    if state.buffer is None:
        return 0.0
    batches = state.batches[device_id]
    b = int(state.diag_rng.integers(len(batches)))
    x = state.dataset.images[batches[b]]
    if state.config.augment:
        x = data_mod.augment_hflip(x, state.diag_rng)
    fresh = state.frozen_forward(("batch", device_id, b), x)
    return buffer_mod.buffer_distance_proxy(state.buffer, device_id, b, fresh)


def estimate_G(records):
    """Observed bound on per-sample squared gradient norms (running max)."""
    records = list(records)
    if not records:
        raise DiagnosticsError("estimate_G needs at least one record")
    return max(r.max_sample_grad_sq for r in records)


def estimate_L(grad_fn, centers, rng, pairs_per_center=4, sigma=1e-2):
    """Smoothness estimate: max ||g(w) - g(v)|| / ||w - v|| over Gaussian
    perturbation pairs (w, v) drawn around each trajectory center."""
    centers = [np.asarray(c, dtype=np.float64).reshape(-1) for c in centers]
    if not centers:
        raise DiagnosticsError("estimate_L needs at least one trajectory point")
    if sigma <= 0:
        raise DiagnosticsError("sigma must be positive")
    best = 0.0
    for center in centers:
        for _ in range(pairs_per_center):
            w = center + sigma * rng.standard_normal(center.shape)
            v = center + sigma * rng.standard_normal(center.shape)
            gap = np.linalg.norm(w - v)
            while gap == 0.0:  # zero-denominator guard; measure-zero redraw
                v = center + sigma * rng.standard_normal(center.shape)
                gap = np.linalg.norm(w - v)
            best = max(best, float(np.linalg.norm(grad_fn(w) - grad_fn(v)) / gap))
    return best


def server_grad_fn(server_layers, activations, labels):
    """Closure theta -> flat CE gradient of a server-stack clone at theta,
    on a fixed probe batch. Feeds estimate_L from a training run."""
    stack = models.clone_stack(server_layers)

    def fn(theta):
        kernel.load_param_vector(stack, theta)
        return kernel.grad_vector(
            kernel.loss_grads(stack, activations, labels, input_grad=False)[1])

    return fn


def trajectory_smoothness(state):
    """L estimate for a finished run: perturbation pairs around the logged
    server trajectory, gradients on the first device's final-round
    diagnostics probe. The centres are the snapshots record_round kept, at
    the rounds _is_centre names (at most nine), which caps the probe work
    on long runs."""
    records = state.diagnostics_records
    if not records or records[-1].probe is None:
        raise DiagnosticsError("L needs every configured round run with diagnostics on")
    grad_fn = server_grad_fn(state.global_server or state.global_model, *records[-1].probe)
    centers = [r.server_params for r in records
               if _is_centre(r.t, state.config.rounds)]
    return estimate_L(grad_fn, centers, state.diag_rng)


@dataclasses.dataclass
class BoundReport:
    rounds: int
    gamma: float
    lhs: float
    rhs: float
    f0: float
    f_star: float
    g_hat: float
    l_hat: float
    term_descent: float  # 4*(F0 - F*)/(3*Gamma)
    term_drift: float  # G/Gamma * sum eta_t * mean_k(delta+eps)
    term_step: float  # G/Gamma * sum (L/2) * eta_t^2
    holds: bool
    message: str


def bound_report(records, g_hat, l_hat):
    """Assemble the bound's two sides from logged rounds. Warning-grade:
    the report carries holds/message; callers log, never assert."""
    records = list(records)
    if len(records) < 2:
        raise DiagnosticsError("bound_report needs at least 2 records")
    gamma = sum(r.eta for r in records)
    if gamma <= 0:
        raise DiagnosticsError("Gamma must be positive")
    f0 = records[0].loss
    f_star = min(r.loss for r in records)
    lhs = sum(r.eta * r.grad_norm_sq for r in records) / gamma
    drift = g_hat * sum(r.eta * (r.delta_mean + r.eps_mean) for r in records) / gamma
    step = g_hat * sum((l_hat / 2.0) * r.eta**2 for r in records) / gamma
    descent = 4.0 * (f0 - f_star) / (3.0 * gamma)
    rhs = descent + drift + step
    holds = bool(lhs <= rhs)
    message = (
        "bound holds"
        if holds
        else f"WARNING: LHS {lhs:.6g} exceeds RHS {rhs:.6g}; "
        "G and L are sampled estimates, not suprema"
    )
    return BoundReport(
        rounds=len(records),
        gamma=gamma,
        lhs=lhs,
        rhs=rhs,
        f0=f0,
        f_star=f_star,
        g_hat=g_hat,
        l_hat=l_hat,
        term_descent=descent,
        term_drift=drift,
        term_step=step,
        holds=holds,
        message=message,
    )


def format_report(report):
    lines = [
        f"rounds        {report.rounds}",
        f"Gamma         {report.gamma:.6g}",
        f"G_hat         {report.g_hat:.6g}",
        f"L_hat         {report.l_hat:.6g}",
        f"F0 / F*       {report.f0:.6g} / {report.f_star:.6g}",
        f"LHS           {report.lhs:.6g}",
        f"RHS           {report.rhs:.6g}"
        f"  (descent {report.term_descent:.3g}"
        f" + drift {report.term_drift:.3g}"
        f" + step {report.term_step:.3g})",
        report.message,
    ]
    return "\n".join(lines)


def write_diagnostics_csv(path, records, g_hat, l_hat):
    """One row per round. lhs_running/rhs_running are the bound's two sides
    over the prefix of rounds up to each row, using the full-run G and L
    estimates throughout (so the columns are comparable down the file). They
    are blank on the first row and while Gamma is 0, where the bound is
    undefined."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for i, rec in enumerate(records):
            if i >= 1 and rec.gamma > 0:
                rep = bound_report(records[: i + 1], g_hat, l_hat)
                lhs, rhs = rep.lhs, rep.rhs
            else:
                lhs, rhs = "", ""
            writer.writerow(
                [
                    rec.t,
                    repr(rec.eta),
                    repr(rec.grad_norm_sq),
                    repr(rec.eps_mean),
                    repr(rec.delta_mean),
                    repr(rec.loss),
                    repr(rec.gamma),
                    repr(lhs) if lhs != "" else "",
                    repr(rhs) if rhs != "" else "",
                ]
            )


def read_diagnostics_csv(path):
    """Rows of the diagnostics CSV as dicts of finite floats and an int ``t``;
    the running-bound cells are blank (None) where the bound is undefined."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or set(CSV_COLUMNS) - set(reader.fieldnames):
                raise DiagnosticsError(f"{path} is not a diagnostics log")
            rows = []
            for i, raw in enumerate(reader, start=1):
                row = {}
                for key in CSV_COLUMNS:
                    value = raw[key]
                    if value == "" and key in ("lhs_running", "rhs_running"):
                        row[key] = None
                        continue
                    try:
                        row[key] = float(value)
                    except (TypeError, ValueError):  # a missing cell is None
                        row[key] = math.nan
                    if not math.isfinite(row[key]) or (key == "t" and not row[key].is_integer()):
                        what = "an integer" if key == "t" else "a finite number"
                        raise DiagnosticsError(
                            f"{path} row {i} column {key}: {value!r} is not {what}")
                row["t"] = int(row["t"])
                rows.append(row)
    except UnicodeDecodeError as exc:
        raise DiagnosticsError(f"{path} is not UTF-8 text: {exc}") from exc
    if not rows:
        raise DiagnosticsError(f"{path} holds no rounds")
    return rows
