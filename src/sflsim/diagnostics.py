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
One left-to-right pass of running sums gives the report for every prefix
of rounds (bound_reports), so the per-round log is linear in rounds.
G and L are sampled maxima, not proven suprema, so the LHS <= RHS check
is warning-grade: the report says whether it held, and callers log
rather than assert.

Everything here is a pure observer: estimators read the training state's
stacks (its device side through state.device_output, and state.server_side)
and run extra forward/backward passes on probe data drawn from a dedicated
RNG stream, but never step an optimizer or touch a training RNG, so
enabling diagnostics cannot change a training trajectory bit. No pass runs
for G alone, and every norm is a numpy sum (kernel.sq_norm), so the logs do
not depend on the BLAS thread count.
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
    max_sample_grad_sq: float  # max per-sample squared gradient norm seen
    server_params: np.ndarray | None  # first device's stack in its own dtype, at L centres only
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
    most nine per run. record_round keeps a snapshot at these rounds only,
    and trajectory_smoothness takes every snapshot kept."""
    return t % max(1, rounds // 8) == 0


def record_round(state, t, device_id, draw):
    """Measure one device in round ``t`` of a running training state, as
    it finishes its SGD steps: the state's global stacks (its device side
    and ``server_side``) hold that device's trained weights. ``draw`` is
    the device's entry of this round's staleness_draws, None off replay.
    The state's fields read are dataset, probe_indices, buffer and config;
    diag_rng is not, so each device can be measured in the process that
    trained it. No training state is mutated; the only write is to the
    device-output memo (see probe_batch).

    This costs two server passes: the probe batch, whose backward also gives
    G (probe_gradients), and the decoded probe batch inside
    quantization_error (which reuses the probe gradient for the clean side).
    A lossless pipeline skips the second pass: its eps is 0. A frozen device
    side adds no pass after round 0: the probe and the staleness batch come
    from the memo. The first device keeps its server parameters, in their
    own dtype, only at trajectory centres (_is_centre) and its probe only in
    the final round, for trajectory_smoothness.
    """
    cfg, server_stack = state.config, state.server_side
    a, y = probe_batch(state, device_id)
    loss, g, sample_sqs = probe_gradients(server_stack, a, y)
    quantized_pipeline = cfg.mode == "replay" and cfg.quantized
    first = device_id == min(state.batches)
    return DiagnosticsRecord(
        t=t,
        eta=cfg.lr,
        grad_norm_sq=kernel.sq_norm(g),
        eps={device_id: quantize.quantization_error(a, server_stack, y, g)
             if quantized_pipeline else 0.0},
        delta={device_id: _staleness(state, device_id, draw)},
        loss=loss,
        max_sample_grad_sq=float(sample_sqs.max()),
        server_params=(kernel.param_vector(server_stack, dtype=None)
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
        max_sample_grad_sq=float(np.max([r.max_sample_grad_sq for r in device_records])),
    )


def probe_batch(state, device_id):
    """One device's fixed probe as the server sees it: (activations, labels),
    from ``state.device_output`` under the key ("probe", device). A frozen
    device stack is read-only, so its probe activations are computed once,
    kept read-only, and shared with every later round.
    """
    probe = state.probe_indices[device_id]
    x = state.dataset.images[probe]
    return state.device_output(("probe", device_id), x), state.dataset.labels[probe]


def probe_gradients(server_layers, a, y):
    """(loss, flat gradient, sample norms) of a server stack on a probe
    batch, from one kernel.loss_grads call. The backward's hook sums in
    float64 the squares of the first n = min(len(y), SAMPLE_GRAD_CAP)
    samples' gradients (Layer.sample_grads on the first n rows) and scales
    them by N**2, N = len(y): a row of the mean loss's gradient is 1/N of
    its sample's own."""
    n = min(len(y), SAMPLE_GRAD_CAP)
    sqs = np.zeros(n)

    def visit(layer, cache, dy):
        for rows in layer.sample_grads(cache[:n], dy[:n]).values():
            sqs[:] += np.sum(np.square(rows.reshape(n, -1), dtype=np.float64), axis=1)

    loss, grads = kernel.loss_grads(server_layers, a, y, input_grad=False, visit=visit)
    return loss, kernel.grad_vector(grads), sqs * len(y) ** 2


def staleness_draws(state):
    """A round's staleness batches: {device: (batch index, flip mask or
    None)}, drawn from diag_rng in device order, so the measurement never
    consumes training RNG state. Each device's batch index comes first,
    then, with augmentation, its flips. Nothing training does feeds these
    draws, so the runtime makes them all before the round's devices train.
    {} off replay or with diagnostics off."""
    if state.buffer is None or not state.config.diagnostics:
        return {}
    draws = {}
    for k in sorted(state.batches):
        batches = state.batches[k]
        b = int(state.diag_rng.integers(len(batches)))
        augment = state.config.augment
        draws[k] = (b, data_mod.flip_mask(len(batches[b]), state.diag_rng) if augment else None)
    return draws


def _staleness(state, device_id, draw):
    """Buffer-vs-fresh activation distance for one device (0 off-replay).

    The fresh side replays the frozen device forward on the cached batch
    that ``draw`` names (staleness_draws), flipped as its mask says.
    Without augmentation the forward is the memo's (state.device_output).
    """
    if state.buffer is None:
        return 0.0
    b, flip = draw
    x = state.dataset.images[state.batches[device_id][b]]
    if flip is not None:
        x = data_mod.hflip(x, flip)
    fresh = state.device_output(("batch", device_id, b), x)
    return buffer_mod.buffer_distance_proxy(state.buffer, device_id, b, fresh)


def estimate_G(records):
    """Observed bound on per-sample squared gradient norms (running max);
    NaN if any record's is NaN."""
    records = list(records)
    if not records:
        raise DiagnosticsError("estimate_G needs at least one record")
    return float(np.max([r.max_sample_grad_sq for r in records]))


def estimate_L(grad_fn, centers, rng, pairs_per_center=4, sigma=1e-2):
    """Smoothness estimate: max ||g(w) - g(v)|| / ||w - v|| over Gaussian
    perturbation pairs (w, v) drawn once each around each trajectory
    center; NaN if any pair's ratio is NaN, or if a pair's perturbation
    rounds away (w == v)."""
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
            gap = math.sqrt(kernel.sq_norm(w - v))
            ratio = math.sqrt(kernel.sq_norm(grad_fn(w) - grad_fn(v))) / gap if gap else math.nan
            best = float(np.maximum(best, ratio))
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
    diagnostics probe. The centres are every snapshot record_round kept,
    at the rounds _is_centre names (at most nine), which caps the probe
    work on long runs."""
    records = state.diagnostics_records
    if not records or records[-1].probe is None:
        raise DiagnosticsError("L needs every configured round run with diagnostics on")
    grad_fn = server_grad_fn(state.server_side, *records[-1].probe)
    centers = [r.server_params for r in records if r.server_params is not None]
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


def bound_reports(records, g_hat, l_hat):
    """Each prefix's (Gamma, BoundReport), in one left-to-right pass: the
    i-th pair is Gamma = sum of eta over records[:i + 1] and the bound over
    that prefix, or None where it is undefined (the first record, and while
    Gamma <= 0). This is the one place eta is summed. Gamma and the three
    weighted sums start from 0.0 (so Gamma is a float even where every eta
    is an int) and add in record order, as sum() over the prefix would,
    and F* is a running min, so each value is the per-prefix formula's to
    the bit. Warning-grade: a report carries holds/message; callers log,
    never assert."""
    gamma = weighted_sq = drift_sum = step_sum = 0.0
    for i, r in enumerate(records):
        if i == 0:
            f0 = f_star = r.loss
        f_star = min(f_star, r.loss)
        gamma += r.eta
        weighted_sq += r.eta * r.grad_norm_sq
        drift_sum += r.eta * (r.delta_mean + r.eps_mean)
        step_sum += (l_hat / 2.0) * r.eta**2
        if i == 0 or gamma <= 0:
            yield gamma, None
            continue
        lhs = weighted_sq / gamma
        drift = g_hat * drift_sum / gamma
        step = g_hat * step_sum / gamma
        descent = 4.0 * (f0 - f_star) / (3.0 * gamma)
        rhs = descent + drift + step
        holds = bool(lhs <= rhs)
        message = (
            "bound holds"
            if holds
            else f"WARNING: LHS {lhs:.6g} exceeds RHS {rhs:.6g}; "
            "G and L are sampled estimates, not suprema"
        )
        yield gamma, BoundReport(rounds=i + 1, gamma=gamma, lhs=lhs, rhs=rhs, f0=f0,
                                 f_star=f_star, g_hat=g_hat, l_hat=l_hat, term_descent=descent,
                                 term_drift=drift, term_step=step, holds=holds, message=message)


def bound_report(records, g_hat, l_hat):
    """The bound over all of ``records``: the last value of bound_reports.
    Needs at least 2 records and a positive Gamma."""
    records = list(records)
    if len(records) < 2:
        raise DiagnosticsError("bound_report needs at least 2 records")
    *_, (_, report) = bound_reports(records, g_hat, l_hat)
    if report is None:
        raise DiagnosticsError("Gamma must be positive")
    return report


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
    """One row per round, written in one pass over ``records`` (a list).
    gamma, lhs_running and rhs_running come from the bound pass
    (bound_reports): the running Gamma, and the bound's two sides over the
    prefix of rounds up to each row, using the full-run G and L estimates
    throughout (so the columns are comparable down the file). The two
    sides are blank on the first row and while the running Gamma is <= 0,
    where the bound is undefined."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec, (gamma, rep) in zip(records, bound_reports(records, g_hat, l_hat)):
            writer.writerow([
                rec.t, repr(rec.eta), repr(rec.grad_norm_sq), repr(rec.eps_mean),
                repr(rec.delta_mean), repr(rec.loss), repr(gamma),
                *(("", "") if rep is None else (repr(rep.lhs), repr(rep.rhs))),
            ])


def read_diagnostics_csv(path):
    """Rows of the diagnostics CSV as dicts of finite floats and an int ``t``,
    as write_diagnostics_csv leaves them: a header of the nine CSV_COLUMNS,
    each once, in any order; no row longer than the header; row i (from 1)
    has t = i - 1; eta is >= 0 (``run`` takes no negative lr); gamma is the
    running sum of eta (to a relative 1e-9, so hand-typed sums read); and
    the running-bound cells are blank (None) exactly where the bound is
    undefined, on row 1 and while that running sum is <= 0, and filled
    elsewhere."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or sorted(reader.fieldnames) != sorted(CSV_COLUMNS):
                raise DiagnosticsError(f"{path} is not a diagnostics log")
            rows, gamma = [], 0.0
            for i, raw in enumerate(reader, start=1):
                if None in raw:  # DictReader files the cells past the header here
                    raise DiagnosticsError(
                        f"{path} row {i} column {len(reader.fieldnames) + 1}: "
                        f"{raw[None][0]!r} lies past the header's last column")
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
                    if (not math.isfinite(row[key]) or (key == "t" and row[key] != i - 1)
                            or (key == "eta" and row[key] < 0)):
                        what = {"t": f"the row's round {i - 1}",
                                "eta": "a finite number >= 0"}.get(key, "a finite number")
                        raise DiagnosticsError(
                            f"{path} row {i} column {key}: {value!r} is not {what}")
                    if key == "eta":
                        gamma += row[key]
                    elif key == "gamma" and not math.isclose(row[key], gamma, rel_tol=1e-9):
                        raise DiagnosticsError(
                            f"{path} row {i} column gamma: {value!r} is not the running "
                            f"sum of eta, {gamma!r}")
                undefined = i == 1 or gamma <= 0  # where run leaves both cells blank
                for key in ("lhs_running", "rhs_running"):
                    if (row[key] is None) != undefined:
                        state = (f"{raw[key]!r} where the bound is undefined" if undefined
                                 else "blank where the bound is defined")
                        raise DiagnosticsError(
                            f"{path} row {i} column {key}: {state} (running Gamma {gamma!r})")
                row["t"] = int(row["t"])
                rows.append(row)
    except UnicodeDecodeError as exc:
        raise DiagnosticsError(f"{path} is not UTF-8 text: {exc}") from exc
    if not rows:
        raise DiagnosticsError(f"{path} holds no rounds")
    return rows
