"""Federated training runtime: four protocol modes over one engine.

Modes
    classic     every device trains the full model locally for one pass
                over its shard, then the server averages full models.
    split       the model is cut at the partition point; per batch the
                device uploads the activation (full precision) plus labels,
                the server trains its stack and sends the cut gradient
                back, and the device updates its stack. Device and server
                stacks are both averaged at the end of the round.
    local_loss  like split, but the device trains its stack with a local
                auxiliary-head loss instead of server gradients; no
                gradient ever travels downlink.
    replay      the device stack is pretrained and frozen. On rounds with
                t mod rho = 0 each device uploads 8-bit-quantized
                activation records which the server caches as wire bytes;
                every round the server trains from its cache, and on the
                other rounds the uplink is silent. Only server stacks are
                averaged.

One pass over each device's shard per round; the batch partition and batch
order are fixed across rounds so cached records keep stable keys. Devices
run one after another in device-id order, each training the global stacks
in place from the round's start vector, so no device sees another's update
and runs are bit-deterministic under a fixed seed. Every transfer is
recorded in a TrafficLedger whose totals match the cost model to the byte.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import buffer as buffer_mod
from . import data as data_mod
from . import diagnostics as diag_mod
from . import kernel, models, netsim, quantize

METRICS_COLUMNS = (
    "round",
    "device",
    "mode",
    "server_loss",
    "test_acc",
    "bytes_up",
    "bytes_down",
    "epsilon_hat",
    "delta_hat",
    "sim_latency_s",
)


class TrainingError(RuntimeError):
    """A round failed; the message carries the round context."""


@dataclass
class RoundResult:
    t: int
    server_loss: dict  # device -> mean training loss of the learning half
    test_acc: float
    traffic: dict  # device -> (bytes up, bytes down)
    latency_s: float
    diagnostics: object  # DiagnosticsRecord or None


@dataclass
class TrainState:
    """Everything a round needs; built once by init_state."""

    config: object
    spec: models.ModelSpec
    op_index: int
    dataset: data_mod.Dataset
    shards: dict  # device -> index array into dataset
    batches: dict  # device -> list of index arrays, fixed across rounds
    frozen_device: bool  # the one freeze rule: the device stack never trains
    global_model: list | None  # classic: the averaged full model
    global_device: list | None  # split family: averaged device stack
    global_server: list | None
    global_head: list | None  # local_loss auxiliary head
    buffer: object  # ReplayBuffer or None
    ledger: netsim.TrafficLedger
    device_rngs: dict  # device -> Generator (augmentation draws)
    diag_rng: object  # Generator for the observer stream
    probe_indices: dict  # device -> fixed probe subset (diagnostics)
    diagnostics_records: list = field(default_factory=list)
    frozen_outputs: dict = field(default_factory=dict)  # frozen_forward's memo

    def frozen_forward(self, key, x):
        """The frozen device stack's output on ``x``; every forward of a
        frozen device stack goes through here. ``key`` names the input:
        ("probe", device), ("batch", device, batch index) or ("test", first
        row). An output is computed once per stack stamp and kept read-only
        under its key, except a training batch that augmentation redraws or
        that a ``spill_dir`` run keeps off the heap."""
        if not self.frozen_device:
            raise TrainingError("frozen_forward needs a frozen device stack")
        stack = self.global_device
        if key[0] == "batch" and (self.config.augment or self.config.spill_dir is not None):
            return kernel.predict(stack, x)
        stamp = kernel.stamp(stack)
        memo = self.frozen_outputs.get(key)
        if memo is None or memo[0] != stamp:
            out = kernel.predict(stack, x)
            out.setflags(write=False)
            memo = self.frozen_outputs[key] = (stamp, out)
        return memo[1]


@dataclass
class RunOutput:
    final_model: list
    results: list  # RoundResult per round
    rows: list  # metrics dicts, one per (round, device)
    state: TrainState


def fedavg(vectors, sample_counts):
    """Sample-count-weighted mean of kernel.param_vector snapshots, one per
    device; returns one float64 vector.

    Computed as W_0 + sum_k lambda_k * (W_k - W_0), summed in device order:
    identical inputs give bit-identical output for any counts, and
    power-of-two rescaling of the inputs rescales the output exactly.
    """
    vectors = [np.asarray(v, dtype=np.float64) for v in vectors]
    sample_counts = [int(c) for c in sample_counts]
    if not vectors:
        raise TrainingError("fedavg needs at least one parameter vector")
    if len(vectors) != len(sample_counts):
        raise TrainingError("one sample count per parameter vector required")
    if any(c < 0 for c in sample_counts):
        raise TrainingError("sample counts cannot be negative")
    n = sum(sample_counts)
    if n <= 0:
        raise TrainingError("total sample count must be positive")
    base = vectors[0]
    if any(v.shape != base.shape for v in vectors):
        raise TrainingError("parameter vectors have different sizes")
    acc = np.zeros(base.shape)
    for c, v in zip(sample_counts, vectors):
        acc += (c / n) * (v - base)
    return base + acc


def evaluate(layers, dataset, split="test", batch_size=256, front=None):
    """Argmax accuracy of one layer stack on a dataset split; full
    precision, no quantization. ``front(start, x)``, if given, maps the
    chunk of images from row ``start`` on to the stack's input: the
    runtime passes the frozen device side, so ``layers`` is the server
    half."""
    images, labels = dataset.subset(split)
    if len(labels) == 0:
        raise TrainingError(f"split {split!r} is empty")
    hits = 0
    for start in range(0, len(labels), batch_size):
        x = images[start : start + batch_size]
        y = labels[start : start + batch_size]
        if front is not None:
            x = front(start, x)
        logits = kernel.predict(layers, x)
        hits += int(np.sum(np.argmax(logits, axis=1) == y))
    return hits / len(labels)


def _test_accuracy(state):
    """This round's test accuracy of the global model; a frozen device
    half runs each test chunk once, through the memo."""
    if not state.frozen_device:
        return evaluate(_full_model(state), state.dataset)
    front = lambda start, x: state.frozen_forward(("test", start), x)
    return evaluate(state.global_server, state.dataset, front=front)


def _full_model(state):
    """The global model as one stack: classic's full model, or the device
    and server halves joined."""
    if state.config.mode == "classic":
        return state.global_model
    return models.concat_weights(state.global_device, state.global_server)


def _batch_input(state, device, batch):
    """Fetch one training batch, applying this device's augmentation draw."""
    x = state.dataset.images[batch]
    y = state.dataset.labels[batch]
    if state.config.augment:
        x = data_mod.augment_hflip(x, state.device_rngs[device])
    return x, y


def _server_step(server_stack, activation, labels, lr, input_grad=False):
    """Forward/loss/backward/SGD on a server stack; the one code path every
    mode shares, so equal inputs give bit-equal weights. Returns the loss
    and, with ``input_grad``, the gradient at the stack's input (else None)."""
    loss, grads = kernel.loss_grads(server_stack, activation, labels, input_grad)
    kernel.sgd_step(server_stack, grads, lr)
    return loss, grads.input_grad


def init_state(config):
    """Build dataset, shards, model halves, RNG streams, and the ledger.

    RNG streams are spawned from the master seed in a fixed order — data,
    model init, pretraining, one per device, diagnostics — so adding or
    removing the observer never shifts a training stream. The per-device
    streams are spawned only once sharding has accepted the device count.
    """
    ss = np.random.SeedSequence(config.seed)
    children = ss.spawn(3)
    data_words = children[0].generate_state(2)
    dataset = _load_dataset(config, int(data_words[0]))
    model_words = children[1].generate_state(2)
    spec = models.ZOO[config.model]()
    model = models.build_model(spec, seed=int(model_words[0]))
    op_index = config.op_index if config.op_index is not None else model.default_split
    if tuple(dataset.images.shape[1:]) != tuple(spec.input_shape):
        raise TrainingError(
            f"dataset images {dataset.images.shape[1:]} do not match "
            f"model input {spec.input_shape}"
        )

    train_idx = dataset.splits["train"]
    shard_list = data_mod.shard_uniform(train_idx, config.devices, seed=int(data_words[1]))
    shards = {k: shard_list[k] for k in range(config.devices)}
    batches = {
        k: [shard[i : i + config.batch_size] for i in range(0, len(shard), config.batch_size)]
        for k, shard in shards.items()
    }
    if any(len(b) == 0 for b in batches.values()):
        raise TrainingError("every device needs at least one batch")

    global_model = global_device = global_server = global_head = None
    if config.mode == "classic":
        global_model = model.layers
    else:
        global_device, global_server = models.partition(model, op_index)
        if config.pretrain_epochs > 0:
            global_device = models.pretrain_device_side(
                model,
                dataset,
                epochs=config.pretrain_epochs,
                lr=config.lr,
                batch_size=config.batch_size,
                seed=int(children[2].generate_state(1)[0]),
                op_index=op_index,
            )
        if config.mode == "local_loss":
            global_head = models.auxiliary_head(spec, seed=int(model_words[1]), op_index=op_index)

    *device_seeds, diag_seed = ss.spawn(config.devices + 1)
    device_rngs = {k: np.random.default_rng(seed) for k, seed in enumerate(device_seeds)}
    diag_rng = np.random.default_rng(diag_seed)
    probe_indices = {}
    if config.diagnostics:
        for k, shard in shards.items():
            size = min(len(shard), diag_mod.PROBE_CAP)
            probe_indices[k] = np.sort(diag_rng.choice(shard, size=size, replace=False))

    replay_buffer = None
    if config.mode == "replay":
        replay_buffer = buffer_mod.ReplayBuffer(config.rho, spill_dir=config.spill_dir)

    return TrainState(
        config=config,
        spec=spec,
        op_index=op_index,
        dataset=dataset,
        shards=shards,
        batches=batches,
        frozen_device=config.mode == "replay" or config.freeze_device,
        global_model=global_model,
        global_device=global_device,
        global_server=global_server,
        global_head=global_head,
        buffer=replay_buffer,
        ledger=netsim.TrafficLedger(),
        device_rngs=device_rngs,
        diag_rng=diag_rng,
        probe_indices=probe_indices,
    )


def _load_dataset(config, seed):
    src = dict(config.dataset)
    kind = src.pop("kind")
    if kind == "blobs":
        return data_mod.generate_blobs(**src, seed=seed)
    dataset = data_mod.load_idx(src["images"], src["labels"])
    dataset.splits.update(data_mod.make_splits(len(dataset.labels), seed))
    return dataset


def _finish_round(state, t, losses, diag_record):
    cfg = state.config
    traffic = state.ledger.per_device_traffic(t, range(cfg.devices))
    method = cfg.mode
    if method == "replay":
        method = "replay_tx" if buffer_mod.switch_is_on(t, cfg.rho) else "replay_buffer"
    compute = netsim.computation_units(
        method, state.spec, state.op_index,
        samples_per_device=max(len(s) for s in state.shards.values()),
    )
    latency = netsim.round_latency(
        traffic,
        compute,
        netsim.PROFILES[cfg.profile],
        cfg.device_speed,
        cfg.server_speed,
    )
    return RoundResult(
        t=t,
        server_loss=losses,
        test_acc=_test_accuracy(state),
        traffic=traffic,
        latency_s=latency.round_latency_s,
        diagnostics=diag_record,
    )


def _stack_roles(state):
    """(global stacks each device trains from the round's start vector and
    FedAvg averages, stacks whose weights cross the link); never a frozen one."""
    if state.config.mode == "classic":
        return ("model",), ("model",)
    if state.frozen_device:
        return ("server",), ()
    if state.config.mode == "local_loss":
        return ("device", "head", "server"), ("device", "head")
    return ("device", "server"), ("device",)


def _classic_step(state, t, k, b, batch):
    """Full local training: the server step on the whole model."""
    x, y = _batch_input(state, k, batch)
    loss, _ = _server_step(state.global_model, x, y, state.config.lr)
    return loss, len(y)


def _serve_upload(state, t, k, b, batch, input_grad=False):
    """Device forward, activation and labels up, server step on them;
    returns (device trace, activation, labels, server loss, cut gradient).
    A frozen device stack never backpropagates, so its forward keeps no
    trace and the trace is None. The cut gradient is None unless
    ``input_grad`` asks for it."""
    x, y = _batch_input(state, k, batch)
    dtrace = None if state.frozen_device else kernel.forward(state.global_device, x)
    a = state.frozen_forward(("batch", k, b), x) if dtrace is None else dtrace.output
    state.ledger.record(t, k, "activation", netsim.FLOAT_BYTES * a.size)
    state.ledger.record(t, k, "labels", netsim.LABEL_BYTES * len(y))
    loss, cut_grad = _server_step(state.global_server, a, y, state.config.lr, input_grad)
    return dtrace, a, y, loss, cut_grad


def _split_step(state, t, k, b, batch):
    """Activation up, gradient down; a frozen device stack skips its update."""
    trains = not state.frozen_device
    dtrace, a, y, loss, cut_grad = _serve_upload(state, t, k, b, batch, input_grad=trains)
    state.ledger.record(t, k, "gradient", netsim.FLOAT_BYTES * a.size)
    if trains:
        dev = state.global_device
        grads = kernel.backward(dev, dtrace, cut_grad, input_grad=False)
        kernel.sgd_step(dev, grads, state.config.lr)
    return loss, len(y)


def _local_loss_step(state, t, k, b, batch):
    """The device trains through its auxiliary head, never from the
    server: no gradient travels downlink."""
    dtrace, a, y, loss, _ = _serve_upload(state, t, k, b, batch)
    dev, head, lr = state.global_device, state.global_head, state.config.lr
    # Local update is decoupled: it never alters the activation the
    # server just consumed, and its gradient stays on the device.
    _, hgrads = kernel.loss_grads(head, a, y)
    dgrads = kernel.backward(dev, dtrace, hgrads.input_grad, input_grad=False)
    kernel.sgd_step(head, hgrads, lr)
    kernel.sgd_step(dev, dgrads, lr)
    return loss, len(y)


def _replay_step(state, t, k, b, batch):
    """Quantized activations up into the server's cache on transmission
    rounds; in every round the server trains on the cached record. The
    frozen device stack never receives a gradient."""
    cfg = state.config
    if buffer_mod.switch_is_on(t, cfg.rho):
        x, y = _batch_input(state, k, batch)
        a = state.frozen_forward(("batch", k, b), x)
        record = quantize.encode(
            a, round_tag=t, device_id=k, batch_index=b, labels=y, quantized=cfg.quantized,
        )
        state.ledger.record(t, k, "activation", state.buffer.store(record))
    record = state.buffer.fetch(k, b)
    loss, _ = _server_step(state.global_server, quantize.decode(record), record.labels, cfg.lr)
    return loss, len(record.labels)


_STEPS = {
    "classic": _classic_step,
    "split": _split_step,
    "local_loss": _local_loss_step,
    "replay": _replay_step,
}


def _check_finite(state, t, losses):
    """A diverged round fails loudly instead of logging NaN metrics."""
    stacks = (state.global_model, state.global_device, state.global_head, state.global_server)
    values = [np.array(list(losses.values()))] + [kernel.param_vector(s) for s in stacks if s]
    if not all(np.isfinite(v).all() for v in values):
        raise TrainingError(f"round {t} ({state.config.mode}): non-finite training loss or weights")


def run_round(state, t):
    """One round of any mode: each device trains the global stacks in place
    from the round's start vector, one mode step per batch, and the observer
    measures it as it finishes; then FedAvg."""
    trained, synced = _stack_roles(state)
    step = _STEPS[state.config.mode]
    stacks = {s: getattr(state, f"global_{s}") for s in trained}
    starts = {s: kernel.param_vector(stack) for s, stack in stacks.items()}
    sync_bytes = netsim.FLOAT_BYTES * sum(
        layer.param_count() for s in synced for layer in stacks[s])
    losses, vectors, counts, measured = {}, {s: [] for s in trained}, [], []
    for k in sorted(state.batches):
        if synced:
            state.ledger.record(t, k, "model_down", sync_bytes)
        for s, stack in stacks.items():
            kernel.load_param_vector(stack, starts[s])
        total = 0.0
        for b, batch in enumerate(state.batches[k]):
            loss, n = step(state, t, k, b, batch)
            total += loss * n
        if synced:
            state.ledger.record(t, k, "model_up", sync_bytes)
        losses[k] = total / len(state.shards[k])
        for s, stack in stacks.items():
            vectors[s].append(kernel.param_vector(stack))
        counts.append(len(state.shards[k]))
        if state.config.diagnostics:
            measured.append(diag_mod.record_round(
                state, t, k, state.global_device, state.global_server or state.global_model))
    diag_record = diag_mod.round_record(measured) if measured else None
    if diag_record is not None:
        state.diagnostics_records.append(diag_record)
    for s, stack in stacks.items():
        kernel.load_param_vector(stack, fedavg(vectors[s], counts))
    _check_finite(state, t, losses)
    return _finish_round(state, t, losses, diag_record)


# The benchmark harness resolves the round function by mode name.
run_round_classic = run_round_split = run_round_local_loss = run_round_replay = run_round


def run_training(config):
    """Execute T rounds of the configured mode; returns the final model,
    per-round results, and metrics rows. Deterministic under fixed seeds."""
    state = init_state(config)
    results, rows = [], []
    for t in range(config.rounds):
        try:
            result = run_round(state, t)
        except (kernel.KernelError, quantize.QuantizeError, buffer_mod.BufferError,
                buffer_mod.BufferMiss, netsim.NetsimError, data_mod.DataError) as exc:
            raise TrainingError(f"round {t} ({config.mode}): {exc}") from exc
        results.append(result)
        rows.extend(_metrics_rows(config, result))
    return RunOutput(final_model=_full_model(state), results=results, rows=rows, state=state)


def _metrics_rows(config, result):
    rows = []
    for k in sorted(result.server_loss):
        up, down = result.traffic[k]
        diag = result.diagnostics
        rows.append(
            {
                "round": result.t,
                "device": k,
                "mode": config.mode,
                "server_loss": result.server_loss[k],
                "test_acc": result.test_acc,
                "bytes_up": up,
                "bytes_down": down,
                "epsilon_hat": diag.eps[k] if diag is not None else "",
                "delta_hat": diag.delta[k] if diag is not None else "",
                "sim_latency_s": result.latency_s,
            }
        )
    return rows


def write_metrics_csv(path, rows):
    """Metrics log: one row per (round, device); fixed column set."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=METRICS_COLUMNS)
        writer.writeheader()
        for row in rows:
            out = dict(row)
            for key in ("server_loss", "test_acc", "sim_latency_s",
                        "epsilon_hat", "delta_hat"):
                if out[key] != "":
                    out[key] = repr(float(out[key]))
            writer.writerow(out)


def read_metrics_csv(path):
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or set(METRICS_COLUMNS) - set(reader.fieldnames):
                raise TrainingError(f"{path} is not a metrics log")
            return list(reader)
    except UnicodeDecodeError as exc:
        raise TrainingError(f"{path} is not UTF-8 text: {exc}") from exc
