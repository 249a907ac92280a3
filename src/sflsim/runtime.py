"""Federated training runtime: four protocol modes over one engine.

Modes
    classic     every device trains the full model locally for one pass
                over its shard, then the server averages full models.
    split       the model is cut at the partition point; per batch the
                device uploads the activation (full precision) plus labels,
                the server trains its stack and sends the cut gradient
                back, and the device updates its stack. Device and server
                stacks are both averaged at the end of the round. With
                freeze_device the device stack never trains: no gradient
                travels downlink and only server stacks are averaged.
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
order are fixed across rounds so cached records keep stable keys. Each
device trains the global stacks in place from the round's start vector, so
no device sees another's update. The devices are cut into contiguous groups
in device order, one per usable CPU (parallel_slots): the calling process
trains the first group, and a forked worker process trains each other one
on its own copy of the state, which no edit to the set-up can make drift:
init_state makes what no round changes read-only, and the stacks tuples.
Each process also runs the observer on the devices it trains, as each
finishes, with staleness draws the caller made from diag_rng in device
order before training began. The trained layers' parameters are views of
one float32 block per process (kernel.pack_params): a device restores them
from the start row, and copies them to its row of a float64 block that
every process shares, in one array op each, giving (device, mean loss,
diagnostics record); a worker replies once per round with its devices'
tuples and what its group left in the state (the round's ledger rows of its
devices as one int64 array, stored replay records, frozen-output memo
entries and, with augmentation, RNG states), which the caller merges in
device order before one FedAvg over the rows. So every round leaves the
state bit for bit as training the devices one after another would, and runs
are bit-deterministic under a fixed seed. What the device side hands the
server, in every mode, is TrainState.device_output; the stack the server
trains is TrainState.server_side. Every transfer is recorded in a
TrafficLedger whose totals match the cost model to the byte.
"""

from __future__ import annotations

import contextlib
import csv
import mmap
import os
import pickle
import weakref
from dataclasses import dataclass, field
from types import MappingProxyType

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
EVAL_BATCH = 256  # rows per evaluation chunk
_STACKS = ("global_model", "global_device", "global_head", "global_server")  # in training order


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


@dataclass(frozen=True)
class TrainState:
    """Everything a round needs; built once, and made partly read-only, by
    init_state, which holds each stack as a tuple and last packs the trained
    layers' parameters into ``weights``."""

    config: object
    spec: models.ModelSpec
    op_index: int
    dataset: data_mod.Dataset
    shards: MappingProxyType  # device -> index array into dataset
    batches: MappingProxyType  # device -> tuple of index arrays, fixed across rounds
    frozen_device: bool  # the one freeze rule: the device stack never trains
    global_model: tuple | None  # classic: the averaged full model
    global_device: tuple | None  # split family: averaged device stack
    global_server: tuple | None
    global_head: tuple | None  # local_loss auxiliary head
    buffer: object  # ReplayBuffer or None
    ledger: netsim.TrafficLedger
    device_rngs: MappingProxyType  # device -> Generator (augmentation draws)
    diag_rng: object  # Generator for the observer stream
    probe_indices: MappingProxyType  # device -> fixed probe subset (diagnostics)
    weights: np.ndarray  # kernel.pack_params of _trained_stacks' layers
    diagnostics_records: list = field(default_factory=list)
    frozen_outputs: dict = field(default_factory=dict)  # device_output's memo

    @property
    def server_side(self):
        """The stack the server trains: the server half, or classic's whole
        model."""
        return self.global_server or self.global_model

    def device_output(self, key, x):
        """What the device side hands the server for input ``x``; every
        device-side forward that keeps no trace goes through here. Without a
        device stack (classic) that is ``x``; an unfrozen stack is run
        afresh. ``key`` names the input: ("probe", device), ("batch",
        device, batch index) or ("test", first row). A frozen stack's output
        is computed once, as the stack is read-only, and kept read-only under
        its key, except a training batch that augmentation redraws."""
        stack = self.global_device
        if not stack:
            return x
        redrawn = key[0] == "batch" and self.config.augment
        if not self.frozen_device or redrawn:
            return kernel.predict(stack, x)
        memo = self.frozen_outputs
        if key not in memo:
            memo[key] = kernel.predict(stack, x)
            memo[key].setflags(write=False)
        return memo[key]


@dataclass
class RunOutput:
    final_model: tuple
    results: list  # RoundResult per round
    rows: list  # metrics dicts, one per (round, device)
    state: TrainState


def fedavg(vectors, sample_counts):
    """Sample-count-weighted mean of parameter vectors, one per device (a
    round's rows); returns one float64 vector.

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


def evaluate(layers, dataset, split="test", front=None):
    """Argmax accuracy of one layer stack on a dataset split; full
    precision, no quantization. ``front(start, x)``, if given, maps the
    chunk of images from row ``start`` on to the stack's input: the
    runtime passes the device side, so ``layers`` is the server side."""
    images, labels = dataset.subset(split)
    if len(labels) == 0:
        raise TrainingError(f"split {split!r} is empty")
    hits = 0
    for start in range(0, len(labels), EVAL_BATCH):
        x = images[start : start + EVAL_BATCH]
        y = labels[start : start + EVAL_BATCH]
        if front is not None:
            x = front(start, x)
        logits = kernel.predict(layers, x)
        hits += int(np.sum(np.argmax(logits, axis=1) == y))
    return hits / len(labels)


def _test_accuracy(state):
    """This round's test accuracy of the global model: each test chunk
    through the device side (state.device_output), then the server side."""
    front = lambda start, x: state.device_output(("test", start), x)
    return evaluate(state.server_side, state.dataset, front=front)


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
    spec = models.ZOO[config.model]
    dataset = _load_dataset(config, spec, int(data_words[0]))
    for split, used in (("test", True), ("pretrain", config.pretrain_epochs > 0)):
        if used and len(dataset.splits[split]) == 0:
            raise data_mod.DataError(
                f"split {split!r} is empty: {len(dataset.labels)} samples are too few"
            )
    top = int(dataset.labels.max(initial=0))
    if top >= spec.num_classes:
        raise data_mod.DataError(
            f"dataset label {top} does not fit {config.model}, "
            f"which has {spec.num_classes} classes"
        )
    if dataset.images.shape[1:] != spec.input_shape:
        raise data_mod.DataError(
            f"dataset images {dataset.images.shape[1:]} do not match "
            f"model input {spec.input_shape}"
        )
    model_words = children[1].generate_state(2)
    layers = models.build_model(spec, seed=int(model_words[0]))
    op_index = models.analyze(spec, config.op_index).op_index

    train_idx = dataset.splits["train"]
    shard_list = data_mod.shard_uniform(train_idx, config.devices, seed=int(data_words[1]))
    shards = {k: shard_list[k] for k in range(config.devices)}
    batches = {
        k: tuple(shard[i : i + config.batch_size] for i in range(0, len(shard), config.batch_size))
        for k, shard in shards.items()
    }

    global_model = global_device = global_server = global_head = None
    if config.mode == "classic":
        global_model = layers
    else:
        global_device, global_server = models.partition(layers, op_index)
        if config.pretrain_epochs > 0:
            global_device = models.pretrain_device_side(
                layers,
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
        replay_buffer = buffer_mod.ReplayBuffer(config.rho)

    frozen = config.mode == "replay" or config.freeze_device
    if frozen and not np.isfinite(kernel.param_vector(global_device)).all():
        raise TrainingError(f"{config.mode}: the pretrained device stack is not finite")
    # What no round changes is read-only, so a worker's copy cannot drift.
    # Each view is flagged: one cut before its base was flagged stays writeable.
    fixed = [dataset.images, dataset.labels, *dataset.splits.values(), *shards.values(),
             *(view for views in batches.values() for view in views), *probe_indices.values()]
    if frozen:
        fixed += [p for layer in global_device for p in layer.params().values()]
    for array in fixed:
        array.setflags(write=False)
    held = (global_model, global_device, global_head, global_server)
    stacks = {name: None if s is None else tuple(s) for name, s in zip(_STACKS, held)}
    # Last, the trained layers' parameters move into one block.
    weights = kernel.pack_params(_trained_stacks(stacks, frozen)[0])
    return TrainState(
        config=config,
        spec=spec,
        op_index=op_index,
        dataset=dataset,
        shards=MappingProxyType(shards),
        batches=MappingProxyType(batches),
        frozen_device=frozen,
        **stacks,
        buffer=replay_buffer,
        ledger=netsim.TrafficLedger(),
        device_rngs=MappingProxyType(device_rngs),
        diag_rng=diag_rng,
        probe_indices=MappingProxyType(probe_indices),
        weights=weights,
    )


def _load_dataset(config, spec, seed):
    src = dict(config.dataset)
    kind = src.pop("kind")
    if kind == "blobs":
        return data_mod.generate_blobs(spec.num_classes, image_shape=spec.input_shape, **src,
                                       seed=seed)
    return data_mod.load_idx(src["images"], src["labels"], seed)


def _finish_round(state, t, losses, diag_record):
    cfg = state.config
    traffic = state.ledger.per_device_traffic(t, range(cfg.devices))
    method = cfg.mode
    if method == "replay":
        method = "replay_tx" if buffer_mod.switch_is_on(t, cfg.rho) else "replay_buffer"
    compute = netsim.computation_units(
        method, state.spec, state.op_index,
        samples_per_device=max(len(s) for s in state.shards.values()),
        freeze_device=state.frozen_device,
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
    a = state.device_output(("batch", k, b), x) if dtrace is None else dtrace.output
    state.ledger.record(t, k, "activation", netsim.FLOAT_BYTES * a.size)
    state.ledger.record(t, k, "labels", netsim.LABEL_BYTES * len(y))
    loss, cut_grad = _server_step(state.global_server, a, y, state.config.lr, input_grad)
    return dtrace, a, y, loss, cut_grad


def _split_step(state, t, k, b, batch):
    """Activation up, gradient down; a frozen device stack takes no gradient
    and skips its update."""
    trains = not state.frozen_device
    dtrace, a, y, loss, cut_grad = _serve_upload(state, t, k, b, batch, input_grad=trains)
    if trains:
        state.ledger.record(t, k, "gradient", netsim.FLOAT_BYTES * a.size)
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
        a = state.device_output(("batch", k, b), x)
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
MODES = tuple(_STEPS)  # one batch step per mode


def _check_finite(state, t, losses, record):
    """A diverged round fails loudly instead of logging NaN metrics or
    diagnostics. The trained weights are checked as their one block."""
    values = [np.array(list(losses.values())), state.weights]
    if record is not None:
        values.append(np.array([record.grad_norm_sq, record.loss, record.max_sample_grad_sq,
                                *record.eps.values(), *record.delta.values()]))
    if not all(np.isfinite(v).all() for v in values):
        raise TrainingError(
            f"round {t} ({state.config.mode}): non-finite training loss, weights or diagnostics")


def parallel_slots():
    """How many device groups a round may train at once: the CPUs this
    process may run on, if it runs one thread, else 1. Fork copies only the
    calling thread, and a multi-threaded BLAS, which starts its threads when
    numpy loads, would already use the CPUs that workers need: on 2 CPUs
    with 2 BLAS threads, rounds with a worker ran about 3x slower. 1 also
    without os.fork or os.sched_getaffinity, or where /proc/self/task
    cannot tell the thread count."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        return 1
    return len(os.sched_getaffinity(0)) if threads == 1 else 1


def _device_groups(devices, n):
    """``devices`` cut into ``n`` contiguous runs of Python ints, in order;
    their sizes differ by at most one, the larger first."""
    return [group.tolist() for group in np.array_split(devices, n)]


def _trained_stacks(stacks, frozen):
    """(the layers a round trains, the bytes a device syncs each way, or
    None if it syncs none). ``stacks`` maps each name in _STACKS to its
    stack or None: init_state's dict, or vars(state). The trained layers are
    those of the stacks held, in _STACKS order, less a frozen device stack,
    so their param_vector is the stacks' vectors concatenated; the synced
    ones are those other than the server's, whose weights cross the link
    both ways."""
    names = [name for name in _STACKS if stacks[name] and not (frozen and name == "global_device")]
    synced = [layer for name in names if name != "global_server" for layer in stacks[name]]
    sync_bytes = netsim.FLOAT_BYTES * sum(layer.param_count() for layer in synced)
    return [layer for name in names for layer in stacks[name]], sync_bytes if synced else None


def _load(state, layers, vector):
    """Load a flat vector into the trained ``layers``, as load_param_vector
    would: one write into their block, state.weights, then their bumps."""
    state.weights[...] = vector
    for layer in layers:
        layer.bump()


def _train_device(state, t, k, layers, rows, sync_bytes, draws):
    """Device k's part of round t: restore the trained layers' block from
    the round's start vector, ``rows[-1]``, then one mode step per batch,
    and copy the block to ``rows[k]``; with diagnostics on, the observer
    then measures the stacks as the device left them, with its entry of the
    round's staleness ``draws``. Returns (k, mean loss, DiagnosticsRecord or
    None)."""
    if sync_bytes is not None:
        state.ledger.record(t, k, "model_down", sync_bytes)
    _load(state, layers, rows[-1])
    step, total = _STEPS[state.config.mode], 0.0
    for b, batch in enumerate(state.batches[k]):
        loss, n = step(state, t, k, b, batch)
        total += loss * n
    if sync_bytes is not None:
        state.ledger.record(t, k, "model_up", sync_bytes)
    rows[k] = state.weights
    record = diag_mod.record_round(state, t, k, draws.get(k)) if state.config.diagnostics else None
    return k, total / len(state.shards[k]), record


def _stores(state):
    """The state's frozen-output memo and replay cache, as dicts to compare."""
    return dict(state.frozen_outputs), state.buffer.blobs() if state.buffer is not None else {}


def _new_items(before, after):
    """The items of ``after`` that ``before`` lacks or holds another object for."""
    return {key: value for key, value in after.items() if before.get(key) is not value}


def _send(file, obj):
    """Write one message, a pickle, to a pipe opened as a binary file."""
    pickle.dump(obj, file, pickle.HIGHEST_PROTOCOL)
    file.flush()


def _serve(state, devices, rows, jobs, replies):
    """A worker's loop. Per round the caller writes the start vector to
    ``rows[-1]``, the last row of the pool's shared block, then sends (t,
    the devices' staleness draws); the worker writes each device's trained
    vector to its row, and its one reply is (the _train_device tuple of
    each device trained, the exception that stopped the round or None, then
    what the round left in the state: its devices' ledger rows of round t
    (TrafficLedger.rows, one small int64 array, sent as its bytes, which
    pickle far faster than the array), replay records stored, memo entries
    added, and {device: RNG state} with augmentation on, else {}: only
    augmentation draws from those streams. The caller adds the rows into
    its ledger and adopts the RNG states, so the worker's own already equal
    the caller's at the next job. Messages are pickles on the pipes
    ``jobs`` and ``replies``; a job's send and a reply's receipt order every
    access to the block. Returns at EOF."""
    layers, sync_bytes = _trained_stacks(vars(state), state.frozen_device)
    while True:
        try:
            t, draws = pickle.load(jobs)
        except EOFError:
            return
        memo, blobs = _stores(state)
        done, error = [], None
        try:
            for k in devices:
                done.append(_train_device(state, t, k, layers, rows, sync_bytes, draws))
        except Exception as exc:
            error = exc
        new_memo, new_blobs = _stores(state)
        rngs = ({k: state.device_rngs[k].bit_generator.state for k in devices}
                if state.config.augment else {})
        _send(replies, (done, error, state.ledger.rows(t, devices).tobytes(),
                        _new_items(blobs, new_blobs), _new_items(memo, new_memo), rngs))


@dataclass
class _Worker:
    """The caller's side of a worker: its pid, the pipe ends it writes jobs
    to and reads replies from (binary files), and the devices it trains."""

    pid: int
    jobs: object
    replies: object
    devices: list

    def close(self):
        for file in (self.jobs, self.replies):
            try:
                file.close()
            except OSError:  # a flush into a pipe whose reader has exited
                pass


def _fork(state, devices, rows, siblings):
    """A worker process serving ``devices`` of ``state`` (_serve) over two
    pipes and the shared ``rows``. The child closes the caller's ends, its
    siblings' too, so that each worker sees EOF once the caller closes its
    end; it leaves only through os._exit."""
    jobs_out, jobs_in = os.pipe()
    replies_out, replies_in = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (jobs_out, jobs_in, replies_out, replies_in):
            os.close(fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(jobs_in)
            os.close(replies_out)
            for sibling in siblings:
                sibling.close()
            _serve(state, devices, rows, open(jobs_out, "rb"), open(replies_in, "wb"))
            code = 0
        finally:
            os._exit(code)
    os.close(jobs_out)
    os.close(replies_in)
    return _Worker(pid, open(jobs_in, "wb"), open(replies_out, "rb"), devices)


def _reap(workers):
    """Close the caller's end of each worker's pipes, then wait for each to
    exit."""
    for worker in workers:
        worker.close()
    for worker in workers:
        try:
            os.waitpid(worker.pid, 0)
        except ChildProcessError:
            pass
    workers.clear()


class _Pool:
    """The workers of one state: one per device group but the first (none
    at one group), forked at the state's first round and kept for its later
    ones, and the rows they share with the caller (one per device, then the
    start vector, as wide as state.weights) in an anonymous shared mmap made
    before they fork. At most one pool lives (_live); ``stop`` reaps its
    workers, at the latest when the state is released or the interpreter
    exits."""

    def __init__(self, state, groups):
        self.state = weakref.ref(state)
        self.groups = groups
        self.workers = []
        block = mmap.mmap(-1, 8 * (sum(map(len, groups)) + 1) * state.weights.size)
        self.rows = np.frombuffer(block, np.float64).reshape(-1, state.weights.size)
        self.stop = weakref.finalize(state, _reap, self.workers)
        try:
            for group in groups[1:]:
                self.workers.append(_fork(state, group, self.rows, self.workers))
        except BaseException:
            self.stop()
            raise


_live = None  # the one _Pool whose workers run


def _workers(state, devices):
    """(the first of ``devices``' groups, which the calling process trains,
    the workers that train the others, the round's rows: one per device,
    then the start vector, state.weights). A new pool is made, and its
    workers forked, if the live pool is another state's or cuts the devices
    otherwise."""
    global _live
    groups = _device_groups(devices, min(parallel_slots(), len(devices)))
    if _live is None or _live.state() is not state or _live.groups != groups:
        _stop_workers()
        _live = _Pool(state, groups)
    _live.rows[-1] = state.weights
    return groups[0], _live.workers, _live.rows


def _stop_workers():
    """Reap the live pool's workers, if any; the next round forks anew."""
    global _live
    if _live is not None:
        _live.stop()
        _live = None


@contextlib.contextmanager
def _pipe_to(worker, state, t):
    """Raise an error on a worker's pipe, which means the worker has
    exited, as a TrainingError."""
    try:
        yield
    except (EOFError, OSError, pickle.UnpicklingError) as exc:
        raise TrainingError(f"round {t} ({state.config.mode}): the worker training devices "
                            f"{worker.devices} has stopped ({type(exc).__name__})") from exc


def _trained_devices(state, t, own, workers, layers, rows, sync_bytes, draws):
    """The _train_device tuple of each device of round t, in device order.
    The workers' groups start first, each sent its devices' staleness
    draws; the calling process trains and measures its own group, then
    merges each worker's reply into the state in order. Each device's
    trained vector is then in its row of ``rows``. The layers are left as
    the caller's last device left them: no worker's row is loaded."""
    for worker in workers:
        with _pipe_to(worker, state, t):
            _send(worker.jobs, (t, {k: draws[k] for k in worker.devices if k in draws}))
    trained = [_train_device(state, t, k, layers, rows, sync_bytes, draws) for k in own]
    for worker in workers:
        with _pipe_to(worker, state, t):
            done, error, ledger_rows, blobs, memo, rng_states = pickle.load(worker.replies)
        state.ledger.add_rows(t, worker.devices, ledger_rows)
        if blobs:
            state.buffer.adopt(blobs)
        for out in memo.values():
            out.setflags(write=False)
        state.frozen_outputs.update(memo)
        for k, rng_state in rng_states.items():
            state.device_rngs[k].bit_generator.state = rng_state
        trained += done
        if error is not None:
            raise error
    return trained


def run_round(state, t):
    """One round of any mode: each device trains the global stacks in place
    from the round's start vector, one mode step per batch, and the observer
    measures it as it finishes; then FedAvg. The observer's staleness draws
    are all made first, in device order (diagnostics.staleness_draws).
    Devices past the first group train, and are measured, in worker
    processes (_trained_devices); a round that raises reaps them.

    The trained layers are those of the stacks the state holds
    (_trained_stacks), tuples that no one can edit; their parameters are
    views of state.weights. Row k of the round's rows is device k's trained
    block, the last row the start. FedAvg is elementwise, so one FedAvg over
    the rows gives each stack's average byte for byte. A parameter rebound
    to an array that is no view of the block fails the round before it
    changes anything."""
    layers, sync_bytes = _trained_stacks(vars(state), state.frozen_device)
    if any(p.base is not state.weights for layer in layers for p in layer.params().values()):
        raise TrainingError(f"round {t} ({state.config.mode}): "
                            "a trained parameter is no view of state.weights")
    draws = diag_mod.staleness_draws(state)
    devices = sorted(state.batches)
    try:
        own, workers, rows = _workers(state, devices)
        trained = _trained_devices(state, t, own, workers, layers, rows, sync_bytes, draws)
    except BaseException:
        _stop_workers()
        raise
    losses = {k: loss for k, loss, _ in trained}
    measured = [record for _, _, record in trained if record is not None]
    diag_record = diag_mod.round_record(measured) if measured else None
    if diag_record is not None:
        state.diagnostics_records.append(diag_record)
    counts = [len(state.shards[k]) for k in devices]
    _load(state, layers, fedavg(rows[:-1], counts))
    _check_finite(state, t, losses, diag_record)
    return _finish_round(state, t, losses, diag_record)


# The benchmark harness resolves the round function by mode name.
run_round_classic = run_round_split = run_round_local_loss = run_round_replay = run_round


def run_training(config):
    """Execute T rounds of the configured mode; returns the final model,
    per-round results, and metrics rows. Deterministic under fixed seeds.
    No worker process outlives it."""
    state = init_state(config)
    results, rows = [], []
    try:
        for t in range(config.rounds):
            try:
                result = run_round(state, t)
            except (kernel.KernelError, quantize.QuantizeError, buffer_mod.BufferError,
                    buffer_mod.BufferMiss, netsim.NetsimError, data_mod.DataError) as exc:
                raise TrainingError(f"round {t} ({config.mode}): {exc}") from exc
            results.append(result)
            rows.extend(_metrics_rows(config, result))
    finally:
        _stop_workers()
    final_model = (state.global_device or ()) + state.server_side
    return RunOutput(final_model=final_model, results=results, rows=rows, state=state)


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
