"""Worker processes: a round whose devices train in forked workers leaves
the state byte for byte as one that trains them all in the calling process,
and no worker outlives its run, its state or a fault."""

import gc
import os
import pickle
import signal
import threading

import pytest
from test_runtime import MODE_CASES, make_config

from sflsim import cli, diagnostics, kernel, models, runtime

# Beyond MODE_CASES: augmentation draws, the observer and its diag_rng draws,
# and the replay cache read by the observer, quantized and raw.
MORE_CASES = [
    ("classic", {"pretrain_epochs": 0, "augment": True, "diagnostics": True}),
    ("split", {"augment": True}),
    ("split", {"diagnostics": True}),
    ("split", {"freeze_device": True, "augment": True, "diagnostics": True}),
    ("local_loss", {"augment": True, "diagnostics": True}),
    ("replay", {"rho": 2, "quantized": True, "augment": True, "diagnostics": True}),
    ("replay", {"rho": 2, "quantized": False, "diagnostics": True}),
]


def use_slots(monkeypatch, n):
    """Cut every round's devices into ``n`` groups: n - 1 workers."""
    monkeypatch.setattr(runtime, "parallel_slots", lambda: n)


def forked_pids(monkeypatch):
    """The pid of every process the runtime forks from now on, in order."""
    pids, fork = [], os.fork

    def noting():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", noting)
    return pids


def alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def fingerprint(out):
    """Every byte a run leaves: weights, metrics rows, ledger, replay cache,
    frozen-output memo, RNG streams and diagnostics records."""
    state = out.state
    memo = [(key, array.flags.writeable, array.tobytes())
            for key, array in state.frozen_outputs.items()]
    return {
        "weights": kernel.param_vector(out.final_model + (state.global_head or ())).tobytes(),
        "rows": repr(out.rows),
        "ledger": list(state.ledger.entries.items()),
        "buffer": list(state.buffer.blobs().items()) if state.buffer is not None else None,
        "memo": memo,
        "rngs": [state.device_rngs[k].bit_generator.state for k in sorted(state.device_rngs)]
                + [state.diag_rng.bit_generator.state],
        "diagnostics": pickle.dumps(state.diagnostics_records),
    }


def sent_jobs(monkeypatch):
    """Every job the calling process sends a worker from now on, in order:
    (t, staleness draws)."""
    jobs, send = [], runtime._send

    def noting(file, obj):
        jobs.append(obj)  # a worker's replies are noted in the worker's copy
        send(file, obj)

    monkeypatch.setattr(runtime, "_send", noting)
    return jobs


# (mode, extra config, the group counts compared with one group). The last
# case cuts 4 devices into 3 groups, of 2, 1 and 1 devices: two workers.
CASES = [(mode, extra, (2, 4)) for mode, extra in MODE_CASES + MORE_CASES] + [
    ("replay", {"rho": 2, "quantized": True, "augment": True, "diagnostics": True}, (3,)),
]


@pytest.mark.parametrize("mode,extra,groups", CASES, ids=[
    ("uneven-" if groups == (3,) else "") + "-".join([mode, *(f"{key}={value}" for key, value in
                                                              extra.items())])
    for mode, extra, groups in CASES])
def test_workers_leave_the_state_byte_for_byte(monkeypatch, mode, extra, groups):
    prints, pids, jobs = {}, forked_pids(monkeypatch), sent_jobs(monkeypatch)
    for slots in (1, *groups):
        use_slots(monkeypatch, slots)
        pids.clear()
        jobs.clear()
        out = runtime.run_training(make_config(mode=mode, **extra))
        prints[slots] = fingerprint(out)
        assert len(pids) == slots - 1  # forked at the first round, kept for the others
        # Each worker is sent its own devices' staleness draws and no others.
        cfg = out.state.config
        observed = out.state.buffer is not None and cfg.diagnostics
        workers = runtime._device_groups(range(cfg.devices), slots)[1:]
        assert len(jobs) == len(workers) * cfg.rounds
        for (_, draws), group in zip(jobs, workers * cfg.rounds):
            assert sorted(draws) == (group if observed else [])
    for slots in groups:
        for part, want in prints[1].items():
            assert prints[slots][part] == want, (slots, part)


@pytest.mark.parametrize("mode,extra", [
    ("split", {}),
    ("local_loss", {}),
    ("replay", {"rho": 2, "diagnostics": True, "augment": True}),
], ids=["split", "local_loss", "replay"])
def test_no_parameter_vector_crosses_a_pipe(monkeypatch, mode, extra):
    # The trained weights cross in the pool's shared block; a job or reply
    # carrying even one device's vector would be at least this large. A job
    # names each staleness batch and its flips: one carrying the batch's
    # images would be at least one batch large. A replay reply is not
    # bounded here: it carries the records and memo entries its group made.
    use_slots(monkeypatch, 2)
    state = runtime.init_state(make_config(mode=mode, **extra))
    trained = state.global_device + (state.global_head or ()) + state.global_server
    vector_bytes = kernel.param_vector(trained).nbytes
    batch_bytes = state.dataset.images[state.batches[0][0]].nbytes
    caller, sizes, send = os.getpid(), [], runtime._send

    def small(file, obj):
        size = len(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))
        if os.getpid() == caller:
            assert size < min(vector_bytes, batch_bytes), size
        elif mode != "replay":
            assert size < vector_bytes, size  # in a worker: a TrainingError
        sizes.append(size)
        send(file, obj)

    monkeypatch.setattr(runtime, "_send", small)  # before the fork: workers inherit it
    try:
        for t in range(state.config.rounds):
            runtime.run_round(state, t)
    finally:
        runtime._stop_workers()
    assert len(sizes) == state.config.rounds  # the caller's jobs; replies are sent in the worker


def scale_images(state):
    state.dataset.images *= 0.5


def scale_frozen_stack(state):
    kernel.load_param_vector(state.global_device, 0.5 * kernel.param_vector(state.global_device))


@pytest.mark.parametrize("slots", [1, 2])
def test_an_edit_between_rounds_raises_and_changes_nothing(monkeypatch, slots):
    # A worker would not see such an edit, so it must not happen at all:
    # with 2 slots devices 2 and 3 would train on the unedited copy.
    use_slots(monkeypatch, slots)
    for config, edit in ((make_config(), scale_images),
                         (make_config(mode="replay", rho=2), scale_frozen_stack)):
        want = runtime.run_training(config)
        state = runtime.init_state(config)
        try:
            for t in range(2):
                runtime.run_round(state, t)
            with pytest.raises(ValueError):
                edit(state)
            result = runtime.run_round(state, 2)
        finally:
            runtime._stop_workers()
        assert result.server_loss == want.results[2].server_loss
        got = kernel.param_vector(state.global_device + state.global_server)
        assert got.tobytes() == kernel.param_vector(want.final_model).tobytes()


def halve_a_layer(stack):
    """Replace the first layer of ``stack`` that has parameters by a clone
    with halved weights."""
    i = next(i for i, layer in enumerate(stack) if layer.params())
    clone = models.clone_stack(stack[i : i + 1])
    kernel.load_param_vector(clone, 0.5 * kernel.param_vector(clone))
    stack[i : i + 1] = clone


def round_state(state, name):
    """What a round may change in ``state``, as bytes and plain values,
    with the parameters of the stack ``name`` as its tuple holds them."""
    layers = [layer for stack in runtime._STACKS for layer in getattr(state, stack) or ()]
    return {
        "layers": kernel.param_vector(layers).tobytes(),
        "versions": [layer.version for layer in layers],
        "stack": kernel.param_vector(getattr(state, name)).tobytes(),
        "block": state.weights.tobytes(),
        "ledger": list(state.ledger.entries.items()),
        "buffer": list(state.buffer.blobs().items()) if state.buffer is not None else None,
        "memo": [(key, array.tobytes()) for key, array in state.frozen_outputs.items()],
        "rngs": [state.device_rngs[k].bit_generator.state for k in sorted(state.device_rngs)]
                + [state.diag_rng.bit_generator.state],
        "records": pickle.dumps(state.diagnostics_records),
    }


@pytest.mark.parametrize("slots", [1, 2])
@pytest.mark.parametrize("extra,name", [
    ({"mode": "replay", "rho": 2, "diagnostics": True}, "global_device"),
    ({"mode": "split"}, "global_server"),
], ids=["replay-device", "split-server"])
def test_a_replaced_layer_raises_and_changes_nothing(monkeypatch, slots, extra, name):
    # A layer put into a stack after init_state would be no view of the
    # state's weights block: it would train from stale weights, or, in a
    # frozen stack, the kept outputs of the layer it replaced would still
    # feed the server. A worker would not see the swap at all. The stacks
    # are tuples, so the swap itself raises, and the next round runs as if
    # it had not been tried.
    use_slots(monkeypatch, slots)
    want = runtime.run_training(make_config(**extra, rounds=2))
    state = runtime.init_state(make_config(**extra))
    try:
        runtime.run_round(state, 0)
        before = round_state(state, name)
        with pytest.raises(TypeError):
            halve_a_layer(getattr(state, name))
        assert round_state(state, name) == before
        assert runtime.run_round(state, 1).server_loss == want.results[1].server_loss
    finally:
        runtime._stop_workers()


@pytest.mark.parametrize("slots", [1, 2])
def test_a_rebound_parameter_raises_and_changes_nothing(monkeypatch, slots):
    # A parameter rebound after init_state is no view of the weights block:
    # no restore would reach it, so each device would train on from the one
    # before, and a worker would not see it at all.
    use_slots(monkeypatch, slots)
    state = runtime.init_state(make_config())
    try:
        runtime.run_round(state, 0)
        layer = next(layer for layer in state.global_server if "w" in layer.params())
        layer.w = layer.w * 0.5
        before = round_state(state, "global_server")
        with pytest.raises(runtime.TrainingError, match=r"^round 1 \(split\): a trained "
                                                        r"parameter is no view of state\.weights$"):
            runtime.run_round(state, 1)
        assert round_state(state, "global_server") == before
    finally:
        runtime._stop_workers()


def test_the_caller_measures_only_its_own_group(monkeypatch):
    use_slots(monkeypatch, 2)
    seen, record_round = [], diagnostics.record_round

    def spy(state, t, k, *args):
        seen.append(k)  # a worker's calls are noted in the worker's copy
        return record_round(state, t, k, *args)

    monkeypatch.setattr(diagnostics, "record_round", spy)
    out = runtime.run_training(make_config(mode="replay", rho=2, diagnostics=True, rounds=1))
    assert seen == [0, 1]
    record = out.results[0].diagnostics
    assert sorted(record.eps) == sorted(record.delta) == [0, 1, 2, 3]


def test_groups_are_contiguous_and_larger_first():
    assert runtime._device_groups(list(range(7)), 3) == [[0, 1, 2], [3, 4], [5, 6]]
    assert runtime._device_groups([0, 1], 2) == [[0], [1]]
    assert runtime._device_groups([0, 1, 2], 1) == [[0, 1, 2]]
    assert runtime._device_groups(list(range(5)), 5) == [[0], [1], [2], [3], [4]]
    for group in runtime._device_groups(list(range(7)), 3):
        assert all(type(k) is int for k in group)  # numpy ints would change the rows' repr


def test_a_process_running_threads_trains_in_one_process():
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert runtime.parallel_slots() == 1
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_one_slot_forks_nothing(monkeypatch):
    use_slots(monkeypatch, 1)
    pids = forked_pids(monkeypatch)
    runtime.run_training(make_config(rounds=1))
    assert pids == []


def test_no_worker_outlives_run_training(monkeypatch):
    use_slots(monkeypatch, 4)
    pids = forked_pids(monkeypatch)
    runtime.run_training(make_config(rounds=2))
    assert len(pids) == 3  # forked at the first round, kept for the second
    assert not any(map(alive, pids))


def test_a_released_state_reaps_its_workers(monkeypatch):
    use_slots(monkeypatch, 2)
    pids = forked_pids(monkeypatch)
    state = runtime.init_state(make_config())
    runtime.run_round(state, 0)
    assert len(pids) == 1 and alive(pids[0])
    del state
    gc.collect()
    assert not alive(pids[0])


def test_another_states_round_reaps_the_workers(monkeypatch):
    use_slots(monkeypatch, 2)
    pids = forked_pids(monkeypatch)
    first, second = (runtime.init_state(make_config()) for _ in range(2))
    runtime.run_round(first, 0)
    runtime.run_round(second, 0)
    assert len(pids) == 2 and not alive(pids[0]) and alive(pids[1])
    del second
    gc.collect()
    assert not alive(pids[1])


def plant_fault(monkeypatch, device):
    """Make split's step raise a KernelError at ``device``'s first batch."""
    step = runtime._STEPS["split"]

    def faulty(state, t, k, b, batch):
        if k == device:
            raise kernel.KernelError(f"injected fault at device {k}")
        return step(state, t, k, b, batch)

    monkeypatch.setitem(runtime._STEPS, "split", faulty)


def training_error(config):
    with pytest.raises(runtime.TrainingError) as excinfo:
        runtime.run_training(config)
    return str(excinfo.value)


def test_a_fault_in_a_worker_is_the_in_process_training_error(monkeypatch):
    plant_fault(monkeypatch, 3)
    use_slots(monkeypatch, 1)
    want = training_error(make_config())
    assert want == "round 0 (split): injected fault at device 3"
    use_slots(monkeypatch, 2)
    pids = forked_pids(monkeypatch)
    assert training_error(make_config()) == want
    assert len(pids) == 1 and not alive(pids[0])


def test_a_fault_in_the_calling_process_reaps_the_workers(monkeypatch):
    plant_fault(monkeypatch, 0)
    use_slots(monkeypatch, 4)
    pids = forked_pids(monkeypatch)
    assert training_error(make_config()) == "round 0 (split): injected fault at device 0"
    assert len(pids) == 3 and not any(map(alive, pids))


def test_a_worker_that_died_is_a_training_error(monkeypatch):
    use_slots(monkeypatch, 2)
    pids = forked_pids(monkeypatch)
    state = runtime.init_state(make_config())
    runtime.run_round(state, 0)
    os.kill(pids[0], signal.SIGKILL)
    with pytest.raises(runtime.TrainingError, match=r"round 1 \(split\): the worker training "
                                                    r"devices \[2, 3\] has stopped"):
        runtime.run_round(state, 1)
    assert not alive(pids[0])


def test_cli_run_exits_5_on_a_fault_in_a_worker(tmp_path, capsys, monkeypatch):
    from test_cli import smoke_config

    plant_fault(monkeypatch, 1)
    use_slots(monkeypatch, 2)
    pids = forked_pids(monkeypatch)
    cfg = smoke_config(tmp_path, mode="split", rho=1)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 5
    assert capsys.readouterr().err.splitlines() == [
        "training error: round 0 (split): injected fault at device 1"]
    assert len(pids) == 1 and not alive(pids[0])
