"""Training runtime: aggregation oracles, protocol traffic contracts,
trajectory equivalence, and determinism.

The weighted-mean oracle values are scripted independently inside the
tests; the equivalence and ledger-agreement tests are paired seeded runs.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from _helpers import fedavg_reference, flat_state, pinned

from sflsim import config as config_mod
from sflsim import data as data_mod
from sflsim import kernel, models, netsim, runtime


def make_config(**overrides):
    base = {
        "version": 1,
        "mode": "split",
        "model": "tiny_vgg",
        "devices": 4,
        "rounds": 3,
        "lr": 0.05,
        "batch_size": 8,
        "pretrain_epochs": 1,
        "dataset": {"kind": "blobs", "per_class": 64, "noise_sigma": 0.05},
        "seed": 33,
    }
    base.update(overrides)
    return config_mod.from_dict(base)


def small_states(seed, n_sets):
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(n_sets):
        sets.append(
            [
                {"w": rng.normal(size=(3, 4)).astype(np.float32),
                 "b": rng.normal(size=4).astype(np.float32)},
                {},
                {"w": rng.normal(size=(4, 2)).astype(np.float32),
                 "b": rng.normal(size=2).astype(np.float32)},
            ]
        )
    return sets


def small_vectors(seed, n_sets):
    return [flat_state(s) for s in small_states(seed, n_sets)]


class TestFedavg:
    def test_identical_inputs_fixed_point_any_counts(self):
        vector = small_vectors(0, 1)[0]
        for counts in ([1, 1, 1], [1, 2, 4], [7, 1, 3]):
            merged = runtime.fedavg([vector, vector, vector], counts)
            assert np.array_equal(merged, vector)

    def test_two_scalars_weighted_mean(self):
        merged = runtime.fedavg([np.array([2.0]), np.array([6.0])], [1, 3])
        assert merged[0] == 5.0

    def test_five_sets_match_scripted_weighted_sum(self):
        vectors = small_vectors(42, 5)
        counts = [3, 1, 4, 1, 5]
        merged = runtime.fedavg(vectors, counts)
        n = sum(counts)
        oracle = sum((c / n) * v for c, v in zip(counts, vectors))
        np.testing.assert_allclose(
            merged.astype(np.float32), oracle.astype(np.float32), rtol=1e-6, atol=1e-7
        )

    def test_five_sets_byte_equal_to_per_layer_reference(self):
        # The middle layer of every set has no parameters.
        sets = small_states(42, 5)
        counts = [3, 1, 4, 1, 5]
        merged = runtime.fedavg([flat_state(s) for s in sets], counts)
        want = flat_state(fedavg_reference(sets, counts))
        assert merged.dtype == want.dtype == np.float64
        assert merged.tobytes() == want.tobytes()

    def test_power_of_two_rescaling_is_exact(self):
        vectors = small_vectors(3, 3)
        counts = [2, 5, 1]
        merged = runtime.fedavg(vectors, counts)
        merged_scaled = runtime.fedavg([0.5 * v for v in vectors], counts)
        assert np.array_equal(merged_scaled, 0.5 * merged)

    def test_shape_mismatch_rejected(self):
        a, b = small_states(1, 2)
        b[0]["w"] = b[0]["w"][:2]
        with pytest.raises(runtime.TrainingError):
            runtime.fedavg([flat_state(a), flat_state(b)], [1, 1])

    def test_zero_total_samples_rejected(self):
        vector = small_vectors(2, 1)[0]
        with pytest.raises(runtime.TrainingError):
            runtime.fedavg([vector, vector], [0, 0])

    def test_single_device_identity(self):
        vector = small_vectors(5, 1)[0]
        assert np.array_equal(runtime.fedavg([vector], [17]), vector)

    def test_concatenated_stacks_average_as_each_stack_alone(self):
        # A round averages each device's stacks as one concatenated vector.
        rng = np.random.default_rng(11)
        sizes, counts = (5, 130, 17), [3, 1, 8, 2, 5]
        stacks = [[rng.normal(size=n) for _ in counts] for n in sizes]
        rows = np.array([np.concatenate(device) for device in zip(*stacks)])
        merged = np.split(runtime.fedavg(rows, counts), np.cumsum(sizes)[:-1])
        for piece, vectors in zip(merged, stacks):
            assert piece.tobytes() == runtime.fedavg(vectors, counts).tobytes()


class TestEvaluate:
    def test_constant_predictor_on_single_class(self):
        cfg = make_config()
        state = runtime.init_state(cfg)
        dataset = state.dataset
        # Bias the final dense layer so class 0 always wins.
        layers = state.global_device + state.global_server
        final = [l for l in layers if l.params()][-1]
        final.params()["b"][...] = np.array([100.0, -100.0], dtype=np.float32)
        final.bump()
        only_zero = dataset.splits["test"][dataset.labels[dataset.splits["test"]] == 0]
        dataset.splits["single"] = only_zero
        assert runtime.evaluate(layers, dataset, split="single") == 1.0

    def test_uninformative_labels_near_chance(self):
        # Labels drawn independently of the images: any predictor sits at
        # 1/C. 1000 test samples, 2 classes: 3 sigma binomial is +-0.0474.
        cfg = make_config(dataset={"kind": "blobs", "per_class": 2000, "noise_sigma": 0.5})
        state = runtime.init_state(cfg)
        rng = np.random.default_rng(99)
        dataset = dataclasses.replace(
            state.dataset, labels=rng.integers(0, 2, size=len(state.dataset.labels)))
        acc = runtime.evaluate(
            state.global_device + state.global_server,
            dataset,
            split="test",
        )
        assert abs(acc - 0.5) <= 3 * np.sqrt(0.25 / 1000)

    def test_round_acc_equals_concat_exactly(self):
        cfg = make_config()
        state = runtime.init_state(cfg)
        result = runtime.run_round(state, 0)
        concat = runtime.evaluate(
            state.global_device + state.global_server, state.dataset
        )
        assert result.test_acc == concat

    def test_empty_split_rejected(self):
        cfg = make_config()
        state = runtime.init_state(cfg)
        state.dataset.splits["empty"] = np.array([], dtype=int)
        with pytest.raises(runtime.TrainingError):
            runtime.evaluate(state.global_model or [], state.dataset, split="empty")


def final_server_vector(output):
    n_device = len(output.state.global_device)
    return kernel.param_vector(output.final_model[n_device:])


class TestEquivalence:
    def test_replay_rho1_quant_off_matches_frozen_split(self):
        runs = {}
        for mode, extra in [
            ("replay", {"rho": 1, "quantized": False}),
            ("split", {"freeze_device": True}),
        ]:
            out = runtime.run_training(make_config(mode=mode, rounds=4, **extra))
            runs[mode] = final_server_vector(out)
        assert runs["replay"].tobytes() == runs["split"].tobytes()

    @pytest.mark.parametrize("model", ["tiny_vgg", "tiny_res"])
    @pytest.mark.parametrize("augment", [False, True])
    def test_classic_matches_unfrozen_split(self, model, augment):
        # Classic's batch step is the server step on the whole model, so the
        # cut changes what crosses the link but no weight or loss bit.
        runs = {
            mode: runtime.run_training(make_config(
                mode=mode, model=model, augment=augment, pretrain_epochs=0, rounds=2))
            for mode in ("classic", "split")
        }
        weights = {mode: kernel.param_vector(out.final_model).tobytes() for mode, out in runs.items()}
        assert weights["classic"] == weights["split"]
        rows = {
            mode: [(r["round"], r["device"], r["server_loss"], r["test_acc"]) for r in out.rows]
            for mode, out in runs.items()
        }
        assert rows["classic"] == rows["split"]

    @pytest.mark.parametrize("mode,extra,frozen", [
        ("replay", {"rho": 2}, True),
        ("split", {"freeze_device": True}, True),
        ("split", {}, False),
    ], ids=["replay", "split_frozen", "split_unfrozen"])
    def test_frozen_device_weights_constant_across_rounds(self, mode, extra, frozen):
        # The engine's freeze rule (state.frozen_device) is the only thing
        # that keeps the pretrained device stack (pretrain_epochs 1) fixed.
        state = runtime.init_state(make_config(mode=mode, rounds=5, **extra))
        assert state.frozen_device == frozen
        before = kernel.param_vector(state.global_device)
        for t in range(state.config.rounds):
            runtime.run_round(state, t)
        after = kernel.param_vector(state.global_device)
        assert (before.tobytes() == after.tobytes()) == frozen


MODE_CASES = [
    ("classic", {"pretrain_epochs": 0}),
    ("split", {}),
    ("split", {"freeze_device": True}),
    ("local_loss", {}),
    ("replay", {"rho": 2, "quantized": True}),
    ("replay", {"rho": 2, "quantized": False}),
]


@pytest.mark.parametrize("mode,extra", MODE_CASES)
def test_rounds_clone_no_stack(monkeypatch, mode, extra):
    # Each device trains the global stacks in place from the round's start
    # vector, and the observer reads them as the device finishes.
    # A call made in a worker process is invisible here: every device
    # trains in this process.
    monkeypatch.setattr(runtime, "parallel_slots", lambda: 1)
    state = runtime.init_state(make_config(mode=mode, diagnostics=True, **extra))
    clone, calls = models.clone_stack, []
    monkeypatch.setattr(models, "clone_stack", lambda layers: calls.append(1) or clone(layers))
    for t in range(state.config.rounds):
        runtime.run_round(state, t)
    assert calls == []


@pytest.mark.parametrize("mode,extra", MODE_CASES)
def test_what_no_round_changes_is_read_only(mode, extra):
    # A forked worker keeps its own copy of the state: a set-up array or map
    # that could be edited between rounds would let the copies drift apart.
    state = runtime.init_state(make_config(mode=mode, diagnostics=True, **extra))
    dataset = state.dataset
    arrays = [dataset.images, dataset.labels, *dataset.splits.values(),
              *state.shards.values(), *state.probe_indices.values()]
    for views in state.batches.values():
        assert type(views) is tuple and views
        arrays.extend(views)
    if state.frozen_device:
        arrays.extend(p for layer in state.global_device for p in layer.params().values())
    assert len(state.probe_indices) == len(state.batches) == state.config.devices
    for array in arrays:
        assert not array.flags.writeable
    for name, value in (("batches", ()), ("shards", state.shards[0]),
                        ("probe_indices", state.probe_indices[0]),
                        ("device_rngs", state.device_rngs[0])):
        with pytest.raises(TypeError):
            getattr(state, name)[0] = value
    with pytest.raises(TypeError):
        state.batches[0][0] = state.batches[0][0]
    stacks = [getattr(state, name) for name in runtime._STACKS if getattr(state, name)]
    assert len(stacks) == (1 if mode == "classic" else 3 if mode == "local_loss" else 2)
    for stack in stacks:
        with pytest.raises(TypeError):
            stack[0] = stack[0]
        with pytest.raises(TypeError):
            stack[:] = stack
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.dataset = dataset
    with pytest.raises(dataclasses.FrozenInstanceError):
        dataset.labels = dataset.labels


def trained_layers(state):
    """The layers a round trains, in the order model, device, head, server,
    less a frozen device stack."""
    device = None if state.frozen_device else state.global_device
    stacks = (state.global_model, device, state.global_head, state.global_server)
    return [layer for stack in stacks if stack for layer in stack]


def assert_weights_are_the_block(state):
    layers, block = trained_layers(state), state.weights
    assert block.flags.c_contiguous and block.dtype == np.float32
    assert kernel.param_vector(layers).tobytes() == block.astype(np.float64).tobytes()
    for layer in layers:
        for p in layer.params().values():
            assert np.shares_memory(p, block) and p.flags.c_contiguous and p.flags.writeable
    if state.frozen_device:
        for layer in state.global_device:
            for p in layer.params().values():
                assert not np.shares_memory(p, block) and not p.flags.writeable


@pytest.mark.parametrize("slots", [1, 2])
@pytest.mark.parametrize("mode,extra", MODE_CASES)
def test_trained_parameters_are_views_of_one_block(monkeypatch, mode, extra, slots):
    monkeypatch.setattr(runtime, "parallel_slots", lambda: slots)
    state = runtime.init_state(make_config(mode=mode, **extra))
    assert_weights_are_the_block(state)
    try:
        for t in range(2):
            runtime.run_round(state, t)
            assert_weights_are_the_block(state)
    finally:
        runtime._stop_workers()


@pytest.mark.parametrize("mode,extra", [
    ("split", {}),
    ("local_loss", {}),
    ("split", {"freeze_device": True}),
    ("replay", {"rho": 2}),
], ids=["split", "local_loss", "split-freeze_device", "replay"])
def test_rounds_take_no_parameter_vector(monkeypatch, mode, extra):
    # Restoring, snapshotting, averaging and checking the trained weights
    # are array ops on the block, and init_state checked a frozen device
    # stack once; with diagnostics off nothing else flattens a stack.
    monkeypatch.setattr(runtime, "parallel_slots", lambda: 1)
    state = runtime.init_state(make_config(mode=mode, **extra))
    calls = []
    for name in ("param_vector", "load_param_vector"):
        fn = getattr(kernel, name)
        monkeypatch.setattr(kernel, name,
                            lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    runtime.run_round(state, 0)
    assert calls == []


@pytest.mark.parametrize("mode", ["classic", "split", "local_loss"])
def test_weights_that_overflow_fail_the_round(mode):
    # One batch per device: each loss is taken before the device's only
    # step, which makes its weights non-finite, so only the weights' check
    # can stop the round.
    state = runtime.init_state(make_config(mode=mode, lr=1e39, batch_size=128,
                                           pretrain_epochs=0))
    try:
        with np.errstate(all="ignore"), pytest.raises(runtime.TrainingError, match="non-finite"):
            runtime.run_round(state, 0)
    finally:
        runtime._stop_workers()
    assert not np.isfinite(state.weights).all()


def kernel_macs(layer, out):
    """The MACs of one forward of ``layer`` that gave ``out`` (or of the
    backward that took a gradient of its shape), from the shapes that ran."""
    if layer.kind == "conv3x3":
        return out.size * 9 * layer.c_in
    if layer.kind == "conv1x1":
        return out.size * layer.c_in
    return out.shape[0] * layer.n_in * out.shape[1]  # dense


@pytest.mark.parametrize("model", ["tiny_vgg", "tiny_res"])
@pytest.mark.parametrize("mode,extra,methods", [
    ("classic", {"pretrain_epochs": 0}, ["classic"]),
    ("split", {}, ["split"]),
    ("split", {"freeze_device": True}, ["split"]),
    ("local_loss", {}, ["local_loss"]),
    ("replay", {"rho": 2}, ["replay_tx", "replay_buffer"]),
], ids=["classic", "split", "split_frozen", "local_loss", "replay"])
def test_computation_units_are_the_macs_the_kernel_ran(monkeypatch, model, mode, extra,
                                                       methods):
    # Each forward or backward of a layer with weights is charged its
    # forward MACs, to the side whose stack holds the layer: a layer that
    # ran forward and backward costs 2x, as computation_units charges. The
    # test accuracy is no training work, so evaluation is stubbed out, and
    # every device trains in this process, where the counters are.
    monkeypatch.setattr(runtime, "parallel_slots", lambda: 1)
    monkeypatch.setattr(runtime, "evaluate", lambda *args, **kwargs: 0.0)
    state = runtime.init_state(make_config(mode=mode, model=model, **extra))
    side = {}
    for name, stacks in (("device", (state.global_model, state.global_device,
                                     state.global_head)), ("server", (state.global_server,))):
        for layer in (layer for stack in stacks for layer in stack or ()):
            for sub in [layer] + getattr(layer, "main", []) + getattr(layer, "side", []):
                side[id(sub)] = name
    counted = {"device": 0, "server": 0}

    def counting(method, shape_of):
        def run(layer, *args, **kwargs):
            result = method(layer, *args, **kwargs)
            counted[side[id(layer)]] += kernel_macs(layer, shape_of(args, result))
            return result
        return run

    for cls in (kernel.Conv3x3, kernel.Conv1x1, kernel.Dense):
        monkeypatch.setattr(cls, "forward", counting(cls.forward, lambda args, result: result[0]))
        monkeypatch.setattr(cls, "backward", counting(cls.backward, lambda args, result: args[1]))
    for t, method in enumerate(methods):  # replay: a transmission round, then a cached one
        counted.update(device=0, server=0)
        runtime.run_round(state, t)
        charged = [netsim.computation_units(method, state.spec, state.op_index,
                                            samples_per_device=len(shard),
                                            freeze_device=state.frozen_device)
                   for shard in state.shards.values()]
        assert counted == {"device": sum(c.device_units for c in charged),
                           "server": sum(c.server_units for c in charged)}, method


class TestLedgerAgreement:
    @pytest.mark.parametrize("mode,extra", MODE_CASES)
    def test_ledger_matches_cost_model_exactly(self, mode, extra):
        cfg = make_config(mode=mode, **extra)
        out = runtime.run_training(cfg)
        state = out.state
        spec = state.spec
        n_k = len(state.shards[0])
        assert all(len(s) == n_k for s in state.shards.values())
        for t in range(cfg.rounds):
            if mode == "replay":
                method = "replay_tx" if t % cfg.rho == 0 else "replay_buffer"
            else:
                method = mode
            predicted = netsim.comm_bytes_per_round(
                method,
                spec,
                samples_per_device=n_k,
                devices=cfg.devices,
                batch_size=cfg.batch_size,
                quantized=cfg.quantized,
                freeze_device=cfg.freeze_device or mode == "replay",
            )
            assert state.ledger.total(round_index=t) == predicted.total_bytes
            for purpose in netsim.PURPOSES:
                got = state.ledger.total(purpose=purpose, round_index=t)
                assert got == predicted.purpose_bytes[purpose] * cfg.devices
            got_up = state.ledger.total(direction="up", round_index=t)
            got_down = state.ledger.total(direction="down", round_index=t)
            assert got_up == predicted.per_device_up * cfg.devices
            assert got_down == predicted.per_device_down * cfg.devices


class TestTrafficContracts:
    def test_classic_moves_no_intermediates(self):
        out = runtime.run_training(make_config(mode="classic", pretrain_epochs=0))
        led = out.state.ledger
        for purpose in ("activation", "gradient", "labels"):
            assert led.total(purpose=purpose) == 0
        assert led.total(purpose="model_up") > 0

    def test_no_downlink_gradient_in_local_loss_and_replay(self):
        for mode, extra in [("local_loss", {}), ("replay", {"rho": 2})]:
            out = runtime.run_training(make_config(mode=mode, **extra))
            assert out.state.ledger.total(purpose="gradient") == 0

    def test_frozen_split_ledger_has_no_gradient_rows(self):
        # A frozen device stack runs no backward, so no gradient travels
        # downlink, and it is never synced.
        out = runtime.run_training(make_config(mode="split", freeze_device=True))
        assert {purpose for _, _, purpose in out.state.ledger.entries} == {"activation", "labels"}

    def test_replay_buffer_rounds_are_silent(self):
        out = runtime.run_training(make_config(mode="replay", rho=2, rounds=4))
        led = out.state.ledger
        for t in (1, 3):
            assert led.total(round_index=t) == 0
        for t in (0, 2):
            assert led.total(round_index=t, purpose="activation") > 0

    def test_local_loss_uplink_activation_half_of_split_roundtrip(self):
        split = runtime.run_training(make_config(mode="split"))
        lgl = runtime.run_training(make_config(mode="local_loss"))
        split_intermediate = split.state.ledger.total(
            purpose="activation"
        ) + split.state.ledger.total(purpose="gradient")
        lgl_intermediate = lgl.state.ledger.total(purpose="activation")
        assert lgl_intermediate * 2 == split_intermediate

    def test_replay_total_activation_bytes_follow_ceil_law(self):
        # T rounds at period rho move exactly ceil(T/rho) transmissions.
        per_tx = None
        for rho in (1, 2, 4):
            out = runtime.run_training(
                make_config(mode="replay", rho=rho, rounds=8)
            )
            total = out.state.ledger.total(purpose="activation")
            tx_rounds = -(-8 // rho)
            if per_tx is None:
                per_tx = total // tx_rounds
            assert total == per_tx * tx_rounds


class TestRunTraining:
    def test_smoke_one_round_one_device(self):
        cfg = make_config(mode="replay", devices=1, rounds=1, rho=1,
                          dataset={"kind": "blobs", "per_class": 16})
        out = runtime.run_training(cfg)
        assert 0.0 <= out.results[0].test_acc <= 1.0
        assert len(out.rows) == 1

    def test_device_count_checked_before_spawning_streams(self, monkeypatch):
        # A million devices must fail at sharding, not after a million spawns.
        class CappedSeedSequence(np.random.SeedSequence):
            def spawn(self, n_children):
                if n_children > 64:
                    raise RuntimeError(f"asked for {n_children} RNG streams")
                return super().spawn(n_children)

        monkeypatch.setattr(np.random, "SeedSequence", CappedSeedSequence)
        with pytest.raises(data_mod.DataError, match="1000000 shards"):
            runtime.init_state(make_config(devices=10**6))

    def test_same_seed_identical_metrics(self, tmp_path):
        paths = []
        for i in range(2):
            out = runtime.run_training(make_config(mode="replay", rho=2))
            path = tmp_path / f"metrics{i}.csv"
            runtime.write_metrics_csv(path, out.rows)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_different_seed_changes_trajectory(self):
        a = runtime.run_training(make_config(seed=1))
        b = runtime.run_training(make_config(seed=2))
        assert a.rows[-1]["server_loss"] != b.rows[-1]["server_loss"]

    def test_zero_lr_keeps_weights_constant(self):
        cfg = make_config(mode="split", lr=0.0, rounds=2, pretrain_epochs=0)
        state = runtime.init_state(cfg)
        before = kernel.param_vector(state.global_device + state.global_server)
        runtime.run_round_split(state, 0)
        runtime.run_round_split(state, 1)
        after = kernel.param_vector(state.global_device + state.global_server)
        assert before.tobytes() == after.tobytes()

    def test_loss_trend_window_non_increasing(self):
        # Soft invariant: windowed-mean loss over the run's halves, 5% slack.
        cfg = make_config(
            mode="replay", rho=2, rounds=20, lr=0.05,
            dataset={"kind": "blobs", "per_class": 128, "noise_sigma": 0.05},
            pretrain_epochs=2, seed=5,
        )
        out = runtime.run_training(cfg)
        losses = [float(np.mean(list(r.server_loss.values()))) for r in out.results]
        first, second = np.mean(losses[:10]), np.mean(losses[10:])
        assert second <= first * 1.05

    def test_final_model_concat_matches_partitioned_pair(self):
        out = runtime.run_training(make_config(mode="replay", rho=2))
        state = out.state
        whole = runtime.evaluate(out.final_model, state.dataset)
        pair = runtime.evaluate(
            state.global_device + state.global_server, state.dataset
        )
        assert whole == pair == out.results[-1].test_acc

    def test_pretraining_beats_no_pretraining_ablation(self):
        # Harder blobs; frozen random device features vs pretrained features.
        base = dict(
            mode="replay", rho=1, rounds=10, lr=0.05,
            dataset={"kind": "blobs", "per_class": 128, "noise_sigma": 0.3},
            seed=9,
        )
        pre = runtime.run_training(make_config(pretrain_epochs=3, **base))
        raw = runtime.run_training(make_config(pretrain_epochs=0, **base))
        pre_acc = runtime.evaluate(pre.final_model, pre.state.dataset, split="train")
        raw_acc = runtime.evaluate(raw.final_model, raw.state.dataset, split="train")
        assert pre_acc >= raw_acc

    def test_round_error_carries_round_context(self, monkeypatch):
        def boom(state, t, k, b, batch):
            raise kernel.KernelError("injected fault")

        monkeypatch.setitem(runtime._STEPS, "split", boom)
        with pytest.raises(runtime.TrainingError, match="round 0"):
            runtime.run_training(make_config(mode="split"))

    def test_cache_miss_before_first_refresh_is_explicit(self):
        from sflsim.buffer import BufferMiss

        state = runtime.init_state(make_config(mode="replay", rho=2, rounds=2))
        # Jumping straight to an off-switch round without ever transmitting
        # is a malformed schedule; the cache reports the miss explicitly.
        with pytest.raises(BufferMiss):
            runtime.run_round_replay(state, 1)


def test_metrics_csv_roundtrip(tmp_path):
    out = runtime.run_training(make_config(mode="replay", rho=2, rounds=2))
    path = tmp_path / "metrics.csv"
    runtime.write_metrics_csv(path, out.rows)
    rows = runtime.read_metrics_csv(path)
    assert len(rows) == len(out.rows)
    assert set(rows[0]) == set(runtime.METRICS_COLUMNS)
    assert int(rows[0]["bytes_up"]) == out.rows[0]["bytes_up"]
    assert float(rows[-1]["test_acc"]) == pytest.approx(out.rows[-1]["test_acc"])


def test_latency_recorded_positive_and_profile_sensitive():
    fast = runtime.run_training(make_config(profile="wifi", rounds=1))
    slow = runtime.run_training(make_config(profile="3g", rounds=1))
    assert slow.results[0].latency_s > fast.results[0].latency_s > 0


# SHA-256 of the final param_vector bytes (the full model, plus the local-loss
# head) and of the metrics rows after a 2-round run of each mode, from
# pinned_digests.json. A kernel change that keeps values but moves a bit, for
# instance by handing a later matmul a differently strided operand, changes
# these digests. They hold for the numpy/BLAS build that file names, at any
# BLAS thread count (test_pinned_digests_hold_on_one_blas_thread).
PINNED_RUNS = pinned("final_weights")


def pinned_run_digests(mode):
    """The SHA-256 of the final weights and of the metrics rows of the
    PINNED_RUNS run of ``mode``."""
    out = runtime.run_training(make_config(**PINNED_RUNS[mode]["config"]))
    weights = kernel.param_vector(out.final_model + (out.state.global_head or ())).tobytes()
    return hashlib.sha256(weights).hexdigest(), hashlib.sha256(repr(out.rows).encode()).hexdigest()


@pytest.mark.parametrize("mode", sorted(PINNED_RUNS))
def test_final_weights_are_pinned(mode):
    weights_sha, rows_sha = pinned_run_digests(mode)
    assert weights_sha == PINNED_RUNS[mode]["sha256"]["weights"]
    assert rows_sha == PINNED_RUNS[mode]["sha256"]["rows"]


def test_metrics_reader_rejects_non_utf8_bytes(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_bytes(b"\xff\xfe" + ",".join(runtime.METRICS_COLUMNS).encode("utf-16-le"))
    with pytest.raises(runtime.TrainingError, match="UTF-8"):
        runtime.read_metrics_csv(path)


# 2 x 600 blobs: a 300-sample test split, evaluated in chunks of 256 and 44.
LARGE_TEST = {"kind": "blobs", "per_class": 600, "noise_sigma": 0.5}


class TestFrozenForward:
    @pytest.mark.parametrize("mode,extra", [
        ("replay", {"rho": 2, "quantized": True, "diagnostics": True}),
        ("split", {"freeze_device": True, "diagnostics": True}),
    ])
    def test_memo_is_read_only_and_test_accuracy_equals_the_full_model(self, mode, extra):
        state = runtime.init_state(make_config(mode=mode, devices=2, dataset=LARGE_TEST, **extra))
        images = state.dataset.subset("test")[0]
        assert len(images) > 256
        for t in range(2):
            result = runtime.run_round(state, t)
            full = state.global_device + state.global_server
            assert result.test_acc == runtime.evaluate(full, state.dataset)
        inputs = {("test", 0): images[:256], ("test", 256): images[256:]}
        for k, batches in state.batches.items():
            inputs[("probe", k)] = state.dataset.images[state.probe_indices[k]]
            inputs.update({("batch", k, b): state.dataset.images[batch]
                           for b, batch in enumerate(batches)})
        assert set(state.frozen_outputs) == set(inputs)
        assert not any(p.flags.writeable for layer in state.global_device
                       for p in layer.params().values())
        for key, out in state.frozen_outputs.items():
            assert not out.flags.writeable
            assert out.tobytes() == kernel.predict(state.global_device, inputs[key]).tobytes()
        with pytest.raises(ValueError):
            out[...] = 0

    @pytest.mark.parametrize("mode,extra", [
        ("replay", {"rho": 2, "augment": True}),
        ("split", {"freeze_device": True, "augment": True}),
    ])
    def test_no_training_batch_is_kept_when_redrawn_or_spilled(self, mode, extra):
        out = runtime.run_training(make_config(mode=mode, devices=2, diagnostics=True, **extra))
        kinds = {key[0] for key in out.state.frozen_outputs}
        assert kinds == {"probe", "test"}

    def test_an_unfrozen_device_stack_is_never_kept(self):
        out = runtime.run_training(make_config(mode="split", devices=2, diagnostics=True))
        state = out.state
        assert not state.frozen_device and state.frozen_outputs == {}
        x = state.dataset.images[:2]
        out = state.device_output(("probe", 0), x)
        assert out.tobytes() == kernel.predict(state.global_device, x).tobytes()
        assert state.frozen_outputs == {}

    def test_without_a_device_stack_the_server_gets_the_input(self):
        state = runtime.run_training(
            make_config(mode="classic", devices=2, pretrain_epochs=0, diagnostics=True)).state
        x = state.dataset.images[:2]
        assert state.device_output(("test", 0), x) is x
        assert state.server_side is state.global_model and state.frozen_outputs == {}
