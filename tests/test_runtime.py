"""Training runtime: aggregation oracles, protocol traffic contracts,
trajectory equivalence, and determinism.

The weighted-mean oracle values are scripted independently inside the
tests; the equivalence and ledger-agreement tests are paired seeded runs.
"""

import hashlib

import numpy as np
import pytest
from _helpers import fedavg_reference, flat_state

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


class TestEvaluate:
    def test_constant_predictor_on_single_class(self):
        cfg = make_config()
        state = runtime.init_state(cfg)
        dataset = state.dataset
        # Bias the final dense layer so class 0 always wins.
        layers = models.concat_weights(state.global_device, state.global_server)
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
        state.dataset.labels = rng.integers(0, 2, size=len(state.dataset.labels))
        acc = runtime.evaluate(
            models.concat_weights(state.global_device, state.global_server),
            state.dataset,
            split="test",
        )
        assert abs(acc - 0.5) <= 3 * np.sqrt(0.25 / 1000)

    def test_round_acc_equals_concat_exactly(self):
        cfg = make_config()
        state = runtime.init_state(cfg)
        result = runtime.run_round(state, 0)
        concat = runtime.evaluate(
            models.concat_weights(state.global_device, state.global_server), state.dataset
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
    state = runtime.init_state(make_config(mode=mode, diagnostics=True, **extra))
    clone, calls = models.clone_stack, []
    monkeypatch.setattr(models, "clone_stack", lambda layers: calls.append(1) or clone(layers))
    for t in range(state.config.rounds):
        runtime.run_round(state, t)
    assert calls == []


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
            models.concat_weights(state.global_device, state.global_server), state.dataset
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
# head) and of the metrics rows after a 2-round run of each mode. A kernel
# change that keeps values but moves a bit, for instance by handing a later
# matmul a differently strided operand, changes these digests. They predate
# the strided maxpool, input_grad=False, predict, the tensordot conv weight
# gradient and the direct-matmul convolutions, which kept them; the
# split_frozen pair predates frozen split's trace-free device forward. They
# hold for the numpy/BLAS build named in README's "Tests and acceptance gates".
PINNED_RUNS = {
    "classic": (
        {"mode": "classic", "pretrain_epochs": 0},
        "acfe50ab1f2d56372dca6d94de20ef3c34a2417256aa5e623946656f4366675b",
        "7accf60a4e7be0505e39ec58577da98073c7372eb3321767d576b83fad647c41",
    ),
    "split": (
        {"mode": "split", "augment": True, "pretrain_epochs": 0},
        "fa1c3e1b8381e7a3614b579aecce4c4dc39e8ae7f7a8516ec281875447d30fab",
        "7ab93f42e9ce303f2faee1bb55c0c00f0353a8073669f2973ba18926ceade90e",
    ),
    "split_frozen": (
        {"mode": "split", "freeze_device": True},
        "abfdbaf9b58dcf6f52a8900e6951dd8fe1c2388c76262306ce01110da95325a8",
        "64d00e86c763f3cd2dd17bcedb6e25d565ea14e56cb440ef9c07360a6fe10f14",
    ),
    "local_loss": (
        {"mode": "local_loss"},
        "7f6f56eccc0d66c5eeab2e4cba1409e96f6f0162692f154c79a837f2eff6b31e",
        "c6e24a63edf12c59d6265b56dc0db13c218665d7cd9ea9bc729bcadec0646a84",
    ),
    "replay": (
        {"mode": "replay", "model": "tiny_res", "rho": 2, "diagnostics": True},
        "fbe55bb257c45ce02bd9717b3bbe79074dc64d5e00bd917b95d34edaccf29d55",
        "17412ecf0852130d4173bb77b38bda7e3f1c400590cf23d4d89b6d7eb6a5cb76",
    ),
}


@pytest.mark.parametrize("mode", sorted(PINNED_RUNS))
def test_final_weights_are_pinned(mode):
    overrides, weights_sha, rows_sha = PINNED_RUNS[mode]
    cfg = make_config(devices=2, rounds=2, seed=7,
                      dataset={"kind": "blobs", "per_class": 16, "noise_sigma": 0.3},
                      **overrides)
    out = runtime.run_training(cfg)
    stacks = out.final_model + (out.state.global_head or [])
    weights = kernel.param_vector(stacks).tobytes()
    rows = repr(out.rows).encode()
    assert hashlib.sha256(weights).hexdigest() == weights_sha
    assert hashlib.sha256(rows).hexdigest() == rows_sha


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
            full = models.concat_weights(state.global_device, state.global_server)
            assert result.test_acc == runtime.evaluate(full, state.dataset)
        inputs = {("test", 0): images[:256], ("test", 256): images[256:]}
        for k, batches in state.batches.items():
            inputs[("probe", k)] = state.dataset.images[state.probe_indices[k]]
            inputs.update({("batch", k, b): state.dataset.images[batch]
                           for b, batch in enumerate(batches)})
        assert set(state.frozen_outputs) == set(inputs)
        for key, (stamp, out) in state.frozen_outputs.items():
            assert stamp == kernel.stamp(state.global_device) and not out.flags.writeable
            assert out.tobytes() == kernel.predict(state.global_device, inputs[key]).tobytes()
        with pytest.raises(ValueError):
            out[...] = 0

    @pytest.mark.parametrize("mode,extra", [
        ("replay", {"rho": 2, "augment": True}),
        ("replay", {"rho": 2, "spill_dir": "SPILL"}),
        ("split", {"freeze_device": True, "augment": True}),
    ])
    def test_no_training_batch_is_kept_when_redrawn_or_spilled(self, tmp_path, mode, extra):
        if extra.get("spill_dir"):
            extra = dict(extra, spill_dir=str(tmp_path / "spill"))
        out = runtime.run_training(make_config(mode=mode, devices=2, diagnostics=True, **extra))
        kinds = {key[0] for key in out.state.frozen_outputs}
        assert kinds == {"probe", "test"}

    def test_an_unfrozen_device_stack_is_never_kept(self):
        out = runtime.run_training(make_config(mode="split", devices=2, diagnostics=True))
        state = out.state
        assert not state.frozen_device and state.frozen_outputs == {}
        with pytest.raises(runtime.TrainingError, match="frozen"):
            state.frozen_forward(("probe", 0), state.dataset.images[:2])
