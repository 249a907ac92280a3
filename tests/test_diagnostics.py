"""Diagnostics: estimator oracles and the bound report's arithmetic.

The smoothness estimator is checked against the exact top Hessian
eigenvalue of a quadratic objective; gradient norms are checked against
an independently scripted forward/backward; the bound's terms are checked
by direct arithmetic on synthetic records.
"""

import hashlib

import numpy as np
import pytest

from sflsim import config as config_mod
from sflsim import diagnostics as dg
from sflsim import kernel, models, runtime


def make_config(**overrides):
    base = {
        "version": 1,
        "mode": "replay",
        "model": "tiny_vgg",
        "devices": 2,
        "rounds": 4,
        "lr": 0.05,
        "batch_size": 8,
        "rho": 1,
        "quantized": False,
        "pretrain_epochs": 1,
        "dataset": {"kind": "blobs", "per_class": 48, "noise_sigma": 0.05},
        "diagnostics": True,
        "seed": 21,
    }
    base.update(overrides)
    return config_mod.from_dict(base)


def synth_record(t, eta, gnorm=1.0, loss=1.0, eps=0.0, delta=0.0, max_sq=1.0):
    return dg.DiagnosticsRecord(
        t=t,
        eta=eta,
        grad_norm_sq=gnorm,
        eps={0: eps},
        delta={0: delta},
        loss=loss,
        gamma=0.0,
        max_sample_grad_sq=max_sq,
        server_params=np.zeros(2),
    )


def scripted_probe_means(state, stacks):
    """(mean ||g||^2, mean loss) over devices, from fresh raw kernel calls
    on ``stacks`` (device -> (device stack, server stack))."""
    sqs, losses = [], []
    for k in sorted(state.batches):
        device, server = stacks[k]
        probe = state.probe_indices[k]
        x = state.dataset.images[probe]
        y = state.dataset.labels[probe]
        a = kernel.forward(device, x).output
        trace = kernel.forward(server, a)
        loss, dlogits = kernel.softmax_cross_entropy(trace.output, y)
        grads = kernel.backward(server, trace, dlogits)
        g = kernel.grad_vector(grads)
        sqs.append(float(g @ g))
        losses.append(loss)
    return np.mean(sqs), np.mean(losses)


def observe(state, t, stacks):
    """The round record the observer makes of ``stacks`` (device -> (device
    stack, server stack)), one record_round per device."""
    return dg.round_record([dg.record_round(state, t, k, *stacks[k]) for k in sorted(stacks)])


def single_sample_grad_sqs(server, a, y):
    """The reference for G: one forward/backward per sample."""
    out = []
    for i in range(len(y)):
        trace = kernel.forward(server, a[i : i + 1])
        _, dlogits = kernel.softmax_cross_entropy(trace.output, y[i : i + 1])
        g = kernel.grad_vector(kernel.backward(server, trace, dlogits))
        out.append(float(g @ g))
    return np.array(out)


class TestRecordRound:
    def test_grad_norm_matches_scripted_oracle(self):
        # Known stacks: a different server stack per device.
        state = runtime.run_training(make_config()).state
        rng = np.random.default_rng(4)
        theta = kernel.param_vector(state.global_server)
        stacks = {}
        for k in sorted(state.batches):
            server = models.clone_stack(state.global_server)
            kernel.load_param_vector(server, theta + 0.01 * rng.standard_normal(theta.shape))
            stacks[k] = (state.global_device, server)
        rec = observe(state, 4, stacks)
        sq_mean, loss_mean = scripted_probe_means(state, stacks)
        assert rec.grad_norm_sq == pytest.approx(sq_mean, rel=1e-12)
        assert rec.loss == pytest.approx(loss_mean, rel=1e-12)

    def test_runtime_measures_each_trained_server_stack(self, monkeypatch):
        # The observer sees each device's server stack as FedAvg gets it.
        seen, averaged = [], []
        record_round, fedavg = dg.record_round, runtime.fedavg

        def spy_record(state, t, k, device, server):
            seen.append(kernel.param_vector(server).tobytes())
            return record_round(state, t, k, device, server)

        def spy_fedavg(vectors, counts):
            averaged.extend(v.tobytes() for v in vectors)
            return fedavg(vectors, counts)

        monkeypatch.setattr(dg, "record_round", spy_record)
        monkeypatch.setattr(runtime, "fedavg", spy_fedavg)
        runtime.run_training(make_config(rounds=2))
        assert len(seen) == 4 and len(set(seen)) == 4 and seen == averaged

    def test_lossless_path_zeroes_eps_and_delta(self):
        # quantization off, every round transmits, device frozen.
        out = runtime.run_training(make_config(rho=1, quantized=False))
        for rec in out.state.diagnostics_records:
            assert all(v == 0.0 for v in rec.eps.values())
            assert all(v == 0.0 for v in rec.delta.values())

    def test_quantization_on_logs_positive_eps(self):
        out = runtime.run_training(make_config(rho=2, quantized=True))
        last = out.state.diagnostics_records[-1]
        assert all(v > 0.0 for v in last.eps.values())

    def test_zero_lr_leaves_server_params_unchanged(self):
        out = runtime.run_training(make_config(lr=0.0, rounds=3))
        recs = out.state.diagnostics_records
        for rec in recs[1:]:
            assert np.array_equal(rec.server_params, recs[0].server_params)

    def test_gamma_accumulates_etas(self):
        out = runtime.run_training(make_config(rounds=4))
        recs = out.state.diagnostics_records
        for i, rec in enumerate(recs):
            want = sum(r.eta for r in recs[: i + 1])
            assert rec.gamma == pytest.approx(want, rel=1e-6)
        assert all(b.gamma > a.gamma for a, b in zip(recs, recs[1:]))

    def test_observer_purity(self):
        # Enabling diagnostics must not change any trajectory bit.
        runs = {}
        for flag in (True, False):
            out = runtime.run_training(make_config(rho=2, quantized=True, diagnostics=flag))
            runs[flag] = kernel.param_vector(out.final_model)
        assert runs[True].tobytes() == runs[False].tobytes()


class TestSampleGradients:
    @pytest.mark.parametrize("n", [7, 1])
    @pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-10), (np.float32, 1e-5)])
    @pytest.mark.parametrize("model", ["tiny_vgg", "tiny_res"])
    def test_per_example_norms_match_single_sample_loop(self, model, dtype, rtol, n):
        # n = 7 is not a power of two, so the dlogits * n rescaling rounds.
        spec = models.ZOO[model]()
        built = models.build_model(spec, seed=9, dtype=dtype)
        device, server = models.partition(built, built.default_split)
        rng = np.random.default_rng(10)
        x = rng.uniform(0.0, 1.0, size=(n, *spec.input_shape)).astype(dtype)
        y = rng.integers(0, spec.num_classes, size=n)
        a = kernel.forward(device, x).output
        got = dg._sample_grad_sqs(server, kernel.forward(server, a), y)
        want = single_sample_grad_sqs(server, a, y)
        assert got.shape == (n,)
        np.testing.assert_allclose(got, want, rtol=rtol)

    def test_only_the_first_cap_samples_count(self):
        spec = models.ZOO["tiny_vgg"]()
        built = models.build_model(spec, seed=11)
        device, server = models.partition(built, built.default_split)
        rng = np.random.default_rng(12)
        x = rng.uniform(0.0, 1.0, size=(dg.SAMPLE_GRAD_CAP + 5, *spec.input_shape))
        y = rng.integers(0, spec.num_classes, size=len(x))
        a = kernel.forward(device, x.astype(np.float32)).output
        trace = kernel.forward(server, a)
        got = dg._sample_grad_sqs(server, trace, y)
        want = single_sample_grad_sqs(server, a[: dg.SAMPLE_GRAD_CAP], y[: dg.SAMPLE_GRAD_CAP])
        np.testing.assert_allclose(got, want, rtol=1e-5)
        # The probe trace's first rows give the same bits as a forward on them.
        cut = kernel.forward(server, a[: dg.SAMPLE_GRAD_CAP])
        assert got.tobytes() == dg._sample_grad_sqs(server, cut, y[: dg.SAMPLE_GRAD_CAP]).tobytes()


class TestProbeMemo:
    def test_unfrozen_split_never_reuses_probe_activations(self):
        out = runtime.run_training(
            make_config(mode="split", quantized=True, pretrain_epochs=0, rounds=2))
        state = out.state
        assert not state.frozen_device
        assert state.frozen_outputs == {}
        # An in-place write that bumps no version: only a fresh device
        # forward sees it, a stamped memo would not.
        state.global_device[0].params()["w"][...] *= 0.5
        stacks = {k: (state.global_device, state.global_server) for k in state.batches}
        rec = observe(state, 2, stacks)
        sq_mean, loss_mean = scripted_probe_means(state, stacks)
        assert rec.loss == pytest.approx(loss_mean, rel=1e-12)
        assert rec.grad_norm_sq == pytest.approx(sq_mean, rel=1e-12)
        assert state.frozen_outputs == {}

    def test_frozen_memo_recomputes_on_version_change(self):
        out = runtime.run_training(make_config(rounds=2))
        state = out.state
        probes = {key[1] for key in state.frozen_outputs if key[0] == "probe"}
        assert state.frozen_device and probes == set(state.batches)
        first, _ = dg.probe_batch(state, 0, state.global_device)
        again, _ = dg.probe_batch(state, 0, state.global_device)
        assert again is first
        theta = kernel.param_vector(state.global_device)
        kernel.load_param_vector(state.global_device, 0.5 * theta)  # bumps versions
        fresh, _ = dg.probe_batch(state, 0, state.global_device)
        x = state.dataset.images[state.probe_indices[0]]
        assert np.array_equal(fresh, kernel.forward(state.global_device, x).output)
        assert not np.array_equal(fresh, first)


class TestEstimateG:
    def test_singleton_equals_that_records_norm(self):
        rec = synth_record(0, 0.1, max_sq=3.25)
        assert dg.estimate_G([rec]) == 3.25

    def test_running_max_monotone(self):
        recs = [synth_record(t, 0.1, max_sq=m) for t, m in enumerate([1.0, 4.0, 2.0])]
        prefix = [dg.estimate_G(recs[: i + 1]) for i in range(3)]
        assert prefix == [1.0, 4.0, 4.0]
        assert all(b >= a for a, b in zip(prefix, prefix[1:]))

    def test_converged_run_contributes_near_zero(self):
        assert dg.estimate_G([synth_record(0, 0.1, max_sq=0.0)]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(dg.DiagnosticsError):
            dg.estimate_G([])


class TestEstimateL:
    def test_quadratic_matches_top_hessian_eigenvalue(self):
        # F(theta) = 0.5 theta' H theta with spectrum (5, 4.5, 4):
        # grad differences satisfy ||H d|| / ||d|| <= 5, and the max over
        # many random directions lands within 10% of 5.
        rng = np.random.default_rng(17)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        h = q @ np.diag([5.0, 4.5, 4.0]) @ q.T
        lam_max = float(np.linalg.eigvalsh(h).max())
        grad_fn = lambda theta: h @ theta
        l_hat = dg.estimate_L(
            grad_fn, [np.zeros(3)], np.random.default_rng(3), pairs_per_center=256
        )
        assert abs(l_hat - lam_max) / lam_max <= 0.10
        assert l_hat <= lam_max * (1 + 1e-9)

    def test_least_squares_data_matrix_form(self):
        # Same check phrased as (1/n)||X theta - y||^2: Hessian X'X/n.
        rng = np.random.default_rng(8)
        x = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        n = len(y)
        h = x.T @ x / n
        lam_max = float(np.linalg.eigvalsh(h).max())
        grad_fn = lambda theta: x.T @ (x @ theta - y) / n
        l_hat = dg.estimate_L(
            grad_fn, [np.zeros(3), rng.normal(size=3)],
            np.random.default_rng(4), pairs_per_center=200,
        )
        assert abs(l_hat - lam_max) / lam_max <= 0.10

    def test_deterministic_under_same_rng_seed(self):
        rng_vals = []
        grad_fn = lambda theta: 2.0 * theta
        for _ in range(2):
            rng_vals.append(
                dg.estimate_L(grad_fn, [np.ones(4)], np.random.default_rng(12))
            )
        assert rng_vals[0] == rng_vals[1]

    def test_rejects_empty_centers_and_bad_sigma(self):
        grad_fn = lambda theta: theta
        with pytest.raises(dg.DiagnosticsError):
            dg.estimate_L(grad_fn, [], np.random.default_rng(0))
        with pytest.raises(dg.DiagnosticsError):
            dg.estimate_L(grad_fn, [np.ones(2)], np.random.default_rng(0), sigma=0.0)

    def test_server_grad_fn_matches_direct_computation(self):
        spec = models.ZOO["tiny_vgg"]()
        model = models.build_model(spec, seed=5)
        _, server = models.partition(model, model.default_split)
        rng = np.random.default_rng(6)
        a = rng.normal(0.5, 0.2, size=(6, 16, 4, 4)).astype(np.float32)
        labels = rng.integers(0, 2, size=6)
        fn = dg.server_grad_fn(server, a, labels)
        theta = kernel.param_vector(server)
        trace = kernel.forward(server, a)
        _, dlogits = kernel.softmax_cross_entropy(trace.output, labels)
        direct = kernel.grad_vector(kernel.backward(server, trace, dlogits))
        assert np.array_equal(fn(theta), direct)

    def test_trajectory_smoothness_needs_a_final_round_probe(self):
        diagnostics_off = runtime.run_training(make_config(diagnostics=False, rounds=2)).state
        cut_short = runtime.init_state(make_config(rounds=3))
        runtime.run_round(cut_short, 0)
        for state in (diagnostics_off, cut_short):
            with pytest.raises(dg.DiagnosticsError, match="every configured round run"):
                dg.trajectory_smoothness(state)


class TestBoundReport:
    def test_lhs_and_terms_match_direct_arithmetic(self):
        recs = [
            synth_record(0, 0.1, gnorm=2.0, loss=1.0, eps=0.3, delta=0.1),
            synth_record(1, 0.2, gnorm=1.0, loss=0.4, eps=0.1, delta=0.2),
        ]
        g_hat, l_hat = 2.5, 3.0
        rep = dg.bound_report(recs, g_hat, l_hat)
        gamma = 0.1 + 0.2
        assert rep.gamma == pytest.approx(gamma)
        assert rep.lhs == pytest.approx((0.1 * 2.0 + 0.2 * 1.0) / gamma)
        assert rep.term_descent == pytest.approx(4 * (1.0 - 0.4) / (3 * gamma))
        assert rep.term_drift == pytest.approx(
            g_hat * (0.1 * 0.4 + 0.2 * 0.3) / gamma
        )
        assert rep.term_step == pytest.approx(
            g_hat * (l_hat / 2) * (0.1**2 + 0.2**2) / gamma
        )
        assert rep.rhs == pytest.approx(rep.term_descent + rep.term_drift + rep.term_step)

    def test_clean_path_drops_drift_term_exactly(self):
        recs = [synth_record(t, 0.1, eps=0.0, delta=0.0) for t in range(3)]
        rep = dg.bound_report(recs, 2.0, 1.0)
        assert rep.term_drift == 0.0
        assert rep.rhs == rep.term_descent + rep.term_step

    def test_decaying_schedule_rhs_non_increasing(self):
        # eta_t = 1/(t+1), constant loss, no drift: both RHS terms shrink
        # as rounds accumulate, so the running RHS is non-increasing.
        recs = [
            synth_record(t, 1.0 / (t + 1), gnorm=1.0, loss=1.0) for t in range(40)
        ]
        rhs = [dg.bound_report(recs[:T], 1.0, 1.0).rhs for T in range(2, 41)]
        assert all(b <= a + 1e-12 for a, b in zip(rhs, rhs[1:]))

    def test_needs_two_records(self):
        with pytest.raises(dg.DiagnosticsError):
            dg.bound_report([synth_record(0, 0.1)], 1.0, 1.0)

    def test_warning_message_when_bound_fails(self):
        recs = [synth_record(t, 0.1, gnorm=100.0, loss=1.0) for t in range(2)]
        rep = dg.bound_report(recs, 0.001, 0.001)
        assert not rep.holds
        assert "WARNING" in rep.message
        assert "WARNING" not in dg.format_report(
            dg.bound_report(recs, 100.0, 100.0)
        )


class TestCsv:
    def test_roundtrip(self, tmp_path):
        out = runtime.run_training(make_config(rounds=4))
        recs = out.state.diagnostics_records
        path = tmp_path / "diagnostics.csv"
        dg.write_diagnostics_csv(path, recs, g_hat=2.0, l_hat=1.5)
        rows = dg.read_diagnostics_csv(path)
        assert len(rows) == 4
        assert rows[0]["lhs_running"] is None  # bound needs two rounds
        assert rows[-1]["t"] == 3
        rep = dg.bound_report(recs, 2.0, 1.5)
        assert rows[-1]["lhs_running"] == pytest.approx(rep.lhs)
        assert rows[-1]["rhs_running"] == pytest.approx(rep.rhs)
        assert rows[-1]["gamma"] == pytest.approx(recs[-1].gamma)

    def test_rejects_foreign_csv(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(dg.DiagnosticsError):
            dg.read_diagnostics_csv(path)

    def test_rejects_empty_log(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(dg.CSV_COLUMNS) + "\n")
        with pytest.raises(dg.DiagnosticsError):
            dg.read_diagnostics_csv(path)


def test_staleness_positive_with_augmentation_and_long_period():
    # With augmentation on, a cached activation was computed on a different
    # flip draw than a fresh forward, so the staleness proxy turns positive.
    out = runtime.run_training(
        make_config(rho=4, rounds=4, quantized=False, augment=True, seed=3)
    )
    recs = out.state.diagnostics_records
    assert any(v > 0 for rec in recs for v in rec.delta.values())


SMALL_BLOBS = {"kind": "blobs", "per_class": 12, "noise_sigma": 0.3}

# sha256 of the diagnostics.csv of the run below, recorded on the code that
# kept a snapshot every round and ran a second server forward for G.
SEVENTEEN_ROUND_DIAGNOSTICS_SHA256 = "78ade30d569865763ce6a0f2f1c0aa217d43a6f0e7f3caa8ed96587dd864bbee"


class TestObserverBudget:
    @pytest.mark.parametrize("rounds", [1, 7, 9, 17])
    def test_snapshots_only_at_the_trajectory_centres(self, rounds):
        out = runtime.run_training(make_config(rounds=rounds, rho=3, dataset=SMALL_BLOBS))
        recs = out.state.diagnostics_records
        assert [r.t for r in recs] == list(range(rounds))
        kept = [r.t for r in recs if r.server_params is not None]
        assert kept == list(range(rounds)[:: max(1, rounds // 8)])

    def test_seventeen_round_diagnostics_log_is_pinned(self, tmp_path):
        # 12-sample probes: G comes from a cut of 8 rows of the probe trace.
        cfg = make_config(model="tiny_res", rounds=17, rho=3, quantized=True,
                          dataset=dict(SMALL_BLOBS, per_class=24))
        out = runtime.run_training(cfg)
        recs = out.state.diagnostics_records
        path = tmp_path / "diagnostics.csv"
        dg.write_diagnostics_csv(path, recs, dg.estimate_G(recs), dg.trajectory_smoothness(out.state))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SEVENTEEN_ROUND_DIAGNOSTICS_SHA256

    @pytest.mark.parametrize("quantized,augment,server_passes,device_passes", [
        (True, False, 2, 0),  # probe, decoded probe; the memo serves the device side
        (False, False, 1, 0),  # a lossless pipeline has eps = 0 without a pass
        (True, True, 2, 1),  # an augmented staleness batch is run afresh
    ])
    def test_passes_per_device_after_round_0(self, monkeypatch, quantized, augment,
                                             server_passes, device_passes):
        cfg = make_config(model="tiny_res", rho=2, quantized=quantized, augment=augment,
                          dataset=SMALL_BLOBS)
        state = runtime.init_state(cfg)
        for t in range(2):
            runtime.run_round(state, t)
        calls = []

        def counting(fn):
            def run(layers, x):
                calls.append(id(layers))
                return fn(layers, x)
            return run

        monkeypatch.setattr(kernel, "forward", counting(kernel.forward))
        monkeypatch.setattr(kernel, "predict", counting(kernel.predict))
        for k in sorted(state.batches):
            dg.record_round(state, 2, k, state.global_device, state.global_server)
        assert calls.count(id(state.global_server)) == server_passes * len(state.batches)
        assert calls.count(id(state.global_device)) == device_passes * len(state.batches)
