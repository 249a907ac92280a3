"""Diagnostics: estimator oracles and the bound report's arithmetic.

The smoothness estimator is checked against the exact top Hessian
eigenvalue of a quadratic objective; gradient norms are checked against
an independently scripted forward/backward; the bound's terms are checked
by direct arithmetic on synthetic records.
"""

import csv
import hashlib
import json
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from _helpers import pinned
from test_runtime import PINNED_RUNS

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
        max_sample_grad_sq=max_sq,
        server_params=np.zeros(2),
    )


def scripted_probe_means(state, servers):
    """(mean ||g||^2, mean loss) over devices, from fresh raw kernel calls
    on the state's device stack and ``servers`` (device -> server stack)."""
    sqs, losses = [], []
    for k in sorted(state.batches):
        probe = state.probe_indices[k]
        x = state.dataset.images[probe]
        y = state.dataset.labels[probe]
        a = kernel.forward(state.global_device, x).output
        trace = kernel.forward(servers[k], a)
        loss, dlogits = kernel.softmax_cross_entropy(trace.output, y)
        grads = kernel.backward(servers[k], trace, dlogits)
        g = kernel.grad_vector(grads)
        sqs.append(float(g @ g))
        losses.append(loss)
    return np.mean(sqs), np.mean(losses)


def observe(state, t, servers):
    """The round record the observer makes of ``servers`` (device -> server
    stack): each device's weights loaded into the state's global server
    stack, then that device's record_round with its staleness draw."""
    records, draws = [], dg.staleness_draws(state)
    for k in sorted(servers):
        kernel.load_param_vector(state.global_server, kernel.param_vector(servers[k]))
        records.append(dg.record_round(state, t, k, draws.get(k)))
    return dg.round_record(records)


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
        servers = {}
        for k in sorted(state.batches):
            servers[k] = models.clone_stack(state.global_server)
            kernel.load_param_vector(servers[k], theta + 0.01 * rng.standard_normal(theta.shape))
        rec = observe(state, 4, servers)
        sq_mean, loss_mean = scripted_probe_means(state, servers)
        assert rec.grad_norm_sq == pytest.approx(sq_mean, rel=1e-12)
        assert rec.loss == pytest.approx(loss_mean, rel=1e-12)

    def test_runtime_measures_each_trained_server_stack(self, monkeypatch):
        # The observer sees each device's server stack as FedAvg gets it.
        seen, averaged = [], []
        record_round, fedavg = dg.record_round, runtime.fedavg

        def spy_record(state, t, k, *args):
            seen.append(kernel.param_vector(state.global_server).tobytes())
            return record_round(state, t, k, *args)

        def spy_fedavg(vectors, counts):
            averaged.extend(v.tobytes() for v in vectors)
            return fedavg(vectors, counts)

        monkeypatch.setattr(dg, "record_round", spy_record)
        monkeypatch.setattr(runtime, "fedavg", spy_fedavg)
        monkeypatch.setattr(runtime, "parallel_slots", lambda: 1)  # every device in this process
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

    def test_a_round_record_reads_no_earlier_record(self):
        cfg = make_config(rounds=3)
        kept, emptied = runtime.init_state(cfg), runtime.init_state(cfg)
        for state in (kept, emptied):
            runtime.run_round(state, 0)
        emptied.diagnostics_records.clear()
        for state in (kept, emptied):
            runtime.run_round(state, 1)
        assert len(kept.diagnostics_records) == 2 and len(emptied.diagnostics_records) == 1
        assert (pickle.dumps(kept.diagnostics_records[-1])
                == pickle.dumps(emptied.diagnostics_records[-1]))

    def test_gamma_accumulates_etas(self):
        out = runtime.run_training(make_config(rounds=4))
        recs = out.state.diagnostics_records
        gammas = [gamma for gamma, _ in dg.bound_reports(recs, 1.0, 1.0)]
        for i, gamma in enumerate(gammas):
            want = sum(r.eta for r in recs[: i + 1])
            assert gamma == pytest.approx(want, rel=1e-6)
        assert all(b > a for a, b in zip(gammas, gammas[1:]))

    def test_observer_purity(self):
        # Enabling diagnostics must not change any trajectory bit.
        runs = {}
        for flag in (True, False):
            out = runtime.run_training(make_config(rho=2, quantized=True, diagnostics=flag))
            runs[flag] = kernel.param_vector(out.final_model)
        assert runs[True].tobytes() == runs[False].tobytes()

    def test_keeps_a_nan_sample_norm(self):
        state = runtime.init_state(make_config(mode="split", quantized=True))
        kernel.load_param_vector(
            state.global_server, np.full(kernel.param_vector(state.global_server).size, np.nan))
        with np.errstate(all="ignore"):
            assert np.isnan(dg.record_round(state, 0, 0, None).max_sample_grad_sq)


class TestSampleGradients:
    @pytest.mark.parametrize("n", [7, 1])
    @pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-10), (np.float32, 1e-5)])
    @pytest.mark.parametrize("model", ["tiny_vgg", "tiny_res"])
    def test_per_example_norms_match_single_sample_loop(self, model, dtype, rtol, n):
        # n = 7 is not a power of two, so the rescaling by n**2 rounds.
        spec = models.ZOO[model]
        built = models.build_model(spec, seed=9, dtype=dtype)
        device, server = models.partition(built, models.analyze(spec).op_index)
        rng = np.random.default_rng(10)
        x = rng.uniform(0.0, 1.0, size=(n, *spec.input_shape)).astype(dtype)
        y = rng.integers(0, spec.num_classes, size=n)
        a = kernel.forward(device, x).output
        got = dg.probe_gradients(server, a, y)[2]
        want = single_sample_grad_sqs(server, a, y)
        assert got.shape == (n,)
        np.testing.assert_allclose(got, want, rtol=rtol)

    def test_only_the_first_cap_samples_count(self):
        spec = models.ZOO["tiny_vgg"]
        built = models.build_model(spec, seed=11)
        device, server = models.partition(built, models.analyze(spec).op_index)
        rng = np.random.default_rng(12)
        x = rng.uniform(0.0, 1.0, size=(dg.SAMPLE_GRAD_CAP + 5, *spec.input_shape))
        y = rng.integers(0, spec.num_classes, size=len(x))
        a = kernel.forward(device, x.astype(np.float32)).output
        got = dg.probe_gradients(server, a, y)[2]
        want = single_sample_grad_sqs(server, a[: dg.SAMPLE_GRAD_CAP], y[: dg.SAMPLE_GRAD_CAP])
        assert got.shape == (dg.SAMPLE_GRAD_CAP,)
        np.testing.assert_allclose(got, want, rtol=1e-5)


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
        servers = {k: state.global_server for k in state.batches}
        rec = observe(state, 2, servers)
        sq_mean, loss_mean = scripted_probe_means(state, servers)
        assert rec.loss == pytest.approx(loss_mean, rel=1e-12)
        assert rec.grad_norm_sq == pytest.approx(sq_mean, rel=1e-12)
        assert state.frozen_outputs == {}

    def test_frozen_memo_is_reused_and_its_stack_refuses_writes(self):
        out = runtime.run_training(make_config(rounds=2))
        state = out.state
        probes = {key[1] for key in state.frozen_outputs if key[0] == "probe"}
        assert state.frozen_device and probes == set(state.batches)
        first, _ = dg.probe_batch(state, 0)
        again, _ = dg.probe_batch(state, 0)
        assert again is first
        # The version change the memo once checked for cannot happen: the
        # frozen stack is read-only, so the write raises and changes nothing.
        theta = kernel.param_vector(state.global_device)
        with pytest.raises(ValueError):
            kernel.load_param_vector(state.global_device, 0.5 * theta)
        assert kernel.param_vector(state.global_device).tobytes() == theta.tobytes()
        assert dg.probe_batch(state, 0)[0] is first


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

    @pytest.mark.parametrize("norms", [[1.0, np.nan], [np.nan, 1.0]])
    def test_nan_passes_through_in_either_order(self, norms):
        recs = [synth_record(t, 0.1, max_sq=m) for t, m in enumerate(norms)]
        assert np.isnan(dg.estimate_G(recs))
        assert np.isnan(dg.round_record(recs).max_sample_grad_sq)


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

    def test_nan_gradients_give_nan(self):
        grad_fn = lambda theta: np.full(3, np.nan)
        assert np.isnan(dg.estimate_L(grad_fn, [np.zeros(3)], np.random.default_rng(0)))

    def test_a_perturbation_that_rounds_away_gives_nan_at_once(self):
        # float64 spacing at 1e17 is 16, so every sigma = 0.01 step rounds
        # away and w == v: each pair is drawn once and its ratio is NaN.
        start = time.perf_counter()
        l_hat = dg.estimate_L(lambda w: 2 * w, [np.full(3, 1e17)], np.random.default_rng(0))
        assert np.isnan(l_hat)
        assert time.perf_counter() - start < 1.0

    def test_rejects_empty_centers_and_bad_sigma(self):
        grad_fn = lambda theta: theta
        with pytest.raises(dg.DiagnosticsError):
            dg.estimate_L(grad_fn, [], np.random.default_rng(0))
        with pytest.raises(dg.DiagnosticsError):
            dg.estimate_L(grad_fn, [np.ones(2)], np.random.default_rng(0), sigma=0.0)

    def test_server_grad_fn_matches_direct_computation(self):
        spec = models.ZOO["tiny_vgg"]
        model = models.build_model(spec, seed=5)
        _, server = models.partition(model, models.analyze(spec).op_index)
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

    def test_zero_gamma_rejected(self):
        with pytest.raises(dg.DiagnosticsError, match="Gamma must be positive"):
            dg.bound_report([synth_record(t, 0.0) for t in range(3)], 1.0, 1.0)


def reference_bound_report(records, g_hat, l_hat):
    """bound_report as it was before the running form: every sum re-taken
    over the whole prefix. The reference the one pass must match bit for
    bit."""
    records = list(records)
    if len(records) < 2:
        raise dg.DiagnosticsError("bound_report needs at least 2 records")
    gamma = sum(r.eta for r in records)
    if gamma <= 0:
        raise dg.DiagnosticsError("Gamma must be positive")
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
    return dg.BoundReport(
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


def reference_prefix_reports(records, g_hat, l_hat):
    """The reference report of every prefix, None where it is undefined."""
    out = []
    for i in range(len(records)):
        try:
            out.append(reference_bound_report(records[: i + 1], g_hat, l_hat))
        except dg.DiagnosticsError:
            out.append(None)
    return out


def random_records(rounds, devices=3):
    """Records as the observer logs them, from random values: about one
    round in five, the first max(1, rounds // 10) among them, has eta 0, so
    the leading rows have Gamma 0."""
    rng = np.random.default_rng(rounds)
    etas = np.where(rng.random(rounds) < 0.2, 0.0, rng.uniform(0.01, 0.2, rounds))
    etas[-1] = 0.1
    etas[: max(1, rounds // 10)] = 0.0
    records = []
    for t, eta in enumerate(etas.tolist()):
        records.append(dg.DiagnosticsRecord(
            t=t,
            eta=eta,
            grad_norm_sq=float(rng.exponential()),
            eps={k: float(rng.exponential(1e-3)) for k in range(devices)},
            delta={k: float(rng.exponential(1e-2)) for k in range(devices)},
            loss=float(rng.uniform(0.1, 2.0)),
            max_sample_grad_sq=1.0,
            server_params=None,
        ))
    return records


class TestRunningBound:
    G_HAT, L_HAT = 2.7, 0.9

    @pytest.mark.parametrize("rounds", [1, 2, 50, 300])
    def test_running_form_is_the_per_prefix_formula(self, tmp_path, rounds):
        recs = random_records(rounds)
        expected = reference_prefix_reports(recs, self.G_HAT, self.L_HAT)
        gammas = [sum(r.eta for r in recs[: i + 1]) for i in range(rounds)]
        pairs = list(dg.bound_reports(recs, self.G_HAT, self.L_HAT))
        assert [repr(r) for _, r in pairs] == [repr(r) for r in expected]
        assert [repr(gamma) for gamma, _ in pairs] == [repr(gamma) for gamma in gammas]
        if expected[-1] is not None:
            assert repr(dg.bound_report(recs, self.G_HAT, self.L_HAT)) == repr(expected[-1])
        if rounds >= 50:  # blank rows past the first, and both verdicts
            assert expected[1] is None
            assert {r.holds for r in expected if r is not None} == {False, True}
        path = tmp_path / "diagnostics.csv"
        dg.write_diagnostics_csv(path, recs, self.G_HAT, self.L_HAT)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(dg.CSV_COLUMNS)
        assert rows[1:] == [
            [str(r.t), repr(r.eta), repr(r.grad_norm_sq), repr(r.eps_mean),
             repr(r.delta_mean), repr(r.loss), repr(gamma),
             "" if ref is None else repr(ref.lhs), "" if ref is None else repr(ref.rhs)]
            for r, gamma, ref in zip(recs, gammas, expected)
        ]

    def test_writer_reads_each_record_at_most_twice(self, tmp_path, monkeypatch):
        reads = []
        eps_mean = dg.DiagnosticsRecord.eps_mean.fget

        def counted(record):
            reads.append(record.t)
            return eps_mean(record)

        monkeypatch.setattr(dg.DiagnosticsRecord, "eps_mean", property(counted))
        recs = random_records(200)
        dg.write_diagnostics_csv(tmp_path / "diagnostics.csv", recs, self.G_HAT, self.L_HAT)
        assert 0 < len(reads) <= 2 * len(recs)


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
        assert rows[-1]["gamma"] == pytest.approx(sum(r.eta for r in recs))

    def test_gamma_column_is_the_bound_pass_running_sum(self, tmp_path):
        out = runtime.run_training(make_config(rounds=4))
        recs = out.state.diagnostics_records
        path = tmp_path / "diagnostics.csv"
        dg.write_diagnostics_csv(path, recs, g_hat=2.0, l_hat=1.5)
        gammas = [row["gamma"] for row in dg.read_diagnostics_csv(path)]
        assert gammas == [sum(r.eta for r in recs[: i + 1]) for i in range(len(recs))]
        assert all(b > a for a, b in zip(gammas, gammas[1:]))
        reports = [rep for _, rep in dg.bound_reports(recs, 2.0, 1.5)]
        assert reports[0] is None
        assert [rep.gamma for rep in reports[1:]] == gammas[1:]

    def test_gamma_column_is_a_float_for_integer_etas(self, tmp_path):
        path = tmp_path / "diagnostics.csv"
        dg.write_diagnostics_csv(path, [synth_record(t, eta) for t, eta in enumerate((0, 1, 1))],
                                 g_hat=1.0, l_hat=1.0)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["eta"], row["gamma"]) for row in rows] == [
            ("0", "0.0"), ("1", "1.0"), ("1", "2.0")]

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

# The diagnostics.csv of a 17-round tiny_res replay run with 12-sample probes,
# so G comes from the first 8 rows of each probe's backward, and its SHA-256.
SEVENTEEN_ROUNDS = pinned("diagnostics_log", "seventeen_rounds")


# A 3-round replay run with augmentation and the observer, at rho 2 and
# quantized: its staleness batches draw their flips from diag_rng, so these
# digests pin that stream's order along with the weights and metrics rows.
AUGMENTED_REPLAY = pinned("diagnostics_log", "augmented_replay")


def diagnostics_log_sha(out, tmp_path):
    """The SHA-256 of the diagnostics.csv that ``run`` writes for ``out``."""
    recs = out.state.diagnostics_records
    path = tmp_path / "diagnostics.csv"
    dg.write_diagnostics_csv(path, recs, dg.estimate_G(recs), dg.trajectory_smoothness(out.state))
    return hashlib.sha256(path.read_bytes()).hexdigest()


def seventeen_round_log_sha(tmp_path):
    """The SHA-256 of the SEVENTEEN_ROUNDS run's diagnostics.csv."""
    out = runtime.run_training(make_config(**SEVENTEEN_ROUNDS["config"]))
    return diagnostics_log_sha(out, tmp_path)


class TestObserverBudget:
    @pytest.mark.parametrize("rounds", [1, 7, 9, 17])
    def test_snapshots_only_at_the_trajectory_centres(self, rounds):
        out = runtime.run_training(make_config(rounds=rounds, rho=3, dataset=SMALL_BLOBS))
        recs = out.state.diagnostics_records
        assert [r.t for r in recs] == list(range(rounds))
        kept = [r.t for r in recs if r.server_params is not None]
        assert kept == list(range(rounds)[:: max(1, rounds // 8)])

    def test_seventeen_round_diagnostics_log_is_pinned(self, tmp_path):
        assert seventeen_round_log_sha(tmp_path) == SEVENTEEN_ROUNDS["sha256"]["csv"]

    @pytest.mark.parametrize("slots", [1, 2])
    def test_augmented_replay_run_is_pinned(self, tmp_path, monkeypatch, slots):
        # With 2 slots the last two devices train, and are measured, in a worker.
        monkeypatch.setattr(runtime, "parallel_slots", lambda: slots)
        out = runtime.run_training(make_config(**AUGMENTED_REPLAY["config"]))
        weights = kernel.param_vector(out.final_model).tobytes()
        assert {
            "weights": hashlib.sha256(weights).hexdigest(),
            "rows": hashlib.sha256(repr(out.rows).encode()).hexdigest(),
            "csv": diagnostics_log_sha(out, tmp_path),
        } == AUGMENTED_REPLAY["sha256"]

    def test_pinned_digests_hold_on_one_blas_thread(self, tmp_path):
        # The in-process runs use as many BLAS threads as the host has CPUs.
        # A BLAS dot splits a long vector across them, so its rounding
        # depends on their number; the observer's numpy sums do not.
        tests = Path(__file__).resolve().parent
        path = os.pathsep.join([str(Path(dg.__file__).resolve().parents[1]), str(tests),
                                os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        # With one BLAS thread a round trains a group of devices per CPU, in
        # worker processes; pinned to one CPU it trains them all in one
        # process. The digests hold on both paths, and no warning is raised.
        script = ("import json, os, pathlib, sys, test_diagnostics, test_runtime\n"
                  "from sflsim import runtime\n"
                  "def run():\n"
                  "    return [runtime.parallel_slots(), test_runtime.pinned_run_digests('replay'),\n"
                  "        test_diagnostics.seventeen_round_log_sha(pathlib.Path(sys.argv[1]))]\n"
                  "runs = [run()]\n"
                  "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
                  "print(json.dumps(runs + [run()]))\n")
        proc = subprocess.run([sys.executable, "-W", "error", "-c", script, str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs = json.loads(proc.stdout)
        assert [slots for slots, _, _ in runs] == [len(os.sched_getaffinity(0)), 1]
        for _, replay, log in runs:
            assert replay == [PINNED_RUNS["replay"]["sha256"][k] for k in ("weights", "rows")]
            assert log == SEVENTEEN_ROUNDS["sha256"]["csv"]

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
        calls, backwards = [], []

        def counting(fn, into):
            def run(layers, *args, **kwargs):
                into.append(id(layers))
                return fn(layers, *args, **kwargs)
            return run

        monkeypatch.setattr(kernel, "forward", counting(kernel.forward, calls))
        monkeypatch.setattr(kernel, "predict", counting(kernel.predict, calls))
        monkeypatch.setattr(kernel, "backward", counting(kernel.backward, backwards))
        draws = dg.staleness_draws(state)
        for k in sorted(state.batches):
            dg.record_round(state, 2, k, draws[k])
        # A server pass is one forward and one backward: G takes no pass of its own.
        for counted in (calls, backwards):
            assert counted.count(id(state.global_server)) == server_passes * len(state.batches)
        assert calls.count(id(state.global_device)) == device_passes * len(state.batches)
