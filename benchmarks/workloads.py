"""The benchmark's workloads: one sflsim run configuration each.

Every workload trains on synthetic blob images. The config seed is the
benchmark's ``--seed``; nothing else in a workload depends on it. At
noise_sigma 0.05 every workload reaches test accuracy 1.0 within a few
rounds, so the workloads use 0.3-0.5, where the curves stay below it. ``rounds``
is the length of one episode (one ``init_state`` plus that many rounds);
the untraced and the traced run both use it, so the per-layer numbers
describe exactly the episodes the end-to-end numbers time.
"""

from __future__ import annotations

WORKLOADS = {
    "split_k4": {
        "why": (
            "The paper's main baseline and compute-bound: conv3x3 and maxpool "
            "dominate; no diagnostics, quantize or buffer."
        ),
        "rounds": 100,
        "config": {
            "mode": "split",
            "model": "tiny_vgg",
            "devices": 4,
            "lr": 0.05,
            "batch_size": 16,
            "augment": True,
            "freeze_device": False,
            "dataset": {"kind": "blobs", "per_class": 200, "noise_sigma": 0.5},
        },
    },
    "replay_diag": {
        "why": (
            "Replay with the 8-bit codec, the cache and the observer on; the only "
            "workload that runs quantize, buffer and diagnostics, and pretrains in set-up."
        ),
        "rounds": 100,
        "config": {
            "mode": "replay",
            "model": "tiny_res",
            "devices": 4,
            "lr": 0.05,
            "batch_size": 16,
            "rho": 4,
            "quantized": True,
            "pretrain_epochs": 2,
            "diagnostics": True,
            "dataset": {"kind": "blobs", "per_class": 64, "noise_sigma": 0.3},
        },
    },
    "fleet_k16": {
        "why": (
            "Local-loss with 16 devices of one 3-sample batch each, over many rounds: "
            "fixed per-device cost and the growing ledger dominate."
        ),
        "rounds": 150,
        "config": {
            "mode": "local_loss",
            "model": "tiny_vgg",
            "devices": 16,
            "lr": 0.05,
            "batch_size": 16,
            "dataset": {"kind": "blobs", "per_class": 48, "noise_sigma": 0.5},
        },
    },
}


def config_dict(name, seed):
    """The raw config for one workload at one seed, ready for config.from_dict."""
    workload = WORKLOADS[name]
    raw = dict(workload["config"], version=1, rounds=workload["rounds"], seed=seed)
    raw["dataset"] = dict(raw["dataset"])
    return raw
