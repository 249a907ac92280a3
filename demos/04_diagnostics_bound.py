"""Convergence diagnostics: discrepancy estimates and the bound report.

Runs the cached-activation mode with the diagnostics observer attached,
prints the per-round discrepancy estimates, then checks the accumulated
gradient-norm sum against its theoretical ceiling.
"""

import tempfile
from pathlib import Path

from sflsim import cli, config, diagnostics, runtime

CFG = {
    "version": 1,
    "mode": "replay",
    "model": "tiny_vgg",
    "devices": 3,
    "rounds": 15,
    "lr": 0.05,
    "batch_size": 16,
    "rho": 3,
    "quantized": True,
    "pretrain_epochs": 2,
    "seed": 404,
    "diagnostics": True,
    "dataset": {"kind": "blobs", "per_class": 128, "noise_sigma": 0.08},
}


def main():
    out = runtime.run_training(config.from_dict(CFG))
    records = out.state.diagnostics_records

    print("per-round observer readings (quantization on, period 3):")
    print(f"{'t':>3} {'loss':>8} {'|grad|^2':>9} {'eps_mean':>9} {'delta_mean':>10}")
    for rec in records:
        print(f"{rec.t:>3} {rec.loss:>8.4f} {rec.grad_norm_sq:>9.4f} "
              f"{rec.eps_mean:>9.2e} {rec.delta_mean:>10.2e}")
    print("\neps tracks the gradient gap the 8-bit codec introduces; delta "
          "tracks how far the cached activations have drifted from fresh "
          "ones. Both feed the bound below.")

    g_hat = diagnostics.estimate_G(records)
    l_hat = diagnostics.trajectory_smoothness(out.state)
    report = diagnostics.bound_report(records, g_hat, l_hat)
    print(f"\nG_hat {g_hat:.4f} (max per-sample gradient norm^2), "
          f"L_hat {l_hat:.4f} (trajectory smoothness)")
    print(diagnostics.format_report(report))

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "diagnostics.csv"
        diagnostics.write_diagnostics_csv(path, records, g_hat, l_hat)
        rows = diagnostics.read_diagnostics_csv(path)
        print(f"\nwrote {len(rows)} rows to a diagnostics log; the diagnose "
              "command reads the same file:")
        cli.main(["diagnose", "--log", str(path), "--at", "8", "--at", "15"])


if __name__ == "__main__":
    main()
