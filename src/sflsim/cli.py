"""Command-line interface.

Subcommands
    run       config -> training -> metrics CSV (+ diagnostics CSV), weights.sfl
    cost      per-round communication tables, aligned text and CSV
    diagnose  convergence-bound report from a diagnostics log
    gen-data  write a synthetic dataset as an IDX file pair
    selftest  quick invariant suite

Exit codes: 0 success, 2 usage, 3 config error, 4 data error, 5 training
error (a non-finite loss, weight, diagnostic, G or L). Commands run with
numpy's floating-point warnings off, so a failure prints one stderr line.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import math
import os
import sys

import numpy as np

from . import __version__
from . import buffer as buffer_mod
from . import config as config_mod
from . import data as data_mod
from . import diagnostics as diag_mod
from . import kernel, models, netsim, quantize, runtime

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_DATA = 4
EXIT_TRAINING = 5


class UsageError(ValueError):
    """An argument that parses but is out of range (exit 2)."""


class SelftestError(RuntimeError):
    """A selftest invariant did not hold (exit 5)."""


def _check(condition, message):
    """Explicit selftest check; unlike ``assert`` it survives ``python -O``."""
    if not condition:
        raise SelftestError(message)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sflsim",
        description="Split federated learning simulator: training, cost model, diagnostics.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train per a JSON config and write metrics")
    p_run.add_argument("--config", required=True, help="path to a run-config JSON file")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=".",
                       help="directory for metrics, diagnostics and weights.sfl")
    p_run.add_argument("--profile", choices=sorted(netsim.PROFILES),
                       default=None, help="override the config network profile")

    p_cost = sub.add_parser("cost", help="print per-round communication cost tables")
    p_cost.add_argument("--model", choices=sorted(models.ZOO), default="vgg11")
    # Defaults: the reference comparison point.
    p_cost.add_argument("--devices", type=int, default=5)
    p_cost.add_argument("--samples", type=int, default=10_000, help="samples per device")
    p_cost.add_argument("--batch", type=int, default=100, help="batch size")
    p_cost.add_argument("--csv", default=None, help="also write the table to this CSV path")

    p_diag = sub.add_parser("diagnose", help="bound report from a diagnostics log")
    p_diag.add_argument("--log", required=True, help="diagnostics CSV from a run")
    p_diag.add_argument("--at", type=int, action="append", default=None,
                        help="report after this many rounds (repeatable)")

    p_gen = sub.add_parser("gen-data", help="write synthetic blobs as IDX files")
    p_gen.add_argument("--out", default=".", help="output directory")
    p_gen.add_argument("--per-class", type=int, default=data_mod.BLOB_DEFAULTS["per_class"])
    p_gen.add_argument("--sigma", type=float, default=data_mod.BLOB_DEFAULTS["noise_sigma"])
    p_gen.add_argument("--seed", type=int, default=0)

    sub.add_parser("selftest", help="run the built-in invariant suite")
    return parser


def _check_out_dir(path):
    """Refuse, before any work, an --out path whose first existing component
    is not a directory: makedirs would fail on it after the work."""
    probe = os.path.abspath(path)
    while not os.path.lexists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise data_mod.DataError(f"--out {path}: {probe} exists and is not a directory")


def cmd_run(args):
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.profile is not None:
        overrides["profile"] = args.profile
    cfg = config_mod.load_config(args.config, overrides)
    _check_out_dir(args.out)
    output = runtime.run_training(cfg)
    if cfg.diagnostics:
        records = output.state.diagnostics_records
        g_hat = diag_mod.estimate_G(records)
        l_hat = diag_mod.trajectory_smoothness(output.state)
        if not (math.isfinite(g_hat) and math.isfinite(l_hat)):
            raise runtime.TrainingError(f"non-finite bound constants: G {g_hat}, L {l_hat}")
    os.makedirs(args.out, exist_ok=True)
    metrics_path = os.path.join(args.out, "metrics.csv")
    runtime.write_metrics_csv(metrics_path, output.rows)
    print(f"metrics written to {metrics_path}")
    if cfg.diagnostics:
        diag_path = os.path.join(args.out, "diagnostics.csv")
        diag_mod.write_diagnostics_csv(diag_path, records, g_hat, l_hat)
        print(f"diagnostics written to {diag_path}")
    weights_path = os.path.join(args.out, "weights.sfl")
    kernel.save_weights(weights_path, output.final_model + (output.state.global_head or ()))
    with open(weights_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    print(f"weights written to {weights_path} (sha256 {digest})")
    final = output.results[-1]
    total_up = output.state.ledger.total(direction="up")
    total_down = output.state.ledger.total(direction="down")
    print(f"final test accuracy {final.test_acc:.4f}")
    print(f"total traffic up {total_up} B, down {total_down} B "
          f"({(total_up + total_down) / netsim.GIB:.4f} GiB)")
    return EXIT_OK


def cost_table(spec_name, *, samples_per_device, devices, batch_size):
    """Rows of the per-round communication table for one model."""
    spec = models.ZOO[spec_name]
    rows = []
    for method in netsim.METHODS:
        report = netsim.comm_bytes_per_round(
            method, spec,
            samples_per_device=samples_per_device,
            devices=devices,
            batch_size=batch_size,
        )
        rows.append(
            {
                "model": spec_name,
                "method": method,
                "per_device_up": report.per_device_up,
                "per_device_down": report.per_device_down,
                "total_bytes": report.total_bytes,
                "gib": report.gib,
            }
        )
    return rows


def cmd_cost(args):
    """Print the table, after writing its CSV (if asked for), so that a CSV
    path that cannot be written leaves stdout empty."""
    for flag in ("devices", "samples", "batch"):
        value = getattr(args, flag)
        if value <= 0:
            raise UsageError(f"--{flag} must be positive, got {value}")
    try:
        rows = cost_table(args.model, samples_per_device=args.samples, devices=args.devices,
                          batch_size=args.batch)
    except OverflowError as exc:
        raise UsageError("the GiB total of --devices x --samples overflows a float") from exc
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    print(f"per-round communication, {args.devices} devices x {args.samples} samples, "
          f"batch {args.batch}")
    header = f"{'model':<10} {'method':<14} {'up/dev B':>15} {'down/dev B':>15} {'total GiB':>12}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['model']:<10} {row['method']:<14} {row['per_device_up']:>15,} "
              f"{row['per_device_down']:>15,} {row['gib']:>12.5f}")
    if args.csv:
        print(f"table written to {args.csv}")
    return EXIT_OK


def cmd_diagnose(args):
    if args.at and min(args.at) < 2:
        raise UsageError(f"--at must be >= 2 (the bound needs 2 rounds), got {min(args.at)}")
    rows = diag_mod.read_diagnostics_csv(args.log)
    if not args.at and len(rows) < 2:
        raise diag_mod.DiagnosticsError(f"the bound needs at least 2 rounds; {args.log} holds 1")
    points = sorted(set(args.at)) if args.at else [len(rows)]
    if points[-1] > len(rows):
        raise diag_mod.DiagnosticsError(
            f"--at {points[-1]} outside the log's range (2..{len(rows)})")
    violated = undefined = False
    for point in points:
        row = rows[point - 1]
        lhs, rhs = row["lhs_running"], row["rhs_running"]
        head = f"after {point:>4} rounds: Gamma {row['gamma']:.6g}  "
        if lhs is None or rhs is None:  # blank while Gamma is 0
            undefined = True
            print(head + "-> WARNING: bound undefined at this round (no LHS/RHS logged)")
            continue
        held = lhs <= rhs
        status = "holds" if held else "WARNING: does not hold"
        violated = violated or not held
        print(f"{head}LHS {lhs:.6g}  RHS {rhs:.6g}  -> bound {status}")
    if violated:
        print("note: G and L are sampled estimates; a warning is diagnostic, not an error")
    if undefined:
        print("note: the bound is undefined while Gamma is 0")
    return EXIT_OK


def cmd_gen_data(args):
    for flag, least in (("per_class", 1), ("seed", 0)):
        value = getattr(args, flag)
        if value < least:
            raise UsageError(f"--{flag.replace('_', '-')} must be >= {least}, got {value}")
    if not (math.isfinite(args.sigma) and args.sigma >= 0):
        raise UsageError(f"--sigma must be finite and >= 0, got {args.sigma}")
    _check_out_dir(args.out)
    # An IDX image has one channel. tiny_vgg and tiny_res share this
    # one-channel input shape and class count, so either model runs the pair.
    spec = models.ZOO["tiny_vgg"]
    dataset = data_mod.generate_blobs(
        classes=spec.num_classes,
        per_class=args.per_class,
        image_shape=spec.input_shape,
        noise_sigma=args.sigma,
        seed=args.seed,
    )
    os.makedirs(args.out, exist_ok=True)
    images_path = os.path.join(args.out, "images.idx")
    labels_path = os.path.join(args.out, "labels.idx")
    data_mod.write_idx(images_path, labels_path, dataset.images, dataset.labels)
    print(f"wrote {len(dataset.labels)} samples to {images_path} / {labels_path}")
    return EXIT_OK


def cmd_selftest(args):
    """Fast invariant spot-checks covering each module."""
    checks = []

    def check(name, fn):
        fn()
        checks.append(name)
        print(f"selftest: {name} ok")

    def quantizer_roundtrip():
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = rng.normal(0, 3, size=(4, 7)).astype(np.float32)
            rec = quantize.encode(a, 0, 0, 0)
            back = quantize.decode(rec)
            tol = rec.scale / 2 + np.spacing(np.abs(a).max())
            _check(np.max(np.abs(back - a)) <= tol, "quantizer round-trip error above scale/2")

    def switch_counts():
        for rho in (1, 2, 4, 8):
            on = sum(buffer_mod.switch_is_on(t, rho) for t in range(64))
            _check(on == -(-64 // rho), f"rho={rho}: {on} transmission rounds in 64")

    def fedavg_identity():
        spec = models.ZOO["tiny_vgg"]
        stack = models.build_model(spec, seed=1)
        vector = kernel.param_vector(stack)
        merged = runtime.fedavg([vector, vector, vector], [1, 2, 3])
        _check(np.array_equal(merged, vector), "fedavg moved a parameter")

    def gradient_spot_check():
        rng = np.random.default_rng(2)
        layer = kernel.Dense(6, 3, rng=rng, dtype=np.float64)
        x = rng.normal(size=(4, 6))
        readout = rng.normal(size=(4, 3))
        trace = kernel.forward([layer], x)
        grads = kernel.backward([layer], trace, readout)
        fd = kernel.central_differences(
            lambda: float(np.sum(kernel.predict([layer], x) * readout)), layer.params()["w"], 1e-6)
        _check(np.all(np.abs(fd - grads.layers[0]["w"]) <= 1e-6 * np.maximum(1.0, np.abs(fd))),
               "dense weight gradient disagrees with finite differences")

    def cost_model_pinned():
        spec = models.ZOO["vgg11"]
        report = netsim.comm_bytes_per_round(
            "split", spec, samples_per_device=10_000, devices=5, batch_size=100
        )
        _check(report.total_bytes == 3_279_925_920,
               f"split vgg11 total {report.total_bytes} B != 3,279,925,920 B")

    check("quantizer round-trip", quantizer_roundtrip)
    check("transmission schedule counts", switch_counts)
    check("fedavg identity", fedavg_identity)
    check("dense gradient vs finite difference", gradient_spot_check)
    check("cost model pinned value", cost_model_pinned)
    print(f"selftest: {len(checks)} checks passed")
    return EXIT_OK


_COMMANDS = {
    "run": cmd_run,
    "cost": cmd_cost,
    "diagnose": cmd_diagnose,
    "gen-data": cmd_gen_data,
    "selftest": cmd_selftest,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (config_mod.ConfigError, models.ModelError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (data_mod.DataError, diag_mod.DiagnosticsError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SelftestError as exc:
        print(f"selftest failed: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except (runtime.TrainingError, kernel.KernelError, quantize.QuantizeError,
            buffer_mod.BufferError, netsim.NetsimError) as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAINING


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
