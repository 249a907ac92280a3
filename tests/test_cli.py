"""CLI: subcommand behavior, file outputs, and exit-code categories."""

import argparse
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sflsim import cli, data as data_mod, kernel, models, netsim, runtime
from sflsim import config as config_mod
from sflsim import diagnostics as diag_mod


def smoke_config(tmp_path, **overrides):
    raw = {
        "version": 1,
        "mode": "replay",
        "model": "tiny_vgg",
        "devices": 2,
        "rounds": 2,
        "lr": 0.05,
        "batch_size": 8,
        "rho": 2,
        "pretrain_epochs": 1,
        "dataset": {"kind": "blobs", "per_class": 32, "noise_sigma": 0.05},
        "seed": 4,
    }
    raw.update(overrides)
    path = tmp_path / "smoke.json"
    path.write_text(json.dumps(raw))
    return path


def test_run_smoke_writes_metrics(tmp_path, capsys):
    cfg = smoke_config(tmp_path)
    out_dir = tmp_path / "out"
    code = cli.main(["run", "--config", str(cfg), "--out", str(out_dir)])
    assert code == cli.EXIT_OK
    assert (out_dir / "metrics.csv").exists()
    stdout = capsys.readouterr().out
    assert "final test accuracy" in stdout


def capture_training(monkeypatch):
    """The RunOutput of each run_training call the CLI makes, in order."""
    outputs = []
    real_run = runtime.run_training
    monkeypatch.setattr(runtime, "run_training",
                        lambda cfg: outputs.append(real_run(cfg)) or outputs[-1])
    return outputs


def assert_weights_load_back(path, output):
    """``path`` (a run's weights.sfl) loads into fresh stacks with the bits
    of the run's final model and local-loss head."""
    state = output.state
    trained = output.final_model + (state.global_head or ())
    fresh = models.build_model(state.spec, seed=12345)
    if state.global_head:
        fresh += models.auxiliary_head(state.spec, seed=12345, op_index=state.op_index)
    assert len(fresh) == len(trained)
    kernel.load_weights(path, fresh)
    assert kernel.param_vector(fresh).tobytes() == kernel.param_vector(trained).tobytes()


@pytest.mark.parametrize("mode", ["classic", "split", "local_loss", "replay"])
def test_run_writes_weights_that_load_back_bit_exactly(tmp_path, capsys, monkeypatch, mode):
    outputs = capture_training(monkeypatch)
    cfg = smoke_config(tmp_path, mode=mode, rho=2 if mode == "replay" else 1,
                       pretrain_epochs=0 if mode == "classic" else 1)
    out_dir = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out_dir)]) == cli.EXIT_OK
    path = out_dir / "weights.sfl"
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert f"weights written to {path} (sha256 {digest})" in capsys.readouterr().out
    (output,) = outputs
    assert_weights_load_back(path, output)


def _write_blob_pair(data_dir, classes, image_shape):
    """An IDX pair of 20 blobs a class, of a class count or image shape that
    gen-data, which takes both from a model, does not write."""
    dataset = data_mod.generate_blobs(classes=classes, per_class=20, image_shape=image_shape,
                                      noise_sigma=data_mod.BLOB_DEFAULTS["noise_sigma"], seed=0)
    data_dir.mkdir()
    data_mod.write_idx(data_dir / "images.idx", data_dir / "labels.idx",
                       dataset.images, dataset.labels)


@pytest.mark.parametrize("classes", [2, 3])
@pytest.mark.parametrize("mode", ["split", "replay"])
def test_run_on_a_gen_data_pair(tmp_path, capsys, monkeypatch, mode, classes):
    # tiny_vgg has 2 classes: a third is a data error before any training,
    # pretraining (replay) included, and no output directory is made.
    # gen-data writes only the model's own classes, so the third is written
    # here.
    data_dir = tmp_path / "data"
    if classes == 2:
        assert cli.main(["gen-data", "--out", str(data_dir), "--per-class", "20"]) == cli.EXIT_OK
    else:
        _write_blob_pair(data_dir, classes=classes, image_shape=(1, 16, 16))
    idx = {"kind": "idx", "images": str(data_dir / "images.idx"),
           "labels": str(data_dir / "labels.idx")}
    cfg = smoke_config(tmp_path, mode=mode, rho=2 if mode == "replay" else 1, dataset=idx)
    outputs = capture_training(monkeypatch)
    out_dir = tmp_path / "out"
    capsys.readouterr()
    code = cli.main(["run", "--config", str(cfg), "--out", str(out_dir)])
    if classes > 2:
        assert code == cli.EXIT_DATA and not out_dir.exists()
        assert capsys.readouterr().err.splitlines() == [
            "data error: dataset label 2 does not fit tiny_vgg, which has 2 classes"]
        return
    assert code == cli.EXIT_OK
    rows = runtime.read_metrics_csv(out_dir / "metrics.csv")
    assert [(r["round"], r["device"]) for r in rows] == [
        (str(t), str(k)) for t in range(2) for k in range(2)]
    assert_weights_load_back(out_dir / "weights.sfl", outputs[0])


@pytest.mark.parametrize("n, mode, pretrain_epochs, empty", [
    (3, "split", 0, "test"),  # 1 pretrain, 2 train, 0 test samples
    (2, "replay", 1, "pretrain"),  # 0 pretrain, 1 train, 1 test sample
    (2, "split", 0, None),  # the pretrain split may be empty when unused
])
def test_run_rejects_an_empty_split_before_training(tmp_path, capsys, n, mode,
                                                    pretrain_epochs, empty):
    ip, lp = tmp_path / "images.idx", tmp_path / "labels.idx"
    images = np.random.default_rng(0).uniform(size=(n, 1, 16, 16)).astype(np.float32)
    data_mod.write_idx(ip, lp, images, np.arange(n) % 2)
    idx = {"kind": "idx", "images": str(ip), "labels": str(lp)}
    cfg = smoke_config(tmp_path, mode=mode, devices=1, rho=2 if mode == "replay" else 1,
                       pretrain_epochs=pretrain_epochs, dataset=idx)
    out_dir = tmp_path / "out"
    capsys.readouterr()
    code = cli.main(["run", "--config", str(cfg), "--out", str(out_dir)])
    if empty is None:
        assert code == cli.EXIT_OK
        return
    assert code == cli.EXIT_DATA and not out_dir.exists()
    assert capsys.readouterr().err.splitlines() == [
        f"data error: split {empty!r} is empty: {n} samples are too few"]


def test_run_with_diagnostics_writes_both_logs(tmp_path):
    cfg = smoke_config(tmp_path, diagnostics=True, rounds=3)
    out_dir = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out_dir)]) == cli.EXIT_OK
    assert (out_dir / "metrics.csv").exists()
    assert (out_dir / "diagnostics.csv").exists()
    # diagnose consumes the run's output file unchanged
    code = cli.main(["diagnose", "--log", str(out_dir / "diagnostics.csv"), "--at", "3"])
    assert code == cli.EXIT_OK


def test_run_seed_override_changes_metrics(tmp_path):
    cfg = smoke_config(tmp_path)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert cli.main(["run", "--config", str(cfg), "--out", str(a)]) == 0
    assert cli.main(["run", "--config", str(cfg), "--out", str(b)]) == 0
    assert cli.main(["run", "--config", str(cfg), "--out", str(c), "--seed", "99"]) == 0
    same = (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
    diff = (a / "metrics.csv").read_bytes() != (c / "metrics.csv").read_bytes()
    assert same and diff


def test_cost_prints_table_and_writes_csv(tmp_path, capsys):
    csv_path = tmp_path / "cost.csv"
    code = cli.main(["cost", "--model", "vgg11", "--csv", str(csv_path)])
    assert code == cli.EXIT_OK
    stdout = capsys.readouterr().out
    # The four training methods plus the cached-round row, with pinned GiB.
    for fragment in ("classic", "split", "local_loss", "replay_tx", "replay_buffer",
                     "3.05467", "1.53184", "0.38158", "1.28282", "0.00000"):
        assert fragment in stdout
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 6  # header + five methods
    assert lines[0].startswith("model,method")


def test_cost_size_overrides_set_every_row(tmp_path, capsys):
    csv_path = tmp_path / "cost.csv"
    assert cli.main(["cost", "--model", "tiny_res", "--devices", "3", "--samples", "1000",
                     "--batch", "50", "--csv", str(csv_path)]) == cli.EXIT_OK
    assert "3 devices x 1000 samples, batch 50" in capsys.readouterr().out
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = {row["method"]: row for row in csv.DictReader(fh)}
    assert list(rows) == list(netsim.METHODS)
    for method, row in rows.items():
        report = netsim.comm_bytes_per_round(
            method, models.ZOO["tiny_res"], samples_per_device=1000, devices=3, batch_size=50)
        assert (int(row["per_device_up"]), int(row["per_device_down"]),
                int(row["total_bytes"]), float(row["gib"])) == (
            report.per_device_up, report.per_device_down, report.total_bytes, report.gib)
    assert (rows["split"]["per_device_up"], rows["split"]["per_device_down"]) == (
        "1030992", "1028992")


def test_cost_csv_path_that_is_a_directory_exits_4_before_printing(tmp_path, capsys):
    assert cli.main(["cost", "--model", "tiny_res", "--csv", str(tmp_path)]) == cli.EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("data error:")


def test_cost_resnet9_fl_row(capsys):
    assert cli.main(["cost", "--model", "resnet9"]) == cli.EXIT_OK
    stdout = capsys.readouterr().out
    assert "0.35960" in stdout


def test_gen_data_roundtrip(tmp_path):
    out_dir = tmp_path / "data"
    code = cli.main(["gen-data", "--out", str(out_dir), "--per-class", "10", "--seed", "3"])
    assert code == cli.EXIT_OK
    dataset = data_mod.load_idx(out_dir / "images.idx", out_dir / "labels.idx", seed=0)
    assert len(dataset.labels) == 20
    assert dataset.images.shape == (20, 1, 16, 16)
    assert set(np.unique(dataset.labels)) == {0, 1}


def test_selftest_passes(capsys):
    assert cli.main(["selftest"]) == cli.EXIT_OK
    stdout = capsys.readouterr().out
    assert "checks passed" in stdout


def test_selftest_checks_survive_python_O():
    # Under -O bare asserts vanish; force the schedule check to fail and
    # require the run to notice.
    script = (
        "import sys\n"
        "if sys.flags.optimize != 1: sys.exit(99)\n"
        "from sflsim import buffer, cli\n"
        "buffer.switch_is_on = lambda t, rho: True\n"
        "sys.exit(cli.main(['selftest']))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == cli.EXIT_TRAINING, proc.stderr
    assert "checks passed" not in proc.stdout
    assert proc.stderr.strip().splitlines() == ["selftest failed: rho=2: 64 transmission rounds in 64"]


@pytest.mark.parametrize("flag,value", [("--batch", "0"), ("--devices", "-3"), ("--samples", "0")])
def test_cost_non_positive_sizes_exit_2(flag, value, capsys):
    assert cli.main(["cost", flag, value]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [f"usage error: {flag} must be positive, got {value}"]


@pytest.mark.parametrize("flag", ["--samples", "--devices"])
def test_cost_sizes_past_the_float_range_exit_2(tmp_path, flag, capsys):
    # An exact integer byte count whose GiB total no float can hold.
    csv_path = tmp_path / "cost.csv"
    assert cli.main(["cost", flag, "1" + "0" * 320, "--csv", str(csv_path)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("usage error: ")
    assert not csv_path.exists()


def test_gen_data_pair_trains_under_tiny_res(tmp_path, capsys):
    # gen-data writes tiny_vgg's shape and classes, which tiny_res shares.
    data_dir = tmp_path / "data"
    assert cli.main(["gen-data", "--out", str(data_dir), "--per-class", "20"]) == cli.EXIT_OK
    idx = {"kind": "idx", "images": str(data_dir / "images.idx"),
           "labels": str(data_dir / "labels.idx")}
    cfg = smoke_config(tmp_path, model="tiny_res", dataset=idx)
    out_dir = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out_dir)]) == cli.EXIT_OK
    assert (out_dir / "weights.sfl").exists()


def test_readme_cli_synopsis_lists_each_subcommand_s_options():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    assert lines and lines[0].startswith("sflsim "), "the synopsis must open with a subcommand"
    listed, options = {}, None
    for line in lines:
        if line.startswith("sflsim "):
            options = listed.setdefault(line.split()[1], [])
        options += re.findall(r"(?<![\w-])--[a-z][a-z-]*", line)
    # argparse has no public way to list a parser's subcommands and options,
    # so this reads its _actions and _SubParsersAction.
    parser = cli.build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert listed == {
        name: [o for a in p._actions for o in a.option_strings
               if o.startswith("--") and o != "--help"]
        for name, p in sub.choices.items()
    }


@pytest.mark.parametrize("flag,value", [
    ("--per-class", "0"), ("--seed", "-1"), ("--sigma", "-1"), ("--sigma", "nan"), ("--sigma", "inf"),
])
def test_gen_data_bad_arguments_exit_2(tmp_path, flag, value, capsys):
    out_dir = tmp_path / "data"
    assert cli.main(["gen-data", "--out", str(out_dir), flag, value]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"usage error: {flag} must be")
    assert not out_dir.exists()


# 1.78 EiB, beyond numpy's "array is too big", beyond its dimension limit:
# far past any address space, so the allocation fails at once.
@pytest.mark.parametrize("per_class", [10**15, 10**17, 10**24])
def test_gen_data_too_large_to_allocate_exits_4(tmp_path, capsys, per_class):
    out_dir = tmp_path / "data"
    argv = ["gen-data", "--out", str(out_dir), "--per-class", str(per_class)]
    assert cli.main(argv) == cli.EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("data error: cannot allocate")
    assert not out_dir.exists()


def test_run_with_blobs_too_large_to_allocate_exits_4(tmp_path, capsys):
    cfg = smoke_config(tmp_path, dataset={"kind": "blobs", "per_class": 10**15})
    out_dir = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out_dir)]) == cli.EXIT_DATA
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("data error: cannot allocate")
    assert not out_dir.exists()


def test_op_index_beyond_model_exits_3(tmp_path, capsys, monkeypatch):
    cfg = smoke_config(tmp_path, op_index=40)
    assert cli.main(["run", "--config", str(cfg)]) == cli.EXIT_CONFIG
    assert "op_index 40" in capsys.readouterr().err

    def bad_partition(config):
        raise models.ModelError("split point must leave layers on both sides")

    monkeypatch.setattr(cli.runtime, "run_training", bad_partition)
    assert cli.main(["run", "--config", str(smoke_config(tmp_path))]) == cli.EXIT_CONFIG


def test_unknown_flag_exits_2(capsys):
    assert cli.main(["cost", "--nonsense"]) == cli.EXIT_USAGE
    assert cli.main(["frobnicate"]) == cli.EXIT_USAGE


def test_config_errors_exit_3(tmp_path, capsys):
    missing = cli.main(["run", "--config", str(tmp_path / "nope.json")])
    assert missing == cli.EXIT_CONFIG
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 1, "mode": "warp"}))
    assert cli.main(["run", "--config", str(bad)]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("seed", [[], ["--seed", "1"]])
def test_config_that_is_not_an_object_exits_3(tmp_path, capsys, seed):
    # With or without an override to merge, the one check is from_dict's.
    path = tmp_path / "array.json"
    path.write_text(json.dumps([{"version": 1}]))
    assert cli.main(["run", "--config", str(path), *seed]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["config error: config must be a JSON object"]


def test_config_path_that_is_a_directory_exits_3(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: cannot read config")


def _a_file_and_a_path_under_it(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("kept")
    return blocker, [blocker, blocker / "out"]


@pytest.mark.parametrize("under", [False, True])
def test_run_out_through_a_file_exits_4_before_training(tmp_path, capsys, monkeypatch, under):
    blocker, outs = _a_file_and_a_path_under_it(tmp_path)
    rounds = []
    monkeypatch.setattr(runtime, "run_round", lambda *args: rounds.append(args))
    code = cli.main(["run", "--config", str(smoke_config(tmp_path)), "--out", str(outs[under])])
    assert code == cli.EXIT_DATA and not rounds
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("data error: --out ")
    assert blocker.read_text() == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "smoke.json"]


@pytest.mark.parametrize("under", [False, True])
def test_gen_data_out_through_a_file_exits_4_before_generating(tmp_path, capsys, monkeypatch,
                                                                 under):
    blocker, outs = _a_file_and_a_path_under_it(tmp_path)
    generated = []
    monkeypatch.setattr(data_mod, "generate_blobs", lambda **kwargs: generated.append(kwargs))
    assert cli.main(["gen-data", "--out", str(outs[under])]) == cli.EXIT_DATA and not generated
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert captured.out == "" and len(err) == 1 and err[0].startswith("data error: --out ")
    assert blocker.read_text() == "kept" and [p.name for p in tmp_path.iterdir()] == ["blocker"]


def test_data_errors_exit_4(tmp_path, capsys):
    cfg = smoke_config(
        tmp_path,
        dataset={"kind": "idx", "images": str(tmp_path / "x.idx"),
                 "labels": str(tmp_path / "y.idx")},
    )
    assert cli.main(["run", "--config", str(cfg)]) == cli.EXIT_DATA
    assert cli.main(["diagnose", "--log", str(tmp_path / "missing.csv")]) == cli.EXIT_DATA


def test_idx_images_of_another_shape_exit_4(tmp_path, capsys, monkeypatch):
    # tiny_vgg takes 16x16 images: 8x8 ones are a data error before the
    # model is built, and no output directory is made.
    data_dir = tmp_path / "data"
    _write_blob_pair(data_dir, classes=2, image_shape=(1, 8, 8))
    idx = {"kind": "idx", "images": str(data_dir / "images.idx"),
           "labels": str(data_dir / "labels.idx")}
    built = []
    monkeypatch.setattr(models, "build_model", lambda *args, **kwargs: built.append(args))
    out_dir = tmp_path / "out"
    capsys.readouterr()
    code = cli.main(["run", "--config", str(smoke_config(tmp_path, dataset=idx)),
                     "--out", str(out_dir)])
    assert code == cli.EXIT_DATA and not built and not out_dir.exists()
    assert capsys.readouterr().err.splitlines() == [
        "data error: dataset images (1, 8, 8) do not match model input (1, 16, 16)"]


def test_training_errors_exit_5(tmp_path, capsys, monkeypatch):
    # NaN gradients on the smoothness pairs make L NaN: a non-finite bound
    # constant is a training error, and no output directory is made.
    monkeypatch.setattr(diag_mod, "server_grad_fn",
                        lambda *args: lambda theta: np.full(theta.shape, np.nan))
    out_dir = tmp_path / "out"
    code = cli.main(["run", "--config", str(smoke_config(tmp_path, diagnostics=True)),
                     "--out", str(out_dir)])
    assert code == cli.EXIT_TRAINING and not out_dir.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("training error: non-finite bound constants: G ")
    assert err[0].endswith(", L nan")


@pytest.mark.parametrize("overrides", [
    {"lr": float("inf")},
    {"lr": float("nan")},
    {"device_speed": float("inf")},
    {"server_speed": float("-inf")},
    {"dataset": {"kind": "blobs", "per_class": 32, "noise_sigma": float("inf")}},
])
def test_non_finite_config_values_exit_3(tmp_path, capsys, overrides):
    # json writes and reads these as Infinity / NaN
    cfg = smoke_config(tmp_path, mode="split", rho=1, **overrides)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "metrics.csv").exists()


@pytest.mark.parametrize("field,value", [
    ("per_class", float("inf")),
    ("per_class", "x"),
    ("per_class", True),
    ("noise_sigma", "a"),
    ("per_class", 0),
    ("per_class", 2.5),
    ("noise_sigma", -0.5),
    ("noise_sigma", None),
    ("kind", ["blobs"]),
    ("kind", {"kind": "blobs"}),
])
def test_bad_dataset_fields_exit_3(tmp_path, capsys, field, value):
    cfg = smoke_config(tmp_path, dataset={"kind": "blobs", field: value})
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {field} must be")
    assert not (tmp_path / "metrics.csv").exists()


def test_diverged_run_exits_5_without_metrics(tmp_path, capsys):
    # A finite but huge step size overflows the weights in round 0.
    cfg = smoke_config(tmp_path, mode="split", rho=1, lr=1e30)
    code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == cli.EXIT_TRAINING
    err = capsys.readouterr().err.strip()
    assert err.startswith("training error: round 0 (split)") and "non-finite" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "metrics.csv").exists()
    assert not (tmp_path / "weights.sfl").exists()


def test_a_diverged_pretraining_exits_5_before_any_round(tmp_path, capsys):
    # The frozen device stack is checked once, when set-up has pretrained it.
    cfg = smoke_config(tmp_path, mode="split", rho=1, freeze_device=True, lr=1e39,
                       pretrain_epochs=1)
    out_dir = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out_dir)]) == cli.EXIT_TRAINING
    assert capsys.readouterr().err.splitlines() == [
        "training error: split: the pretrained device stack is not finite"]
    assert not out_dir.exists()


def test_diverged_run_prints_one_stderr_line_in_a_real_process(tmp_path):
    # Outside pytest numpy's overflow warnings would reach stderr; the
    # CLI silences them and the finiteness check speaks once.
    cfg = smoke_config(tmp_path, mode="split", rho=1, lr=1e30)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", "import sys; from sflsim import cli; "
                           f"sys.exit(cli.main(['run', '--config', {str(cfg)!r}, "
                           f"'--out', {str(tmp_path / 'out')!r}]))"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == cli.EXIT_TRAINING, proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("training error: round 0 (split)"), proc.stderr
    assert not (tmp_path / "out").exists()


def test_non_finite_diagnostics_exit_5_without_out_dir(tmp_path, capsys):
    # Finite weights, but the observer's probe loss overflows to inf.
    raw = {"version": 1, "mode": "classic", "model": "tiny_vgg", "devices": 1, "rounds": 1,
           "lr": 1000.0, "batch_size": 5, "diagnostics": True,
           "dataset": {"kind": "blobs", "per_class": 3, "noise_sigma": 0.3}}
    cfg = tmp_path / "diverge.json"
    cfg.write_text(json.dumps(raw))
    out_dir = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out_dir)]) == cli.EXIT_TRAINING
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("training error: round 0 (classic): non-finite")
    assert not out_dir.exists()


def test_non_finite_smoothness_exits_5_without_files(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(diag_mod, "trajectory_smoothness", lambda state: float("nan"))
    cfg = smoke_config(tmp_path, diagnostics=True, rounds=3)
    out_dir = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out_dir)]) == cli.EXIT_TRAINING
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("training error: ") and "L nan" in err[0]
    assert not out_dir.exists()


def test_diagnose_violated_bound_warns_but_exits_zero(tmp_path, capsys):
    log = tmp_path / "diag.csv"
    log.write_text(
        "t,eta,grad_norm_sq,eps_mean,delta_mean,loss,gamma,lhs_running,rhs_running\n"
        "0,0.1,1.0,0.0,0.0,0.7,0.1,,\n"
        "1,0.1,1.0,0.0,0.0,0.6,0.2,0.9,0.5\n"
    )
    assert cli.main(["diagnose", "--log", str(log), "--at", "2"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "WARNING: does not hold" in out
    assert "diagnostic, not an error" in out


@pytest.mark.parametrize("row,column", [
    ("1,0.1,abc,0.0,0.0,0.6,0.2,0.9,0.5", "grad_norm_sq"),  # not a number
    ("1,,1.0,0.0,0.0,0.6,0.2,0.9,0.5", "eta"),  # blank outside the bound columns
    ("1,0.1,1.0,0.0,0.0,0.6", "gamma"),  # short row: missing cells
    ("1,0.1,1.0,0.0,inf,0.6,0.2,0.9,0.5", "delta_mean"),  # non-finite
    ("1,0.1,1.0,0.0,0.0,0.6,0.2,nan,0.5", "lhs_running"),
    ("1.5,0.1,1.0,0.0,0.0,0.6,0.2,0.9,0.5", "t"),  # not an integer
    ("5,0.1,1.0,0.0,0.0,0.6,0.2,0.9,0.5", "t"),  # not the row's round
    ("1,0.1,1,0,0,1,0.2,1,", "rhs_running"),  # half of the bound blank
    ("1,0.1,1,0,0,1,0.2,,1", "lhs_running"),
    ("1,0.1,1.0,0.0,0.0,0.6,0.2,0.4,0.5,99", "10"),  # a cell past the header
    ("1,0.1,1.0,0.0,0.0,0.6,0.9,0.4,0.5", "gamma"),  # not the running sum of eta, 0.2
    ("1,0.1,1.0,0.0,0.0,0.6,0.2,,", "lhs_running"),  # blank where Gamma 0.2 defines the bound
    ("1,-0.1,1.0,0.0,0.0,0.6,0.0,,", "eta"),  # negative: run takes no negative lr
])
def test_diagnose_malformed_log_exits_4(tmp_path, capsys, row, column):
    log = tmp_path / "diag.csv"
    log.write_text(
        "t,eta,grad_norm_sq,eps_mean,delta_mean,loss,gamma,lhs_running,rhs_running\n"
        "0,0.1,1.0,0.0,0.0,0.7,0.1,,\n" + row + "\n"
    )
    assert cli.main(["diagnose", "--log", str(log)]) == cli.EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("data error:")
    assert f"row 2 column {column}:" in err[0]


@pytest.mark.parametrize("rows,bad", [
    ("0,0.1,1.0,0.0,0.0,0.7,0.1,0.4,0.5\n1,0.1,1.0,0.0,0.0,0.6,0.2,0.4,0.5", 1),
    ("0,0.0,1.0,0.0,0.0,0.7,0.0,,\n1,0.0,1.0,0.0,0.0,0.6,0.0,0.4,0.5", 2),
], ids=["first-row", "gamma-0"])
def test_diagnose_bound_cells_where_the_bound_is_undefined_exit_4(tmp_path, capsys, rows, bad):
    # run leaves both cells blank on row 1 and while Gamma is 0.
    log = tmp_path / "diag.csv"
    log.write_text(
        "t,eta,grad_norm_sq,eps_mean,delta_mean,loss,gamma,lhs_running,rhs_running\n"
        + rows + "\n")
    assert cli.main(["diagnose", "--log", str(log)]) == cli.EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1
    assert f"row {bad} column lhs_running: '0.4' where the bound is undefined" in err[0]


@pytest.mark.parametrize("header", [
    "t,eta,grad_norm_sq,eps_mean,delta_mean,loss,gamma,lhs_running,rhs_running,junk",
    "t,eta,grad_norm_sq,eps_mean,delta_mean,loss,gamma,lhs_running,rhs_running,t",
], ids=["extra-column", "repeated-t"])
def test_diagnose_header_other_than_the_nine_columns_exits_4(tmp_path, capsys, header):
    log = tmp_path / "diag.csv"
    log.write_text(header + "\n"
                   "0,0.1,1.0,0.0,0.0,0.7,0.1,,,0\n"
                   "1,0.1,1.0,0.0,0.0,0.6,0.2,0.4,0.5,1\n")
    assert cli.main(["diagnose", "--log", str(log)]) == cli.EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [f"data error: {log} is not a diagnostics log"]


@pytest.mark.parametrize("at", [["--at", "2"], []])
def test_diagnose_blank_bound_is_undefined_warning(tmp_path, capsys, at):
    log = tmp_path / "diag.csv"
    log.write_text(
        "t,eta,grad_norm_sq,eps_mean,delta_mean,loss,gamma,lhs_running,rhs_running\n"
        "0,0.0,1.0,0.0,0.0,0.7,0.0,,\n"
        "1,0.0,1.0,0.0,0.0,0.7,0.0,,\n"
    )
    assert cli.main(["diagnose", "--log", str(log), *at]) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("after    2 rounds: Gamma 0  ")
    assert "bound undefined at this round" in lines[0]
    assert lines[1] == "note: the bound is undefined while Gamma is 0"


def test_diagnose_one_round_log_needs_two_rounds(tmp_path, capsys):
    log = tmp_path / "diag.csv"
    log.write_text(
        "t,eta,grad_norm_sq,eps_mean,delta_mean,loss,gamma,lhs_running,rhs_running\n"
        "0,0.1,1.0,0.0,0.0,0.7,0.1,,\n"
    )
    assert cli.main(["diagnose", "--log", str(log)]) == cli.EXIT_DATA
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("data error:")
    assert "at least 2 rounds" in err[0] and "--at" not in err[0]


def test_zero_lr_run_with_diagnostics_exits_0(tmp_path, capsys):
    cfg = smoke_config(tmp_path, diagnostics=True, rounds=3, lr=0.0)
    out_dir = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out_dir)]) == cli.EXIT_OK
    lines = (out_dir / "diagnostics.csv").read_text().splitlines()
    assert len(lines) == 1 + 3  # header and one row per round
    assert all(line.endswith(",,") for line in lines[1:])  # bound undefined: Gamma is 0
    capsys.readouterr()
    log = str(out_dir / "diagnostics.csv")
    assert cli.main(["diagnose", "--log", log]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "after    3 rounds" in out and "bound undefined at this round" in out


def test_diagnose_at_out_of_range_is_data_error(tmp_path):
    cfg = smoke_config(tmp_path, diagnostics=True, rounds=3)
    out_dir = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
    log = str(out_dir / "diagnostics.csv")
    assert cli.main(["diagnose", "--log", log, "--at", "50"]) == cli.EXIT_DATA


def test_diagnose_at_below_2_is_a_usage_error_before_the_log_is_read(tmp_path, capsys):
    missing = tmp_path / "no-such-log.csv"
    assert cli.main(["diagnose", "--log", str(missing), "--at", "1"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("usage error: --at must be >= 2")


def test_diagnose_repeated_at_reports_once(tmp_path, capsys):
    log = tmp_path / "diag.csv"
    log.write_text(
        "t,eta,grad_norm_sq,eps_mean,delta_mean,loss,gamma,lhs_running,rhs_running\n"
        "0,0.1,1.0,0.0,0.0,0.7,0.1,,\n"
        "1,0.1,1.0,0.0,0.0,0.6,0.2,0.4,0.5\n"
        "2,0.1,1.0,0.0,0.0,0.5,0.3,0.3,0.5\n"
    )
    assert cli.main(["diagnose", "--log", str(log), "--at", "3", "--at", "3"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("after    3 rounds:")


def test_diagnose_at_beyond_the_log_prints_no_report(tmp_path, capsys):
    log = tmp_path / "diag.csv"
    log.write_text(
        "t,eta,grad_norm_sq,eps_mean,delta_mean,loss,gamma,lhs_running,rhs_running\n"
        "0,0.1,1.0,0.0,0.0,0.7,0.1,,\n"
        "1,0.1,1.0,0.0,0.0,0.6,0.2,0.4,0.5\n"
    )
    assert cli.main(["diagnose", "--log", str(log), "--at", "2", "--at", "50"]) == cli.EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "data error: --at 50 outside the log's range (2..2)"


def test_non_finite_latency_exits_5_without_out_dir(tmp_path, capsys):
    # Every speed is finite and positive, but compute units / 1e-310 overflow.
    raw = {"version": 1, "mode": "split", "model": "tiny_vgg", "devices": 2, "rounds": 1,
           "lr": 0.05, "batch_size": 16, "device_speed": 1e-310,
           "dataset": {"kind": "blobs", "per_class": 20, "noise_sigma": 0.3}}
    cfg = tmp_path / "slow.json"
    cfg.write_text(json.dumps(raw))
    out_dir = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out_dir)]) == cli.EXIT_TRAINING
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("training error: round 0 (split)")
    assert "latency" in err[0] and not out_dir.exists()


def test_blob_defaults_have_one_source():
    cfg = config_mod.from_dict({"version": 1, "mode": "split", "model": "tiny_vgg",
                                "devices": 2, "rounds": 1, "lr": 0.05, "batch_size": 8})
    assert cfg.dataset == {"kind": "blobs", **data_mod.BLOB_DEFAULTS}
    args = cli.build_parser().parse_args(["gen-data"])
    assert {"per_class": args.per_class, "noise_sigma": args.sigma} == data_mod.BLOB_DEFAULTS


def test_profile_override(tmp_path, capsys):
    cfg = smoke_config(tmp_path)
    out_a, out_b = tmp_path / "wifi", tmp_path / "slow"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert cli.main(["run", "--config", str(cfg), "--out", str(out_b),
                     "--profile", "3g"]) == 0
    import csv as csv_mod

    def latency(path):
        with open(path) as fh:
            return float(list(csv_mod.DictReader(fh))[0]["sim_latency_s"])

    assert latency(out_b / "metrics.csv") > latency(out_a / "metrics.csv")


# A UTF-16 byte-order mark: not UTF-8 text, whatever the locale.
NOT_UTF8 = b"\xff\xfe{\x00}\x00"


@pytest.mark.parametrize("args,code,prefix", [
    (["run", "--config"], cli.EXIT_CONFIG, "config error: "),
    (["diagnose", "--log"], cli.EXIT_DATA, "data error: "),
])
def test_non_utf8_input_file_exits_with_one_line(tmp_path, capsys, args, code, prefix):
    path = tmp_path / "input"
    path.write_bytes(NOT_UTF8)
    assert cli.main([*args, str(path)]) == code
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(prefix) and "UTF-8" in err[0]


def test_utf8_config_decodes_under_the_c_locale(tmp_path):
    # A UTF-8 config is read as UTF-8 even where the locale's encoding is
    # ASCII; its non-ASCII mode then fails validation like any bad mode.
    path = tmp_path / "config.json"
    path.write_bytes(json.dumps({"version": 1, "mode": "répl"}, ensure_ascii=False).encode("utf-8"))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONIOENCODING": "",
           "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", "import sys; from sflsim import cli; "
                           f"sys.exit(cli.main(['run', '--config', {str(path)!r}]))"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == cli.EXIT_CONFIG, proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: "), proc.stderr
