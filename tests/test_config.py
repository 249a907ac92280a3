"""Run-config schema: versioning, fail-fast validation, defaults."""

import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from sflsim import config as config_mod
from sflsim.config import ConfigError


def minimal(**overrides):
    base = {
        "version": 1,
        "mode": "split",
        "model": "tiny_vgg",
        "devices": 2,
        "rounds": 1,
        "lr": 0.05,
        "batch_size": 8,
    }
    base.update(overrides)
    return base


def test_minimal_config_fills_defaults():
    cfg = config_mod.from_dict(minimal())
    assert cfg.rho == 1
    assert cfg.quantized is True
    assert cfg.profile == "wifi"
    assert cfg.dataset["kind"] == "blobs"


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown config keys.*quantize"):
        config_mod.from_dict(minimal(quantize=True))  # typo for quantized


def test_missing_required_key_rejected():
    raw = minimal()
    del raw["rounds"]
    with pytest.raises(ConfigError, match="missing config keys"):
        config_mod.from_dict(raw)


def test_wrong_version_rejected():
    with pytest.raises(ConfigError, match="version"):
        config_mod.from_dict(minimal(version=2))


@pytest.mark.parametrize(
    "patch,fragment",
    [
        ({"mode": "federated"}, "mode"),
        ({"model": "resnet50"}, "model"),
        ({"devices": 0}, "devices"),
        ({"rounds": 0}, "rounds"),
        ({"rho": 0}, "rho"),
        ({"lr": -0.1}, "lr"),
        ({"batch_size": 0}, "batch_size"),
        ({"pretrain_epochs": -1}, "pretrain_epochs"),
        ({"profile": "5g"}, "profile"),
        ({"devices": "two"}, "devices"),
        ({"lr": "fast"}, "lr"),
        ({"quantized": "yes"}, "quantized"),
        ({"op_index": 0}, "op_index"),
        ({"device_speed": 0}, "speeds"),
        ({"op_index": 40}, "op_index"),  # tiny_vgg expands to 11 layers
        ({"spill_dir": "cache"}, "unknown config keys"),
        ({"dataset": {"kind": "idx", "images": None, "labels": "b.idx"}}, "images"),
        ({"dataset": {"kind": ["blobs"]}}, "kind must be a string"),
        ({"dataset": {"kind": {"kind": "blobs"}}}, "kind must be a string"),
    ],
)
def test_invalid_values_rejected(patch, fragment):
    with pytest.raises(ConfigError, match=fragment):
        config_mod.from_dict(minimal(**patch))


def test_readme_config_table_lists_the_fields_in_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|", section, flags=re.M)
    assert rows == [f.name for f in fields(config_mod.RunConfig)]
    assert set(config_mod._MODE_FIELDS) <= set(rows)


def test_rho_outside_replay_rejected():
    with pytest.raises(ConfigError, match="rho"):
        config_mod.from_dict(minimal(mode="split", rho=2))
    cfg = config_mod.from_dict(minimal(mode="replay", rho=2))
    assert cfg.rho == 2


@pytest.mark.parametrize("mode", ["classic", "split", "local_loss"])
def test_unquantized_outside_replay_rejected(mode):
    with pytest.raises(ConfigError, match="quantized"):
        config_mod.from_dict(minimal(mode=mode, quantized=False))
    assert config_mod.from_dict(minimal(mode=mode, quantized=True)).quantized
    assert not config_mod.from_dict(minimal(mode="replay", quantized=False)).quantized


@pytest.mark.parametrize("patch", [{"pretrain_epochs": 3}, {"op_index": 2}, {"op_index": 9}])
def test_classic_rejects_pretraining_and_cut(patch):
    # classic trains the whole model: no device stack to pretrain, no cut
    key = next(iter(patch))
    with pytest.raises(ConfigError, match=key):
        config_mod.from_dict(minimal(mode="classic", **patch))
    assert config_mod.from_dict(minimal(mode="classic", pretrain_epochs=0)).mode == "classic"
    assert getattr(config_mod.from_dict(minimal(**patch)), key) == patch[key]


def test_freeze_device_only_for_split_family():
    with pytest.raises(ConfigError, match="freeze_device"):
        config_mod.from_dict(minimal(mode="classic", freeze_device=True))
    # Replay freezes the device side regardless, so the key does not act there.
    with pytest.raises(ConfigError, match="^freeze_device only applies to split, not replay$"):
        config_mod.from_dict(minimal(mode="replay", freeze_device=True))
    assert config_mod.from_dict(minimal(mode="split", freeze_device=True)).freeze_device


def test_zero_lr_allowed():
    assert config_mod.from_dict(minimal(lr=0.0)).lr == 0.0


def test_dataset_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown dataset keys.*sigma"):
        config_mod.from_dict(minimal(dataset={"kind": "blobs", "sigma": 0.1}))


def test_dataset_class_count_must_match_model():
    # The class count and image shape come from the model, so neither is a key.
    for key, value in (("classes", 2), ("image_shape", [1, 16, 16])):
        with pytest.raises(ConfigError, match=f"unknown dataset keys.*{key}"):
            config_mod.from_dict(minimal(dataset={"kind": "blobs", key: value}))


def test_idx_dataset_requires_paths():
    with pytest.raises(ConfigError, match="images and labels"):
        config_mod.from_dict(minimal(dataset={"kind": "idx"}))
    cfg = config_mod.from_dict(
        minimal(dataset={"kind": "idx", "images": "a.idx", "labels": "b.idx"})
    )
    assert cfg.dataset == {"kind": "idx", "images": "a.idx", "labels": "b.idx"}


def test_load_config_roundtrip_and_overrides(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(minimal(seed=1)))
    cfg = config_mod.load_config(path, overrides={"seed": 9})
    assert cfg.seed == 9
    again = config_mod.from_dict(config_mod.to_dict(cfg))
    assert again == cfg


def test_load_config_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        config_mod.load_config(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        config_mod.load_config(bad)


def test_non_object_config_rejected(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        config_mod.load_config(path)
