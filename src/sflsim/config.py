"""Run configuration: a versioned JSON schema with fail-fast validation.

Unknown keys are rejected (top level and inside ``dataset``) so typos
surface immediately instead of silently falling back to defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

from . import models, netsim

SCHEMA_VERSION = 1

MODES = ("classic", "split", "local_loss", "replay")


class ConfigError(ValueError):
    """Missing/unknown keys, bad types, or out-of-range values."""


@dataclass(frozen=True)
class RunConfig:
    version: int
    mode: str
    model: str
    devices: int
    rounds: int
    lr: float
    batch_size: int
    rho: int = 1
    quantized: bool = True
    augment: bool = False
    pretrain_epochs: int = 0
    freeze_device: bool = False
    op_index: int | None = None
    seed: int = 0
    dataset: dict = field(default_factory=dict)
    diagnostics: bool = False
    profile: str = "wifi"
    device_speed: float = 1e9
    server_speed: float = 1e10
    spill_dir: str | None = None


_REQUIRED = ("version", "mode", "model", "devices", "rounds", "lr", "batch_size")

_DATASET_KEYS = {
    "blobs": {"kind", "classes", "per_class", "noise_sigma", "image_shape"},
    "idx": {"kind", "images", "labels"},
}


def _require(condition, message):
    if not condition:
        raise ConfigError(message)


_INT_FIELDS = ("version", "devices", "rounds", "batch_size", "rho", "pretrain_epochs", "seed")
_NUM_FIELDS = ("lr", "device_speed", "server_speed")
_BOOL_FIELDS = ("quantized", "augment", "freeze_device", "diagnostics")
_STR_FIELDS = ("mode", "model", "profile")


def _check_types(raw):
    for key in _INT_FIELDS:
        if key in raw:
            _require(isinstance(raw[key], int) and not isinstance(raw[key], bool),
                     f"{key} must be an integer")
    for key in _NUM_FIELDS:
        if key in raw:
            _require(isinstance(raw[key], (int, float)) and not isinstance(raw[key], bool),
                     f"{key} must be a number")
            _require(math.isfinite(raw[key]), f"{key} must be finite, got {raw[key]!r}")
    for key in _BOOL_FIELDS:
        if key in raw:
            _require(isinstance(raw[key], bool), f"{key} must be true or false")
    for key in _STR_FIELDS:
        if key in raw:
            _require(isinstance(raw[key], str), f"{key} must be a string")
    if raw.get("op_index") is not None:
        _require(isinstance(raw["op_index"], int) and not isinstance(raw["op_index"], bool),
                 "op_index must be an integer or null")
    if raw.get("spill_dir") is not None:
        _require(isinstance(raw["spill_dir"], str), "spill_dir must be a path string")
    if "dataset" in raw:
        _require(isinstance(raw["dataset"], dict), "dataset must be an object")


def from_dict(raw):
    """Validate a parsed JSON object into a RunConfig."""
    _require(isinstance(raw, dict), "config must be a JSON object")
    known = {f.name for f in fields(RunConfig)}
    unknown = set(raw) - known
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    missing = [k for k in _REQUIRED if k not in raw]
    _require(not missing, f"missing config keys: {missing}")
    _require(
        raw["version"] == SCHEMA_VERSION,
        f"config version must be {SCHEMA_VERSION}, got {raw['version']!r}",
    )
    _check_types(raw)
    cfg = RunConfig(**raw)
    _require(cfg.mode in MODES, f"mode must be one of {MODES}, got {cfg.mode!r}")
    _require(cfg.model in models.ZOO, f"model must be one of {sorted(models.ZOO)}")
    _require(cfg.devices >= 1, "devices must be >= 1")
    _require(cfg.rounds >= 1, "rounds must be >= 1")
    _require(cfg.rho >= 1, "rho must be >= 1")
    _require(cfg.lr >= 0, "lr cannot be negative")
    _require(cfg.batch_size >= 1, "batch_size must be >= 1")
    _require(cfg.pretrain_epochs >= 0, "pretrain_epochs must be >= 0")
    _require(cfg.seed >= 0, "seed must be >= 0")
    _require(
        cfg.rho == 1 or cfg.mode == "replay",
        "rho is only meaningful in replay mode",
    )
    _require(
        not cfg.freeze_device or cfg.mode in ("split", "replay"),
        "freeze_device only applies to split (replay freezes regardless)",
    )
    _require(
        cfg.profile in netsim.PROFILES,
        f"profile must be one of {sorted(netsim.PROFILES)}",
    )
    _require(cfg.device_speed > 0 and cfg.server_speed > 0, "speeds must be positive")
    if cfg.op_index is not None:
        _require(cfg.op_index >= 1, "op_index must be >= 1")
        layer_count = len(models.expand(models.ZOO[cfg.model]())[0])
        _require(
            cfg.op_index < layer_count,
            f"op_index {cfg.op_index} must be below {cfg.model}'s layer count {layer_count}",
        )
    dataset = _validate_dataset(cfg)
    object.__setattr__(cfg, "dataset", dataset)
    return cfg


def _validate_dataset(cfg):
    spec = models.ZOO[cfg.model]()
    raw = dict(cfg.dataset) if cfg.dataset else {}
    kind = raw.get("kind", "blobs")
    _require(kind in _DATASET_KEYS, f"dataset kind must be one of {sorted(_DATASET_KEYS)}")
    unknown = set(raw) - _DATASET_KEYS[kind]
    _require(not unknown, f"unknown dataset keys for {kind!r}: {sorted(unknown)}")
    if kind == "idx":
        _require("images" in raw and "labels" in raw, "idx dataset needs images and labels paths")
        return {"kind": "idx", "images": str(raw["images"]), "labels": str(raw["labels"])}
    out = {
        "kind": "blobs",
        "classes": int(raw.get("classes", spec.num_classes)),
        "per_class": int(raw.get("per_class", 200)),
        "noise_sigma": float(raw.get("noise_sigma", 0.05)),
        "image_shape": tuple(raw.get("image_shape", spec.input_shape)),
    }
    _require(out["classes"] == spec.num_classes,
             f"blobs classes {out['classes']} must match model classes {spec.num_classes}")
    _require(out["per_class"] >= 1, "per_class must be >= 1")
    _require(math.isfinite(out["noise_sigma"]) and out["noise_sigma"] >= 0,
             "noise_sigma must be finite and >= 0")
    _require(len(out["image_shape"]) == 3, "image_shape must be (channels, height, width)")
    return out


def load_config(path, overrides=None):
    """Load and validate a JSON config file; ``overrides`` (e.g. a CLI seed)
    replace top-level keys before validation."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if overrides:
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        raw = {**raw, **overrides}
    return from_dict(raw)


def to_dict(cfg):
    out = {f.name: getattr(cfg, f.name) for f in fields(RunConfig)}
    out["dataset"] = dict(out["dataset"])
    if "image_shape" in out["dataset"]:
        out["dataset"]["image_shape"] = list(out["dataset"]["image_shape"])
    return out
