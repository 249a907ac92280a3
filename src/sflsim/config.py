"""Run configuration: a versioned JSON schema with fail-fast validation.

Unknown keys are rejected (top level and inside ``dataset``) so typos
surface immediately instead of silently falling back to defaults.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import MISSING, dataclass, field, fields

from . import data as data_mod
from . import models, netsim, runtime

SCHEMA_VERSION = 1


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


# Fields that act only in some modes; elsewhere they must keep their default.
_MODE_FIELDS = {
    "rho": ("replay",),  # the cache exists in replay only
    "quantized": ("replay",),
    "pretrain_epochs": ("split", "local_loss", "replay"),  # classic has no cut
    "op_index": ("split", "local_loss", "replay"),
    "freeze_device": ("split",),  # replay freezes regardless
}
_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}

_DATASET_KEYS = {
    "blobs": {"kind", *data_mod.BLOB_DEFAULTS},
    "idx": {"kind", "images", "labels"},
}


def _require(condition, message):
    if not condition:
        raise ConfigError(message)


_HINTS = typing.get_type_hints(RunConfig)
_TYPE_WORDS = {int: "an integer", bool: "true or false", str: "a string", dict: "an object"}


def _check_type(key, value, hint):
    """Reject a value that does not fit a type annotation: int, float
    (finite), bool, str or dict, optionally ``| None``."""
    options = typing.get_args(hint) or (hint,)
    if value is None and type(None) in options:
        return
    kind = options[0]
    if kind is float:
        _require(isinstance(value, (int, float)) and not isinstance(value, bool),
                 f"{key} must be a number")
        _require(math.isfinite(value), f"{key} must be finite, got {value!r}")
    else:
        _require(isinstance(value, kind) and (kind is bool or not isinstance(value, bool)),
                 f"{key} must be {_TYPE_WORDS[kind]}" + (" or null" if len(options) > 1 else ""))


def from_dict(raw):
    """Validate a parsed JSON object into a RunConfig."""
    _require(isinstance(raw, dict), "config must be a JSON object")
    known = {f.name for f in fields(RunConfig)}
    unknown = set(raw) - known
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    required = [f.name for f in fields(RunConfig)
                if f.default is MISSING and f.default_factory is MISSING]
    missing = [k for k in required if k not in raw]
    _require(not missing, f"missing config keys: {missing}")
    _require(
        raw["version"] == SCHEMA_VERSION,
        f"config version must be {SCHEMA_VERSION}, got {raw['version']!r}",
    )
    for key, value in raw.items():
        _check_type(key, value, _HINTS[key])
    cfg = RunConfig(**raw)
    _require(cfg.mode in runtime.MODES, f"mode must be one of {runtime.MODES}, got {cfg.mode!r}")
    _require(cfg.model in models.ZOO, f"model must be one of {sorted(models.ZOO)}")
    _require(cfg.devices >= 1, "devices must be >= 1")
    _require(cfg.rounds >= 1, "rounds must be >= 1")
    _require(cfg.rho >= 1, "rho must be >= 1")
    _require(cfg.lr >= 0, "lr cannot be negative")
    _require(cfg.batch_size >= 1, "batch_size must be >= 1")
    _require(cfg.pretrain_epochs >= 0, "pretrain_epochs must be >= 0")
    _require(cfg.seed >= 0, "seed must be >= 0")
    for key, modes in _MODE_FIELDS.items():
        _require(cfg.mode in modes or getattr(cfg, key) == _DEFAULTS[key],
                 f"{key} only applies to {', '.join(modes)}, not {cfg.mode}")
    _require(
        cfg.profile in netsim.PROFILES,
        f"profile must be one of {sorted(netsim.PROFILES)}",
    )
    _require(cfg.device_speed > 0 and cfg.server_speed > 0, "speeds must be positive")
    try:
        models.analyze(models.ZOO[cfg.model], cfg.op_index)
    except models.ModelError as exc:
        raise ConfigError(f"{cfg.model}: {exc}") from exc
    dataset = _validate_dataset(cfg)
    object.__setattr__(cfg, "dataset", dataset)
    return cfg


def _validate_dataset(cfg):
    raw = dict(cfg.dataset) if cfg.dataset else {}
    kind = raw.get("kind", "blobs")
    _check_type("kind", kind, str)
    _require(kind in _DATASET_KEYS, f"dataset kind must be one of {sorted(_DATASET_KEYS)}")
    unknown = set(raw) - _DATASET_KEYS[kind]
    _require(not unknown, f"unknown dataset keys for {kind!r}: {sorted(unknown)}")
    if kind == "idx":
        _require("images" in raw and "labels" in raw, "idx dataset needs images and labels paths")
        for key in ("images", "labels"):
            _check_type(key, raw[key], str)
        return raw
    out = {"kind": "blobs", **data_mod.BLOB_DEFAULTS, **raw}
    for key, hint in (("per_class", int), ("noise_sigma", float)):
        _check_type(key, out[key], hint)
    out["noise_sigma"] = float(out["noise_sigma"])
    _require(out["per_class"] >= 1, "per_class must be >= 1")
    _require(out["noise_sigma"] >= 0, "noise_sigma must be >= 0")
    return out


def load_config(path, overrides=None):
    """Load and validate a JSON config file; ``overrides`` (e.g. a CLI seed)
    replace top-level keys before validation."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:  # a directory, no permission, ...
        raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if overrides and isinstance(raw, dict):  # from_dict rejects a non-object
        raw = {**raw, **overrides}
    return from_dict(raw)


def to_dict(cfg):
    out = {f.name: getattr(cfg, f.name) for f in fields(RunConfig)}
    out["dataset"] = dict(out["dataset"])
    return out
