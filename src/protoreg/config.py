"""Run configuration: one JSON file covering every hyperparameter.

Unknown keys are rejected, missing keys are filled from DEFAULTS, and the
fully resolved config is echoed into every output directory so a run can
always be reproduced from its artifacts. See README for the schema.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

from .backbone import BackboneConfig, ConfigError, ConvSpec
from .data import SynthConfig


DEFAULTS: dict = {
    "data": {
        "image_hw": [32, 32],
        "channels": 3,
        "grades": 5,
        "train_per_grade": 100,
        "test_per_grade": 50,
        "blobs_per_grade": 2,
        "blob_radius": [2.0, 3.0],
        "noise_sigma": 0.05,
        "seed": 7,
        "continuous": False,
        "continuous_seed": 11,
        "augment": False,
    },
    "model": {
        "m": 10,
        "c_z": 16,
        "eps": 1e-5,
        "similarity": "reciprocal",
        "label_lo": 0.1,
        "label_hi": 5.9,
        # (out_channels, kernel, stride) per conv block; ReLU between, sigmoid last
        "backbone_blocks": [[8, 3, 2], [16, 3, 2], [16, 2, 1], [16, 1, 1]],
        "latent_hw": [6, 6],
        "seed": 1,
    },
    "loss": {
        "alpha_mse": 1.0,
        "alpha_clst": 1.0,
        "alpha_psd": 10.0,
        "k": 3,
        "delta_l": 0.7,
    },
    "train": {
        "cycles": 2,
        "joint_epochs": 10,
        "lastlayer_epochs": 5,
        "warmup_epochs": 3,
        "lr_backbone": 5e-3,
        "lr_protolayer": 5e-3,
        "lr_head": 5e-3,
        "batch_size": 30,
        "seed": 3,
    },
}


def _merge(defaults: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(defaults)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {where} must be a section (object)")
            out[key] = _merge(defaults[key], value, where)
        else:
            out[key] = value
    return out


def resolve_config(overrides: dict | None = None) -> dict:
    """Fill defaults, reject unknown keys, sanity-check values."""
    cfg = _merge(DEFAULTS, overrides or {})
    # construct the derived objects once so bad values fail here, loudly
    backbone_config_from(cfg)
    synth_config_from(cfg)
    if cfg["model"]["eps"] <= 0:
        raise ConfigError(f"model.eps must be > 0, got {cfg['model']['eps']}")
    if cfg["model"]["similarity"] not in ("reciprocal", "log"):
        raise ConfigError(f"model.similarity must be 'reciprocal' or 'log'")
    for key in ("alpha_mse", "alpha_clst", "alpha_psd"):
        if cfg["loss"][key] < 0:
            raise ConfigError(f"loss.{key} must be >= 0, got {cfg['loss'][key]}")
    if cfg["train"]["warmup_epochs"] > cfg["train"]["joint_epochs"]:
        raise ConfigError("train.warmup_epochs cannot exceed train.joint_epochs")
    if cfg["train"]["batch_size"] < 1:
        raise ConfigError(f"train.batch_size must be >= 1, got {cfg['train']['batch_size']}")
    return cfg


def load_config(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        overrides = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {p} is not valid JSON: {e}") from e
    if not isinstance(overrides, dict):
        raise ConfigError(f"config file {p} must contain a JSON object")
    return resolve_config(overrides)


def save_config(cfg: dict, path) -> None:
    Path(path).write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")


def backbone_config_from(cfg: dict) -> BackboneConfig:
    m, d = cfg["model"], cfg["data"]
    return BackboneConfig(
        input_hw=tuple(d["image_hw"]),
        in_channels=d["channels"],
        blocks=tuple(ConvSpec(*b) for b in m["backbone_blocks"]),
        c_z=m["c_z"],
        latent_hw=tuple(m["latent_hw"]),
    )


def synth_config_from(cfg: dict) -> SynthConfig:
    d = cfg["data"]
    try:
        return SynthConfig(
            image_hw=tuple(d["image_hw"]),
            channels=d["channels"],
            grades=d["grades"],
            train_per_grade=d["train_per_grade"],
            test_per_grade=d["test_per_grade"],
            blobs_per_grade=d["blobs_per_grade"],
            blob_radius=tuple(d["blob_radius"]),
            noise_sigma=d["noise_sigma"],
            seed=d["seed"],
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e
