"""Run configuration: one JSON file covering every hyperparameter.

Each key is one row of RULES: its default, JSON type and range; DEFAULTS
is the nested config those defaults make. Unknown keys are rejected,
missing keys take their row's default, every value is checked against its
row, and the fully resolved config is echoed into every output directory so
a run can always be reproduced from its artifacts. See README for the schema.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple


class ConfigError(ValueError):
    pass


class Rule(NamedTuple):
    """A config value's JSON type (an integer counts as a float) and range,
    [lo, hi] or (lo, hi] when lo_open, with None for no bound. shape gives
    the lengths of the lists that hold it, outermost first; a pair is a range.
    default is what a config that leaves the key out gets."""

    kind: type
    lo: float | None = None
    hi: float | None = None
    lo_open: bool = False
    choices: tuple = ()
    shape: tuple = ()
    default: object = None


# One row per config key. Sizes are bounded, and resolve_config caps the
# dataset's bytes, so that no config can ask for a huge allocation.
RULES = {
    "data.image_hw": Rule(int, 2, 256, shape=(2,), default=[32, 32]),
    "data.channels": Rule(int, choices=(1, 3), default=3),
    "data.grades": Rule(int, 2, 100, default=5),
    "data.train_per_grade": Rule(int, 1, 100_000, default=100),
    "data.test_per_grade": Rule(int, 1, 100_000, default=50),
    "data.blobs_per_grade": Rule(int, 1, 100, default=2),
    "data.blob_radius": Rule(float, 0, 128, lo_open=True, shape=(2,), default=[2.0, 3.0]),
    "data.noise_sigma": Rule(float, 0, default=0.05),
    "data.seed": Rule(int, 0, 2**32 - 1, default=7),
    "data.continuous": Rule(bool, default=False),
    "data.continuous_seed": Rule(int, 0, 2**32 - 1, default=11),
    "data.augment": Rule(bool, default=False),
    "model.m": Rule(int, 2, 1000, default=10),
    "model.eps": Rule(float, 0, lo_open=True, default=1e-5),
    "model.similarity": Rule(str, choices=("reciprocal", "log"), default="reciprocal"),
    # positive, because the prediction divides by the prototype labels
    "model.label_lo": Rule(float, 0, lo_open=True, default=0.1),
    "model.label_hi": Rule(float, 0, lo_open=True, default=5.9),
    # (out_channels, kernel, stride) per conv block; ReLU between, sigmoid last.
    # The last out_channels is the latent depth c_z; the latent grid is 6x6.
    "model.backbone_blocks": Rule(int, 1, 256, shape=((2, 16), 3),
                                  default=[[8, 3, 2], [16, 3, 2], [16, 2, 1], [16, 1, 1]]),
    "model.seed": Rule(int, 0, 2**32 - 1, default=1),
    "loss.alpha_mse": Rule(float, 0, default=1.0),
    "loss.alpha_clst": Rule(float, 0, default=1.0),
    "loss.alpha_psd": Rule(float, 0, default=10.0),
    "loss.k": Rule(int, 1, 1000, default=3),
    "loss.delta_l": Rule(float, 0, lo_open=True, default=0.7),
    "train.cycles": Rule(int, 1, 1000, default=2),
    "train.joint_epochs": Rule(int, 0, 10_000, default=10),
    "train.lastlayer_epochs": Rule(int, 0, 10_000, default=5),
    "train.warmup_epochs": Rule(int, 0, 10_000, default=3),
    "train.lr_backbone": Rule(float, 0, lo_open=True, default=5e-3),
    "train.lr_protolayer": Rule(float, 0, lo_open=True, default=5e-3),
    "train.lr_head": Rule(float, 0, lo_open=True, default=5e-3),
    "train.batch_size": Rule(int, 1, 100_000, default=30),
    "train.seed": Rule(int, 0, 2**32 - 1, default=3),
}
# {section: {name: default}}, in RULES order
DEFAULTS: dict = {}
for _key, _rule in RULES.items():
    _section, _name = _key.split(".")
    DEFAULTS.setdefault(_section, {})[_name] = _rule.default
# float64 images of both splits, and each per-batch tensor of a pass
MAX_DATASET_BYTES = 1 << 30
INFERENCE_CHUNK = 64  # images per chunk of the no-grad passes (model._map_chunks)
_KIND_NAMES = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}


def _merge(defaults: dict, override: dict, path: str = "") -> dict:
    """defaults with override's values in place; each value of defaults that
    stays is copied once, and override's own values are not copied."""
    out = {}
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {where} must be a section (object)")
            value = _merge(defaults[key], value, where)
        out[key] = value
    return {key: out[key] if key in out else copy.deepcopy(value)
            for key, value in defaults.items()}


def check_value(key: str, value, rule: Rule, shape: tuple = ()) -> None:
    """Raise a ConfigError naming key (and list index) unless value fits the rule."""
    if shape:
        least, most = shape[0] if isinstance(shape[0], tuple) else (shape[0], shape[0])
        if not isinstance(value, list) or not least <= len(value) <= most:
            count = least if least == most else f"{least} to {most}"
            raise ConfigError(f"{key} must be a list of {count} items, got {value!r}")
        for i, item in enumerate(value):
            check_value(f"{key}[{i}]", item, rule, shape[1:])
        return
    # type(), so that true is no integer; abs() takes a huge integer, where float() overflows
    kinds = (int, float) if rule.kind is float else (rule.kind,)
    if type(value) not in kinds or rule.kind is float and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{key} must be {_KIND_NAMES[rule.kind]}, got {value!r}")
    if rule.choices and value not in rule.choices:
        raise ConfigError(f"{key} must be one of {rule.choices}, got {value!r}")
    if rule.lo is not None and (value < rule.lo or rule.lo_open and value == rule.lo):
        raise ConfigError(f"{key} must be {'>' if rule.lo_open else '>='} {rule.lo}, got {value}")
    if rule.hi is not None and value > rule.hi:
        raise ConfigError(f"{key} must be <= {rule.hi}, got {value}")


def resolve_config(overrides: dict | None = None) -> dict:
    """Fill defaults, reject unknown keys, check each value, then how values relate."""
    cfg = _merge(DEFAULTS, overrides or {})
    for key, rule in RULES.items():
        section, name = key.split(".")
        check_value(key, cfg[section][name], rule, rule.shape)
    d, m, t = cfg["data"], cfg["model"], cfg["train"]
    if t["warmup_epochs"] > t["joint_epochs"]:
        raise ConfigError("train.warmup_epochs cannot exceed train.joint_epochs")
    if m["label_lo"] >= m["label_hi"]:
        raise ConfigError(f"model.label_hi must be > model.label_lo, got {m['label_hi']}")
    # log((d+1)/(d+eps)) is <= 0 at every distance d once eps >= 1
    if m["similarity"] == "log" and m["eps"] >= 1:
        raise ConfigError(f"model.eps must be < 1 when model.similarity is \"log\", got {m['eps']}")
    if d["blob_radius"][0] > d["blob_radius"][1]:
        raise ConfigError(f"data.blob_radius must be [least, most], got {d['blob_radius']}")
    h, w = d["image_hw"]
    # a blob's centre lies in [r, side - 1 - r] on both axes
    if 2 * d["blob_radius"][1] > min(h, w) - 1:
        raise ConfigError(f"data.blob_radius most {d['blob_radius'][1]} does not fit a {h}x{w} "
                          f"image: twice it must be <= {min(h, w) - 1}")
    n_bytes = 8 * (d["train_per_grade"] + d["test_per_grade"]) * d["grades"] * d["channels"]
    n_bytes *= h * w
    if n_bytes > MAX_DATASET_BYTES:
        raise ConfigError(f"data.train_per_grade and data.test_per_grade ask for a dataset of "
                          f"{n_bytes} bytes, over the cap of {MAX_DATASET_BYTES}")
    # every worker of a no-grad pass holds one chunk's tensors at a time
    batch = max(t["batch_size"], INFERENCE_CHUNK)
    maps = block_maps(cfg)
    for i, ((out_c, kernel, _), (h, w)) in enumerate(zip(m["backbone_blocks"], maps)):
        if kernel > min(h, w):
            raise ConfigError(f"model.backbone_blocks[{i}] kernel {kernel} exceeds its {h}x{w} map")
        _check_batch_bytes(f"model.backbone_blocks[{i}]", "block output",
                           (batch, out_c, *maps[i + 1]))
    h, w = maps[-1]
    if min(h, w) <= 1:
        raise ConfigError(f"model.backbone_blocks maps {d['image_hw']} images to a {h}x{w} "
                          "latent grid, which must be > 1 on both sides")
    _check_batch_bytes("model.m", "distance map", (batch, m["m"], h, w))
    return cfg


def block_maps(cfg: dict) -> list[tuple[int, int]]:
    """(h, w) of the image and of each backbone block's output map; the last is
    the latent grid. A block after one whose kernel does not fit gets
    meaningless sides, which resolve_config rejects."""
    maps = [tuple(cfg["data"]["image_hw"])]
    for _, kernel, stride in cfg["model"]["backbone_blocks"]:
        h, w = maps[-1]
        maps.append(((h - kernel) // stride + 1, (w - kernel) // stride + 1))
    return maps


def _check_batch_bytes(key: str, what: str, shape: tuple) -> None:
    n_bytes = 8 * math.prod(shape)
    if n_bytes > MAX_DATASET_BYTES:
        raise ConfigError(f"{key} gives a {what} of shape {shape} per batch of {shape[0]} "
                          f"images: {n_bytes} bytes, over the cap of {MAX_DATASET_BYTES}")


def load_config(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        overrides = json.loads(p.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, RecursionError, UnicodeDecodeError) as e:
        raise ConfigError(f"config file {p} is not valid JSON: {e}") from e
    if not isinstance(overrides, dict):
        raise ConfigError(f"config file {p} must contain a JSON object")
    return resolve_config(overrides)


def save_config(cfg: dict, path) -> None:
    Path(path).write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")


# kept for perfbench/quality.py and perfbench/test_reference.py (ROADMAP item 5)
def synth_config_from(cfg: dict) -> dict:
    """The data section that data.make_splits reads."""
    return cfg["data"]
