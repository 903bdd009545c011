"""Tests for config resolution and the checkpoint format."""

import json
import math
import os
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from protoreg import config as C
from protoreg import data as D
from protoreg.cli import ABLATION_VARIANTS, main, train_run
from protoreg.engine import Tensor
from protoreg.gradcheck import TINY_CFG, tiny_model
from protoreg.model import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    _tensor_manifest,
    load_checkpoint,
    save_checkpoint,
)
from protoreg.prototypes import ProvenanceRecord


class TestResolve:
    def test_defaults_fill(self):
        cfg = C.resolve_config()
        assert cfg == C.DEFAULTS

    def test_partial_override_keeps_rest(self):
        cfg = C.resolve_config({"loss": {"k": 1}})
        assert cfg["loss"]["k"] == 1
        assert cfg["loss"]["delta_l"] == C.DEFAULTS["loss"]["delta_l"]
        assert cfg["train"] == C.DEFAULTS["train"]

    def test_defaults_not_mutated(self):
        before = json.dumps(C.DEFAULTS, sort_keys=True)
        cfg = C.resolve_config({"model": {"m": 4}})
        cfg["model"]["m"] = 99
        cfg["data"]["seed"] = 99
        assert json.dumps(C.DEFAULTS, sort_keys=True) == before

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(C.ConfigError, match="unknown config key: optimizer"):
            C.resolve_config({"optimizer": {}})

    def test_unknown_nested_key_rejected_with_path(self):
        with pytest.raises(C.ConfigError, match="unknown config key: train.momentum"):
            C.resolve_config({"train": {"momentum": 0.9}})

    def test_section_must_be_object(self):
        with pytest.raises(C.ConfigError, match="section"):
            C.resolve_config({"train": 5})

    def test_invalid_values_rejected(self):
        with pytest.raises(C.ConfigError):
            C.resolve_config({"model": {"eps": 0.0}})
        with pytest.raises(C.ConfigError):
            C.resolve_config({"model": {"similarity": "cosine"}})
        with pytest.raises(C.ConfigError):
            C.resolve_config({"train": {"warmup_epochs": 99}})
        with pytest.raises(C.ConfigError):
            C.resolve_config({"data": {"grades": 1}})
        with pytest.raises(C.ConfigError):
            C.resolve_config({"loss": {"alpha_psd": -1.0}})

    @pytest.mark.parametrize("override, message", [
        ({"train": {"lr_backbone": 0.0}}, "train.lr_backbone must be > 0, got 0.0"),
        ({"loss": {"alpha_clst": -0.5}}, "loss.alpha_clst must be >= 0, got -0.5"),
        ({"loss": {"alpha_psd": -0.5}}, "loss.alpha_psd must be >= 0, got -0.5"),
        ({"train": {"batch_size": 0}}, "train.batch_size must be >= 1, got 0"),
        ({"train": {"batch_size": -3}}, "train.batch_size must be >= 1, got -3"),
        # values that the data, prototype, loss and backbone code rejected on use
        ({"data": {"blobs_per_grade": 0}}, "data.blobs_per_grade must be >= 1, got 0"),
        ({"data": {"blob_radius": [0.0, 3.0]}}, "data.blob_radius[0] must be > 0, got 0.0"),
        ({"model": {"m": 1}}, "model.m must be >= 2, got 1"),
        ({"model": {"label_lo": 3.0, "label_hi": 3.0}},
         "model.label_hi must be > model.label_lo, got 3.0"),
        ({"model": {"backbone_blocks": [[8, 3, 2], [0, 3, 2]]}},
         "model.backbone_blocks[1][0] must be >= 1, got 0"),
        ({"model": {"backbone_blocks": [[16, 3, 2]]}},
         "model.backbone_blocks must be a list of 2 to 16 items, got [[16, 3, 2]]"),
        ({"model": {"backbone_blocks": [[8, 3, 0], [16, 3, 2]]}},
         "model.backbone_blocks[0][2] must be >= 1, got 0"),
        ({"loss": {"k": 0}}, "loss.k must be >= 1, got 0"),
        ({"loss": {"delta_l": 0.0}}, "loss.delta_l must be > 0, got 0.0"),
    ])
    def test_out_of_range_value_names_its_key(self, override, message):
        with pytest.raises(C.ConfigError, match=re.escape(message)):
            C.resolve_config(override)

    def test_backbone_shape_mismatch_rejected(self):
        # the block stack alone sets the latent grid, and each kernel must fit its map
        with pytest.raises(C.ConfigError, match="unknown config key: model.latent_hw"):
            C.resolve_config({"model": {"latent_hw": [7, 7]}})
        # 32 -k3 s2-> 15 -k3 s2-> 7, then a kernel of 8
        with pytest.raises(C.ConfigError, match=re.escape(
                "model.backbone_blocks[2] kernel 8 exceeds its 7x7 map")):
            C.resolve_config({"model": {"backbone_blocks": [[8, 3, 2], [16, 3, 2], [16, 8, 1]]}})

    def test_log_similarity_needs_eps_below_one(self):
        # log((d+1)/(d+eps)) is <= 0 at every d once eps >= 1; reciprocal stays positive
        C.resolve_config({"model": {"similarity": "log", "eps": 0.999}})
        C.resolve_config({"model": {"similarity": "reciprocal", "eps": 2.0}})
        for eps in (1.0, 2.0):
            with pytest.raises(C.ConfigError, match=re.escape(
                    f'model.eps must be < 1 when model.similarity is "log", got {eps}')):
                C.resolve_config({"model": {"similarity": "log", "eps": eps}})

    def test_blob_radius_must_fit_the_narrower_side(self):
        # a centre lies in [r, side - 1 - r], so 2 * r may reach side - 1 and no further
        C.resolve_config({"data": {"blob_radius": [2.0, 15.5]}})
        C.resolve_config({"data": {"image_hw": [24, 40], "blob_radius": [1.0, 11.5]}})
        for image_hw, radius in (([32, 32], [2.0, 15.6]), ([24, 40], [1.0, 11.6]),
                                 ([40, 24], [11.6, 11.6])):
            with pytest.raises(C.ConfigError, match=re.escape(
                    f"data.blob_radius most {radius[1]} does not fit a "
                    f"{image_hw[0]}x{image_hw[1]} image")):
                C.resolve_config({"data": {"image_hw": image_hw, "blob_radius": radius}})

    def test_tiny_cfg_resolves(self):
        cfg = C.resolve_config(TINY_CFG)
        assert cfg["model"]["m"] == 3
        latent = tiny_model().backbone.forward(Tensor(np.zeros((1, 3, 8, 8))))
        assert latent.data.shape == (1, 4, 2, 2)

    def test_dataset_byte_cap(self):
        # 8688 + 50 images per grade fill the cap with 5 grades of 3x32x32 float64
        # images; only resolve_config runs, so nothing of that size is allocated
        assert 8 * (8688 + 50) * 5 * 3 * 32 * 32 <= C.MAX_DATASET_BYTES
        C.resolve_config({"data": {"train_per_grade": 8688}})
        with pytest.raises(C.ConfigError, match="^data.train_per_grade and data.test_per_grade "
                                                "ask for a dataset of 1073848320 bytes"):
            C.resolve_config({"data": {"train_per_grade": 8689}})

    def test_batch_tensor_byte_cap(self):
        # the default first block's output is 8x15x15 float64 values, 14400 bytes an image;
        # only resolve_config runs, so nothing of that size is allocated
        assert 74565 * 14400 <= C.MAX_DATASET_BYTES < 74566 * 14400
        C.resolve_config({"train": {"batch_size": 74565}})
        with pytest.raises(C.ConfigError, match=re.escape(
                "model.backbone_blocks[0] gives a block output of shape (74566, 8, 15, 15) "
                "per batch of 74566 images: 1073750400 bytes")):
            C.resolve_config({"train": {"batch_size": 74566}})
        # 1000 prototypes on the 6x6 grid: 288000 bytes of distances an image
        assert 3728 * 288000 <= C.MAX_DATASET_BYTES < 3729 * 288000
        C.resolve_config({"model": {"m": 1000}, "train": {"batch_size": 3728}})
        with pytest.raises(C.ConfigError, match=re.escape(
                "model.m gives a distance map of shape (3729, 1000, 6, 6)")):
            C.resolve_config({"model": {"m": 1000}, "train": {"batch_size": 3729}})
        # a training batch below the inference chunk is capped at the chunk's size
        with pytest.raises(C.ConfigError, match=re.escape(
                f"per batch of {C.INFERENCE_CHUNK} images")):
            C.resolve_config({"data": {"image_hw": [256, 256], "train_per_grade": 1,
                                       "test_per_grade": 1},
                              "model": {"backbone_blocks": [[256, 1, 1], [256, 1, 1]]},
                              "train": {"batch_size": 1}})
        # 65 test images are chunks of 64 and 1, so a distance map that passes the
        # cap at 64 images but not at 65 is accepted
        tail = {"data": {"image_hw": [45, 46], "channels": 1, "grades": 5,
                         "train_per_grade": 13, "test_per_grade": 13},
                "model": {"m": 1000, "backbone_blocks": [[2, 1, 1], [2, 1, 1]]}}
        assert 8 * 64 * 1000 * 45 * 46 <= C.MAX_DATASET_BYTES < 8 * 65 * 1000 * 45 * 46
        C.resolve_config(tail)
        with pytest.raises(C.ConfigError, match=re.escape(
                "model.m gives a distance map of shape (65, 1000, 45, 46) per batch of 65 "
                "images: 1076400000 bytes")):
            C.resolve_config({**tail, "train": {"batch_size": 65}})


JSON_VALUES = {int: st.integers(), float: st.floats(), bool: st.booleans(),
               str: st.text(max_size=8)}


def wrong_values(rule: C.Rule, default, shape: tuple) -> st.SearchStrategy:
    """JSON values that rule must reject where default is valid: every wrong
    type, lists of a wrong length or with one wrong item, and numbers past
    each bound."""
    others = [st.none(), st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)]
    if shape:
        least, most = shape[0] if isinstance(shape[0], tuple) else (shape[0], shape[0])
        lengths = st.integers(0, most + 2).filter(lambda n: not least <= n <= most)
        one_wrong = st.tuples(st.integers(0, len(default) - 1),
                              wrong_values(rule, default[0], shape[1:]))
        return st.one_of(*others, *JSON_VALUES.values(),
                         lengths.map(lambda n: [default[0]] * n),
                         one_wrong.map(lambda t: default[:t[0]] + [t[1]] + default[t[0] + 1:]))
    out = others + [st.lists(st.integers(), max_size=3)]
    out += [values for kind, values in JSON_VALUES.items()
            if kind is not rule.kind and (kind, rule.kind) != (int, float)]
    if rule.choices:
        out.append(JSON_VALUES[rule.kind].filter(lambda v: v not in rule.choices))
    if rule.kind is float:
        out.append(st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -10**400]))
    below, above = just_past(rule)
    if below is not None:
        out.append(st.integers(max_value=below) if rule.kind is int else st.floats(max_value=below))
    if above is not None:
        out.append(st.integers(min_value=above) if rule.kind is int else st.floats(min_value=above))
    return st.one_of(*out)


def just_past(rule: C.Rule) -> tuple:
    """The numbers just below rule's lower bound and just above its upper one
    (None where there is no bound)."""
    below = above = None
    if rule.lo is not None:
        below = (rule.lo - 1 if rule.kind is int else
                 float(rule.lo) if rule.lo_open else math.nextafter(rule.lo, -math.inf))
    if rule.hi is not None:
        above = rule.hi + 1 if rule.kind is int else math.nextafter(rule.hi, math.inf)
    return below, above


def nest(value, default, shape: tuple):
    """default with its first innermost item replaced by value."""
    return [nest(value, default[0], shape[1:])] + default[1:] if shape else value


class TestRules:
    def test_every_config_the_project_runs_resolves(self):
        # the defaults, the grad-check model, each ablation cell on the defaults and on
        # the tiny model, and every config that a script under scripts/ writes
        scripts = Path(__file__).resolve().parents[1] / "scripts"
        written = [json.loads(block) for path in sorted(scripts.glob("*.sh"))
                   for block in re.findall(r"<<'EOF'\n(.*?)\nEOF", path.read_text(), re.S)]
        assert len(written) == 4
        for base in [C.DEFAULTS, TINY_CFG, *written]:
            cfg = C.resolve_config(base)
            for _, override in ABLATION_VARIANTS:
                C.resolve_config(C._merge(cfg, override))

    def test_values_just_past_each_bound(self):
        # resolve_config alone: no test allocates what a size bound guards against
        for key, rule in C.RULES.items():
            section, name = key.split(".")
            for value in filter(lambda v: v is not None, just_past(rule)):
                override = {section: {name: nest(value, C.DEFAULTS[section][name], rule.shape)}}
                with pytest.raises(C.ConfigError) as raised:
                    C.resolve_config(override)
                assert str(raised.value).startswith(key), raised.value
                assert str(raised.value).endswith(f"got {value}"), raised.value

    @pytest.mark.parametrize("key", sorted(C.RULES))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_wrong_value_names_its_key(self, key, data, tmp_path, capsys):
        section, name = key.split(".")
        rule = C.RULES[key]
        override = {section: {name: data.draw(wrong_values(rule, C.DEFAULTS[section][name],
                                                           rule.shape))}}
        with pytest.raises(C.ConfigError) as raised:
            C.resolve_config(override)
        assert str(raised.value).startswith(key), raised.value
        # the dataset path does not exist: only the config check can end the command
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(override))
        rc = main(["train", "--config", str(path), "--data", str(tmp_path / "missing"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {raised.value}\n"
        assert not (tmp_path / "out").exists()


class TestLoadSave:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"loss": {"k": 2}}))
        cfg = C.load_config(path)
        assert cfg["loss"]["k"] == 2
        out = tmp_path / "resolved.json"
        C.save_config(cfg, out)
        assert json.loads(out.read_text()) == cfg

    def test_deleted_key_rejected(self, tmp_path, capsys):
        # the MSE term has no weight of its own: a config that sets one is refused
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"loss": {"alpha_mse": 1.0}}))
        rc = main(["train", "--config", str(path), "--data", str(tmp_path / "missing"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == "error: unknown config key: loss.alpha_mse\n"
        assert not (tmp_path / "out").exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(C.ConfigError, match="not found"):
            C.load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(C.ConfigError, match="JSON"):
            C.load_config(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(C.ConfigError, match=f"config file {re.escape(str(path))} "
                                                "is not valid JSON: 'utf-8' codec"):
            C.load_config(path)

    def test_json_nested_too_deep(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(C.ConfigError, match="JSON"):
            C.load_config(path)

    def test_non_object_json(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(C.ConfigError, match="object"):
            C.load_config(path)

    def test_save_is_deterministic(self, tmp_path):
        cfg = C.resolve_config()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        C.save_config(cfg, a)
        C.save_config(cfg, b)
        assert a.read_bytes() == b.read_bytes()


def tiny_resolved_cfg():
    return C.resolve_config(TINY_CFG)


def split_checkpoint(raw: bytes) -> tuple[dict, int]:
    """(header, offset of the payload) of checkpoint bytes."""
    (header_len,) = struct.unpack_from("<Q", raw, 9)
    return json.loads(raw[17 : 17 + header_len]), 17 + header_len


def with_header(raw: bytes, header: dict) -> bytes:
    """Checkpoint bytes with the header replaced and the length field updated."""
    _, end = split_checkpoint(raw)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return raw[:9] + struct.pack("<Q", len(blob)) + blob + raw[end:]


def damaged_checkpoints(raw: bytes, damage: str) -> list[bytes]:
    header, end = split_checkpoint(raw)
    if damage == "truncated":
        return [raw[:cut] for cut in range(end)]
    if damage == "not_utf8":
        return [raw[:17] + b"\xff" + raw[18:]]
    if damage == "not_json":
        deep = b"[" * 100_000 + b"]" * 100_000
        return [raw[:17] + b"[" + raw[18:], raw[:9] + struct.pack("<Q", len(deep)) + deep]
    if damage == "missing_key":
        headers = [{k: v for k, v in header.items() if k != key} for key in header]
        headers += [{**header, "config": {k: v for k, v in header["config"].items()
                                          if k != section}} for section in header["config"]]
        return [with_header(raw, h) for h in headers]
    assert damage == "bad_config"
    cfg = header["config"]
    # a key this build does not know (as in a checkpoint with the old pretraining
    # keys), a config that is not an object, a value of the wrong type
    configs = [{**cfg, "train": {**cfg["train"], "lr_pretrain": 5e-3}}, [cfg],
               {**cfg, "data": {**cfg["data"], "image_hw": 8}}]
    return [with_header(raw, {**header, "config": c}) for c in configs]


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        model = tiny_model(seed=5)
        model.bank.provenance[1] = ProvenanceRecord(3, 1, 0, 0.25)
        cfg = tiny_resolved_cfg()
        path = tmp_path / "ckpt.bin"
        save_checkpoint(model, path, cfg)
        back, cfg_back = load_checkpoint(path)
        assert cfg_back == cfg
        assert back.similarity_kind == model.similarity_kind
        assert back.eps == model.eps
        for a, b in zip(model.params(), back.params()):
            assert np.array_equal(a.data, b.data)
        assert np.array_equal(back.bank.labels, model.bank.labels)
        assert back.bank.provenance[0] is None
        assert back.bank.provenance[1] == ProvenanceRecord(3, 1, 0, 0.25)

    def test_round_trip_predictions_bitwise(self, tmp_path):
        model = tiny_model(seed=6)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(model, path, tiny_resolved_cfg())
        back, _ = load_checkpoint(path)
        images = np.random.default_rng(0).uniform(size=(4, 3, 8, 8))
        assert np.array_equal(model.score_np(images)[1], back.score_np(images)[1])

    def test_save_is_byte_deterministic(self, tmp_path):
        model = tiny_model(seed=7)
        cfg = tiny_resolved_cfg()
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(model, p1, cfg)
        save_checkpoint(model, p2, cfg)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"XXXXX" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(tiny_model(seed=0), path, tiny_resolved_cfg())
        raw = bytearray(path.read_bytes())
        for version in (99, 1):  # 1: the format whose header held a stage cursor
            raw[5:9] = struct.pack("<I", version)  # the little-endian version field
            path.write_bytes(bytes(raw))
            with pytest.raises(CheckpointError, match=re.escape(
                    f"{path}: unsupported checkpoint format version {version} "
                    "(this build reads version 2)")):
                load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        model = tiny_model(seed=0)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(model, path, tiny_resolved_cfg())
        raw = path.read_bytes()
        path.write_bytes(raw + b"\x00" * 8)  # trailing garbage
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_payload_size_checked_before_reading(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(tiny_model(seed=0), path, tiny_resolved_cfg())
        os.truncate(path, path.stat().st_size + (256 << 20))  # a sparse tail of zeros
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="trailing"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, peak

    def test_magic_constant(self):
        assert CHECKPOINT_MAGIC == b"PRCK1"

    @pytest.mark.parametrize("damage", ["truncated", "not_utf8", "not_json", "missing_key",
                                        "bad_config"])
    def test_damaged_header_rejected(self, tmp_path, damage):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(tiny_model(seed=0), path, tiny_resolved_cfg())
        for raw in damaged_checkpoints(path.read_bytes(), damage):
            path.write_bytes(raw)
            with pytest.raises(CheckpointError):
                load_checkpoint(path)

    def test_header_config_of_wrong_type(self, tmp_path, capsys):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(tiny_model(seed=0), path, tiny_resolved_cfg())
        header, _ = split_checkpoint(path.read_bytes())
        header["config"]["model"]["m"] = "10"
        path.write_bytes(with_header(path.read_bytes(), header))
        rc = main(["eval", "--checkpoint", str(path), "--data", str(tmp_path / "missing"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {path}: header config: model.m must be an integer, got '10'\n")

    def test_config_builds_the_reloaded_model(self, tmp_path):
        overrides = json.loads(json.dumps(TINY_CFG))
        overrides["model"].update(similarity="log", eps=1e-3)
        cfg = C.resolve_config(overrides)
        rng = np.random.default_rng(0)
        y = np.tile(np.arange(1.0, 4.0), 4)
        train = D.SynthDataset(images=rng.uniform(size=(12, 3, 8, 8)), y=y,
                               y_categorical=y.copy(), label_mode="categorical",
                               split="train")
        model, _ = train_run(cfg, train, tmp_path)
        back, _ = load_checkpoint(tmp_path / "checkpoint.bin")
        assert (back.similarity_kind, back.eps) == ("log", 1e-3)
        images = rng.uniform(size=(5, 3, 8, 8))
        assert np.array_equal(back.score_np(images)[1], model.score_np(images)[1])

        raw = (tmp_path / "checkpoint.bin").read_bytes()
        header, _ = split_checkpoint(raw)
        header["eps"] = 1e-5
        path = tmp_path / "edited.bin"
        path.write_bytes(with_header(raw, header))
        with pytest.raises(CheckpointError, match="disagrees with its config"):
            load_checkpoint(path)

    def eval_error(self, tmp_path, capsys, **edits) -> tuple[Path, str]:
        """(path, stderr) of protoreg eval on a tiny checkpoint whose header has
        the keys of edits replaced; it must exit 2."""
        path = tmp_path / "ckpt.bin"
        save_checkpoint(tiny_model(seed=0), path, tiny_resolved_cfg())
        header, _ = split_checkpoint(path.read_bytes())
        path.write_bytes(with_header(path.read_bytes(), {**header, **edits}))
        rc = main(["eval", "--checkpoint", str(path), "--data", str(tmp_path / "missing"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        return path, capsys.readouterr().err

    def test_header_config_with_a_deleted_key(self, tmp_path, capsys):
        cfg = tiny_resolved_cfg()
        path, err = self.eval_error(tmp_path, capsys,
                                    config={**cfg, "loss": {**cfg["loss"], "alpha_mse": 1.0}})
        assert err == f"error: {path}: header config: unknown config key: loss.alpha_mse\n"

    @pytest.mark.parametrize("key, value", [
        ("labels", [1.0, 1.0, 1.0]),
        ("eps", 1e-5),
        ("similarity_kind", "log"),
        ("tensors", 5),
        ("tensors", [{"name": "theta", "shape": [3]}]),
    ])
    def test_header_disagrees_with_config(self, tmp_path, capsys, key, value):
        path, err = self.eval_error(tmp_path, capsys, **{key: value})
        assert err.startswith(f"error: {path}: header {key} {json.dumps(value)} disagrees "
                              "with its config, which gives ")

    def test_unknown_header_key(self, tmp_path, capsys):
        path, err = self.eval_error(tmp_path, capsys, checksum=0)
        assert err.startswith(f"error: {path}: header keys ['checksum', 'config', ")

    @pytest.mark.parametrize("key, value, message", [
        ("provenance", 5, "provenance must be a list of 3 entries, got 5"),
        ("provenance", [None, None], "provenance must be a list of 3 entries, got [None, None]"),
        ("provenance", [{"x": 1}, None, None], "provenance[0] must be an object with keys "
         "['col', 'moved_sq_dist', 'row', 'sample_id'], got {'x': 1}"),
        ("provenance", [None, {"sample_id": 0, "row": -1, "col": 0, "moved_sq_dist": 0.0}, None],
         "provenance[1].row must be >= 0, got -1"),
        ("provenance", [None, None, {"sample_id": True, "row": 0, "col": 0, "moved_sq_dist": 0}],
         "provenance[2].sample_id must be an integer, got True"),
        ("provenance", [None, None, {"sample_id": 0, "row": 0, "col": 0, "moved_sq_dist": math.inf}],
         "provenance[2].moved_sq_dist must be a finite number, got inf"),
    ])
    def test_bad_provenance(self, tmp_path, capsys, key, value, message):
        path, err = self.eval_error(tmp_path, capsys, **{key: value})
        assert err == f"error: {path}: header {message}\n"

    @pytest.mark.parametrize("name, bad", [("theta", np.nan), ("backbone.w0", np.inf)])
    def test_non_finite_payload_rejected(self, tmp_path, capsys, name, bad):
        model = tiny_model(seed=0)
        names = [n for n, _ in _tensor_manifest(model)]
        sizes = [t.data.size for t in model.params()]
        dict(_tensor_manifest(model))[name].data.flat[1] = bad
        path = tmp_path / "ckpt.bin"
        save_checkpoint(model, path, tiny_resolved_cfg())
        first = sum(sizes[:names.index(name)]) + 1
        for command in ("eval", "embed"):
            rc = main([command, "--checkpoint", str(path), "--data", str(tmp_path / "missing"),
                       "--out", str(tmp_path / "out")])
            assert rc == 2
            assert capsys.readouterr().err == (
                f"error: {path}: non-finite payload value {first}\n")
