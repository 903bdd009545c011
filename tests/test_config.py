"""Tests for config resolution and the checkpoint format."""

import json
import re
import struct

import numpy as np
import pytest

from protoreg import config as C
from protoreg import data as D
from protoreg.cli import train_run
from protoreg.gradcheck import TINY_CFG, tiny_model
from protoreg.model import (
    CHECKPOINT_MAGIC,
    CheckpointError,
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
        ({"loss": {"alpha_mse": -0.5}}, "loss.alpha_mse must be >= 0, got -0.5"),
        ({"loss": {"alpha_clst": -0.5}}, "loss.alpha_clst must be >= 0, got -0.5"),
        ({"loss": {"alpha_psd": -0.5}}, "loss.alpha_psd must be >= 0, got -0.5"),
        ({"train": {"batch_size": 0}}, "train.batch_size must be >= 1, got 0"),
        ({"train": {"batch_size": -3}}, "train.batch_size must be >= 1, got -3"),
    ])
    def test_out_of_range_value_names_its_key(self, override, message):
        with pytest.raises(C.ConfigError, match=re.escape(message)):
            C.resolve_config(override)

    def test_backbone_shape_mismatch_rejected(self):
        # blocks that do not land on the declared latent size must fail loudly
        with pytest.raises(C.ConfigError):
            C.resolve_config({"model": {"latent_hw": [7, 7]}})

    def test_tiny_cfg_resolves(self):
        cfg = C.resolve_config(TINY_CFG)
        assert cfg["model"]["m"] == 3
        bc = C.backbone_config_from(cfg)
        assert bc.latent_hw == (2, 2)


class TestLoadSave:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"loss": {"k": 2}}))
        cfg = C.load_config(path)
        assert cfg["loss"]["k"] == 2
        out = tmp_path / "resolved.json"
        C.save_config(cfg, out)
        assert json.loads(out.read_text()) == cfg

    def test_missing_file(self, tmp_path):
        with pytest.raises(C.ConfigError, match="not found"):
            C.load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
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
        return [raw[:17] + b"[" + raw[18:]]
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
        model.cursor = {"cycle": 0, "stage": "joint"}
        model.bank.provenance[1] = ProvenanceRecord(3, 1, 0, 0.25)
        cfg = tiny_resolved_cfg()
        path = tmp_path / "ckpt.bin"
        save_checkpoint(model, path, cfg)
        back, cfg_back = load_checkpoint(path)
        assert cfg_back == cfg
        assert back.cursor == model.cursor
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
        assert np.array_equal(model.predict_np(images), back.predict_np(images))

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
        model = tiny_model(seed=0)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(model, path, tiny_resolved_cfg())
        raw = bytearray(path.read_bytes())
        raw[5] = 99  # bump the little-endian version field
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version 99"):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        model = tiny_model(seed=0)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(model, path, tiny_resolved_cfg())
        raw = path.read_bytes()
        path.write_bytes(raw + b"\x00" * 8)  # trailing garbage
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

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
        assert np.array_equal(back.predict_np(images), model.predict_np(images))

        raw = (tmp_path / "checkpoint.bin").read_bytes()
        header, _ = split_checkpoint(raw)
        header["eps"] = 1e-5
        path = tmp_path / "edited.bin"
        path.write_bytes(with_header(raw, header))
        with pytest.raises(CheckpointError, match="disagrees with its config"):
            load_checkpoint(path)
