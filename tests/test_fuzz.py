"""Damaged checkpoint and dataset files: every one loads as what its header
describes, or fails with an error that names the file, never a traceback."""

import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from protoreg import data as D
from protoreg.cli import main
from protoreg.config import resolve_config
from protoreg.gradcheck import TINY_CFG, tiny_model
from protoreg.model import (CheckpointError, Model, _tensor_manifest, load_checkpoint,
                            save_checkpoint)
from protoreg.prototypes import ProvenanceRecord

from test_config import split_checkpoint, with_header


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    model = tiny_model(seed=3)
    model.bank.provenance = [ProvenanceRecord(j, 1, 0, 0.5) for j in range(model.bank.m)]
    model.bank.provenance[1] = None
    path = tmp_path_factory.mktemp("ckpt") / "ckpt.bin"
    save_checkpoint(model, path, resolve_config(TINY_CFG))
    return path.read_bytes()


@pytest.fixture(scope="module")
def dataset_bytes(tmp_path_factory):
    rng = np.random.default_rng(0)
    y = np.array([1.0, 2.0, 3.0])
    ds = D.SynthDataset(images=rng.uniform(size=(3, 1, 3, 2)), y=y, y_categorical=y.copy(),
                        label_mode="categorical", split="test")
    path = tmp_path_factory.mktemp("data") / "test.insd"
    D.save_dataset(ds, path)
    return path.read_bytes()


def load_or_reject(path, raw: bytes | None = None):
    """Load raw (by default, the file as it is) from path; None if the loader
    rejects it with an error that names path."""
    if raw is not None:
        path.write_bytes(raw)
    try:
        if path.suffix == ".insd":
            return D.load_dataset(path)
        model, cfg = load_checkpoint(path)
    except (CheckpointError, D.DataFormatError) as e:
        assert str(e).startswith(f"{path}: "), e
        return None
    # a loaded checkpoint holds the labels and tensor shapes its config gives
    fresh = Model.from_config(cfg)
    assert np.array_equal(model.bank.labels, fresh.bank.labels)
    assert [t.data.shape for _, t in _tensor_manifest(model)] == \
        [t.data.shape for _, t in _tensor_manifest(fresh)]
    return model


def payload_offset(raw: bytes, suffix: str) -> int:
    return 25 if suffix == ".insd" else split_checkpoint(raw)[1]


@pytest.mark.parametrize("suffix", [".bin", ".insd"])
def test_bit_flip_in_prefix_or_header(tmp_path, checkpoint_bytes, dataset_bytes, suffix):
    raw = checkpoint_bytes if suffix == ".bin" else dataset_bytes
    path = tmp_path / f"file{suffix}"
    for offset in range(payload_offset(raw, suffix)):
        flipped = bytearray(raw)
        flipped[offset] ^= 1 << offset % 8
        load_or_reject(path, bytes(flipped))


@pytest.mark.parametrize("suffix", [".bin", ".insd"])
def test_cut_at_every_length(tmp_path, checkpoint_bytes, dataset_bytes, suffix):
    raw = checkpoint_bytes if suffix == ".bin" else dataset_bytes
    path = tmp_path / f"file{suffix}"
    path.write_bytes(raw)
    for cut in reversed(range(len(raw))):
        os.truncate(path, cut)
        assert load_or_reject(path) is None, cut


@pytest.mark.parametrize("suffix", [".bin", ".insd"])
def test_each_payload_value_set_to_nan(tmp_path, checkpoint_bytes, dataset_bytes, suffix):
    raw = checkpoint_bytes if suffix == ".bin" else dataset_bytes
    path = tmp_path / f"file{suffix}"
    start = payload_offset(raw, suffix)
    for value in range((len(raw) - start) // 8):
        at = start + 8 * value
        assert load_or_reject(path, raw[:at] + struct.pack("<d", np.nan) + raw[at + 8:]) is None
    # a flip that leaves a value finite loads: the header holds no payload checksum
    flipped = bytearray(raw)
    flipped[start] ^= 1
    assert load_or_reject(path, bytes(flipped)) is not None


@pytest.mark.parametrize("row, col, bad", [(1, 1, None), (2, 0, "row"), (0, 2, "col")])
def test_provenance_bounded_by_the_latent_grid(tmp_path, checkpoint_bytes, row, col, bad):
    # the tiny config's blocks map its 8x8 images to a 2x2 latent grid
    header, _ = split_checkpoint(checkpoint_bytes)
    header["provenance"][0].update(row=row, col=col)
    path = tmp_path / "ckpt.bin"
    path.write_bytes(with_header(checkpoint_bytes, header))
    if bad is None:
        assert load_or_reject(path).bank.provenance[0] == ProvenanceRecord(0, row, col, 0.5)
    else:
        with pytest.raises(CheckpointError) as e:
            load_checkpoint(path)
        assert str(e.value) == f"{path}: header provenance[0].{bad} must be <= 1, got 2"


def leaves(doc, where=()):
    """Paths of every non-container value in a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(value, (dict, list)) and value:
            yield from leaves(value, where + (key,))
        else:
            yield where + (key,)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=3),
    max_leaves=5)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), value=json_values)
def test_header_leaf_swapped_for_any_json(tmp_path, checkpoint_bytes, data, value):
    header, _ = split_checkpoint(checkpoint_bytes)
    where = data.draw(st.sampled_from(list(leaves(header))))
    node = header
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    load_or_reject(tmp_path / "ckpt.bin", with_header(checkpoint_bytes, header))


@pytest.mark.parametrize("damage", ["flip_magic", "cut_header", "nan_payload", "cut_data"])
def test_damaged_files_exit_2(tmp_path, capsys, checkpoint_bytes, dataset_bytes, damage):
    ckpt, data = tmp_path / "ckpt.bin", tmp_path / "test.insd"
    ckpt.write_bytes(checkpoint_bytes)
    data.write_bytes(dataset_bytes)
    bad = data if damage in ("nan_payload", "cut_data") else ckpt
    raw = bad.read_bytes()
    if damage == "flip_magic":
        raw = raw[:2] + b"\x00" + raw[3:]
    elif damage == "cut_header":
        raw = raw[:40]
    elif damage == "nan_payload":
        raw = raw[:-8] + struct.pack("<d", np.nan)
    else:
        raw = raw[:-3]
    bad.write_bytes(raw)
    rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")


@pytest.fixture(scope="module")
def split_65():
    """65 test images of the tiny checkpoint's image shape: two no-grad chunks,
    the second holding image 64 alone."""
    rng = np.random.default_rng(1)
    y = 1.0 + np.arange(65) % 3
    return D.SynthDataset(images=rng.uniform(size=(65, 3, 8, 8)), y=y, y_categorical=y.copy(),
                          label_mode="categorical", split="test")


@pytest.mark.parametrize("image", [0, 64])
@pytest.mark.parametrize("command", ["eval", "embed", "explain"])
def test_non_finite_image_read_in_a_chunk_exits_2(tmp_path, capsys, checkpoint_bytes, split_65,
                                                   image, command):
    ckpt, data = tmp_path / "ckpt.bin", tmp_path / "test.insd"
    ckpt.write_bytes(checkpoint_bytes)
    images = split_65.images.copy()
    images[image, 2, 7, 1] = np.nan
    D.save_dataset(D.SynthDataset(images, split_65.y, split_65.y_categorical,
                                  "categorical", "test"), data)
    with pytest.raises(D.DataFormatError) as loaded:
        D.load_dataset(data)
    value = image * 3 * 8 * 8 + 2 * 8 * 8 + 7 * 8 + 1  # counted from the first image value
    assert str(loaded.value) == f"{data}: non-finite payload value {value}, in image {image}"
    extra = ["--sample-ids", str(image)] if command == "explain" else []
    rc = main([command, "--checkpoint", str(ckpt), "--data", str(data),
               "--out", str(tmp_path / "out"), *extra])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {loaded.value}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("labels, at", [("y", 64), ("y_categorical", 0)])
def test_non_finite_label_exits_2(tmp_path, capsys, checkpoint_bytes, split_65, labels, at):
    ckpt, data = tmp_path / "ckpt.bin", tmp_path / "test.insd"
    ckpt.write_bytes(checkpoint_bytes)
    y = {"y": split_65.y.copy(), "y_categorical": split_65.y_categorical.copy()}
    y[labels][at] = np.nan
    D.save_dataset(D.SynthDataset(split_65.images, **y, label_mode="categorical",
                                  split="test"), data)
    # values count from the first image value: 65 images, then y, then y_categorical
    value = 65 * 3 * 8 * 8 + (65 if labels == "y_categorical" else 0) + at
    want = f"{data}: non-finite payload value {value}, in the labels"
    with pytest.raises(D.DataFormatError) as loaded:
        D.load_dataset(data)
    assert str(loaded.value) == want
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {want}\n"


def test_file_cut_after_it_was_opened(tmp_path, split_65):
    path = tmp_path / "test.insd"
    D.save_dataset(split_65, path)
    with D.open_dataset(path) as ds:
        assert np.array_equal(ds.images[:64], split_65.images[:64])
        os.truncate(path, 25 + 8 * 3 * 8 * 8 * 64 + 8)  # 8 bytes into image 64
        for read in (lambda: ds.images[64], lambda: ds.images[:]):
            with pytest.raises(D.DataFormatError) as e:
                read()
            assert str(e.value) == f"{path}: payload changed while it was read"
