"""Tests for the synthetic blob-counting dataset and its file format."""

import functools
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.ndimage as ndi
from hypothesis import given, settings
from hypothesis import strategies as st

from protoreg import config as C
from protoreg import data as D
from protoreg.model import Model, save_checkpoint


def small_cfg(**kw):
    """A data section: the defaults at 4 train and 2 test images per grade, kw in place."""
    return {**C.DEFAULTS["data"], "train_per_grade": 4, "test_per_grade": 2, **kw}


def count_components(image_chw: np.ndarray) -> int:
    """Independent oracle: connected dark regions on a noise-free image."""
    mask = image_chw[0] < 0.5
    _, n = ndi.label(mask)
    return int(n)


def reference_place(d: dict, n_blobs: int, rng: np.random.Generator):
    """Greedy blob placement by Generator.uniform draws."""
    h, w = d["image_hw"]
    placed = []
    for _ in range(n_blobs):
        for _attempt in range(D._PLACEMENT_TRIES):
            r = rng.uniform(*d["blob_radius"])
            cy = rng.uniform(r, h - 1 - r)
            cx = rng.uniform(r, w - 1 - r)
            if all((cy - py) ** 2 + (cx - px) ** 2 > (r + pr + 2.0) ** 2
                   for py, px, pr in placed):
                placed.append((cy, cx, r))
                break
        else:
            return None
    return placed


# crowded: some images give up on a placement and start it again
CROWDED = {"image_hw": (16, 16), "grades": 2}
# wide blobs in a flat image: many paint windows run past its border
AT_BORDER = {"image_hw": (20, 37), "blob_radius": (0.5, 5.0), "blobs_per_grade": 1}


def reference_generate(d: dict, per_grade: int, seed: int):
    """The generator one image at a time: a fresh pixel grid per image, each
    blob painted over the whole image, then a stack."""
    rng = np.random.default_rng(seed)
    h, w = d["image_hw"]
    images, grades = [], []
    for g in range(1, d["grades"] + 1):
        for _ in range(per_grade):
            img = np.full((h, w), D._BACKGROUND)
            if d["noise_sigma"] > 0:
                img += rng.normal(0.0, d["noise_sigma"], size=(h, w))
            for _restart in range(D._IMAGE_RESTARTS):
                placed = reference_place(d, g * d["blobs_per_grade"], rng)
                if placed is not None:
                    break
            else:
                raise AssertionError("reference placement gave up")
            yy, xx = np.mgrid[0:h, 0:w]
            for cy, cx, r in placed:
                img[(yy - cy) ** 2 + (xx - cx) ** 2 <= r * r] = D._BLOB_VALUE
            np.clip(img, 0.0, 1.0, out=img)
            images.append(np.repeat(img[None, :, :], d["channels"], axis=0))
            grades.append(float(g))
    return np.stack(images), np.array(grades)


class TestGeneration:
    def test_shapes_and_balance(self):
        cfg = small_cfg()
        ds = D.generate(cfg, per_grade=4, split="train", seed=0)
        assert ds.images.shape == (20, 3, 32, 32)
        assert ds.y.shape == (20,)
        for g in range(1, 6):
            assert int(np.sum(ds.y_categorical == g)) == 4

    def test_value_range(self):
        ds = D.generate(small_cfg(), per_grade=3, split="train", seed=1)
        assert ds.images.min() >= 0.0
        assert ds.images.max() <= 1.0

    def test_channels_identical(self):
        ds = D.generate(small_cfg(noise_sigma=0.0), per_grade=2, split="t", seed=2)
        assert np.array_equal(ds.images[:, 0], ds.images[:, 1])
        assert np.array_equal(ds.images[:, 0], ds.images[:, 2])

    def test_blob_count_matches_grade_noise_free(self):
        # the defining invariant: grade g image has exactly g * b components
        cfg = small_cfg(noise_sigma=0.0)
        ds = D.generate(cfg, per_grade=6, split="train", seed=3)
        for img, g in zip(ds.images, ds.y_categorical):
            assert count_components(img) == int(g) * cfg["blobs_per_grade"]

    def test_component_count_recovers_grade_across_seeds(self):
        cfg = small_cfg(noise_sigma=0.0)
        for seed in range(5):
            ds = D.generate(cfg, per_grade=2, split="train", seed=seed)
            recovered = np.array(
                [count_components(img) / cfg["blobs_per_grade"] for img in ds.images]
            )
            assert np.array_equal(recovered, ds.y_categorical)

    def test_deterministic_given_seed(self):
        a = D.generate(small_cfg(), per_grade=3, split="train", seed=11)
        b = D.generate(small_cfg(), per_grade=3, split="train", seed=11)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.y, b.y)

    def test_seed_changes_images(self):
        a = D.generate(small_cfg(), per_grade=3, split="train", seed=11)
        b = D.generate(small_cfg(), per_grade=3, split="train", seed=12)
        assert not np.array_equal(a.images, b.images)

    def test_make_splits_disjoint_rngs(self):
        train, test = D.make_splits(small_cfg())
        assert train.split == "train" and test.split == "test"
        assert len(train) == 20 and len(test) == 10
        assert not np.array_equal(train.images[:10], test.images[:10])

    def test_make_splits_holds_its_images_and_one_block(self):
        d = C.resolve_config()["data"]
        tracemalloc.start()
        try:
            splits = D.make_splits(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        images = sum(ds.images.nbytes for ds in splits)
        # each split's one array and one block's placements and paint temporaries,
        # not the blocks and a concatenation of them
        assert peak <= images + (2 << 20), (peak, images)

    def test_overcrowded_config_raises(self):
        cfg = small_cfg(image_hw=(16, 16), grades=5, blobs_per_grade=8,
                        blob_radius=(3.0, 3.0), noise_sigma=0.0)
        with pytest.raises(D.DataConfigError, match="could not place 8 non-touching blobs"):
            D.generate(cfg, per_grade=1, split="train", seed=0)

    @pytest.mark.parametrize("kw, per_grade", [
        pytest.param({}, 3, id="kw0"),
        pytest.param({"channels": 1}, 3, id="kw1"),
        pytest.param({"noise_sigma": 0.0}, 3, id="kw2"),
        pytest.param({"image_hw": (20, 37), "blobs_per_grade": 1}, 3, id="kw3"),
        pytest.param({"image_hw": (24, 24), "blob_radius": (0.5, 5.0), "blobs_per_grade": 1}, 3,
                     id="kw4"),
        pytest.param({"channels": 1, "grades": 3, "blob_radius": (1.0, 1.0),
                      "noise_sigma": 0.2}, 3, id="kw5"),
        pytest.param({"image_hw": (8, 40), "grades": 3, "blob_radius": (1.0, 3.5),
                      "blobs_per_grade": 1}, 3, id="window-taller-than-image"),
        # 70 and 130 images: blocks of 64 and 6, and of 64, 64 and 2
        pytest.param({}, 14, id="70-images"),
        pytest.param({}, 26, id="130-images"),
        pytest.param(CROWDED, 35, id="crowded-70-images"),
        pytest.param(CROWDED, 65, id="crowded-130-images"),
        pytest.param(AT_BORDER, 14, id="at-border-70-images"),
        pytest.param(AT_BORDER, 26, id="at-border-130-images"),
    ])
    def test_matches_per_image_reference_bytes(self, kw, per_grade):
        cfg = small_cfg(**kw)
        images, y = reference_generate(cfg, per_grade=per_grade, seed=5)
        ds = D.generate(cfg, per_grade=per_grade, split="train", seed=5)
        assert ds.images.shape == images.shape
        assert ds.images.tobytes() == images.tobytes()
        assert ds.y.tobytes() == y.tobytes() and ds.y_categorical.tobytes() == y.tobytes()

    @pytest.mark.parametrize("kw", [{}, {"image_hw": (20, 37), "blob_radius": (0.5, 5.0)}])
    def test_placement_draws_match_uniform(self, kw):
        # image bytes hide a last-bit change of a radius or centre; the draws do not
        cfg = small_cfg(**kw)
        for seed in range(5):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert D._place_blobs(cfg, 6, rng) == reference_place(cfg, 6, ref_rng)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("kw, per_grade, restarts", [
        pytest.param({}, 3, False, id="kw0-False"),
        pytest.param(AT_BORDER, 3, False, id="kw1-False"),
        pytest.param(CROWDED, 3, True, id="kw2-True"),
        # 70 and 130 images: blocks of 64 and 6, and of 64, 64 and 2
        pytest.param({}, 26, False, id="130-images"),
        pytest.param(AT_BORDER, 14, False, id="at-border-70-images"),
        pytest.param(AT_BORDER, 26, False, id="at-border-130-images"),
        pytest.param(CROWDED, 35, True, id="crowded-70-images"),
        pytest.param(CROWDED, 65, True, id="crowded-130-images"),
    ])
    def test_generator_ends_where_scalar_draws_leave_it(self, kw, per_grade, restarts,
                                                        monkeypatch):
        # placement draws its values in blocks and then moves the generator back
        cfg, outcomes, place = small_cfg(**kw), [], D._place_blobs

        def recording(*args):
            placed = place(*args)
            outcomes.append(placed is not None)
            return placed

        monkeypatch.setattr(D, "_place_blobs", recording)
        for seed in range(4):
            # default_rng hands a Generator back as it is, so both ends can be read
            ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            images, _ = reference_generate(cfg, per_grade=per_grade, seed=ref_rng)
            ds = D.generate(cfg, per_grade=per_grade, split="train", seed=rng)
            assert ds.images.tobytes() == images.tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert (False in outcomes) == restarts

    def test_continuous_labels_match_reference(self):
        cfg = small_cfg()
        images, y = reference_generate(cfg, per_grade=3, seed=5)
        ds = D.generate(cfg, per_grade=3, split="train", seed=5)
        ref_y = y + np.random.default_rng(11).uniform(-0.5, 0.5, size=y.size)
        assert ds.images.tobytes() == images.tobytes()
        assert D.continuous_labels(ds.y_categorical, seed=11).tobytes() == ref_y.tobytes()

    def test_config_validation(self):
        with pytest.raises(C.ConfigError, match="data.grades must be >= 2, got 1"):
            C.resolve_config({"data": {"grades": 1}})
        with pytest.raises(C.ConfigError, match=r"data.blob_radius must be \[least, most\]"):
            C.resolve_config({"data": {"blob_radius": [3.0, 2.0]}})
        with pytest.raises(C.ConfigError, match=r"data.channels must be one of \(1, 3\)"):
            C.resolve_config({"data": {"channels": 2}})


class TestLabels:
    def test_internal_labels_are_shifted_positive(self):
        ds = D.generate(small_cfg(), per_grade=2, split="train", seed=0)
        assert ds.y.min() >= 1.0

    def test_continuous_labels_within_half_grade(self):
        ds = D.generate(small_cfg(), per_grade=10, split="train", seed=0)
        grades = ds.y_categorical.copy()
        cont = D.continuous_labels(ds.y_categorical, seed=5)
        assert np.all(np.abs(cont - grades) <= 0.5)
        # categorical reference untouched
        assert np.array_equal(ds.y_categorical, grades)

    def test_continuous_labels_mean_near_grade(self):
        # jitter is uniform(-0.5, 0.5), so per-grade means stay near the grade
        ds = D.generate(small_cfg(train_per_grade=200), per_grade=200,
                        split="train", seed=0)
        cont = D.continuous_labels(ds.y_categorical, seed=9)
        for g in range(1, 6):
            sel = ds.y_categorical == g
            assert abs(cont[sel].mean() - g) < 0.08


class TestAugment:
    def test_shape_and_range_preserved(self):
        ds = D.generate(small_cfg(), per_grade=2, split="train", seed=0)
        rng = np.random.default_rng(0)
        out = D.augment_batch(ds.images, rng)
        assert out.shape == ds.images.shape
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_rotation_preserves_component_count_mostly(self):
        # blobs are separated by a 2px margin, so a rigid rotation of the
        # noise-free image keeps components countable away from the border
        cfg = small_cfg(noise_sigma=0.0, grades=2)
        ds = D.generate(cfg, per_grade=4, split="train", seed=0)
        rng = np.random.default_rng(3)
        out = D.augment_batch(ds.images, rng)
        same = sum(
            count_components(a) == count_components(b)
            for a, b in zip(ds.images, out)
        )
        assert same >= len(ds) - 2  # border clipping may merge rarely

    def test_deterministic_given_rng_state(self):
        ds = D.generate(small_cfg(), per_grade=2, split="train", seed=0)
        a = D.augment_batch(ds.images, np.random.default_rng(7))
        b = D.augment_batch(ds.images, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestFileFormat:
    def test_round_trip_categorical(self, tmp_path):
        ds = D.generate(small_cfg(), per_grade=3, split="train", seed=0)
        path = tmp_path / "ds.insd"
        D.save_dataset(ds, path)
        back = D.load_dataset(path, split="train")
        assert np.array_equal(back.images, ds.images)
        assert np.array_equal(back.y, ds.y)
        assert np.array_equal(back.y_categorical, ds.y_categorical)
        assert back.label_mode == "categorical"

    def test_round_trip_continuous(self, tmp_path):
        ds = D.generate(small_cfg(), per_grade=3, split="train", seed=0)
        ds = replace(ds, y=D.continuous_labels(ds.y_categorical, seed=1),
                     label_mode="continuous")
        path = tmp_path / "ds.insd"
        D.save_dataset(ds, path)
        back = D.load_dataset(path)
        assert back.label_mode == "continuous"
        assert np.array_equal(back.y, ds.y)

    @pytest.mark.parametrize("data", [
        {},
        {"continuous": True},
        {"image_hw": [24, 40], "channels": 1, "grades": 4, "blobs_per_grade": 3,
         "blob_radius": [1.5, 2.5], "noise_sigma": 0.0, "seed": 5},
    ])
    def test_save_split_writes_what_generate_draws(self, tmp_path, data):
        # 150 and 70 images at 5 grades: blocks of 64, 64 and 22, and of 64 and 6
        d = C.resolve_config({"data": {"train_per_grade": 30, "test_per_grade": 14,
                                       **data}})["data"]
        for split, ds in zip(D.SPLITS, D.make_splits(d)):
            D.save_dataset(ds, tmp_path / "want.insd")
            assert D.save_split(d, split, tmp_path / "got.insd") == len(ds)
            assert (tmp_path / "got.insd").read_bytes() == (tmp_path / "want.insd").read_bytes()

    def test_open_reads_what_load_reads(self, tmp_path):
        ds = D.generate(small_cfg(), per_grade=3, split="train", seed=0)
        path = tmp_path / "ds.insd"
        D.save_dataset(ds, path)
        with D.open_dataset(path, split="train") as opened:
            assert (len(opened), opened.images.shape, opened.split) == (15, (15, 3, 32, 32),
                                                                         "train")
            assert opened.y.tobytes() == ds.y.tobytes()
            for key in (slice(None), slice(2, 9), slice(14, 99), slice(-3, None), 0, 14):
                assert opened.images[key].tobytes() == ds.images[key].tobytes(), key
            for i in (15, -1):
                with pytest.raises(IndexError, match=f"image {i} out of range"):
                    opened.images[i]
            with pytest.raises(IndexError, match="steps of 1"):
                opened.images[::2]
        with pytest.raises(OSError):  # the descriptor is closed with the block
            opened.images[0]

    def test_load_holds_no_payload_sized_temporary(self, tmp_path):
        ds = D.generate(small_cfg(), per_grade=40, split="train", seed=0)
        path = tmp_path / "ds.insd"
        D.save_dataset(ds, path)
        tracemalloc.start()
        try:
            back = D.load_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back.images.tobytes() == ds.images.tobytes()
        # the 4.9 MB of images and the labels, and a finite check's 64 KiB
        # block, not a boolean array of the 614 400 image values
        assert peak - ds.images.nbytes < 200_000

    def test_save_is_byte_deterministic(self, tmp_path):
        ds = D.generate(small_cfg(), per_grade=3, split="train", seed=0)
        p1, p2 = tmp_path / "a.insd", tmp_path / "b.insd"
        D.save_dataset(ds, p1)
        D.save_dataset(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.insd"
        path.write_bytes(b"XXXXX" + b"\x00" * 40)
        with pytest.raises(D.DataFormatError, match="magic"):
            D.load_dataset(path)

    def test_truncated_payload_rejected(self, tmp_path):
        ds = D.generate(small_cfg(), per_grade=2, split="train", seed=0)
        path = tmp_path / "ds.insd"
        D.save_dataset(ds, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(D.DataFormatError, match="payload"):
            D.load_dataset(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "ds.insd"
        path.write_bytes(D.MAGIC + b"\x00" * 10)
        with pytest.raises(D.DataFormatError, match="header"):
            D.load_dataset(path)

    @pytest.mark.parametrize("damage", ["cut_3_bytes", "huge_count"])
    def test_payload_size_checked_before_reading(self, tmp_path, damage):
        path = tmp_path / "ds.insd"
        D.save_dataset(D.generate(small_cfg(), per_grade=1, split="train", seed=0), path)
        raw = bytearray(path.read_bytes())
        if damage == "cut_3_bytes":
            raw = raw[:-3]
        else:
            raw[17:21] = struct.pack("<I", 2**32 - 1)  # the sample count
        path.write_bytes(bytes(raw))
        with pytest.raises(D.DataFormatError, match="payload values"):
            D.load_dataset(path)

    def test_unknown_label_mode_rejected(self, tmp_path):
        path = tmp_path / "ds.insd"
        D.save_dataset(D.generate(small_cfg(), per_grade=1, split="train", seed=0), path)
        raw = bytearray(path.read_bytes())
        raw[21:25] = struct.pack("<I", 2)  # the fifth header field
        path.write_bytes(bytes(raw))
        with pytest.raises(D.DataFormatError, match="label mode 2"):
            D.load_dataset(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_rejected(self, tmp_path, bad):
        ds = D.generate(small_cfg(), per_grade=1, split="train", seed=0)
        ds.y[3] = bad
        path = tmp_path / "ds.insd"
        D.save_dataset(ds, path)
        first = ds.images.size + 3
        with pytest.raises(D.DataFormatError, match=f"non-finite .* value {first}"):
            D.load_dataset(path)

    @pytest.mark.parametrize("save", ["dataset", "checkpoint"])
    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch, save):
        if save == "dataset":
            path = tmp_path / "ds.insd"
            ds = D.generate(small_cfg(), per_grade=1, split="train", seed=0)
            write = functools.partial(D.save_dataset, ds, path)
        else:
            path = tmp_path / "ckpt.bin"
            cfg = C.resolve_config()
            model = Model.from_config(cfg)
            write = functools.partial(save_checkpoint, model, path, cfg)
        path.write_bytes(b"the old file")

        real_open = open

        class FailingFile:
            """Writes the first chunk, then fails as a full disk would."""

            def __init__(self, f):
                self.f, self.writes = f, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, chunk):
                self.writes += 1
                if self.writes > 1:
                    raise OSError(28, "No space left on device")
                return self.f.write(chunk)

        monkeypatch.setattr(D, "open", lambda *a, **kw: FailingFile(real_open(*a, **kw)),
                            raising=False)
        with pytest.raises(OSError, match="No space"):
            write()
        assert path.read_bytes() == b"the old file"
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


class TestProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=10**6))
    def test_blob_invariant_random_configs(self, grades, seed):
        cfg = small_cfg(grades=grades, noise_sigma=0.0)
        ds = D.generate(cfg, per_grade=1, split="train", seed=seed)
        for img, g in zip(ds.images, ds.y_categorical):
            assert count_components(img) == int(g) * cfg["blobs_per_grade"]
