"""Seeded synthetic blob-counting dataset and its binary file format.

Each grade-g image (internal grades 1..G) carries exactly g*b dark circular
blobs on a bright noisy background, so the regression target is a monotone
function of visible content. Blobs are placed with a minimum separation so
a connected-component count recovers the grade exactly on noise-free
images.

File format (little-endian):
    magic  b"INSD1"
    u32 x 5: channels, height, width, count, label_mode (0 categorical,
             1 continuous)
    f64 images, count*channels*height*width values, row-major
    f64 internal labels, count values (continuous in continuous mode)
    f64 internal categorical grades, count values (reference copy)
"""

from __future__ import annotations

import itertools
import os
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np


class DataConfigError(ValueError):
    pass


class DataFormatError(ValueError):
    pass


MAGIC = b"INSD1"
LABEL_SHIFT = 1.0  # internal labels = reported grade + 1, keeping them positive

_BACKGROUND = 0.85
_BLOB_VALUE = 0.15
_PLACEMENT_TRIES = 300
_IMAGE_RESTARTS = 50
_DRAW_BLOCK = 3 * 96  # placement values per rng.random call: 96 attempts' worth


@dataclass
class SynthDataset:
    images: np.ndarray  # (N, C, H, W) float64 in [0,1]
    y: np.ndarray  # (N,) internal labels (categorical grade or continuous)
    y_categorical: np.ndarray  # (N,) internal categorical grade, kept as reference
    label_mode: str  # "categorical" | "continuous"
    split: str

    def __len__(self):
        return self.images.shape[0]


def _uniform_triples(rng: np.random.Generator):
    """(radius, row, column) uniforms in the order single rng.random() calls
    give them, drawn _DRAW_BLOCK at a time."""
    while True:
        v = rng.random(_DRAW_BLOCK).tolist()
        yield from zip(v[0::3], v[1::3], v[2::3])


def _place_blobs(d: dict, n_blobs: int,
                 rng: np.random.Generator) -> list[tuple[float, float, float]] | None:
    h, w = d["image_hw"]
    r_lo, r_hi = d["blob_radius"]
    state = rng.bit_generator.state
    triples = _uniform_triples(rng)
    placed: list[tuple[float, float, float]] | None = []
    taken = 0
    for _ in range(n_blobs):
        for u_r, u_y, u_x in itertools.islice(triples, _PLACEMENT_TRIES):
            taken += 1
            # lo + (hi - lo) * random() is Generator.uniform's own arithmetic,
            # so each value keeps its bits without the per-call overhead
            r = r_lo + (r_hi - r_lo) * u_r
            # resolve_config has checked that the widest blob fits the image
            cy_hi, cx_hi = h - 1 - r, w - 1 - r
            cy = r + (cy_hi - r) * u_y
            cx = r + (cx_hi - r) * u_x
            # keep blobs from touching so component counting stays exact
            for py, px, pr in placed:
                if (cy - py) ** 2 + (cx - px) ** 2 <= (r + pr + 2.0) ** 2:
                    break
            else:
                placed.append((cy, cx, r))
                break
        else:
            placed = None  # greedy placement painted itself into a corner
            break
    # leave the generator where 3 * taken single rng.random() calls would
    rng.bit_generator.state = state
    rng.bit_generator.advance(3 * taken)
    return placed


def _draw_image(d: dict, n_blobs: int, rng: np.random.Generator,
                yy: np.ndarray, xx: np.ndarray) -> np.ndarray:
    """Draw one (H, W) image; yy, xx are its pixel grid."""
    h, w = d["image_hw"]
    img = np.full((h, w), _BACKGROUND)
    if d["noise_sigma"] > 0:
        img += rng.normal(0.0, d["noise_sigma"], size=(h, w))
    for _restart in range(_IMAGE_RESTARTS):
        placed = _place_blobs(d, n_blobs, rng)
        if placed is not None:
            break
    else:
        raise DataConfigError(
            f"could not place {n_blobs} non-touching blobs of radius "
            f"{d['blob_radius']} in a {h}x{w} image"
        )
    for cy, cx, r in placed:
        # the blob's bounding box widened by one pixel holds every painted pixel
        box = (slice(max(int(cy - r) - 1, 0), min(int(cy + r) + 2, h)),
               slice(max(int(cx - r) - 1, 0), min(int(cx + r) + 2, w)))
        img[box][(yy[box] - cy) ** 2 + (xx[box] - cx) ** 2 <= r * r] = _BLOB_VALUE
    np.clip(img, 0.0, 1.0, out=img)
    return img


def generate(d: dict, per_grade: int, split: str, seed: int) -> SynthDataset:
    """Balanced dataset: per_grade images of every internal grade 1..grades,
    drawn as a resolved config's data section d describes."""
    rng = np.random.default_rng(seed)
    h, w = d["image_hw"]
    yy, xx = np.mgrid[0:h, 0:w]
    images = np.empty((d["grades"] * per_grade, d["channels"], h, w))
    y = np.repeat(np.arange(1.0, d["grades"] + 1), per_grade)
    for i, g in enumerate(y):
        # every channel holds the same image
        images[i] = _draw_image(d, int(g) * d["blobs_per_grade"], rng, yy, xx)
    return SynthDataset(
        images=images,
        y=y,
        y_categorical=y.copy(),
        label_mode="categorical",
        split=split,
    )


def make_splits(d: dict) -> tuple[SynthDataset, SynthDataset]:
    """(train, test) splits of a resolved config's data section d."""
    train = generate(d, d["train_per_grade"], "train", d["seed"])
    test = generate(d, d["test_per_grade"], "test", d["seed"] + 1)
    return train, test


def continuous_labels(ds: SynthDataset, seed: int) -> SynthDataset:
    """Jitter each categorical grade c to a draw from U(c-0.5, c+0.5)."""
    if ds.label_mode != "categorical":
        raise DataConfigError("continuous_labels expects categorical input labels")
    rng = np.random.default_rng(seed)
    y = ds.y_categorical + rng.uniform(-0.5, 0.5, size=len(ds))
    return replace(ds, y=y, label_mode="continuous")


def augment_batch(images: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random rotation (0-360 deg) and scale (0.9-1.1), nearest-neighbor."""
    n, c, h, w = images.shape
    out = np.empty_like(images)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.mgrid[0:h, 0:w]
    for i in range(n):
        angle = rng.uniform(0.0, 2.0 * np.pi)
        scale = rng.uniform(0.9, 1.1)
        cos_a, sin_a = np.cos(angle) / scale, np.sin(angle) / scale
        src_y = cos_a * (yy - cy) - sin_a * (xx - cx) + cy
        src_x = sin_a * (yy - cy) + cos_a * (xx - cx) + cx
        sy = np.clip(np.rint(src_y).astype(int), 0, h - 1)
        sx = np.clip(np.rint(src_x).astype(int), 0, w - 1)
        out[i] = images[i][:, sy, sx]
    return out


def write_atomic(path, chunks) -> None:
    """Write chunks to a temp file beside path, then rename it to path.

    Chunks are bytes-like: bytes, or C-contiguous arrays, written as their
    raw memory without a copy. A failure part way leaves any earlier file at
    path as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_payload(f, path, count: int, error: type[Exception]) -> np.ndarray:
    """The rest of the open file f as count finite little-endian float64 values.

    The size is checked before anything is allocated, so a corrupt header
    cannot ask for a huge buffer. Raises error, naming path, otherwise.
    """
    found = os.fstat(f.fileno()).st_size - f.tell()
    extra = found - 8 * count
    if extra:
        raise error(f"{path}: payload of {found} bytes has {abs(extra)} bytes "
                    f"{'trailing' if extra > 0 else 'missing'}; the header expects "
                    f"{count} payload values")
    body = np.empty(count, dtype="<f8")
    if f.readinto(body) != found:
        raise error(f"{path}: payload changed while it was read")
    finite = np.isfinite(body)
    if not finite.all():
        bad = np.flatnonzero(~finite)
        raise error(f"{path}: {bad.size} non-finite payload values, the first at value {bad[0]}")
    return body


def save_dataset(ds: SynthDataset, path) -> None:
    n, c, h, w = ds.images.shape
    mode = 1 if ds.label_mode == "continuous" else 0
    write_atomic(path, (
        MAGIC,
        struct.pack("<5I", c, h, w, n, mode),
        *(np.ascontiguousarray(a, dtype="<f8") for a in (ds.images, ds.y, ds.y_categorical)),
    ))


def load_dataset(path, split: str = "unknown") -> SynthDataset:
    with open(path, "rb") as f:
        magic = f.read(5)
        if magic != MAGIC:
            raise DataFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        header = f.read(20)
        if len(header) != 20:
            raise DataFormatError(f"{path}: truncated header")
        c, h, w, n, mode = struct.unpack("<5I", header)
        if mode not in (0, 1):
            raise DataFormatError(f"{path}: label mode {mode}, expected 0 (categorical) "
                                  "or 1 (continuous)")
        n_pixels = n * c * h * w
        body = read_payload(f, path, n_pixels + 2 * n, DataFormatError)
    return SynthDataset(
        images=body[:n_pixels].reshape(n, c, h, w),
        y=body[n_pixels : n_pixels + n],
        y_categorical=body[n_pixels + n :],
        label_mode="continuous" if mode else "categorical",
        split=split,
    )
