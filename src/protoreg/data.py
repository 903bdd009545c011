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

open_dataset checks a file's header, payload size and labels when it opens
the file, and reads its images on demand, each read checked finite;
load_dataset opens a file and reads every image. Every payload read, the
checkpoint's too, goes through _read_into. _draw draws a block of images into
an array its caller owns: generate's split array, or save_split's one buffer.
"""

from __future__ import annotations

import contextlib
import itertools
import operator
import os
import struct
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np


class DataConfigError(ValueError):
    pass


class DataFormatError(ValueError):
    pass


MAGIC = b"INSD1"
_HEADER = struct.Struct("<5I")  # channels, height, width, count, label mode
_PAYLOAD_AT = len(MAGIC) + _HEADER.size  # the byte offset of the first image value
SPLITS = ("train", "test")
WRITE_BLOCK = 64  # images per _draw call of generate and save_split
_FINITE_BLOCK = 1 << 16  # values per finite check of _read_into: a 64 KiB temporary
LABEL_SHIFT = 1.0  # internal labels = reported grade + 1, keeping them positive

_BACKGROUND = 0.85
_BLOB_VALUE = 0.15
_PLACEMENT_TRIES = 300
_IMAGE_RESTARTS = 50
_DRAW_BLOCK = 3 * 96  # placement values per rng.random call: 96 attempts' worth
_PAINT_PIXELS = 1 << 13  # window pixels per run of _paint: a 64 KiB float64 temporary


@dataclass
class SynthDataset:
    images: np.ndarray | SplitImages  # (N, C, H, W) float64 in [0,1]
    y: np.ndarray  # (N,) internal labels (categorical grade or continuous)
    y_categorical: np.ndarray  # (N,) internal categorical grade, kept as reference
    label_mode: str  # "categorical" | "continuous"
    split: str

    def __len__(self):
        return self.images.shape[0]


def _place_blobs(d: dict, n_blobs: int,
                 rng: np.random.Generator) -> list[tuple[float, float, float]] | None:
    h, w = d["image_hw"]
    r_lo, r_hi = d["blob_radius"]
    # (radius, row, column) uniforms in the order single rng.random() calls
    # give them, drawn _DRAW_BLOCK values at a time, each block only when needed
    values = itertools.chain.from_iterable(iter(lambda: rng.random(_DRAW_BLOCK).tolist(), None))
    triples = zip(values, values, values)
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
    # leave the generator where 3 * taken single rng.random() calls would: move
    # it back over the values drawn and not taken, modulo PCG64's period 2**128
    drawn = -(-3 * taken // _DRAW_BLOCK) * _DRAW_BLOCK
    rng.bit_generator.advance((3 * taken - drawn) % 2**128)
    return placed


def _grades(d: dict, per_grade: int) -> np.ndarray:
    """(N,) internal grades of a balanced split: per_grade images of every
    grade 1..grades, in grade order."""
    return np.repeat(np.arange(1.0, d["grades"] + 1), per_grade)


def _draw(d: dict, grades: np.ndarray, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill out, an (n, C, H, W) array, with images of the n internal grades
    (g * blobs_per_grade blobs for grade g) drawn from rng, and return it.

    Per image, in generator order, its noise z is drawn into channel 0 and its
    blobs are placed. The images are then made 0.85 + sigma * z (the bits of
    0.85 plus Generator.normal's 0 + sigma * z), painted, clipped to [0, 1]
    and copied to their other channels; each step acts per pixel, so the bits
    do not depend on how a split is cut into calls.
    """
    h, w = d["image_hw"]
    sigma = d["noise_sigma"]
    n_blobs = grades.astype(int) * d["blobs_per_grade"]
    plane = out[:, 0]
    blobs: list[tuple[float, float, float]] = []
    for i, n in enumerate(n_blobs.tolist()):
        if sigma > 0:
            rng.standard_normal(out=plane[i])
        for _restart in range(_IMAGE_RESTARTS):
            placed = _place_blobs(d, n, rng)
            if placed is not None:
                break
        else:
            raise DataConfigError(
                f"could not place {n} non-touching blobs of radius "
                f"{d['blob_radius']} in a {h}x{w} image"
            )
        blobs += placed
    if sigma > 0:
        plane *= sigma
        plane += _BACKGROUND
    else:
        plane[...] = _BACKGROUND
    _paint(plane, n_blobs, blobs, d["blob_radius"][1])
    # clipped into the other channels, then in place: a ufunc copies operands
    # that share memory a buffer at a time, where an assignment copies them whole
    np.clip(plane[:, None], 0.0, 1.0, out=out[:, 1:])
    np.clip(plane, 0.0, 1.0, out=plane)
    return out


def _paint(plane: np.ndarray, n_blobs: np.ndarray, blobs: list[tuple[float, float, float]],
           r_hi: float) -> None:
    """Set to _BLOB_VALUE each pixel of the (n, H, W) images plane that lies
    within a blob (cy, cx, r) of radius at most r_hi: blobs holds image i's
    n_blobs[i] blobs after those of the images before it."""
    # a blob's bounding box widened by one pixel holds every pixel it paints and
    # spans at most int(2 * r) + 4 pixels a side: a window that size from the
    # box's corner holds it. Window pixels off the image fail the test, as a
    # blob's centre lies r or more inside the outermost pixels, so are never indexed.
    window = np.arange(int(2 * r_hi) + 4)
    cy, cx, r = np.array(blobs).T
    image = np.repeat(np.arange(len(plane)), n_blobs)
    run = max(_PAINT_PIXELS // window.size**2, 1)
    for lo in range(0, image.size, run):
        part = slice(lo, lo + run)
        rows = (cy[part] - r[part]).astype(int)[:, None] - 1 + window
        cols = (cx[part] - r[part]).astype(int)[:, None] - 1 + window
        # (y - cy) ** 2 + (x - cx) ** 2 <= r * r, in the per-pixel test's order
        d2 = ((rows - cy[part, None]) ** 2)[:, :, None] + ((cols - cx[part, None]) ** 2)[:, None, :]
        blob, y, x = np.nonzero(d2 <= (r[part] * r[part])[:, None, None])
        plane[image[part][blob], rows[blob, y], cols[blob, x]] = _BLOB_VALUE


def _split_labels(d: dict, split: str, grades: np.ndarray) -> dict:
    """The y and label_mode of the split named split of d, of internal grades
    grades: continuous_labels(grades, d["continuous_seed"]) for the train
    split when d["continuous"] is set, the grades otherwise."""
    if split == "train" and d["continuous"]:
        return {"y": continuous_labels(grades, d["continuous_seed"]), "label_mode": "continuous"}
    return {"y": grades.copy(), "label_mode": "categorical"}


def generate(d: dict, per_grade: int, split: str, seed: int) -> SynthDataset:
    """Balanced dataset: per_grade images of every internal grade 1..grades,
    drawn as a resolved config's data section d describes, WRITE_BLOCK images
    at a time into the split's one array, and labelled as _split_labels says."""
    grades = _grades(d, per_grade)
    images = np.empty((grades.size, d["channels"], *d["image_hw"]))
    rng = np.random.default_rng(seed)
    for lo in range(0, grades.size, WRITE_BLOCK):
        _draw(d, grades[lo : lo + WRITE_BLOCK], rng, images[lo : lo + WRITE_BLOCK])
    return SynthDataset(images=images, y_categorical=grades, split=split,
                        **_split_labels(d, split, grades))


def _split_draws(d: dict, split: str) -> dict:
    """generate's per_grade and seed for the split named split of a resolved
    config's data section d: the train split is drawn with d["seed"], the
    test split with d["seed"] + 1."""
    return {"per_grade": d[f"{split}_per_grade"], "seed": d["seed"] + SPLITS.index(split)}


# kept for perfbench/quality.py and perfbench/test_reference.py (ROADMAP item 5)
def make_splits(d: dict) -> tuple[SynthDataset, SynthDataset]:
    """(train, test) splits of a resolved config's data section d."""
    train, test = (generate(d, split=split, **_split_draws(d, split)) for split in SPLITS)
    return train, test


def continuous_labels(y_categorical: np.ndarray, seed: int) -> np.ndarray:
    """Each categorical grade c jittered to a draw from U(c-0.5, c+0.5)."""
    rng = np.random.default_rng(seed)
    return y_categorical + rng.uniform(-0.5, 0.5, size=y_categorical.size)


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
    raw memory without a copy, each before the next is asked for. A failure
    part way leaves any earlier file at path as it was.
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


def _check_payload_size(fd: int, path, offset: int, count: int,
                        error: type[Exception]) -> None:
    """Raise error, naming path, unless the file of descriptor fd holds exactly
    count little-endian float64 values from byte offset to its end. Callers
    check before they allocate, so a corrupt header cannot ask for a huge
    buffer."""
    found = os.fstat(fd).st_size - offset
    extra = found - 8 * count
    if extra:
        raise error(f"{path}: payload of {found} bytes has {abs(extra)} bytes "
                    f"{'trailing' if extra > 0 else 'missing'}; the header expects "
                    f"{count} payload values")


def _read_into(fd: int, path, arrays, offset: int, error: type[Exception], first: int = 0,
               where=lambda value: "") -> None:
    """Fill arrays, C-contiguous "<f8" arrays, in order from the file of
    descriptor fd at byte offset by positional reads, which move no shared
    file position, and check each finite _FINITE_BLOCK values at a time.
    Raises error, naming path, if the file ends first or at the first
    non-finite value: first is the payload index of arrays' first value, and
    where(v) ends the message about payload value v."""
    for out in arrays:
        view = memoryview(out).cast("B")
        done = 0
        while done < view.nbytes:
            got = os.preadv(fd, [view[done:]], offset + done)
            if got == 0:  # the file is shorter than when it was opened
                raise error(f"{path}: payload changed while it was read")
            done += got
        offset += done
        flat = out.reshape(-1)
        for lo in range(0, flat.size, _FINITE_BLOCK):
            finite = np.isfinite(flat[lo : lo + _FINITE_BLOCK])
            if not finite.all():
                bad = first + lo + int(np.argmin(finite))
                raise error(f"{path}: non-finite payload value {bad}{where(bad)}")
        first += flat.size


def read_payload(f, path, arrays, error: type[Exception]) -> None:
    """_read_into from the rest of the open file f, once its size is checked."""
    _check_payload_size(f.fileno(), path, f.tell(), sum(a.size for a in arrays), error)
    _read_into(f.fileno(), path, arrays, f.tell(), error)


class SplitImages:
    """The (N, C, H, W) images of a .insd file that open_dataset holds open,
    read when indexed: images[i], for 0 <= i < N, is image i, a (C, H, W)
    array, and images[a:b] the (b - a, C, H, W) array of images a to b - 1.

    Each index makes one fresh float64 array, fills it with positional reads
    of the file's one descriptor, so threads may read at once, and checks its
    values finite. Other indexing (a step, a list) is not supported.
    """

    def __init__(self, fd: int, path, shape: tuple[int, int, int, int]):
        self.fd, self.path, self.shape = fd, path, shape
        self.per_image = shape[1] * shape[2] * shape[3]

    def __getitem__(self, key):
        n = self.shape[0]
        if isinstance(key, slice):
            start, stop, step = key.indices(n)
            if step != 1:
                raise IndexError(f"{self.path}: images read in steps of 1, got {step}")
            return self._read(start, max(stop - start, 0))
        i = operator.index(key)
        if not 0 <= i < n:
            raise IndexError(f"{self.path}: image {i} out of range [0,{n})")
        return self._read(i, 1)[0]

    def _read(self, start: int, count: int) -> np.ndarray:
        out = np.empty((count, *self.shape[1:]), dtype="<f8")
        first = start * self.per_image  # the payload index of out's first value
        _read_into(self.fd, self.path, [out], _PAYLOAD_AT + 8 * first, DataFormatError, first,
                   lambda value: f", in image {value // self.per_image}")
        return out


def _write(path, n: int, chw: tuple[int, int, int], label_mode: str, image_blocks,
           y: np.ndarray, y_categorical: np.ndarray) -> None:
    """Write a .insd file of n images of shape chw, given as an iterable of
    C-contiguous float64 blocks of consecutive images."""
    write_atomic(path, itertools.chain(
        (MAGIC, _HEADER.pack(*chw, n, int(label_mode == "continuous"))),
        image_blocks,
        (np.ascontiguousarray(a, dtype="<f8") for a in (y, y_categorical)),
    ))


# kept for perfbench/tracing.py (ROADMAP item 5)
def save_dataset(ds: SynthDataset, path) -> None:
    n, *chw = ds.images.shape
    _write(path, n, chw, ds.label_mode, [np.ascontiguousarray(ds.images, dtype="<f8")],
           ds.y, ds.y_categorical)


def save_split(d: dict, split: str, path) -> int:
    """Write the split named split of a resolved config's data section d to
    path, with the bytes that generate and save_dataset give it. Images are
    drawn WRITE_BLOCK at a time into one buffer, which each write empties
    before the next draw refills it. Returns the split's image count."""
    draws = _split_draws(d, split)
    grades = _grades(d, draws["per_grade"])
    labels = _split_labels(d, split, grades)
    rng = np.random.default_rng(draws["seed"])
    n, chw = grades.size, (d["channels"], *d["image_hw"])
    block = np.empty((min(n, WRITE_BLOCK), *chw))
    parts = (grades[lo : lo + WRITE_BLOCK] for lo in range(0, n, WRITE_BLOCK))
    _write(path, n, chw, labels["label_mode"],
           (_draw(d, part, rng, block[: part.size]) for part in parts), labels["y"], grades)
    return n


@contextlib.contextmanager
def open_dataset(path, split: str = "unknown") -> Iterator[SynthDataset]:
    """The dataset of a .insd file, for the duration of the block, with its
    images read on demand (SplitImages) and its labels in memory.

    The magic, the header, the label mode, the payload size and both label
    vectors are checked here; each image read is checked finite as it is
    read. Raises DataFormatError, naming path.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        prefix = os.pread(fd, _PAYLOAD_AT, 0)
        magic = prefix[: len(MAGIC)]
        if magic != MAGIC:
            raise DataFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        if len(prefix) != _PAYLOAD_AT:
            raise DataFormatError(f"{path}: truncated header")
        c, h, w, n, mode = _HEADER.unpack_from(prefix, len(MAGIC))
        if mode not in (0, 1):
            raise DataFormatError(f"{path}: label mode {mode}, expected 0 (categorical) "
                                  "or 1 (continuous)")
        n_pixels = n * c * h * w
        _check_payload_size(fd, path, _PAYLOAD_AT, n_pixels + 2 * n, DataFormatError)
        labels = np.empty(2 * n, dtype="<f8")
        _read_into(fd, path, [labels], _PAYLOAD_AT + 8 * n_pixels, DataFormatError, n_pixels,
                   lambda value: ", in the labels")
        images = SplitImages(fd, path, (n, c, h, w))
        try:
            yield SynthDataset(
                images=images,
                y=labels[:n],
                y_categorical=labels[n:],
                label_mode="continuous" if mode else "categorical",
                split=split,
            )
        finally:
            images.fd = -1  # a later read fails, not reads a file that reuses fd
    finally:
        os.close(fd)


def load_dataset(path, split: str = "unknown") -> SynthDataset:
    """The dataset of a .insd file with every image read: open_dataset, then
    one read of all the images."""
    with open_dataset(path, split) as ds:
        return replace(ds, images=ds.images[:])
