"""The assembled network and its single-file checkpoint format.

Checkpoint layout (little-endian):
    magic  b"PRCK1"
    u32 format version (currently 1)
    u64 header length in bytes
    header: UTF-8 JSON with sorted keys — resolved config, stage cursor,
            prototype labels, provenance, tensor manifest (name, shape)
    f64 tensor payloads in manifest order

Loading a checkpoint rebuilds a model whose forward outputs are bitwise
identical to the saved one.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import head as head_mod
from .backbone import Backbone
from .config import ConfigError, resolve_config
from .data import write_atomic
from .engine import Tensor, no_grad
from .prototypes import (
    PrototypeBank,
    ProvenanceRecord,
    distance_map,
    min_pool,
    similarity,
)

CHECKPOINT_MAGIC = b"PRCK1"
CHECKPOINT_VERSION = 1
_HEADER_KEYS = ("config", "cursor", "eps", "labels", "provenance", "similarity_kind", "tensors")


class CheckpointError(ValueError):
    pass


@dataclass
class ForwardResult:
    latent: Tensor  # (N, c_z, h_z, w_z) backbone output
    dmap: Tensor  # (N, m, h_z, w_z) squared distances
    dmin: Tensor  # (N, m) min-pooled distances
    argmin: np.ndarray  # (N, m, 2) spatial argmin positions
    s: Tensor  # (N, m) similarities
    y_hat: Tensor  # (N,) predictions


class ForwardArrays(NamedTuple):
    dmin: np.ndarray  # (N, m)
    s: np.ndarray  # (N, m)
    y_hat: np.ndarray  # (N,)


def _chunks(n: int, size: int) -> list[slice]:
    """Consecutive slices of at most size + 1 rows, none of one row unless n == 1.

    A lone sample gets distances up to 1.8e-15 away from the same sample in a
    larger batch (the distance matmul takes another path at one row); batches
    of two or more agree bitwise, so a tail of one joins the chunk before it.
    """
    starts = list(range(0, n, size))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


@dataclass
class Model:
    backbone: Backbone
    bank: PrototypeBank
    theta: Tensor
    similarity_kind: str
    eps: float
    cursor: dict = field(default_factory=dict)  # last completed (cycle, stage)

    @staticmethod
    def from_config(cfg: dict) -> "Model":
        """The untrained model that a resolved config describes."""
        mc = cfg["model"]
        rng = np.random.default_rng(mc["seed"])
        backbone = Backbone(cfg, rng)
        c_z = mc["backbone_blocks"][-1][0]  # the last block's out_channels
        bank = PrototypeBank.create(mc["m"], c_z, rng, mc["label_lo"], mc["label_hi"])
        return Model(
            backbone=backbone,
            bank=bank,
            theta=head_mod.init_theta(bank.labels),
            similarity_kind=mc["similarity"],
            eps=mc["eps"],
        )

    def params(self) -> list[Tensor]:
        return self.backbone.params() + [self.bank.vectors, self.theta]

    def forward(self, images: Tensor) -> ForwardResult:
        latent = self.backbone.forward(images)
        dmap = distance_map(latent, self.bank)
        dmin, argmin = min_pool(dmap)
        s, y_hat = self.head(dmin)
        return ForwardResult(latent=latent, dmap=dmap, dmin=dmin, argmin=argmin, s=s,
                             y_hat=y_hat)

    def head(self, dmin: Tensor) -> tuple[Tensor, Tensor]:
        """(similarities, predictions) from (N, m) min-pooled distances."""
        s = similarity(dmin, self.similarity_kind, self.eps, self.bank.d_max)
        return s, head_mod.predict(s, self.theta, self.bank.labels)

    def forward_np(self, images: np.ndarray, batch_size: int = 64) -> ForwardArrays:
        """One no-grad pass over a raw image array, in chunks (see _chunks)."""
        if images.shape[0] == 0:
            raise ValueError("forward pass over an empty image array")
        parts = []
        with no_grad():
            for chunk in _chunks(images.shape[0], batch_size):
                r = self.forward(Tensor(images[chunk]))
                parts.append((r.dmin.data, r.s.data, r.y_hat.data))
        return ForwardArrays(*(np.concatenate(a) for a in zip(*parts)))

    def predict_np(self, images: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """Batched no-grad prediction on a raw image array."""
        return self.forward_np(images, batch_size).y_hat

    def latents_np(self, images: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """(N, c_z, h_z, w_z) backbone output of a raw image array, in the chunks
        of forward_np, so each image's latent has the bits of forward_np's pass."""
        with no_grad():
            return np.concatenate([self.backbone.forward(Tensor(images[chunk])).data
                                   for chunk in _chunks(images.shape[0], batch_size)])

    def dmin_np(self, latents: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """(N, m) min-pooled distances of latents_np's output, in the chunks of
        forward_np, so they equal forward_np's dmin bit for bit."""
        parts = []
        with no_grad():
            for chunk in _chunks(latents.shape[0], batch_size):
                dmin, _ = min_pool(distance_map(Tensor(latents[chunk]), self.bank))
                parts.append(dmin.data)
        return np.concatenate(parts)


def _tensor_manifest(model: Model) -> list[tuple[str, Tensor]]:
    entries = []
    for i, (w, b) in enumerate(zip(model.backbone.weights, model.backbone.biases)):
        entries.append((f"backbone.w{i}", w))
        entries.append((f"backbone.b{i}", b))
    entries.append(("prototypes", model.bank.vectors))
    entries.append(("theta", model.theta))
    return entries


def save_checkpoint(model: Model, path, resolved_config: dict) -> None:
    manifest = _tensor_manifest(model)
    header = {
        "config": resolved_config,
        "cursor": model.cursor,
        "similarity_kind": model.similarity_kind,
        "eps": model.eps,
        "labels": model.bank.labels.tolist(),
        "provenance": [
            None if p is None else
            {"sample_id": p.sample_id, "row": p.row, "col": p.col,
             "moved_sq_dist": p.moved_sq_dist}
            for p in model.bank.provenance
        ],
        "tensors": [{"name": n, "shape": list(t.data.shape)} for n, t in manifest],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    write_atomic(path, (
        CHECKPOINT_MAGIC,
        struct.pack("<IQ", CHECKPOINT_VERSION, len(blob)),
        blob,
        *(np.ascontiguousarray(t.data, dtype="<f8") for _, t in manifest),
    ))


def _read_header(f, path) -> dict:
    magic = f.read(5)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {magic!r}")
    fixed = f.read(12)
    if len(fixed) != 12:
        raise CheckpointError(f"{path}: truncated before the end of the header length field")
    version, header_len = struct.unpack("<IQ", fixed)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint format version {version} "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    # checked before reading, so a corrupt length cannot ask for a huge buffer
    remaining = os.fstat(f.fileno()).st_size - f.tell()
    if header_len > remaining:
        raise CheckpointError(
            f"{path}: header of {header_len} bytes is truncated to {remaining}")
    try:
        header = json.loads(f.read(header_len).decode())
    except ValueError as e:  # UnicodeDecodeError and JSONDecodeError
        raise CheckpointError(f"{path}: header is not UTF-8 JSON: {e}") from e
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise CheckpointError(f"{path}: header has no {', '.join(missing)}")
    return header


def load_checkpoint(path) -> tuple[Model, dict]:
    """Rebuild (model, resolved_config) from a checkpoint file."""
    with open(path, "rb") as f:
        header = _read_header(f, path)
        raw = f.read()
    try:
        expected = sum(math.prod(meta["shape"]) for meta in header["tensors"])
    except (KeyError, TypeError) as e:
        raise CheckpointError(f"{path}: malformed tensor manifest: {e!r}") from e
    if len(raw) % 8:
        raise CheckpointError(
            f"{path}: payload of {len(raw)} bytes is not a whole number of float64 "
            f"values; the tensor manifest expects {expected} values"
        )
    found = len(raw) // 8
    if found != expected:
        trailing = f", {found - expected} of them trailing" if found > expected else ""
        raise CheckpointError(
            f"{path}: payload holds {found} values{trailing}; "
            f"the tensor manifest expects {expected}"
        )
    payload = np.frombuffer(raw, dtype="<f8")

    cfg = header["config"]
    if not isinstance(cfg, dict):
        raise CheckpointError(f"{path}: header config is not a JSON object")
    try:
        resolved = resolve_config(cfg)
    except ConfigError as e:
        raise CheckpointError(f"{path}: header config: {e}") from e
    if resolved != cfg:
        raise CheckpointError(f"{path}: header config lacks keys that resolving it fills in")
    model = Model.from_config(cfg)
    mc = cfg["model"]
    if (header["similarity_kind"], header["eps"]) != (mc["similarity"], mc["eps"]):
        raise CheckpointError(
            f"{path}: header similarity {header['similarity_kind']!r} with eps "
            f"{header['eps']} disagrees with its config ({mc['similarity']!r}, {mc['eps']})"
        )
    offset = 0
    tensors = _tensor_manifest(model)
    if len(tensors) != len(header["tensors"]):
        raise CheckpointError(f"{path}: tensor manifest mismatch")
    for (name, t), meta in zip(tensors, header["tensors"]):
        if name != meta["name"] or list(t.data.shape) != meta["shape"]:
            raise CheckpointError(
                f"{path}: tensor {meta['name']} shape {meta['shape']} does not "
                f"match model tensor {name} {list(t.data.shape)}"
            )
        size = t.data.size
        t.data = payload[offset : offset + size].reshape(t.data.shape).copy()
        offset += size
    model.bank.labels = np.array(header["labels"])
    model.bank.provenance = [
        None if p is None else ProvenanceRecord(**p) for p in header["provenance"]
    ]
    model.cursor = header["cursor"]
    return model, cfg
