"""The assembled network and its single-file checkpoint format.

Checkpoint layout (little-endian):
    magic  b"PRCK1"
    u32 format version (currently 1)
    u64 header length in bytes
    header: UTF-8 JSON with sorted keys — resolved config, stage cursor,
            similarity kind, eps, prototype labels, provenance, tensor
            manifest (name, shape); all but the cursor and provenance are
            what the config gives
    f64 tensor payloads in manifest order

Loading a checkpoint rebuilds a model whose forward outputs are bitwise
identical to the saved one.
"""

from __future__ import annotations

import json
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from . import head as head_mod
from .backbone import Backbone
from .config import INFERENCE_CHUNK, ConfigError, Rule, check_value, resolve_config
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
_STAGES = ("joint", "projection", "lastlayer")  # trainer.run_protocol's cursor stages
_PROVENANCE_RULES = {"sample_id": Rule(int, 0), "row": Rule(int, 0), "col": Rule(int, 0),
                     "moved_sq_dist": Rule(float, 0)}


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


def _chunks(n: int) -> list[slice]:
    """Consecutive slices of at most INFERENCE_CHUNK + 1 rows, none of one row
    unless n == 1.

    A lone sample gets distances up to 1.8e-15 away from the same sample in a
    larger batch (the distance matmul takes another path at one row); batches
    of two or more agree bitwise, so a tail of one joins the chunk before it.
    """
    if n == 0:
        raise ValueError("no-grad pass over an empty image array")
    starts = list(range(0, n, INFERENCE_CHUNK))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


_POOL: ThreadPoolExecutor | None = None  # made on first use, one worker per usable CPU
_POOL_LOCK = threading.Lock()


def _map_chunks(fn, chunks: list[slice]) -> list:
    """[fn(chunk) for chunk in chunks], run on every CPU the process may use.

    Each chunk is computed on its own, so its bits do not depend on the worker
    that runs it; numpy drops the GIL in the matmuls and array loops. The
    engine's grad flag is process-global, so no_grad is entered here, once, on
    the calling thread, and never by a worker.
    """
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(len(os.sched_getaffinity(0))
                                       if hasattr(os, "sched_getaffinity") else os.cpu_count())
    with no_grad():
        return list(_POOL.map(fn, chunks))


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

    def forward_np(self, images: np.ndarray) -> ForwardArrays:
        """One no-grad pass over a raw image array, in chunks (see _chunks)."""
        def run(chunk):
            r = self.forward(Tensor(images[chunk]))
            return r.dmin.data, r.s.data, r.y_hat.data

        parts = _map_chunks(run, _chunks(images.shape[0]))
        return ForwardArrays(*(np.concatenate(a) for a in zip(*parts)))

    def predict_np(self, images: np.ndarray) -> np.ndarray:
        """Batched no-grad prediction on a raw image array."""
        return self.forward_np(images).y_hat

    def latents_np(self, images: np.ndarray) -> np.ndarray:
        """(N, c_z, h_z, w_z) backbone output of a raw image array, in the chunks
        of forward_np, so each image's latent has the bits of forward_np's pass."""
        return np.concatenate(_map_chunks(lambda c: self.backbone.forward(Tensor(images[c])).data,
                                          _chunks(images.shape[0])))

    def dmin_np(self, latents: np.ndarray) -> np.ndarray:
        """(N, m) min-pooled distances of latents_np's output, in the chunks of
        forward_np, so they equal forward_np's dmin bit for bit."""
        return np.concatenate(_map_chunks(
            lambda c: min_pool(distance_map(Tensor(latents[c]), self.bank))[0].data,
            _chunks(latents.shape[0])))


def _tensor_manifest(model: Model) -> list[tuple[str, Tensor]]:
    """(name, tensor) of model.params(), in payload order."""
    names = [f"backbone.{k}{i}" for i in range(len(model.backbone.weights)) for k in "wb"]
    return list(zip(names + ["prototypes", "theta"], model.params()))


def _header(model: Model, resolved_config: dict) -> dict:
    """The checkpoint header of a model built from resolved_config."""
    return {
        "config": resolved_config,
        "cursor": model.cursor,
        "similarity_kind": model.similarity_kind,
        "eps": model.eps,
        "labels": model.bank.labels.tolist(),
        "provenance": [None if p is None else asdict(p) for p in model.bank.provenance],
        "tensors": [{"name": n, "shape": list(t.data.shape)} for n, t in _tensor_manifest(model)],
    }


def save_checkpoint(model: Model, path, resolved_config: dict) -> None:
    blob = json.dumps(_header(model, resolved_config), sort_keys=True,
                      separators=(",", ":")).encode()
    write_atomic(path, (
        CHECKPOINT_MAGIC,
        struct.pack("<IQ", CHECKPOINT_VERSION, len(blob)),
        blob,
        *(np.ascontiguousarray(t.data, dtype="<f8") for _, t in _tensor_manifest(model)),
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
    except (ValueError, RecursionError) as e:  # not UTF-8, not JSON, or nested too deep
        raise CheckpointError(f"{path}: header is not UTF-8 JSON: {e}") from e
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    return header


def _check_record(key: str, value, rules: dict) -> None:
    if not isinstance(value, dict) or value.keys() != rules.keys():
        raise ConfigError(f"{key} must be an object with keys {sorted(rules)}, got {value!r}")
    for name, rule in rules.items():
        check_value(f"{key}.{name}", value[name], rule)


def _check_state(header: dict, cfg: dict) -> None:
    """Raise a ConfigError unless the header's provenance and stage cursor fit cfg."""
    provenance, cursor, m = header["provenance"], header["cursor"], cfg["model"]["m"]
    if not isinstance(provenance, list) or len(provenance) != m:
        raise ConfigError(f"provenance must be a list of {m} entries, got {provenance!r}")
    for j, p in enumerate(provenance):
        if p is not None:
            _check_record(f"provenance[{j}]", p, _PROVENANCE_RULES)
    if cursor != {}:
        _check_record("cursor", cursor, {"cycle": Rule(int, 0, cfg["train"]["cycles"] - 1),
                                         "stage": Rule(str, choices=_STAGES)})


def load_checkpoint(path) -> tuple[Model, dict]:
    """Rebuild (model, resolved_config) from a checkpoint file.

    The header's config builds the model; every other header key except the
    stage cursor and the provenance must equal what that model's header holds.
    """
    with open(path, "rb") as f:
        header = _read_header(f, path)
        raw = f.read()
    cfg = header.get("config")
    if not isinstance(cfg, dict):
        raise CheckpointError(f"{path}: header config is missing or not a JSON object")
    try:
        resolved = resolve_config(cfg)
    except ConfigError as e:
        raise CheckpointError(f"{path}: header config: {e}") from e
    if resolved != cfg:
        raise CheckpointError(f"{path}: header config lacks keys that resolving it fills in")
    model = Model.from_config(cfg)
    derived = _header(model, cfg)
    if header.keys() != derived.keys():
        raise CheckpointError(f"{path}: header keys {sorted(header)} are not {sorted(derived)}")
    for key in sorted(derived.keys() - {"cursor", "provenance"}):
        if header[key] != derived[key]:
            raise CheckpointError(
                f"{path}: header {key} {json.dumps(header[key])} disagrees with its config, "
                f"which gives {json.dumps(derived[key])}")
    try:
        _check_state(header, cfg)
    except ConfigError as e:
        raise CheckpointError(f"{path}: header {e}") from e

    tensors = _tensor_manifest(model)
    expected = sum(t.data.size for _, t in tensors)
    extra = len(raw) - 8 * expected
    if extra:
        raise CheckpointError(
            f"{path}: payload of {len(raw)} bytes has {abs(extra)} bytes "
            f"{'trailing' if extra > 0 else 'missing'}; the tensor manifest expects "
            f"{expected} float64 values")
    payload = np.frombuffer(raw, dtype="<f8")
    finite = np.isfinite(payload)
    if not finite.all():
        raise CheckpointError(f"{path}: {finite.size - finite.sum()} non-finite payload values, "
                              f"the first at value {finite.argmin()}")
    offset = 0
    for _, t in tensors:
        t.data = payload[offset : offset + t.data.size].reshape(t.data.shape).copy()
        offset += t.data.size
    model.bank.provenance = [None if p is None else ProvenanceRecord(**p)
                             for p in header["provenance"]]
    model.cursor = header["cursor"]
    return model, cfg
