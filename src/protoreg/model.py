"""The assembled network and its single-file checkpoint format.

Checkpoint layout (little-endian):
    magic  b"PRCK1"
    u32 format version (currently 2)
    u64 header length in bytes
    header: UTF-8 JSON with sorted keys — resolved config, similarity kind,
            eps, prototype labels, provenance, tensor manifest (name, shape);
            all but the provenance are what the config gives
    f64 tensor payloads in manifest order

Loading a checkpoint rebuilds a model whose forward outputs are bitwise
identical to the saved one.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import struct
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass

import numpy as np

from . import head as head_mod
from .backbone import Backbone
from .config import INFERENCE_CHUNK, ConfigError, Rule, block_maps, check_value, resolve_config
from .data import read_payload, write_atomic
from .engine import Tensor, no_grad
from .prototypes import (
    PrototypeBank,
    ProvenanceRecord,
    distance_map,
    min_pool,
    similarity,
)

CHECKPOINT_MAGIC = b"PRCK1"
CHECKPOINT_VERSION = 2


class CheckpointError(ValueError):
    pass


@dataclass
class ForwardResult:
    dmap: Tensor  # (N, m, h_z, w_z) squared distances
    dmin: Tensor  # (N, m) min-pooled distances
    argmin: np.ndarray  # (N, m, 2) spatial argmin positions
    s: Tensor  # (N, m) similarities
    y_hat: Tensor  # (N,) predictions


@functools.lru_cache(maxsize=None)
def _pool(pid: int, cpus: tuple[int, ...]) -> ThreadPoolExecutor:
    """Process pid's chunk pool for a caller on cpus: one worker for each,
    pinned to it (on Linux os.sched_setaffinity(0) sets only the calling
    thread's CPUs). A worker that cannot pin (no os.sched_setaffinity, or a
    CPU gone since cpus was read) runs unpinned, and the pool keeps working.
    A forked child has a pid of its own, so it never touches its parent's
    pools, whose threads it did not inherit."""
    order = iter(cpus)  # each worker's initializer takes the next CPU

    def pin():
        with contextlib.suppress(AttributeError, OSError):
            os.sched_setaffinity(0, [next(order)])
    return ThreadPoolExecutor(len(cpus), initializer=pin)


def _map_chunks(fn, rows) -> np.ndarray:
    """The no-grad pass of fn over rows (an array or a data.SplitImages): fn of
    each chunk of INFERENCE_CHUNK consecutive rows, the last one shorter if
    INFERENCE_CHUNK does not divide their number, joined in chunk order. The
    chunks run on the pool of the caller's CPU set, one per CPU at a time;
    where the platform has no os.sched_getaffinity, that set is every CPU.

    Each row's bits do not depend on the chunk it is in, a lone tail image
    included: the backbone's channels-last latents give proto_sqdist
    C-contiguous patch rows at every batch size. Nor do they depend on the
    thread that runs the chunk; numpy drops the GIL in the matmuls and array
    loops. The engine's grad flag is process-global, so no_grad is entered
    here, once, on the calling thread, and never by a worker. numpy's error
    state is per thread, so each worker takes the caller's. When chunks raise,
    the first one's exception in chunk order is raised once every chunk that
    started has ended, so no chunk outlives the call, or a file its caller
    closes.
    """
    n = rows.shape[0]
    if n == 0:
        raise ValueError("no-grad pass over an empty image array")
    cpus = (tuple(sorted(os.sched_getaffinity(0))) if hasattr(os, "sched_getaffinity")
            else tuple(range(os.cpu_count() or 1)))
    err = np.geterr()

    def run(a: int):
        with np.errstate(**err):
            return fn(rows[a:a + INFERENCE_CHUNK])

    pool = _pool(os.getpid(), cpus)
    with no_grad():
        futures = [pool.submit(run, a) for a in range(0, n, INFERENCE_CHUNK)]
        try:
            return np.concatenate([f.result() for f in futures])
        finally:
            for f in futures:
                f.cancel()  # only a chunk that has not started
            wait(futures)


@dataclass
class Model:
    backbone: Backbone
    bank: PrototypeBank
    theta: Tensor
    similarity_kind: str
    eps: float

    @staticmethod
    def from_config(cfg: dict) -> "Model":
        """The untrained model that a resolved config describes. The m prototype
        labels are evenly spaced from label_lo to label_hi, and theta_j =
        sqrt(l_j), so every prototype starts with importance 1."""
        mc = cfg["model"]
        m, c_z = mc["m"], mc["backbone_blocks"][-1][0]  # the last block's out_channels
        rng = np.random.default_rng(mc["seed"])
        backbone = Backbone(cfg, rng)
        # prototypes start inside the latent range, away from sigmoid saturation
        vectors = Tensor(rng.uniform(0.2, 0.8, size=(m, c_z)), requires_grad=True)
        labels = np.linspace(mc["label_lo"], mc["label_hi"], m)
        return Model(
            backbone=backbone,
            bank=PrototypeBank(vectors=vectors, labels=labels, provenance=[None] * m),
            theta=Tensor(np.sqrt(labels), requires_grad=True),
            similarity_kind=mc["similarity"],
            eps=mc["eps"],
        )

    def groups(self) -> dict[str, list[Tensor]]:
        """The parameter groups that the training stages move, in payload order:
        the backbone trunk, the added block (the last two conv layers, which
        warm-up trains with the prototypes), the prototypes and theta."""
        conv = self.backbone.params()  # w0, b0, w1, b1, ...
        return {"trunk": conv[:-4], "added": conv[-4:], "prototypes": [self.bank.vectors],
                "theta": [self.theta]}

    def params(self) -> list[Tensor]:
        return [p for group in self.groups().values() for p in group]

    def forward(self, images: Tensor) -> ForwardResult:
        latent = self.backbone.forward(images)
        dmap = distance_map(latent, self.bank)
        dmin, argmin = min_pool(dmap)
        s, y_hat = self.head(dmin)
        return ForwardResult(dmap=dmap, dmin=dmin, argmin=argmin, s=s, y_hat=y_hat)

    def head(self, dmin: Tensor) -> tuple[Tensor, Tensor]:
        """(similarities, predictions) from (N, m) min-pooled distances."""
        s = similarity(dmin, self.similarity_kind, self.eps, self.bank.d_max)
        return s, head_mod.predict(s, self.theta, self.bank.labels)

    def _latents(self, images: np.ndarray) -> np.ndarray:
        return self.backbone.forward(Tensor(images)).data

    def _dmin(self, latents: np.ndarray) -> np.ndarray:
        return min_pool(distance_map(Tensor(latents), self.bank))[0].data

    def latents_np(self, images) -> np.ndarray:
        """(N, c_z, h_z, w_z) backbone output of a raw image array or of an open
        split's data.SplitImages, one chunk (see _map_chunks) at a time."""
        return _map_chunks(self._latents, images)

    def dmin_np(self, latents: np.ndarray) -> np.ndarray:
        """(N, m) min-pooled distances of latents_np's output, in latents_np's
        chunks, so each row has the bits that Model.forward on its chunk gives."""
        return _map_chunks(self._dmin, latents)

    def head_np(self, dmin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(N, m) similarities and (N,) predictions of (N, m) min-pooled distances,
        in one head call. The head works row by row, so each row has the bits
        that a forward of its chunk gives."""
        with no_grad():
            s, y_hat = self.head(Tensor(dmin))
        return s.data, y_hat.data

    def score_np(self, images) -> tuple[np.ndarray, np.ndarray]:
        """head_np(dmin_np(latents_np(images))) with the same bits, for the same
        images. Each chunk's task reads its images and takes them straight to
        their min-pooled distances, so no latents array is built."""
        return self.head_np(_map_chunks(lambda x: self._dmin(self._latents(x)), images))

    # kept for perfbench/run.py (ROADMAP item 5)
    def predict_np(self, images) -> np.ndarray:
        """Batched no-grad prediction on a raw image array."""
        return self.score_np(images)[1]


def _tensor_manifest(model: Model) -> list[tuple[str, Tensor]]:
    """(name, tensor) of model.params(), in payload order."""
    names = [f"backbone.{k}{i}" for i in range(len(model.backbone.weights)) for k in "wb"]
    return list(zip(names + ["prototypes", "theta"], model.params()))


def _header(model: Model, resolved_config: dict) -> dict:
    """The checkpoint header of a model built from resolved_config."""
    return {
        "config": resolved_config,
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


def _check_provenance(provenance, cfg: dict) -> None:
    """Raise a ConfigError unless a header's provenance fits cfg."""
    m = cfg["model"]["m"]
    if not isinstance(provenance, list) or len(provenance) != m:
        raise ConfigError(f"provenance must be a list of {m} entries, got {provenance!r}")
    h, w = block_maps(cfg)[-1]  # a record names a patch of the latent grid
    rules = {"sample_id": Rule(int, 0), "row": Rule(int, 0, h - 1), "col": Rule(int, 0, w - 1),
             "moved_sq_dist": Rule(float, 0)}
    for j, p in enumerate(provenance):
        if p is None:
            continue
        if not isinstance(p, dict) or p.keys() != rules.keys():
            raise ConfigError(
                f"provenance[{j}] must be an object with keys {sorted(rules)}, got {p!r}")
        for name, rule in rules.items():
            check_value(f"provenance[{j}].{name}", p[name], rule)


def load_checkpoint(path) -> tuple[Model, dict]:
    """Rebuild (model, resolved_config) from a checkpoint file.

    The header's config builds the model; every other header key except the
    provenance must equal what that model's header holds.
    """
    with open(path, "rb") as f:
        header = _read_header(f, path)
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
        for key in sorted(derived.keys() - {"provenance"}):
            if header[key] != derived[key]:
                raise CheckpointError(
                    f"{path}: header {key} {json.dumps(header[key])} disagrees with its config, "
                    f"which gives {json.dumps(derived[key])}")
        try:
            _check_provenance(header["provenance"], cfg)
        except ConfigError as e:
            raise CheckpointError(f"{path}: header {e}") from e
        # the payload is read into the arrays that from_config drew, in payload
        # order; astype is a no-op on a little-endian machine
        params = model.params()
        for t in params:
            t.data = t.data.astype("<f8", copy=False)
        read_payload(f, path, [t.data for t in params], CheckpointError)
    model.bank.provenance = [None if p is None else ProvenanceRecord(**p)
                             for p in header["provenance"]]
    return model, cfg
