"""Prototype layer: distance maps, min-pool, and distance-to-similarity.

Prototypes live in the same sigmoid-bounded latent space as image patches,
so every squared distance is capped by the latent depth (d_max = c_z).
Each prototype carries a fixed regression label assigned on an even grid
at construction; labels never change afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import Tensor


@dataclass
class ProvenanceRecord:
    """Which training patch a prototype was projected onto."""

    sample_id: int
    row: int
    col: int
    moved_sq_dist: float


@dataclass
class PrototypeBank:
    vectors: Tensor  # (m, c_z), trainable
    labels: np.ndarray  # (m,), fixed
    provenance: list[ProvenanceRecord | None] = field(default_factory=list)

    @property
    def m(self) -> int:
        return self.vectors.data.shape[0]

    @property
    def c_z(self) -> int:
        return self.vectors.data.shape[1]

    @property
    def d_max(self) -> float:
        """Supremum of squared L2 distance between two points of (0,1)^c_z."""
        return float(self.c_z)

    @property
    def projected(self) -> bool:
        return bool(self.provenance) and all(p is not None for p in self.provenance)


def distance_map(latent: Tensor, bank: PrototypeBank) -> Tensor:
    """(N,c_z,h,w) latent vs (m,c_z) prototypes -> (N,m,h,w) squared distances."""
    return latent.proto_sqdist(bank.vectors)


def min_pool(dmap: Tensor) -> tuple[Tensor, np.ndarray]:
    """Spatial minimum per prototype.

    Returns the (N,m) min-distance tensor and an (N,m,2) array of (row,col)
    argmin positions (earliest scan order on ties).
    """
    n, m, h, w = dmap.data.shape
    flat = dmap.reshape(n, m, h * w)
    d, idx = flat.min_reduce(axis=2)
    positions = np.stack([idx // w, idx % w], axis=-1)
    return d, positions


def similarity(d: Tensor, kind: str, eps: float, d_max: float) -> Tensor:
    """Map squared distances to similarities, elementwise.

    reciprocal: 1 / (d/d_max + eps) — steep near zero, so small distance
    differences translate into large similarity gaps.
    log: log((d+1)/(d+eps)), the gentler variant.
    """
    if kind == "reciprocal":
        return d.scale(1.0 / d_max).add_scalar(eps).reciprocal()
    if kind == "log":
        return d.add_scalar(1.0).log().sub(d.add_scalar(eps).log())
    raise ValueError(f"unknown similarity kind {kind!r}")

