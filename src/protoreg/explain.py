"""Per-sample prediction explanations.

An explanation decomposes a prediction into per-prototype contributions
(similarity, importance, weight, weight fraction) sorted by weight, and
attaches per-prototype activation maps: the similarity function applied
entrywise to that prototype's distance map, bilinearly upsampled to input
resolution.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .engine import Tensor, no_grad
from .head import contribution_weights, importance
from .model import Model
from .prototypes import similarity


@dataclass
class PrototypeContribution:
    index: int
    label: float
    similarity: float
    importance: float
    weight: float
    weight_fraction: float
    argmin_row: int
    argmin_col: int
    activation_map: np.ndarray  # upsampled to input resolution
    provenance: dict | None


@dataclass
class Explanation:
    sample_id: int
    y_hat: float
    y: float
    top_k: int
    records: list[PrototypeContribution]
    all_fractions: np.ndarray  # over all m prototypes, sums to 1
    top3_cumulative_fraction: float
    projected: bool  # False => provenance unavailable, maps still valid

    def to_json_dict(self) -> dict:
        recs = [
            {
                "prototype": r.index,
                "label": r.label,
                "similarity": r.similarity,
                "importance": r.importance,
                "weight": r.weight,
                "weight_fraction": r.weight_fraction,
                "argmin": [r.argmin_row, r.argmin_col],
                "provenance": r.provenance,
            }
            for r in self.records
        ]
        return {
            "sample_id": self.sample_id,
            "y_hat": self.y_hat,
            "y": self.y,
            "top_k": self.top_k,
            "projected": self.projected,
            "top3_cumulative_fraction": self.top3_cumulative_fraction,
            "records": recs,
        }


@functools.lru_cache(maxsize=None)
def _upsample_plan(in_hw: tuple[int, int], out_hw: tuple[int, int]):
    """bilinear_upsample's row and column indices and weights for one pair of sizes."""
    in_h, in_w = in_hw
    out_h, out_w = out_hw
    ys = np.linspace(0.0, in_h - 1, out_h)
    xs = np.linspace(0.0, in_w - 1, out_w)
    y0 = np.clip(np.floor(ys).astype(int), 0, in_h - 2) if in_h > 1 else np.zeros(out_h, int)
    x0 = np.clip(np.floor(xs).astype(int), 0, in_w - 2) if in_w > 1 else np.zeros(out_w, int)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    return y0, y1, x0, x1, (ys - y0)[:, None], xs - x0


def bilinear_upsample(grid: np.ndarray, out_hw: tuple[int, int]) -> np.ndarray:
    """Align-corners bilinear interpolation of a 2-D array or a (..., h, w) stack.

    The index and weight vectors are built once per pair of sizes; rows are
    gathered first, then columns, one axis at a time.
    """
    y0, y1, x0, x1, wy, wx = _upsample_plan(tuple(grid.shape[-2:]), tuple(out_hw))
    top, bottom = grid[..., y0, :], grid[..., y1, :]
    a, b = top[..., x0], top[..., x1]
    c, d = bottom[..., x0], bottom[..., x1]
    return (a * (1 - wy) * (1 - wx) + b * (1 - wy) * wx
            + c * wy * (1 - wx) + d * wy * wx)


def to_pgm_bytes(values: np.ndarray) -> bytes:
    """Render a 2-D map as a binary portable graymap (P5), max-normalized."""
    lo, hi = float(values.min()), float(values.max())
    scaled = np.zeros_like(values) if hi <= lo else (values - lo) / (hi - lo)
    pixels = np.round(scaled * 255).astype(np.uint8)
    header = f"P5\n{values.shape[1]} {values.shape[0]}\n255\n".encode()
    return header + pixels.tobytes()


def contribution_order(w: np.ndarray) -> np.ndarray:
    """Indices sorted by weight descending, ties by prototype index ascending,
    along the last axis of one (m,) weight row or an (N, m) matrix of them."""
    return np.argsort(-w, axis=-1, kind="stable")


def explain(image: np.ndarray, sample_id: int, y: float, model: Model,
            top_k: int) -> Explanation:
    """Build the explanation for a single (C,H,W) image."""
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    if top_k > model.bank.m:
        raise ValueError(f"top_k must be <= the model's {model.bank.m} prototypes, got {top_k}")
    with no_grad():
        result = model.forward(Tensor(image[None]))
        # (m, h_z, w_z): the model's own similarity of every patch
        act_maps = similarity(result.dmap, model.similarity_kind, model.eps,
                              model.bank.d_max).data[0]
    s = result.s.data[0]
    argmin = result.argmin[0]
    r = importance(model.theta.data, model.bank.labels)
    w, fractions = contribution_weights(s, r)
    order = contribution_order(w)
    sorted_fracs = fractions[order]
    projected = model.bank.projected
    in_hw = image.shape[1], image.shape[2]
    top = order[:top_k]
    maps = bilinear_upsample(act_maps[top], in_hw)
    records = []
    for j, activation_map in zip(top.tolist(), maps):
        prov = model.bank.provenance[j]
        records.append(PrototypeContribution(
            index=j,
            label=float(model.bank.labels[j]),
            similarity=float(s[j]),
            importance=float(r[j]),
            weight=float(w[j]),
            weight_fraction=float(fractions[j]),
            argmin_row=int(argmin[j, 0]),
            argmin_col=int(argmin[j, 1]),
            activation_map=activation_map,
            provenance=None if prov is None else {
                "sample_id": prov.sample_id, "row": prov.row, "col": prov.col,
            },
        ))
    return Explanation(
        sample_id=sample_id,
        y_hat=float(result.y_hat.data[0]),
        y=float(y),
        top_k=top_k,
        records=records,
        all_fractions=fractions,
        top3_cumulative_fraction=float(np.sum(sorted_fracs[:3])),
        projected=projected,
    )
