"""Prediction head: similarity-weighted mean of prototype labels.

The single trainable vector theta enters only as theta^2, which keeps every
contribution weight nonnegative and makes the prediction a convex
combination of the prototype labels. theta_j = sqrt(l_j) at init, so every
prototype starts with importance 1.
"""

from __future__ import annotations

import numpy as np

from .engine import ShapeError, Tensor


class DegenerateHeadError(ValueError):
    pass


_DENOM_FLOOR = 1e-300


def predict(s: Tensor, theta: Tensor, labels: np.ndarray) -> Tensor:
    """Batch prediction: s is (n,m) similarities -> (n,) predictions.

    y_hat = sum_j s_j theta_j^2 / sum_j s_j theta_j^2 / l_j, i.e. the mean
    of prototype labels weighted by w = s * theta^2 / l.
    """
    if s.data.ndim != 2 or s.data.shape[1] != labels.shape[0]:
        raise ShapeError(f"expected (n,{labels.shape[0]}) similarities, got {s.data.shape}")
    n = s.data.shape[0]
    th2 = theta.square()
    num = s.mul(th2.expand_rows(n)).sum(axis=1)
    den = s.mul(th2.mul(Tensor(1.0 / labels)).expand_rows(n)).sum(axis=1)
    if np.any(np.abs(den.data) <= _DENOM_FLOOR):
        raise DegenerateHeadError("all prototype weights are zero; prediction undefined")
    return num.div(den)


def importance(theta: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-prototype importance r = theta^2 / l (sample independent)."""
    if np.any(labels <= 0):
        raise ValueError("prototype labels must be positive")
    return theta**2 / labels


def first_bad_row(bad: np.ndarray) -> int | None:
    """Index of the first row of a (..., m) mask with a True entry; a 1-D mask is row 0."""
    rows = np.flatnonzero(bad.reshape(-1, bad.shape[-1]).any(axis=1))
    return int(rows[0]) if rows.size else None


def contribution_weights(s: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample-specific weights w = s * r and their normalized fractions.

    s is one sample's (m,) similarities or an (N, m) matrix of them; each row
    is normalized by its own total.
    """
    if np.any(r < 0):
        raise ValueError("need r >= 0")
    row = first_bad_row(s <= 0)
    if row is not None:
        raise ValueError(f"need s > 0 (row {row})")
    w = s * r
    total = w.sum(axis=-1, keepdims=True)
    row = first_bad_row(total <= _DENOM_FLOOR)
    if row is not None:
        raise DegenerateHeadError(f"all contribution weights are zero (row {row})")
    return w, w / total
