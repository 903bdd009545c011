"""Explanation-quality metrics and latent-space reports.

Sparsity counts how many top-weight prototypes it takes to cover 80% of
the total contribution weight (lower is sparser). Diversity counts how
many prototypes show up in the top-5 contributing set of at least 1% of
test samples (higher means explanations differ across samples). The
embedding report projects selected latent patches and the prototypes into
a shared 2-D PCA basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .data import LABEL_SHIFT, SynthDataset
from .explain import contribution_order
from .head import contribution_weights, first_bad_row, importance
from .model import Model
from .prototypes import PrototypeBank

TOP_SET_SIZE = 5  # prototypes in a sample's top contributor set (capped at m)
DIVERSITY_THRESHOLD = 0.01  # share of samples whose top set a prototype must reach
PCA_PATCHES_PER_SAMPLE = 5  # patches nearest a prototype that pca_embed keeps per sample


def sparsity_rows(weights: np.ndarray) -> np.ndarray:
    """(N,) sparsities of an (N, m) weight matrix: per row, the smallest count
    of largest-weight prototypes reaching 80% cumulative weight."""
    row = first_bad_row(weights < 0)
    if row is not None:
        raise ValueError(f"weights must be nonnegative (row {row})")
    totals = weights.sum(axis=1, keepdims=True)
    row = first_bad_row(totals <= 0)
    if row is not None:
        raise ValueError(f"sparsity undefined for all-zero weights (row {row})")
    ordered = np.take_along_axis(weights, contribution_order(weights), axis=1)
    cumulative = np.cumsum(ordered, axis=1)
    # entries short of the 80% mark, as searchsorted's left rule counts them
    return np.sum(cumulative < 0.8 * totals - 1e-12, axis=1) + 1


# kept for perfbench/test_reference.py (ROADMAP item 5)
def sparsity(w: np.ndarray) -> int:
    """Sparsity of one sample's (m,) weights."""
    return int(sparsity_rows(w[None])[0])


def top_contributor_rows(weights: np.ndarray) -> np.ndarray:
    """(N, min(TOP_SET_SIZE, m)) indices of each row's largest weights, in
    contribution order."""
    return contribution_order(weights)[:, :TOP_SET_SIZE]


# kept for perfbench/run.py and perfbench/test_reference.py (ROADMAP item 5)
def top_contributor_set(w: np.ndarray) -> frozenset[int]:
    return frozenset(top_contributor_rows(w[None])[0].tolist())


def _membership_counts(top5: list[frozenset[int]] | np.ndarray, m: int) -> np.ndarray:
    """Per-prototype number of top-5 sets it belongs to.

    top5 is a list of sets or a (N, k) index matrix from top_contributor_rows.
    """
    if len(top5) == 0:
        raise ValueError("top-5 membership needs a non-empty test set")
    members = (top5.ravel() if isinstance(top5, np.ndarray)
               else np.fromiter(chain.from_iterable(top5), dtype=np.intp))
    return np.bincount(members, minlength=m).astype(float)


def diversity(top5_sets: list[frozenset[int]] | np.ndarray, m: int) -> int:
    """Number of prototypes in the top-5 set of >= DIVERSITY_THRESHOLD of the samples."""
    counts = _membership_counts(top5_sets, m)
    return int(np.sum(counts >= DIVERSITY_THRESHOLD * len(top5_sets) - 1e-12))


def usage_histogram(top5_sets: list[frozenset[int]] | np.ndarray, m: int) -> np.ndarray:
    """Per-prototype frequency of top-5 membership, normalized to sum to 1."""
    counts = _membership_counts(top5_sets, m)
    return counts / (min(TOP_SET_SIZE, m) * len(top5_sets))


@dataclass
class EmbeddingReport:
    # rows: (point id, kind, x, y, label); kinds are "sample" and "prototype"
    points: list[tuple[str, str, float, float, float]]
    explained_variance: tuple[float, float]
    histogram: np.ndarray


def pca_2d(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """2-component PCA: returns (coords, components (2,d), explained-variance fractions).

    Components are ordered by descending variance; each component's
    largest-magnitude loading is forced positive so output is deterministic.
    """
    if points.shape[0] < 2:
        raise ValueError("PCA needs at least 2 points")
    centered = points - points.mean(axis=0)
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    if svals.size < 2 or svals[1] <= 1e-12 * max(svals[0], 1.0):
        raise ValueError("point cloud is rank-deficient; 2-D PCA is degenerate")
    comps = vt[:2]
    for i in range(2):
        lead = np.argmax(np.abs(comps[i]))
        if comps[i, lead] < 0:
            comps[i] = -comps[i]
    var = svals**2
    evr = var[:2] / var.sum()
    return centered @ comps.T, comps, evr


# rows per block of pca_embed's distance pass: 512 KiB temporaries at c_z = 16
PCA_BLOCK_ROWS = 4096


def pca_embed(patches: np.ndarray, patch_sample_ids: np.ndarray,
              patch_labels: np.ndarray, bank: PrototypeBank,
              top5_sets: list[frozenset[int]] | np.ndarray) -> EmbeddingReport:
    """Project the most prototype-adjacent patches plus prototypes into 2-D.

    patches are sample-major, the same count (h*w) for every sample, and
    patch_sample_ids names each one's sample. For each sample only its
    PCA_PATCHES_PER_SAMPLE patches with the smallest distance to any prototype
    are kept.
    """
    protos = bank.vectors.data
    # a block of rows and one prototype at a time keeps the temporaries small;
    # each row's sum is the same in a block as over the whole array
    d2 = np.full(patches.shape[0], np.inf)
    for lo in range(0, patches.shape[0], PCA_BLOCK_ROWS):
        rows, out = patches[lo:lo + PCA_BLOCK_ROWS], d2[lo:lo + PCA_BLOCK_ROWS]
        for p in protos:
            np.minimum(out, ((rows - p) ** 2).sum(axis=1), out=out)
    # one row of distances per sample; ties keep the earlier patch
    n = 1 + int(np.count_nonzero(patch_sample_ids[1:] != patch_sample_ids[:-1]))
    by_sample = d2.reshape(n, -1)
    nearest = np.argsort(by_sample, axis=1, kind="stable")[:, :PCA_PATCHES_PER_SAMPLE]
    keep = (np.sort(nearest, axis=1) + by_sample.shape[1] * np.arange(n)[:, None]).ravel()
    cloud = np.vstack([patches[keep], protos])
    coords, _, evr = pca_2d(cloud)
    ids = [f"sample{s}_patch{p}" for s, p in zip(patch_sample_ids[keep].tolist(), keep.tolist())]
    ids += [f"prototype{j}" for j in range(bank.m)]
    kinds = ["sample"] * len(keep) + ["prototype"] * bank.m
    labels = np.concatenate([patch_labels[keep], bank.labels], dtype=float).tolist()
    points = list(zip(ids, kinds, coords[:, 0].tolist(), coords[:, 1].tolist(), labels))
    return EmbeddingReport(
        points=points,
        explained_variance=(float(evr[0]), float(evr[1])),
        histogram=usage_histogram(top5_sets, bank.m),
    )


def contribution_matrix(model: Model, s: np.ndarray) -> np.ndarray:
    """(N, m) contribution weights from (N, m) similarities; row i is sample i's."""
    return contribution_weights(s, importance(model.theta.data, model.bank.labels))[0]


def per_sample_weights(model: Model, dataset: SynthDataset) -> tuple[np.ndarray, np.ndarray]:
    """(y_hat, W) where W[i] holds sample i's contribution weights. The images
    may be an open split's (data.SplitImages)."""
    s, y_hat = model.score_np(dataset.images)
    return y_hat, contribution_matrix(model, s)


def evaluate(model: Model, dataset: SynthDataset, grades: int = 5,
             weights: tuple[np.ndarray, np.ndarray] | None = None) -> dict:
    """MAE, rounded accuracy, mean sparsity and diversity on a labeled set.

    weights, when given, is the (y_hat, W) pair that per_sample_weights
    returns for this model and dataset; it is computed when None.
    """
    y_hat, weights = weights if weights is not None else per_sample_weights(model, dataset)
    mae = float(np.mean(np.abs(y_hat - dataset.y)))
    # accuracy against the categorical grade, on the unshifted scale
    reported = np.clip(np.round(y_hat - LABEL_SHIFT), 0, grades - 1)
    accuracy = float(np.mean(reported == dataset.y_categorical - LABEL_SHIFT))
    return {
        "mae": mae,
        "accuracy": accuracy,
        "s_spars_mean": float(np.mean(sparsity_rows(weights))),
        "diversity": diversity(top_contributor_rows(weights), model.bank.m),
        "n_samples": len(dataset),
    }
