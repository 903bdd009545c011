"""Training objective: MSE plus two latent-space regularizers.

The cluster term pulls each sample's latent patches toward the k nearest
prototypes whose labels sit within delta_l of the sample label; the
prototype-sample-distance term pushes every prototype to have at least one
nearby patch in the batch so none drifts off into empty latent space.
"""

from __future__ import annotations

import numpy as np

from .engine import ShapeError, Tensor

# keeps the log argument positive when a distance reaches d_max in floating point
_RATIO_CAP = 1.0 - 1e-6


def mse(y_hat: Tensor, y: np.ndarray) -> Tensor:
    if y_hat.data.shape != y.shape:
        raise ShapeError(f"mse: shapes {y_hat.data.shape} vs {y.shape}")
    return y_hat.sub(Tensor(y)).square().mean()


def eligibility_masks(y: np.ndarray, labels: np.ndarray, delta_l: float) -> np.ndarray:
    """(n,m) mask: prototype j is eligible for sample i iff |l_j - y_i| < delta_l.

    A sample with no eligible prototype falls back to the single prototype
    with the nearest label, so the cluster term stays defined for any
    label grid.
    """
    diff = np.abs(labels[None, :] - y[:, None])
    masks = diff < delta_l
    for i in np.flatnonzero(~masks.any(axis=1)):
        masks[i, np.argmin(diff[i])] = True
    return masks


def cluster_loss(dmat: Tensor, y: np.ndarray, labels: np.ndarray,
                 k: int, delta_l: float) -> Tensor:
    """Mean over samples of the min-k average distance to eligible prototypes."""
    masks = eligibility_masks(y, labels, delta_l)
    return dmat.masked_min_k_rows(masks, k)


def psd_loss(dmat: Tensor, d_max: float) -> Tensor:
    """-(1/m) sum_j log(1 - min_i d_ij / d_max), ratio capped below 1."""
    per_proto, _ = dmat.min_reduce(axis=0)  # (m,)
    ratio = per_proto.scale(1.0 / d_max).clamp_max(_RATIO_CAP)
    return ratio.scale(-1.0).add_scalar(1.0).log().mean().scale(-1.0)


def total_loss(mse_term: Tensor, clst_term: Tensor, psd_term: Tensor,
               cfg_loss: dict) -> Tensor:
    """The MSE term plus the other two weighted by cfg_loss's alpha_clst and alpha_psd."""
    for name, term in (("mse", mse_term), ("cluster", clst_term), ("psd", psd_term)):
        if not np.isfinite(term.data).all():
            raise FloatingPointError(f"non-finite {name} loss component")
    return (mse_term.add(clst_term.scale(cfg_loss["alpha_clst"]))
            .add(psd_term.scale(cfg_loss["alpha_psd"])))
