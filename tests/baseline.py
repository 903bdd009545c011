"""Plain CNN regressor: the reference point the prototype model is compared against.

Same backbone as the prototype model, then a spatial mean pool and a linear
head, trained on plain MSE with Adam.
"""

import numpy as np

from protoreg import losses
from protoreg.backbone import Backbone
from protoreg.data import SynthDataset
from protoreg.engine import Adam, Tensor, no_grad


def train_baseline(cfg: dict, data: SynthDataset, test: SynthDataset,
                   epochs: int = 30, lr: float = 3e-3, batch_size: int = 30,
                   seed: int = 0) -> tuple[float, float]:
    """Train the baseline with the backbone of a resolved config on data;
    returns (test MAE, train MSE at the last epoch)."""
    rng = np.random.default_rng(seed)
    backbone = Backbone(cfg, rng)
    c_z = cfg["model"]["backbone_blocks"][-1][0]
    w_lin = Tensor(rng.normal(0.0, 0.1, size=c_z), requires_grad=True)
    b_lin = Tensor(np.array([np.mean(data.y)]), requires_grad=True)
    params = backbone.params() + [w_lin, b_lin]
    opt = Adam(params, lr)

    def forward(images: np.ndarray) -> Tensor:
        latent = backbone.forward(Tensor(images))
        n_b, c, h, w = latent.data.shape
        pooled = latent.reshape(n_b, c, h * w).mean(axis=2)  # (n, c_z)
        return (pooled.mul(w_lin.expand_rows(n_b)).sum(axis=1)
                .add(b_lin.expand_rows(n_b).reshape(n_b)))

    n = len(data)
    last_mse = np.inf
    for _ in range(epochs):
        order = rng.permutation(n)
        sums, batches = 0.0, 0
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            loss = losses.mse(forward(data.images[idx]), data.y[idx])
            loss.backward()
            opt.step()
            for p in params:
                p.grad = None
            sums += loss.item()
            batches += 1
        last_mse = sums / batches

    with no_grad():
        preds = [forward(test.images[start : start + 64]).data
                 for start in range(0, len(test), 64)]
    mae = float(np.mean(np.abs(np.concatenate(preds) - test.y)))
    return mae, last_mse
