"""Finite-difference verification suites for the whole trainable stack."""

from __future__ import annotations

import numpy as np

from .config import resolve_config
from .engine import Tensor, grad_check
from .model import Model
from .trainer import _batch_loss

# config overrides of a model small enough for finite differences, on 8x8 images
TINY_CFG = {
    "data": {"image_hw": [8, 8], "train_per_grade": 4, "test_per_grade": 2, "grades": 3,
             "blobs_per_grade": 1, "blob_radius": [1.5, 2.0]},
    "model": {"m": 3, "eps": 1e-4, "backbone_blocks": [[4, 3, 2], [4, 2, 1], [4, 1, 1]]},
    "train": {"cycles": 1, "joint_epochs": 2, "lastlayer_epochs": 1, "warmup_epochs": 1,
              "batch_size": 6},
}


def tiny_model(seed: int = 0, similarity_kind: str = "reciprocal") -> Model:
    mc = {**TINY_CFG["model"], "seed": seed, "similarity": similarity_kind}
    return Model.from_config(resolve_config({**TINY_CFG, "model": mc}))


def run_suites(seed: int = 0) -> list[dict]:
    """Run every finite-difference suite; each entry carries its own tolerance."""
    rng = np.random.default_rng(seed)
    results = []

    def add(name, err, tol=1e-4):
        results.append({"suite": name, "max_rel_error": err, "tolerance": tol,
                        "passed": bool(err < tol)})

    x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    add("sigmoid-chain", grad_check(lambda: x.sigmoid().square().sum(), [x]), 1e-6)

    v = Tensor(rng.uniform(0.5, 2.0, size=7), requires_grad=True)
    add("log", grad_check(lambda: v.log().sum(), [v]))

    img = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
    ker = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
    add("conv2d", grad_check(lambda: img.conv2d(ker, stride=1).square().sum(), [img, ker]))

    z = Tensor(rng.uniform(0.1, 0.9, size=(2, 4, 3, 3)), requires_grad=True)
    p = Tensor(rng.uniform(0.1, 0.9, size=(3, 4)), requires_grad=True)
    add("distance-map", grad_check(lambda: z.proto_sqdist(p).square().sum(), [z, p]))

    cfg_loss = {"alpha_mse": 1.0, "alpha_clst": 1.0, "alpha_psd": 10.0, "k": 2, "delta_l": 1.5}
    for kind in ("reciprocal", "log"):
        model = tiny_model(seed=seed, similarity_kind=kind)
        images = rng.uniform(0.0, 1.0, size=(6, 3, 8, 8))
        y = rng.uniform(1.0, 5.0, size=6)
        add(f"full-model-{kind}", grad_check(
            lambda: _batch_loss(model, images, y, cfg_loss)[0], model.params(), max_coords=4))
    return results
