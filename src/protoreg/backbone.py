"""Convolutional feature extractor producing a sigmoid-bounded latent volume.

A small stack of valid convolutions (ReLU between, sigmoid last) maps an
input image to a (c_z, h_z, w_z) latent volume whose every value lies in
(0,1).
"""

from __future__ import annotations

import numpy as np

from .engine import ShapeError, Tensor


def _kaiming_uniform(rng: np.random.Generator, shape) -> np.ndarray:
    fan_in = int(np.prod(shape[1:]))
    bound = np.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Backbone:
    """Trainable conv stack of a resolved config's model.backbone_blocks;
    forward() maps (N,C,H,W) images to latent volumes, channels-last in memory."""

    def __init__(self, cfg: dict, rng: np.random.Generator):
        blocks = cfg["model"]["backbone_blocks"]
        self.input_shape = (cfg["data"]["channels"], *cfg["data"]["image_hw"])
        self.strides = [stride for _, _, stride in blocks]
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        in_ch = self.input_shape[0]
        for out_ch, kernel, _ in blocks:
            w = Tensor(_kaiming_uniform(rng, (out_ch, in_ch, kernel, kernel)),
                       requires_grad=True)
            bias = Tensor(np.zeros(out_ch), requires_grad=True)
            self.weights.append(w)
            self.biases.append(bias)
            in_ch = out_ch

    def params(self) -> list[Tensor]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    def forward(self, images: Tensor) -> Tensor:
        """(N,C,H,W) -> (N,c_z,h_z,w_z), all values strictly in (0,1)."""
        if images.data.ndim != 4:
            raise ShapeError(f"expected (N,C,H,W) images, got shape {images.data.shape}")
        if images.data.shape[1:] != self.input_shape:
            raise ShapeError(
                f"expected images of shape (N,{','.join(map(str, self.input_shape))}), "
                f"got {images.data.shape}"
            )
        x = images
        last = len(self.strides) - 1
        for i, stride in enumerate(self.strides):
            x = x.conv2d(self.weights[i], stride=stride).bias_act(
                self.biases[i], "sigmoid" if i == last else "relu")
        return x
