"""Convolutional feature extractor producing a sigmoid-bounded latent volume.

A small stack of valid convolutions (ReLU between, sigmoid last) maps an
input image to a (c_z, h_z, w_z) latent volume whose every value lies in
(0,1). The last two conv layers form the "added block" that the warm-up
phase of training updates together with the prototypes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import ShapeError, Tensor


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ConvSpec:
    out_channels: int
    kernel: int
    stride: int


@dataclass(frozen=True)
class BackboneConfig:
    """Architecture of the extractor; validated to hit the latent grid exactly.

    The last block's out_channels must equal c_z and its activation is a
    sigmoid (not configurable). The final two blocks are treated as the
    added block for warm-up purposes.
    """

    input_hw: tuple[int, int]
    in_channels: int
    blocks: tuple[ConvSpec, ...]
    c_z: int
    latent_hw: tuple[int, int]

    def __post_init__(self):
        if len(self.blocks) < 2:
            raise ConfigError("backbone needs at least two conv blocks (added block)")
        if self.blocks[-1].out_channels != self.c_z:
            raise ConfigError(
                f"last block has {self.blocks[-1].out_channels} channels, expected c_z={self.c_z}"
            )
        h, w = self.input_hw
        for i, b in enumerate(self.blocks):
            if b.kernel > h or b.kernel > w:
                raise ConfigError(f"block {i}: kernel {b.kernel} exceeds map size ({h},{w})")
            h = (h - b.kernel) // b.stride + 1
            w = (w - b.kernel) // b.stride + 1
        if (h, w) != tuple(self.latent_hw):
            raise ConfigError(
                f"block stack maps {self.input_hw} to ({h},{w}), configured latent grid is {self.latent_hw}"
            )
        if h <= 1 or w <= 1:
            raise ConfigError(f"latent grid must be >1 in both dims, got ({h},{w})")


def _kaiming_uniform(rng: np.random.Generator, shape) -> np.ndarray:
    fan_in = int(np.prod(shape[1:]))
    bound = np.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Backbone:
    """Trainable conv stack; forward() maps (N,C,H,W) images to latent volumes."""

    def __init__(self, config: BackboneConfig, rng: np.random.Generator):
        self.config = config
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        in_ch = config.in_channels
        for b in config.blocks:
            w = Tensor(_kaiming_uniform(rng, (b.out_channels, in_ch, b.kernel, b.kernel)),
                       requires_grad=True)
            bias = Tensor(np.zeros(b.out_channels), requires_grad=True)
            self.weights.append(w)
            self.biases.append(bias)
            in_ch = b.out_channels

    def params(self) -> list[Tensor]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    def added_block_params(self) -> list[Tensor]:
        """Parameters of the final two conv layers (warm-up group)."""
        out = []
        for w, b in zip(self.weights[-2:], self.biases[-2:]):
            out.extend([w, b])
        return out

    def forward(self, images: Tensor) -> Tensor:
        """(N,C,H,W) -> (N,c_z,h_z,w_z), all values strictly in (0,1)."""
        cfg = self.config
        if images.data.ndim != 4:
            raise ShapeError(f"expected (N,C,H,W) images, got shape {images.data.shape}")
        n, c, h, w = images.data.shape
        if (c, h, w) != (cfg.in_channels, *cfg.input_hw):
            raise ShapeError(
                f"expected images of shape (N,{cfg.in_channels},{cfg.input_hw[0]},{cfg.input_hw[1]}), "
                f"got {images.data.shape}"
            )
        x = images
        last = len(cfg.blocks) - 1
        for i, spec in enumerate(cfg.blocks):
            x = x.conv2d(self.weights[i], stride=spec.stride).add_channel_bias(self.biases[i])
            x = x.sigmoid() if i == last else x.relu()
        return x

