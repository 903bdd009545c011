"""Prototype-based interpretable regression network.

Predictions are similarity-weighted means of prototype labels; training
follows a joint / projection / last-layer protocol so each prototype ends
up identical to a real training patch and can be shown as evidence.
"""

from .engine import Adam, Tensor, grad_check, no_grad

__all__ = [
    "Adam",
    "Tensor",
    "grad_check",
    "no_grad",
]
