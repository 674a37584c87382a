"""Elementwise activation layers."""

from __future__ import annotations

import numpy as np

from repro.nn.layers.base import Layer

__all__ = ["ReLU", "LeakyReLU", "Sigmoid", "Tanh"]


class ReLU(Layer):
    """Rectified linear unit, ``max(x, 0)``."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        mask = self._buf("mask", x.shape, np.bool_)
        np.greater(x, 0, out=mask)
        out = self._buf("out", x.shape, x.dtype)
        # zero-fill + masked copy is bitwise np.where(mask, x, 0.0)
        # (an out= multiply would turn -0.0/inf inputs into -0.0/nan)
        out[...] = 0.0
        np.copyto(out, x, where=mask)
        self._mask = mask if training else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before a training-mode forward")
        grad_in = self._buf("grad_in", grad_out.shape, grad_out.dtype)
        np.multiply(grad_out, self._mask, out=grad_in)
        return grad_in

    def flops(self, input_shape: tuple) -> int:
        return int(np.prod(input_shape))


class LeakyReLU(Layer):
    """``x if x > 0 else alpha * x``."""

    def __init__(self, alpha: float = 0.01) -> None:
        super().__init__()
        if not 0.0 <= alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {alpha}")
        self.alpha = float(alpha)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        mask = self._buf("mask", x.shape, np.bool_)
        np.greater(x, 0, out=mask)
        out = self._buf("out", x.shape, x.dtype)
        np.multiply(x, self.alpha, out=out)
        np.copyto(out, x, where=mask)
        self._mask = mask if training else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before a training-mode forward")
        grad_in = self._buf("grad_in", grad_out.shape, grad_out.dtype)
        np.multiply(grad_out, self.alpha, out=grad_in)
        np.copyto(grad_in, grad_out, where=self._mask)
        return grad_in

    def flops(self, input_shape: tuple) -> int:
        return 2 * int(np.prod(input_shape))

    def get_config(self) -> dict:
        return {"alpha": self.alpha}


class Sigmoid(Layer):
    """Logistic sigmoid with numerically stable split evaluation."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        self._out = out if training else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before a training-mode forward")
        return grad_out * self._out * (1.0 - self._out)

    def flops(self, input_shape: tuple) -> int:
        return 4 * int(np.prod(input_shape))


class Tanh(Layer):
    """Hyperbolic tangent."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = np.tanh(x)
        self._out = out if training else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before a training-mode forward")
        return grad_out * (1.0 - self._out**2)

    def flops(self, input_shape: tuple) -> int:
        return 4 * int(np.prod(input_shape))
