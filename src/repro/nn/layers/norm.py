"""Batch normalization for NCHW feature maps and flat features."""

from __future__ import annotations

import numpy as np

from repro.nn.dtype import dtype_label, resolve_dtype
from repro.nn.layers.base import Layer, Parameter

__all__ = ["BatchNorm2D", "BatchNorm1D"]


class _BatchNorm(Layer):
    """Shared machinery; subclasses define the reduction axes."""

    def __init__(
        self,
        num_features: int,
        *,
        momentum: float = 0.9,
        eps: float = 1e-5,
        dtype=None,
    ) -> None:
        super().__init__()
        if num_features <= 0:
            raise ValueError(f"num_features must be positive, got {num_features}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.num_features = int(num_features)
        self.momentum = float(momentum)
        self.eps = float(eps)
        self.dtype = resolve_dtype(dtype)
        self.params["gamma"] = Parameter(
            np.ones(self.num_features, dtype=self.dtype), dtype=self.dtype
        )
        self.params["beta"] = Parameter(
            np.zeros(self.num_features, dtype=self.dtype), dtype=self.dtype
        )
        # running statistics are state, not trainable parameters; they
        # live in the layer dtype so eval-mode forwards stay in-dtype
        self.running_mean = np.zeros(self.num_features, dtype=self.dtype)
        self.running_var = np.ones(self.num_features, dtype=self.dtype)
        self._cache: tuple | None = None

    _axes: tuple = ()

    def _shape_params(self, arr: np.ndarray, ndim: int) -> np.ndarray:
        """Broadcast a per-channel vector against an ndim input."""
        shape = [1] * ndim
        shape[1] = self.num_features
        return arr.reshape(shape)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.shape[1] != self.num_features:
            raise ValueError(
                f"expected {self.num_features} channels, got input shape {x.shape}"
            )
        # feature-map-sized temporaries live in pinned scratch; the
        # per-channel statistics vectors stay tiny allocations
        if training:
            mean = x.mean(axis=self._axes)
            t = self._buf("var_tmp", x.shape, x.dtype)
            np.subtract(x, self._shape_params(mean, x.ndim), out=t)
            np.multiply(t, t, out=t)
            var = t.mean(axis=self._axes)
            self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mean
            self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = self._buf("x_hat", x.shape, x.dtype)
        np.subtract(x, self._shape_params(mean, x.ndim), out=x_hat)
        x_hat *= self._shape_params(inv_std, x.ndim)
        out = self._buf("out", x.shape, x.dtype)
        np.multiply(x_hat, self._shape_params(self.params["gamma"].value, x.ndim), out=out)
        out += self._shape_params(self.params["beta"].value, x.ndim)
        self._cache = (x_hat, inv_std) if training else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training-mode forward")
        x_hat, inv_std = self._cache
        m = grad_out.size // self.num_features  # elements per channel
        ndim = grad_out.ndim
        t = self._buf("bwd_tmp", grad_out.shape, grad_out.dtype)
        np.multiply(grad_out, x_hat, out=t)
        self.params["gamma"].grad += t.sum(axis=self._axes)
        self.params["beta"].grad += grad_out.sum(axis=self._axes)

        gamma = self._shape_params(self.params["gamma"].value, ndim)
        inv = self._shape_params(inv_std, ndim)
        g = self._buf("g", grad_out.shape, grad_out.dtype)
        np.multiply(grad_out, gamma, out=g)
        sum_g = self._shape_params(g.sum(axis=self._axes), ndim)
        np.multiply(g, x_hat, out=t)
        sum_gx = self._shape_params(t.sum(axis=self._axes), ndim)
        grad_in = self._buf("grad_in", grad_out.shape, grad_out.dtype)
        np.multiply(x_hat, sum_gx, out=grad_in)  # x_hat * sum_gx
        np.multiply(g, m, out=g)  # m * g
        g -= sum_g
        g -= grad_in  # (m*g - sum_g) - x_hat*sum_gx
        np.multiply(g, inv / m, out=grad_in)
        return grad_in

    def flops(self, input_shape: tuple) -> int:
        # normalize + scale + shift: ~4 ops per element
        return 4 * int(np.prod(input_shape))

    def state(self) -> dict[str, np.ndarray]:
        return {
            "running_mean": self.running_mean.copy(),
            "running_var": self.running_var.copy(),
        }

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        for key in ("running_mean", "running_var"):
            if key not in state:
                raise KeyError(f"batch-norm state missing {key!r}")
            value = np.asarray(state[key], dtype=self.dtype)
            if value.shape != (self.num_features,):
                raise ValueError(
                    f"{key} shape {value.shape} != ({self.num_features},)"
                )
            setattr(self, key, value)

    def get_config(self) -> dict:
        return {
            "num_features": self.num_features,
            "momentum": self.momentum,
            "eps": self.eps,
            "dtype": dtype_label(self.dtype),
        }


class BatchNorm2D(_BatchNorm):
    """Per-channel normalization over (batch, H, W) for NCHW inputs."""

    _axes = (0, 2, 3)


class BatchNorm1D(_BatchNorm):
    """Per-feature normalization over the batch for (batch, features) inputs."""

    _axes = (0,)
