"""Spatial pooling layers (max and average) and global average pooling.

``MaxPool2D.backward`` routes each output gradient to its window's
argmax with a *flat* scatter: the static part of every target index
(batch/channel/window-origin offsets) is precomputed once per input
shape, so the per-call work is two elementwise integer ops plus one
scatter.  Disjoint windows (``stride >= pool_size`` — the decoder's 2x2
case) use direct fancy assignment; overlapping windows fall back to
``np.add.at``.  The scatter runs entirely in the layer's pinned arena
buffers (:mod:`repro.nn.arena`), so it allocates nothing per batch.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.layers.base import Layer

__all__ = ["MaxPool2D", "AvgPool2D", "GlobalAvgPool2D"]


class _Pool2D(Layer):
    """Shared shape logic for fixed-window pooling."""

    def __init__(self, pool_size: int = 2, stride: int | None = None) -> None:
        super().__init__()
        if pool_size <= 0:
            raise ValueError(f"pool_size must be positive, got {pool_size}")
        self.pool_size = int(pool_size)
        self.stride = int(stride) if stride is not None else self.pool_size
        if self.stride <= 0:
            raise ValueError(f"stride must be positive, got {stride}")

    def _out_hw(self, h: int, w: int) -> tuple[int, int]:
        k, s = self.pool_size, self.stride
        oh = (h - k) // s + 1
        ow = (w - k) // s + 1
        if oh <= 0 or ow <= 0:
            raise ValueError(
                f"{type(self).__name__}(k={k}, s={s}) empty output for input {h}x{w}"
            )
        return oh, ow

    def _windows(self, x: np.ndarray) -> np.ndarray:
        # (N, C, oh, ow, k, k) strided view
        view = sliding_window_view(x, (self.pool_size, self.pool_size), axis=(2, 3))
        return view[:, :, :: self.stride, :: self.stride, :, :]

    def output_shape(self, input_shape: tuple) -> tuple:
        c, h, w = input_shape
        oh, ow = self._out_hw(h, w)
        return (c, oh, ow)

    def get_config(self) -> dict:
        return {"pool_size": self.pool_size, "stride": self.stride}


class MaxPool2D(_Pool2D):
    """Max pooling; backward routes gradient to each window's argmax."""

    def __init__(self, pool_size: int = 2, stride: int | None = None) -> None:
        super().__init__(pool_size, stride)
        # static flat-offset tables keyed by input shape: the
        # batch/channel/window-origin part of every scatter target never
        # changes for a given geometry, so it is computed exactly once
        self._flat_bases: dict[tuple, np.ndarray] = {}

    def _flat_base(self, x_shape: tuple, oh: int, ow: int) -> np.ndarray:
        base = self._flat_bases.get(x_shape)
        if base is None:
            n, c, h, w = x_shape
            s = self.stride
            nc = (np.arange(n * c, dtype=np.intp) * (h * w)).reshape(n, c, 1, 1)
            oi = (np.arange(oh, dtype=np.intp) * (s * w)).reshape(1, 1, oh, 1)
            oj = (np.arange(ow, dtype=np.intp) * s).reshape(1, 1, 1, ow)
            base = nc + oi + oj
            self._flat_bases[x_shape] = base
        return base

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        windows = self._windows(x)
        n, c, oh, ow, k, _ = windows.shape
        # pin the window gather so max/argmax read a contiguous block
        flat = self._buf("windows", (n, c, oh, ow, k * k), x.dtype)
        np.copyto(flat.reshape(windows.shape), windows)
        out = self._buf("out", (n, c, oh, ow), x.dtype)
        np.max(flat, axis=-1, out=out)
        if training:
            argmax = self._buf("argmax", (n, c, oh, ow), np.intp)
            np.argmax(flat, axis=-1, out=argmax)
            self._cache = (x.shape, argmax)
        else:
            self._cache = None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training-mode forward")
        x_shape, argmax = self._cache
        n, c, oh, ow = grad_out.shape
        k, s = self.pool_size, self.stride
        w = x_shape[3]
        base = self._flat_base(x_shape, oh, ow)
        idx = self._buf("scatter_idx", argmax.shape, np.intp)
        tmp = self._buf("scatter_tmp", argmax.shape, np.intp)
        np.floor_divide(argmax, k, out=idx)  # row within window
        idx *= w
        np.remainder(argmax, k, out=tmp)  # column within window
        idx += tmp
        idx += base
        grad_x = self._buf("grad_x", x_shape, grad_out.dtype)
        grad_x[...] = 0.0
        flat = grad_x.reshape(-1)
        if s >= k:
            # disjoint windows: every input cell receives at most one
            # gradient, so fancy assignment equals the scatter-add
            flat[idx] = grad_out
        else:
            np.add.at(flat, idx, grad_out)
        return grad_x

    def flops(self, input_shape: tuple) -> int:
        c, oh, ow = self.output_shape(input_shape)
        # k*k - 1 comparisons per output element
        return (self.pool_size * self.pool_size - 1) * c * oh * ow


class AvgPool2D(_Pool2D):
    """Average pooling; backward spreads gradient uniformly over the window."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        windows = self._windows(x)
        out = self._buf("out", windows.shape[:4], x.dtype)
        np.mean(windows, axis=(-2, -1), out=out)
        self._cache = x.shape if training else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training-mode forward")
        x_shape = self._cache
        k, s = self.pool_size, self.stride
        n, c, oh, ow = grad_out.shape
        grad_x = self._buf("grad_x", x_shape, grad_out.dtype)
        grad_x[...] = 0.0
        share = self._buf("share", grad_out.shape, grad_out.dtype)
        np.true_divide(grad_out, k * k, out=share)
        for i in range(k):
            for j in range(k):
                grad_x[:, :, i : i + oh * s : s, j : j + ow * s : s] += share
        return grad_x

    def flops(self, input_shape: tuple) -> int:
        c, oh, ow = self.output_shape(input_shape)
        return self.pool_size * self.pool_size * c * oh * ow


class GlobalAvgPool2D(Layer):
    """Collapse each channel's spatial map to its mean: NCHW -> (N, C)."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._cache = x.shape if training else None
        out = self._buf("out", x.shape[:2], x.dtype)
        np.mean(x, axis=(2, 3), out=out)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training-mode forward")
        n, c, h, w = self._cache
        scaled = self._buf("scaled", (n, c), grad_out.dtype)
        np.true_divide(grad_out, h * w, out=scaled)
        grad_x = self._buf("grad_x", (n, c, h, w), grad_out.dtype)
        grad_x[...] = scaled[:, :, None, None]
        return grad_x

    def output_shape(self, input_shape: tuple) -> tuple:
        c, h, w = input_shape
        return (c,)

    def flops(self, input_shape: tuple) -> int:
        c, h, w = input_shape
        return c * h * w
