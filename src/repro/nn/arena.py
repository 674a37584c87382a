"""Per-network buffer arena: preallocated scratch reused across batches.

Every layer forward/backward, the trainer's mini-batch gather and the
optimizers' temporaries write into keyed, lazily-allocated,
shape-stable storage: a layer asks for ``(owner, name, shape, dtype)``
and gets the *same* ndarray back on every batch, so after the first
epoch the training loop reaches a steady state with zero new large
allocations.  This is the only kernel path; there is no
allocate-per-call fallback.

Design rules (see DESIGN "The buffer arena"):

* **Keying** — buffers are keyed by ``(owner, name, shape, dtype)``.
  Including the shape means a ragged last batch gets its own buffer
  instead of thrashing a single slot between two sizes; steady state is
  reached after one epoch, and :attr:`nbytes` reports the true peak.
* **Ownership** — every layer instance binds with a unique owner string
  (the network wires ``"<layer-idx>"``, composite layers extend it with
  sublayer paths), so two layers can never alias each other's scratch.
  A :class:`~repro.nn.network.Network` creates its arena at
  construction and binds each layer as it is added; a layer used on
  its own owns a private arena, so its buffers appear on its first
  ``_buf`` request.
* **Lifetime** — a buffer's contents are only guaranteed between the
  owning layer's forward and the matching backward of the *same* batch;
  the next forward may overwrite everything.  A caller that keeps an
  output past the next forward copies it:
  :meth:`~repro.nn.network.Network.predict` writes every chunk into one
  array it allocates and returns.

The arena is deliberately not picklable state: it is rebuilt per
evaluation (the process backend ships an evaluation spec, never buffer
contents).
"""

from __future__ import annotations

import numpy as np

from repro.nn.dtype import resolve_dtype

__all__ = ["BufferArena"]


class BufferArena:
    """Keyed pool of reusable ndarrays for one network's training loop.

    Parameters
    ----------
    dtype:
        Default element type for buffers requested without an explicit
        dtype — the network's compute dtype.  Integer/bool buffers
        (argmax indices, masks) always pass their dtype explicitly.
    """

    def __init__(self, dtype=None) -> None:
        self.dtype = resolve_dtype(dtype)
        self._buffers: dict[tuple, np.ndarray] = {}

    def buffer(self, owner: str, name: str, shape: tuple, dtype=None) -> np.ndarray:
        """The pinned buffer for ``(owner, name, shape, dtype)``.

        Allocated with ``np.empty`` on first request (callers that need
        zeros zero it explicitly — most GEMM/scatter consumers overwrite
        every element anyway), then returned as-is forever after.
        """
        dtype = np.dtype(self.dtype if dtype is None else dtype)
        key = (owner, name, tuple(shape), dtype.str)
        buf = self._buffers.get(key)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            self._buffers[key] = buf
        return buf

    @property
    def nbytes(self) -> int:
        """Total bytes pinned — the per-evaluation peak-scratch figure."""
        return sum(buf.nbytes for buf in self._buffers.values())

    @property
    def n_buffers(self) -> int:
        return len(self._buffers)

    def clear(self) -> None:
        """Drop every buffer (the next request reallocates)."""
        self._buffers.clear()

    def __repr__(self) -> str:
        return (
            f"BufferArena(dtype={np.dtype(self.dtype).name}, "
            f"buffers={self.n_buffers}, nbytes={self.nbytes})"
        )
