"""Epoch-wise training driver implementing the Algorithm-1 model interface.

The prediction engine interacts with training strictly through the
:class:`~repro.core.plugin.TrainableModel` protocol — one ``train()``
call per epoch, ``validate()`` returning percent fitness.  This module
provides that interface for real NumPy networks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.losses import Loss, SoftmaxCrossEntropy
from repro.nn.metrics import accuracy_percent
from repro.nn.network import Network
from repro.nn.optimizers import Optimizer, SGD, clip_grad_norm
from repro.utils.rng import fallback_rng
from repro.utils.timing import Stopwatch
from repro.utils.validation import ensure_positive

__all__ = ["Trainer", "EpochStats"]


@dataclass
class EpochStats:
    """Per-epoch record persisted by the lineage tracker."""

    epoch: int
    train_loss: float
    train_accuracy: float
    wall_seconds: float


@dataclass
class Trainer:
    """Mini-batch trainer for one network on one dataset split.

    Parameters
    ----------
    network:
        The model under training.
    x_train, y_train, x_val, y_val:
        Data splits; images are NCHW float arrays, labels integer.
    optimizer:
        Defaults to SGD with momentum 0.9 at ``lr=0.01``.
    loss:
        Defaults to softmax cross-entropy.
    batch_size:
        Mini-batch size; the last ragged batch is kept.
    rng:
        Generator for epoch shuffling (deterministic training).
    schedule:
        Optional :class:`~repro.nn.schedules.LRSchedule`; stepped once
        per epoch after training.
    max_grad_norm:
        Optional global gradient-norm clip applied before each update.
    sanitizer:
        Optional :class:`~repro.tooling.sanitizer.Sanitizer` (duck-
        typed); when set, every step's loss and parameter gradients are
        asserted finite, raising ``NumericalFault`` on violation.
    write_guard:
        Optional :class:`~repro.tooling.sanitizer.WriteGuard` (duck-
        typed); attached to the network it flips borrowed inter-layer
        tensors read-only around layer calls.  The trainer only keeps
        its ``epoch`` stamp current so trips carry their position.
    """

    network: Network
    x_train: np.ndarray
    y_train: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray
    optimizer: Optimizer | None = None
    loss: Loss | None = None
    batch_size: int = 32
    rng: np.random.Generator | None = None
    history: list = field(default_factory=list)
    schedule: object | None = None
    max_grad_norm: float | None = None
    sanitizer: object | None = None
    write_guard: object | None = None

    def __post_init__(self) -> None:
        ensure_positive(self.batch_size, "batch_size")
        if len(self.x_train) != len(self.y_train):
            raise ValueError(
                f"train split mismatch: {len(self.x_train)} images, {len(self.y_train)} labels"
            )
        if len(self.x_val) != len(self.y_val):
            raise ValueError(
                f"val split mismatch: {len(self.x_val)} images, {len(self.y_val)} labels"
            )
        if len(self.x_train) == 0 or len(self.x_val) == 0:
            raise ValueError("train and validation splits must be non-empty")
        if self.optimizer is None:
            self.optimizer = SGD(self.network, lr=0.01, momentum=0.9)
        if self.loss is None:
            self.loss = SoftmaxCrossEntropy()
        if self.rng is None:
            self.rng = fallback_rng()

    @property
    def epoch(self) -> int:
        """Epochs completed so far."""
        return len(self.history)

    def _gather_batch(self, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Materialize one shuffled mini-batch into the network's arena.

        ``np.take(..., out=...)`` writes into pinned buffers (the ragged
        last batch keys its own buffer by shape), so the gather
        allocates nothing after the first epoch.
        """
        arena = self.network.arena
        xb = arena.buffer(
            "trainer", "xb", (len(batch),) + self.x_train.shape[1:], self.x_train.dtype
        )
        np.take(self.x_train, batch, axis=0, out=xb)
        yb = arena.buffer("trainer", "yb", (len(batch),), self.y_train.dtype)
        np.take(self.y_train, batch, axis=0, out=yb)
        return xb, yb  # a4nn: noqa(ALIAS002) -- batch buffers are consumed within the epoch step before the next gather reuses them

    def train(self) -> EpochStats:
        """Run one full training epoch (shuffle, batch, update)."""
        clock = Stopwatch().start()
        if self.sanitizer is not None:
            self.sanitizer.epoch = self.epoch + 1
        if self.write_guard is not None:
            self.write_guard.epoch = self.epoch + 1
        order = self.rng.permutation(len(self.x_train))
        losses: list[float] = []
        correct = 0
        for start in range(0, len(order), self.batch_size):
            batch = order[start : start + self.batch_size]
            x, y = self._gather_batch(batch)
            self.optimizer.zero_grad()
            logits = self.network.forward(x, training=True)
            value, grad = self.loss(logits, y)
            if self.sanitizer is not None:
                self.sanitizer.check_loss(value)
            self.network.backward(grad)
            if self.max_grad_norm is not None:
                clip_grad_norm(self.network, self.max_grad_norm)
            if self.sanitizer is not None:
                self.sanitizer.check_parameter_gradients(self.network)
            self.optimizer.step()
            losses.append(value)
            correct += int(np.sum(logits.argmax(axis=1) == y))
        clock.stop()
        if self.schedule is not None:
            self.schedule.step()
        stats = EpochStats(
            epoch=self.epoch + 1,
            train_loss=float(np.mean(losses)),
            train_accuracy=100.0 * correct / len(order),
            wall_seconds=clock.total,
        )
        self.history.append(stats)
        return stats

    def validate(self) -> float:
        """Validation accuracy in percent — the workflow's fitness."""
        logits = self.network.predict(self.x_val, batch_size=max(self.batch_size, 64))
        return accuracy_percent(logits, self.y_val)
