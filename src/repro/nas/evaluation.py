"""Evaluators: how the NAS measures an individual.

Two interchangeable implementations of the :class:`Evaluator` protocol:

* :class:`TrainingEvaluator` — decodes the genome and actually trains
  the NumPy network on a generated XFEL dataset (*real mode*).
* :class:`~repro.nas.surrogate.SurrogateEvaluator` — drives the same
  Algorithm-1 loop with an architecture-conditioned synthetic learning
  curve (*surrogate mode*, for paper-scale sweeps).

Both fill the same :class:`~repro.nas.population.Individual` fields, so
the search, scheduler, and lineage tracker cannot tell them apart.
"""

from __future__ import annotations

import hashlib

from typing import Callable, Protocol, runtime_checkable

import numpy as np

from repro.core.engine import PredictionEngine
from repro.core.plugin import run_training_loop
from repro.nas.decoder import DecoderConfig, decode_genome
from repro.nas.population import Individual
from repro.nn.dtype import dtype_label
from repro.nn.flops import network_flops
from repro.nn.optimizers import Adam
from repro.nn.trainer import Trainer
from repro.tooling.sanitizer import NumericalFault, Sanitizer, WriteGuard
from repro.utils.rng import RngStream
from repro.xfel.dataset import DiffractionDataset

__all__ = [
    "Evaluator",
    "TrainingEvaluator",
    "EpochObserver",
    "effective_budget",
    "retry_salt",
    "RNG_KEYINGS",
    "validate_rng_keying",
]

#: RNG-keying policies for evaluation streams.
#:
#: ``"model"`` (legacy): init/shuffle/curve streams derive from the
#: individual's model id — byte-identical to historical runs, but two
#: individuals carrying the same genome draw different weights, so their
#: evaluations differ and cannot be shared.
#:
#: ``"genome"``: streams derive from the *canonical* genome key and the
#: canonical genome is what gets decoded, making evaluation a pure
#: function of (canonical genome, training config, dataset, dtype) —
#: the property the evaluation cache requires for exactness.
RNG_KEYINGS = ("model", "genome")


def validate_rng_keying(rng_keying: str) -> str:
    """Validate and return an RNG-keying policy name."""
    if rng_keying not in RNG_KEYINGS:
        raise ValueError(
            f"rng_keying must be one of {RNG_KEYINGS}, got {rng_keying!r}"
        )
    return rng_keying


def _engine_fingerprint(engine: PredictionEngine | None) -> tuple:
    """Hashable snapshot of the engine configuration for memo keys."""
    if engine is None:
        return ("standalone",)
    return tuple(sorted((k, repr(v)) for k, v in engine.describe().items()))


def _dataset_fingerprint(dataset: DiffractionDataset) -> str:
    """Content hash of a dataset, for memo keys when no cache key is given."""
    digest = hashlib.blake2b(digest_size=16)
    for array in (dataset.x_train, dataset.y_train, dataset.x_test, dataset.y_test):
        array = np.ascontiguousarray(array)
        digest.update(repr((array.shape, array.dtype.str)).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def retry_salt(individual: Individual) -> tuple:
    """RNG stream salt for the individual's current evaluation attempt.

    Empty for the first attempt (so historical runs replay
    byte-identically) and ``("retry", n)`` for the ``n``-th retry, giving
    each attempt statistically independent init/shuffle/curve draws while
    staying fully derived from the root seed.
    """
    attempt = getattr(individual, "eval_attempt", 0)
    return () if not attempt else ("retry", int(attempt))


def effective_budget(individual: Individual, max_epochs: int) -> int:
    """Epochs this evaluation may actually spend.

    The full ``max_epochs`` unless the surrogate allocator assigned a
    reduced probe budget, which is clamped to ``[0, max_epochs]``.  The
    difference ``max_epochs - effective`` is accounted as
    *surrogate-skipped*, distinct from epochs the engine saves by early
    termination *within* the effective budget.
    """
    budget = individual.budget_assigned
    if budget is None:
        return int(max_epochs)
    return max(0, min(int(budget), int(max_epochs)))

#: Callback signature invoked after every trained epoch:
#: ``observer(individual, epoch, fitness, prediction, context)`` where
#: ``context`` carries evaluator-specific extras (e.g. the live network).
EpochObserver = Callable[[Individual, int, float, float | None, dict], None]


@runtime_checkable
class Evaluator(Protocol):
    """What the search requires of an evaluation backend."""

    max_epochs: int

    def evaluate(self, individual: Individual) -> Individual:
        """Train/score ``individual`` in place and return it."""


class TrainingEvaluator:
    """Real-mode evaluation: decode and train the network (Algorithm 1).

    Parameters
    ----------
    dataset:
        The XFEL train/test split.
    engine:
        Prediction engine; ``None`` gives the standalone-NAS baseline
        (full-budget truncated training).
    max_epochs:
        Training budget per network (paper: 25).
    decoder_config:
        Channel widths / head geometry for genome decoding.
    batch_size, learning_rate:
        Training hyper-parameters shared by all candidates.
    rng_stream:
        Deterministic stream; each model derives its own init/shuffle
        generators from its model id.
    observers:
        Per-epoch callbacks (the workflow orchestrator hooks lineage
        tracking and checkpointing in here).
    sanitize:
        Attach a :class:`~repro.tooling.sanitizer.Sanitizer` to every
        candidate's network and trainer; numerical faults abort the
        model's training with :class:`NumericalFault`.
    sanitize_writes:
        Attach a :class:`~repro.tooling.sanitizer.WriteGuard` to every
        candidate's network: borrowed inter-layer tensors become
        read-only around layer calls, so an aliasing write raises a
        ``guarded-write`` :class:`NumericalFault` instead of silently
        corrupting a neighbouring buffer.  Flag-flips only — an
        untripped guarded run is byte-identical to an unguarded one.
    on_fault:
        Callback ``on_fault(individual, fault)`` invoked before a
        :class:`NumericalFault` propagates (the orchestrator records it
        into the model's lineage record here).
    rng_keying:
        Which identity keys the per-candidate RNG streams — see
        :data:`RNG_KEYINGS`.  ``"model"`` (the default here) replays
        historical runs byte-identically; ``"genome"`` makes evaluation
        a pure function of the canonical genome, which is what the
        evaluation cache keys on.
    dtype:
        Compute dtype for decoded networks when no ``decoder_config`` is
        given (an explicit ``decoder_config`` carries its own dtype).
    dataset_key:
        Stable identifier of the dataset for memo keys (the workflow
        passes ``DatasetConfig.cache_key()``); defaults to a content
        hash of the arrays.
    """

    def __init__(
        self,
        dataset: DiffractionDataset,
        engine: PredictionEngine | None,
        *,
        max_epochs: int = 25,
        decoder_config: DecoderConfig | None = None,
        batch_size: int = 16,
        learning_rate: float = 1e-3,
        rng_stream: RngStream | None = None,
        observers: list[EpochObserver] | None = None,
        sanitize: bool = False,
        sanitize_writes: bool = False,
        on_fault: Callable[[Individual, NumericalFault], None] | None = None,
        rng_keying: str = "model",
        dtype=None,
        dataset_key: str | None = None,
    ) -> None:
        self.dataset = dataset
        self.engine = engine
        self.max_epochs = int(max_epochs)
        self.decoder_config = decoder_config or DecoderConfig(
            input_shape=dataset.input_shape, n_classes=dataset.n_classes, dtype=dtype
        )
        self.batch_size = int(batch_size)
        self.learning_rate = float(learning_rate)
        self.rng_stream = rng_stream or RngStream(0)
        self.observers = list(observers or [])
        self.sanitize = bool(sanitize)
        self.sanitize_writes = bool(sanitize_writes)
        self.on_fault = on_fault
        self.rng_keying = validate_rng_keying(rng_keying)
        self.dataset_key = dataset_key or _dataset_fingerprint(dataset)
        self._flops_cache: dict[str, int] = {}

    def _stream_ident(self, individual: Individual):
        """What keys this individual's RNG streams (see :data:`RNG_KEYINGS`)."""
        if self.rng_keying == "genome":
            return individual.genome.canonical_key()
        return individual.model_id

    def flops_for(self, genome) -> int:
        """FLOP count of the decoded network, cached per genome key.

        FLOPs depend only on structure, never on weight values, so a
        throwaway decode with a fixed generator matches what
        :meth:`evaluate` will report.  The surrogate budget allocator
        uses this to run its dominance test before any training.
        """
        canonical = self.rng_keying == "genome"
        key = genome.canonical_key() if canonical else genome.key()
        if key not in self._flops_cache:
            network = decode_genome(
                genome,
                self.decoder_config,
                rng=np.random.default_rng(0),
                canonical=canonical,
            )
            self._flops_cache[key] = network_flops(network)
        return self._flops_cache[key]

    def memo_key(self, individual: Individual) -> tuple | None:
        """Cache key for this evaluation, or ``None`` when not cacheable.

        Only genome-keyed evaluations are pure functions of the genome;
        under model keying two identical genomes legitimately evaluate
        differently, so their results must not be shared.
        """
        if self.rng_keying != "genome":
            return None
        budget = effective_budget(individual, self.max_epochs)
        if budget == 0:
            # a zero-budget skip is a prediction, not a measurement
            return None
        return (
            "real",
            individual.genome.canonical_key(),
            self.dataset_key,
            dtype_label(self.decoder_config.dtype),
            self.max_epochs,
            self.batch_size,
            self.learning_rate,
            _engine_fingerprint(self.engine),
            self.sanitize,
            retry_salt(individual),
            self.sanitize_writes,
            budget,
        )

    def evaluate(self, individual: Individual) -> Individual:
        """Decode, train with the Algorithm-1 loop, and fill the individual."""
        budget = effective_budget(individual, self.max_epochs)
        if budget == 0:
            if not individual.evaluated:
                raise ValueError(
                    "zero-budget individual must arrive pre-filled by the "
                    f"allocator, got model {individual.model_id}"
                )
            return individual
        # retries (fault policy) re-derive the RNG children with an
        # attempt salt; attempt 0 keeps the historical stream names so
        # fault-free runs replay byte-identically
        salt = retry_salt(individual)
        ident = self._stream_ident(individual)
        init_rng = self.rng_stream.generator("init", ident, *salt)
        shuffle_rng = self.rng_stream.generator("shuffle", ident, *salt)
        network = decode_genome(
            individual.genome,
            self.decoder_config,
            rng=init_rng,
            name=f"model-{individual.model_id}",
            canonical=self.rng_keying == "genome",
        )
        sanitizer = None
        if self.sanitize:
            sanitizer = Sanitizer().watch(network)
        write_guard = None
        if self.sanitize_writes:
            write_guard = WriteGuard().watch(network)
        trainer = Trainer(
            network,
            self.dataset.x_train,
            self.dataset.y_train,
            self.dataset.x_test,
            self.dataset.y_test,
            optimizer=Adam(network, self.learning_rate),
            batch_size=self.batch_size,
            rng=shuffle_rng,
            sanitizer=sanitizer,
            write_guard=write_guard,
        )

        def on_epoch(epoch: int, fitness: float, prediction: float | None) -> None:
            context = {
                "network": network,
                "trainer": trainer,
                "epoch_stats": trainer.history[-1],
            }
            for observer in self.observers:
                observer(individual, epoch, fitness, prediction, context)

        try:
            result = run_training_loop(
                trainer, self.engine, budget, epoch_callback=on_epoch
            )
        except NumericalFault as fault:
            # the poisoned measurement never reaches fitness_history; the
            # fault is recorded into lineage, then propagates to the caller
            if self.on_fault is not None:
                self.on_fault(individual, fault)
            raise

        individual.fitness = result.fitness
        individual.flops = network_flops(network)
        individual.result = result
        individual.epoch_seconds = [stats.wall_seconds for stats in trainer.history]
        individual.arena_enabled = True
        individual.arena_peak_bytes = network.arena.nbytes
        return individual
