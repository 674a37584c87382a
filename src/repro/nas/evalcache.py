"""Duplicate-architecture evaluation memoization.

NSGA-II's crossover and mutation routinely regenerate genomes that were
already evaluated — either bit-identical or isomorphic (same phase DAG
under node relabeling).  Under the genome-keyed RNG policy
(``rng_keying="genome"``, see :mod:`repro.nas.evaluation`), evaluation
is a pure function of (canonical genome, training config, dataset,
dtype), so re-training such a candidate buys nothing.  The
:class:`MemoizingEvaluator` wraps the *outermost* evaluation chain and
reuses the recorded outcome instead.

Invariants (also recorded in DESIGN §9):

* the cache key carries the canonical genome key, dataset identity,
  compute dtype, and the training configuration — entries never cross
  any of them;
* quarantined, faulted, or retried evaluations are never cached (a hit
  must reproduce a clean attempt-0 evaluation exactly);
* cache hits are first-class lineage events: the individual (and its
  :class:`~repro.lineage.records.ModelRecord`) carries ``cache_hit``
  and the source model id, and the per-epoch observers are replayed
  from the cached trace so history stores and record trails stay
  populated.

Determinism with parallel workers: :meth:`MemoizingEvaluator.
evaluate_generation` partitions each generation *before* dispatching —
the first individual carrying a given key becomes the leader and is
evaluated; later ones are followers and take the hit after the leaders
settle.  Hit/miss assignment therefore depends only on submission
order, never on worker timing, so the serial loop and a process pool of
any size produce identical record trails.
"""

from __future__ import annotations

import copy
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.nas.population import Individual
from repro.utils.logging import get_logger

__all__ = ["CacheEntry", "EvaluationCache", "MemoizingEvaluator", "MemoizingStream"]

_LOG = get_logger("nas.evalcache")


@dataclass
class CacheEntry:
    """One cached evaluation outcome (everything a hit must restore)."""

    source_model_id: int
    fitness: float
    flops: int
    epoch_seconds: list
    result: object  # TrainingResult of the source evaluation
    epoch_trace: list  # [(epoch, fitness, prediction), ...] for observer replay
    # arena provenance of the source evaluation, restored onto hits
    arena_enabled: bool = False
    arena_peak_bytes: int = 0


class EvaluationCache:
    """Thread-safe store of evaluation outcomes keyed by memo key."""

    def __init__(self) -> None:
        self._entries: dict[tuple, CacheEntry] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def peek(self, key: tuple) -> CacheEntry | None:
        """Look up without touching the hit/miss counters."""
        with self._lock:
            return self._entries.get(key)

    def lookup(self, key: tuple) -> CacheEntry | None:
        """Look up and count the outcome."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
            return entry

    def record_hit(self, key: tuple) -> CacheEntry | None:
        """Count a hit resolved outside :meth:`lookup` (generation path)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
            return entry

    def record_miss(self) -> None:
        """Count a miss resolved outside :meth:`lookup`.

        The process backend partitions leaders in the parent and
        evaluates them in worker processes, so :meth:`lookup` never runs
        for them; :meth:`MemoizingEvaluator.register_remote` calls this
        to keep the hit/miss statistics identical to the serial path.
        """
        with self._lock:
            self.misses += 1

    def put(self, key: tuple, entry: CacheEntry) -> None:
        """Insert an entry; the first writer for a key wins."""
        with self._lock:
            self._entries.setdefault(key, entry)

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }


class MemoizingEvaluator:
    """Outermost evaluation wrapper that reuses duplicate evaluations.

    Parameters
    ----------
    evaluator:
        The full evaluation chain a miss runs through (fault injection /
        fault tolerance / the backend).  Wrapping outermost is what
        keeps faulty outcomes out of the cache: whatever the chain
        settles on is inspected *after* retries and quarantine.
    base:
        The innermost backend (:class:`~repro.nas.evaluation.
        TrainingEvaluator` or :class:`~repro.nas.surrogate.
        SurrogateEvaluator`).  It provides ``memo_key`` and the
        ``observers`` list used to capture and replay per-epoch events.
    cache:
        Shared :class:`EvaluationCache`; a fresh one by default.
    executor:
        Inner generation executor (the process pool's
        ``evaluate_generation``) used by :meth:`evaluate_generation`; a
        serial loop over :meth:`evaluate` by default.
    """

    def __init__(
        self,
        evaluator,
        base,
        *,
        cache: EvaluationCache | None = None,
        executor: Callable[[list[Individual]], list[Individual]] | None = None,
    ) -> None:
        self.evaluator = evaluator
        self.base = base
        self.cache = cache or EvaluationCache()
        self.executor = executor
        self._trace_lock = threading.Lock()
        self._traces: dict[int, list] = {}
        # capture per-epoch events of evaluations in flight so a future
        # hit can replay them; runs after the real observers
        self.base.observers.append(self._capture)

    @property
    def max_epochs(self) -> int:
        return self.evaluator.max_epochs

    # -- capture & replay -------------------------------------------------------

    def _capture(self, individual, epoch, fitness, prediction, context) -> None:
        with self._trace_lock:
            trace = self._traces.get(individual.model_id)
        if trace is not None:
            trace.append((epoch, float(fitness), prediction))

    def _replay_observers(self, individual: Individual, entry: CacheEntry) -> None:
        observers = [o for o in self.base.observers if o is not self._capture]
        context = {
            "cache_hit": True,
            "source_model_id": entry.source_model_id,
            "network": None,
            "trainer": None,
            "epoch_stats": None,
        }
        for epoch, fitness, prediction in entry.epoch_trace:
            for observer in observers:
                observer(individual, epoch, fitness, prediction, context)

    # -- hit/miss machinery -----------------------------------------------------

    def _apply_hit(self, individual: Individual, entry: CacheEntry) -> Individual:
        individual.fitness = entry.fitness
        individual.flops = entry.flops
        individual.result = copy.deepcopy(entry.result)
        individual.epoch_seconds = list(entry.epoch_seconds)
        individual.cache_hit = True
        individual.cache_source = entry.source_model_id
        individual.arena_enabled = entry.arena_enabled
        individual.arena_peak_bytes = entry.arena_peak_bytes
        self._replay_observers(individual, entry)
        _LOG.debug(
            "cache hit: model %d reuses model %d",
            individual.model_id,
            entry.source_model_id,
        )
        return individual

    @staticmethod
    def _cacheable(individual: Individual) -> bool:
        """Only clean, first-attempt, fully-measured outcomes are cached."""
        return (
            individual.fitness is not None
            and individual.flops is not None
            and individual.result is not None
            and not individual.quarantined
            and not individual.fault_events
            and not getattr(individual, "eval_attempt", 0)
        )

    def _entry_from(self, individual: Individual, trace: list) -> CacheEntry:
        source = (
            individual.cache_source
            if individual.cache_hit and individual.cache_source is not None
            else individual.model_id
        )
        return CacheEntry(
            source_model_id=source,
            fitness=float(individual.fitness),
            flops=int(individual.flops),
            epoch_seconds=list(individual.epoch_seconds),
            result=copy.deepcopy(individual.result),
            epoch_trace=list(trace),
            arena_enabled=bool(individual.arena_enabled),
            arena_peak_bytes=int(individual.arena_peak_bytes),
        )

    def prime(self, individual: Individual, epoch_trace: list | None = None) -> bool:
        """Seed the cache from an already-evaluated individual (resume path).

        Returns whether an entry was stored.  Hits restored from records
        prime with their original source id, so a resumed run attributes
        reuse exactly like the uninterrupted one.
        """
        key = self.base.memo_key(individual)
        if key is None or not self._cacheable(individual):
            return False
        self.cache.put(key, self._entry_from(individual, epoch_trace or []))
        return True

    def register_remote(self, individual: Individual, epoch_trace: list) -> None:
        """Account a leader evaluated in a worker process.

        Wired as :class:`~repro.scheduler.procpool.ProcessWorkerPool`'s
        ``on_result`` hook.  The leader was dispatched because
        generation partitioning found no entry for its key — that is the
        lookup miss :meth:`evaluate` counts on the serial path — and a
        clean outcome primes the cache with the trace the pool replayed,
        so followers take hits exactly as they would have locally.
        """
        key = self.base.memo_key(individual)
        if key is None:
            return
        self.cache.record_miss()
        if self._cacheable(individual):
            self.cache.put(key, self._entry_from(individual, list(epoch_trace)))

    # -- Evaluator protocol -----------------------------------------------------

    def evaluate(self, individual: Individual) -> Individual:
        key = self.base.memo_key(individual)
        if key is None:
            return self.evaluator.evaluate(individual)
        entry = self.cache.lookup(key)
        if entry is not None:
            return self._apply_hit(individual, entry)
        with self._trace_lock:
            self._traces[individual.model_id] = []
        try:
            self.evaluator.evaluate(individual)
        finally:
            with self._trace_lock:
                trace = self._traces.pop(individual.model_id, [])
        if self._cacheable(individual):
            self.cache.put(key, self._entry_from(individual, trace))
        return individual

    # -- generation executor ----------------------------------------------------

    def _run(self, individuals: list[Individual]) -> None:
        if not individuals:
            return
        if self.executor is not None:
            self.executor(individuals)
        else:
            for individual in individuals:
                self.evaluate(individual)

    def evaluate_generation(self, individuals: list[Individual]) -> list[Individual]:
        """Evaluate one generation with deterministic deduplication.

        Partition first, dispatch second: per memo key the first carrier
        in submission order leads (real evaluation through the inner
        executor), later carriers follow (hit once the leaders settle).
        If a leader's outcome turns out uncacheable (quarantined or
        faulted), its followers are evaluated for real in a second wave
        — a fault never silently propagates to other candidates.
        """
        leaders: list[Individual] = []
        deferred: list[tuple[Individual, tuple]] = []
        seen: set[tuple] = set()
        for individual in individuals:
            key = self.base.memo_key(individual)
            if key is None:
                leaders.append(individual)
                continue
            entry = self.cache.record_hit(key)
            if entry is not None:
                self._apply_hit(individual, entry)
            elif key in seen:
                deferred.append((individual, key))
            else:
                seen.add(key)
                leaders.append(individual)
        self._run(leaders)
        second_wave: list[Individual] = []
        for individual, key in deferred:
            entry = self.cache.record_hit(key)
            if entry is not None:
                self._apply_hit(individual, entry)
            else:
                second_wave.append(individual)
        self._run(second_wave)
        return individuals


class MemoizingStream:
    """Streaming (steady-state) face of the evaluation cache.

    Satisfies the :class:`~repro.nas.search.EvalStream` seam by wrapping
    an inner stream (:class:`~repro.nas.search.InlineStream` or the
    process pool).  Hit/miss assignment happens at
    ``submit`` — in steady mode a deterministic logical-clock event —
    and priming at ``on_commit``, the point where results re-enter
    submission order.  Both are driven by the search loop, never by
    worker timing, so cache behaviour is identical on every backend.

    A duplicate bred while its leader is still inside the in-flight
    window finds no entry and re-evaluates for real; under genome-keyed
    RNG the repeat is bit-identical, so only wall time is spent, never
    determinism.  The inner stream evaluates the chain *below* the
    memoizer (its own lookup would race with worker timing).
    """

    def __init__(self, memoizer: MemoizingEvaluator, inner) -> None:
        self.memoizer = memoizer
        self.inner = inner
        self._ready: deque[Individual] = deque()

    def submit(self, individual: Individual) -> None:
        memoizer = self.memoizer
        key = memoizer.base.memo_key(individual)
        if key is not None:
            entry = memoizer.cache.record_hit(key)
            if entry is not None:
                self._ready.append(memoizer._apply_hit(individual, entry))
                return
            memoizer.cache.record_miss()
            # register the trace now so the capture observer collects the
            # per-epoch events of this in-flight evaluation (the inline
            # stream captures live; the process pool captures during its
            # parent-side observer replay)
            with memoizer._trace_lock:
                memoizer._traces[individual.model_id] = []
        self.inner.submit(individual)

    def settled(self) -> Individual:
        if self._ready:
            return self._ready.popleft()
        return self.inner.settled()

    def on_commit(self, individual: Individual) -> None:
        memoizer = self.memoizer
        with memoizer._trace_lock:
            trace = memoizer._traces.pop(individual.model_id, [])
        if not individual.cache_hit:
            key = memoizer.base.memo_key(individual)
            if key is not None and memoizer._cacheable(individual):
                memoizer.cache.put(key, memoizer._entry_from(individual, trace))
        self.inner.on_commit(individual)

    def finish(self):
        """Close the inner stream (returns its report, when it keeps one)."""
        return self.inner.finish()
