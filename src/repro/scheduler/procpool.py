"""Process-parallel generation executor with hard-kill timeouts.

:class:`ProcessWorkerPool` runs a generation's evaluations on
``spawn``-context worker *processes*, the ``process`` execution backend
(``serial`` is the search's own in-process loop).  Worker processes run
the whole Python training loop concurrently, which is what the paper's
multi-GPU resource manager assumes.

Division of labour (the key to bit-identical results across backends):

* **Workers** rebuild the evaluation chain once from a picklable
  :class:`EvalSpec` — dataset attached zero-copy through
  :mod:`repro.xfel.shm`, RNG streams re-derived from the run's root
  seed — and then run exactly *one* evaluation attempt per dispatched
  :class:`EvalTask`, streaming back an :class:`EvalResult` with the
  measurements and the per-epoch trace.
* **The parent** owns every side effect: it replays each trace through
  the real observers (lineage tracker, history store), runs the
  :class:`~repro.scheduler.faults.FaultPolicy` loop (classify → retry
  with backoff → quarantine) with the same routing rules as
  :class:`~repro.scheduler.faults.FaultTolerantEvaluator`, and keeps
  the eval-cache leader/follower story deterministic by priming the
  cache through the ``on_result`` hook.

Because attempts run in killable processes, a policy timeout is a *hard
kill*: the worker is terminated and respawned, so — unlike the serial
backend, whose abandoned shadow threads keep computing — a hung
evaluation is truly reclaimed (``FaultEvent.timeout_leaked`` is always
``False`` here; see DESIGN §8).  Failures settle per generation: every
job settles before any error propagates, one error re-raises as itself,
several raise an ``ExceptionGroup``.  Submission order is FIFO: job *i* is dispatched no
later than job *i+1*, and a retry goes to the *front* of the queue,
mirroring the serial path's finish-this-candidate-first behaviour.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection

from repro.core.engine import EngineConfig, PredictionEngine
from repro.nas.evaluation import TrainingEvaluator
from repro.nas.population import Individual
from repro.scheduler.faults import (
    EvaluationTimeout,
    FaultEvent,
    FaultInjectingEvaluator,
    FaultInjectionConfig,
    FaultPolicy,
    FaultTolerantEvaluator,
)
from repro.scheduler.pool import JobTiming, PoolReport
from repro.utils.logging import get_logger
from repro.utils.rng import RngStream
from repro.utils.timing import Stopwatch
from repro.xfel.intensity import BeamIntensity
from repro.xfel.shm import SharedArena, SharedDatasetSpec, attach_dataset

__all__ = ["EvalSpec", "EvalTask", "EvalResult", "ProcessWorkerPool"]

_LOG = get_logger("scheduler.procpool")


@dataclass(frozen=True)
class EvalSpec:
    """Picklable recipe a spawned worker uses to rebuild its evaluator chain.

    Carries configuration only — the dataset payload travels through
    shared memory (:class:`~repro.xfel.shm.SharedDatasetSpec`), and RNG
    state is never shipped: workers re-derive the exact generators the
    serial path would use from ``seed`` and the genome/model identity,
    which is what makes process evaluation bit-identical to serial.

    ``factory``, when set, overrides everything else: it must be a
    picklable zero-argument callable (a module-level function) returning
    an object with ``evaluate(individual)``; the test suite uses it to
    run delay/hang evaluators under the real dispatch machinery.
    """

    mode: str = "surrogate"
    seed: int = 0
    max_epochs: int = 25
    engine: EngineConfig | None = None
    intensity_label: str = "medium"
    dataset: SharedDatasetSpec | None = None
    dataset_key: str | None = None
    sanitize: bool = False
    sanitize_writes: bool = False
    rng_keying: str = "genome"
    dtype: str | None = None
    batch_size: int = 16
    learning_rate: float = 1e-3
    injection: FaultInjectionConfig | None = None
    factory: object = None


@dataclass(frozen=True)
class EvalTask:
    """One evaluation attempt dispatched to a worker process.

    ``budget`` ships the surrogate allocator's (possibly reduced) epoch
    budget; the allocator itself — predictor state included — never
    leaves the parent process.
    """

    model_id: int
    generation: int
    attempt: int
    genome: object
    budget: int | None = None


@dataclass(frozen=True)
class EvalResult:
    """What a worker sends back for one attempt.

    ``trace`` holds ``(epoch, fitness, prediction, epoch_stats)`` tuples
    — everything the parent needs to replay the per-epoch observers
    (history store, lineage tracker) exactly as the serial path fired
    them, including the trainer's :class:`~repro.nn.trainer.EpochStats`
    (``None`` in surrogate mode, as in the serial context).  A failed
    attempt carries the epochs measured *before* the fault plus the
    pickled exception in ``error``.
    """

    model_id: int
    attempt: int
    fitness: float | None = None
    flops: int | None = None
    result: object = None
    epoch_seconds: tuple = ()
    trace: tuple = ()
    error: bytes | None = None
    on_fault_fired: bool = False
    arena_enabled: bool = False
    arena_peak_bytes: int = 0

    def exception(self) -> Exception:
        """Decode the transported failure (only valid when ``error`` is set)."""
        return pickle.loads(self.error)


def _encode_error(exc: BaseException) -> bytes:
    """Pickle an exception, degrading to a summary when it won't survive."""
    try:
        payload = pickle.dumps(exc)
        pickle.loads(payload)  # round-trip check: __reduce__ bugs surface here
        return payload
    except Exception:  # a4nn: noqa(NUM001) -- fallback keeps the fault routable; the original message is preserved
        return pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))


class _WorkerRuntime:
    """Worker-process side: the evaluator chain plus trace capture."""

    def __init__(self, spec: EvalSpec) -> None:
        self.trace: list = []
        self.fault_fired = False
        self._shm_handles: list = []
        if spec.factory is not None:
            self.evaluator = spec.factory()
            return
        # Imported lazily: repro.nas.surrogate itself imports
        # repro.scheduler.costmodel, so a module-level import here would
        # close the nas -> scheduler -> procpool -> nas cycle and fail
        # whenever repro.nas initializes first.
        from repro.nas.surrogate import SurrogateEvaluator
        engine = PredictionEngine(spec.engine) if spec.engine is not None else None
        stream = RngStream(spec.seed)
        observers = [self._observe]
        if spec.mode == "real":
            dataset, self._shm_handles = attach_dataset(spec.dataset)
            evaluator = TrainingEvaluator(
                dataset,
                engine,
                max_epochs=spec.max_epochs,
                batch_size=spec.batch_size,
                learning_rate=spec.learning_rate,
                rng_stream=stream.child("eval"),
                observers=observers,
                sanitize=spec.sanitize,
                sanitize_writes=spec.sanitize_writes,
                on_fault=self._on_fault,
                rng_keying=spec.rng_keying,
                dtype=spec.dtype,
                dataset_key=spec.dataset_key,
            )
        else:
            evaluator = SurrogateEvaluator(
                BeamIntensity.from_label(spec.intensity_label),
                engine,
                max_epochs=spec.max_epochs,
                rng_stream=stream.child("eval"),
                observers=observers,
                rng_keying=spec.rng_keying,
            )
        if spec.injection is not None and spec.injection.rate > 0:
            evaluator = FaultInjectingEvaluator(
                evaluator, spec.injection, rng_stream=stream.child("inject")
            )
        self.evaluator = evaluator

    def _observe(self, individual, epoch, fitness, prediction, context) -> None:
        self.trace.append(
            (epoch, float(fitness), prediction, context.get("epoch_stats"))
        )

    def _on_fault(self, individual, fault) -> None:
        # remember that the base evaluator reported this fault so the
        # parent can fire the lineage tracker's on_fault exactly once
        self.fault_fired = True

    def run(self, task: EvalTask) -> EvalResult:
        self.trace = []
        self.fault_fired = False
        individual = Individual(
            genome=task.genome,
            model_id=task.model_id,
            generation=task.generation,
            eval_attempt=task.attempt,
            budget_assigned=task.budget,
        )
        try:
            self.evaluator.evaluate(individual)
        except Exception as exc:  # a4nn: noqa(NUM001) -- transported to the parent, which classifies and routes it
            return EvalResult(
                model_id=task.model_id,
                attempt=task.attempt,
                trace=tuple(self.trace),
                error=_encode_error(exc),
                on_fault_fired=self.fault_fired,
            )
        return EvalResult(
            model_id=task.model_id,
            attempt=task.attempt,
            fitness=float(individual.fitness),
            flops=int(individual.flops),
            result=individual.result,
            epoch_seconds=tuple(individual.epoch_seconds),
            trace=tuple(self.trace),
            arena_enabled=bool(individual.arena_enabled),
            arena_peak_bytes=int(individual.arena_peak_bytes),
        )


def _worker_main(conn, spec: EvalSpec) -> None:
    """Worker-process entry: handshake, then serve tasks until EOF/sentinel."""
    try:
        runtime = _WorkerRuntime(spec)
    except BaseException as exc:  # a4nn: noqa(NUM001) -- reported to the parent through the init handshake
        conn.send(("init_error", f"{type(exc).__name__}: {exc}"))
        conn.close()
        return
    conn.send(("ready", None))
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            break
        if task is None:
            break
        conn.send(runtime.run(task))
    conn.close()


class _Job:
    """Parent-side state of one individual's evaluation across attempts."""

    __slots__ = ("individual", "order", "attempt", "ready_at", "first_start",
                 "attempt_start", "deadline", "trace")

    def __init__(self, individual: Individual, order: int) -> None:
        self.individual = individual
        self.order = order
        self.attempt = int(getattr(individual, "eval_attempt", 0))
        self.ready_at = 0.0        # generation-clock time the next attempt may start
        self.first_start = None    # generation-clock time of the first dispatch
        self.attempt_start = 0.0   # generation-clock time of the current dispatch
        self.deadline = None       # monotonic hard-kill deadline of the attempt
        self.trace = ()            # final attempt's epoch trace (for on_result)


class _ProcStreamState:
    """Persistent scheduling state of one open streaming run.

    The streaming seam drives the same ``_dispatch`` /
    ``_wait_and_settle`` primitives as the batch path, but keeps their
    state alive across ``submit``/``settled`` calls so the whole
    steady-state run is one scheduling episode with one
    :class:`~repro.scheduler.pool.PoolReport`.
    """

    def __init__(self, n_workers: int) -> None:
        self.clock = Stopwatch().start()
        self.queue: deque = deque()
        self.errors: dict[int, Exception] = {}
        self.timings: dict[int, JobTiming] = {}
        self.busy = [0.0] * n_workers
        self.settled_jobs: deque = deque()
        self.order = 0
        self.n_settled = 0


class _Worker:
    """Parent-side handle to one spawned worker process."""

    def __init__(self, ctx, spec: EvalSpec, index: int) -> None:
        parent_conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, spec),
            name=f"a4nn-eval-worker-{index}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        self.index = index
        self.job: _Job | None = None

    def await_ready(self, timeout: float) -> None:
        """Block until the worker finishes building its evaluator chain."""
        if not self.conn.poll(timeout):
            raise RuntimeError(
                f"worker {self.index} did not come up within {timeout:.0f}s"
            )
        tag, payload = self.conn.recv()
        if tag != "ready":
            raise RuntimeError(f"worker {self.index} failed to initialize: {payload}")


class ProcessWorkerPool:
    """FIFO generation executor over ``n_workers`` spawned worker processes.

    Parameters
    ----------
    spec:
        The :class:`EvalSpec` every worker rebuilds its evaluator from.
    n_workers:
        Concurrent evaluation processes (the paper's GPU count).
    policy:
        Optional :class:`~repro.scheduler.faults.FaultPolicy` applied
        *in the parent*: crash/NaN classification, bounded retries with
        backoff, quarantine — same routing as
        :class:`~repro.scheduler.faults.FaultTolerantEvaluator`, except
        that timeouts terminate-and-respawn the worker (hard kill).
    on_fault_event:
        Callback ``(individual, event_dict)`` per fault decision
        (lineage hook, as on the serial path's wrapper).
    observers:
        Per-epoch observers the parent replays each result's trace
        through (pass the base evaluator's *live* ``observers`` list).
    on_fault:
        Callback ``(individual, fault)`` fired when the worker's base
        evaluator reported a sanitizer fault before raising (mirrors
        ``TrainingEvaluator.on_fault``).
    on_result:
        Callback ``(individual, epoch_trace)`` after every dispatched
        job settles; the orchestrator wires the eval-cache's
        ``register_remote`` here so leader outcomes prime the cache.
    arena:
        Optional :class:`~repro.xfel.shm.SharedArena` this pool owns;
        released in :meth:`close` after the workers have exited.
    """

    backend = "process"

    def __init__(
        self,
        spec: EvalSpec,
        n_workers: int = 1,
        *,
        policy: FaultPolicy | None = None,
        on_fault_event=None,
        observers: list | None = None,
        on_fault=None,
        on_result=None,
        arena: SharedArena | None = None,
        startup_timeout: float = 120.0,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.spec = spec
        self.n_workers = int(n_workers)
        self.policy = policy
        self.on_fault_event = on_fault_event
        self.observers = observers if observers is not None else []
        self.on_fault = on_fault
        self.on_result = on_result
        self.arena = arena
        self.startup_timeout = float(startup_timeout)
        self.reports: list[PoolReport] = []
        self.events: list[FaultEvent] = []
        self.n_killed = 0
        self._ctx = mp.get_context("spawn")
        self._workers: list[_Worker | None] = [None] * self.n_workers
        self._closed = False
        self._stream: _ProcStreamState | None = None

    # -- worker lifecycle -------------------------------------------------------

    def _respawn(self, slot: int) -> _Worker:
        worker = _Worker(self._ctx, self.spec, slot)
        worker.await_ready(self.startup_timeout)
        self._workers[slot] = worker
        return worker

    def _ensure_workers(self) -> None:
        fresh = []
        for slot in range(self.n_workers):
            worker = self._workers[slot]
            if worker is None or not worker.process.is_alive():
                fresh.append(_Worker(self._ctx, self.spec, slot))
                self._workers[slot] = fresh[-1]
        budget = Stopwatch().start()
        for worker in fresh:
            worker.await_ready(max(self.startup_timeout - budget.elapsed(), 0.0))

    def _kill(self, worker: _Worker) -> None:
        """Hard-kill a worker (timed-out attempt); the slot respawns lazily."""
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - close on a broken pipe
            pass
        worker.process.terminate()
        worker.process.join(5.0)
        if worker.process.is_alive():  # pragma: no cover - terminate resisted
            worker.process.kill()
            worker.process.join(5.0)
        self._workers[worker.index] = None
        self.n_killed += 1
        _LOG.info("hard-killed worker %d (timeout)", worker.index)

    def alive_workers(self) -> int:
        """Worker processes currently running (leak check for tests)."""
        return sum(
            1
            for worker in self._workers
            if worker is not None and worker.process.is_alive()
        )

    def close(self) -> None:
        """Stop every worker and release the shared-memory arena (idempotent)."""
        if self._closed:
            return
        if self._stream is not None:
            self.finish()
        self._closed = True
        for slot, worker in enumerate(self._workers):
            if worker is None:
                continue
            try:
                worker.conn.send(None)  # graceful sentinel
            except (BrokenPipeError, OSError):  # pragma: no cover - worker already gone
                pass
            worker.process.join(5.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(5.0)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass
            self._workers[slot] = None
        if self.arena is not None:
            self.arena.close()

    # -- parent-side fault routing (mirrors FaultTolerantEvaluator) -------------

    def _emit(self, individual, attempt, kind, action, exc, backoff, detail) -> None:
        event = FaultEvent(
            model_id=individual.model_id,
            attempt=attempt,
            kind=kind,
            action=action,
            error=str(exc),
            backoff_seconds=backoff,
            detail=detail,
            # the attempt ran in a killable process: a timeout terminated
            # it for real, so nothing keeps computing in the background
            timeout_leaked=False,
        )
        self.events.append(event)
        individual.fault_events.append(event.to_dict())
        if self.on_fault_event is not None:
            self.on_fault_event(individual, event.to_dict())
        log = _LOG.warning if action == "quarantine" else _LOG.info
        log(
            "model %d attempt %d %s fault -> %s: %s",
            individual.model_id,
            attempt,
            kind,
            action,
            exc,
        )

    def _quarantine(self, individual: Individual) -> None:
        policy = self.policy
        individual.fitness = float(policy.quarantine_fitness)
        individual.flops = int(policy.quarantine_flops)
        individual.result = None
        individual.epoch_seconds = []
        individual.quarantined = True

    def _replay(self, individual: Individual, trace) -> None:
        """Fire the per-epoch observers as the serial path would have."""
        for epoch, fitness, prediction, stats in trace:
            context = {"network": None, "trainer": None, "epoch_stats": stats}
            for observer in list(self.observers):
                observer(individual, epoch, fitness, prediction, context)

    # -- settling ---------------------------------------------------------------

    def _finish(self, job: _Job, worker_index: int, end: float, timings: dict) -> None:
        timings[job.order] = JobTiming(
            job.individual.model_id, worker_index, job.first_start, end
        )
        if self._stream is not None and timings is self._stream.timings:
            self._stream.settled_jobs.append(job)
        if self.on_result is not None:
            self.on_result(
                job.individual, [(e, f, p) for e, f, p, _ in job.trace]
            )

    def _route_fault(
        self, job, worker_index, exc, end, clock, queue, errors, timings
    ) -> int:
        """Apply the policy to a failed attempt; returns 1 when the job settled."""
        individual = job.individual
        individual.eval_attempt = job.attempt
        kind, detail = FaultTolerantEvaluator._classify(exc)
        if self.policy is None:
            errors[job.order] = exc
            self._finish(job, worker_index, end, timings)
            return 1
        retriable = job.attempt < self.policy.max_retries and (
            kind != "numerical" or self.policy.retry_numerical
        )
        if not retriable:
            self._emit(individual, job.attempt, kind, "quarantine", exc, 0.0, detail)
            self._quarantine(individual)
            self._finish(job, worker_index, end, timings)
            return 1
        backoff = self.policy.backoff_for(job.attempt)
        self._emit(individual, job.attempt, kind, "retry", exc, backoff, detail)
        job.attempt += 1
        job.ready_at = clock.elapsed() + backoff
        # front of the queue: finish this candidate before starting new
        # ones, like the serial retry loop
        queue.appendleft(job)
        return 0

    def _settle_result(
        self, worker, result: EvalResult, clock, queue, busy, errors, timings
    ) -> int:
        job = worker.job
        worker.job = None
        end = clock.elapsed()
        busy[worker.index] += end - job.attempt_start
        individual = job.individual
        job.trace = result.trace
        # epochs measured before a fault were observed live in the serial
        # path; replay them before any fault bookkeeping
        self._replay(individual, result.trace)
        if result.error is not None:
            exc = result.exception()
            if result.on_fault_fired and self.on_fault is not None:
                self.on_fault(individual, exc)
            return self._route_fault(
                job, worker.index, exc, end, clock, queue, errors, timings
            )
        individual.eval_attempt = result.attempt
        individual.fitness = result.fitness
        individual.flops = result.flops
        individual.result = result.result
        individual.epoch_seconds = list(result.epoch_seconds)
        individual.arena_enabled = result.arena_enabled
        individual.arena_peak_bytes = result.arena_peak_bytes
        self._finish(job, worker.index, end, timings)
        return 1

    def _settle_timeout(self, worker, clock, queue, busy, errors, timings) -> int:
        job = worker.job
        worker.job = None
        end = clock.elapsed()
        busy[worker.index] += end - job.attempt_start
        job.trace = ()
        self._kill(worker)
        exc = EvaluationTimeout(
            f"evaluation of model {job.individual.model_id} attempt "
            f"{job.attempt} exceeded {self.policy.timeout_seconds}s"
        )
        return self._route_fault(
            job, worker.index, exc, end, clock, queue, errors, timings
        )

    def _settle_death(self, worker, clock, queue, errors, timings, busy) -> int:
        """A worker died without delivering a result (crash at OS level)."""
        job = worker.job
        worker.job = None
        end = clock.elapsed()
        busy[worker.index] += end - job.attempt_start
        job.trace = ()
        self._kill(worker)
        exc = RuntimeError(
            f"worker process died while evaluating model "
            f"{job.individual.model_id} attempt {job.attempt}"
        )
        return self._route_fault(
            job, worker.index, exc, end, clock, queue, errors, timings
        )

    # -- dispatch loop ----------------------------------------------------------

    def _dispatch(self, queue, clock) -> None:
        """Hand ready jobs to free workers, preserving submission order."""
        for slot in range(self.n_workers):
            if not queue:
                return
            if queue[0].ready_at > clock.elapsed():
                return  # head in backoff; later jobs must not overtake it
            worker = self._workers[slot]
            if worker is not None and worker.job is not None:
                continue
            if worker is None or not worker.process.is_alive():
                worker = self._respawn(slot)
            job = queue.popleft()
            start = clock.elapsed()
            if job.first_start is None:
                job.first_start = start
            job.attempt_start = start
            timeout = self.policy.timeout_seconds if self.policy else None
            job.deadline = (
                None if timeout is None else clock.elapsed() + float(timeout)
            )
            worker.job = job
            worker.conn.send(
                EvalTask(
                    model_id=job.individual.model_id,
                    generation=job.individual.generation,
                    attempt=job.attempt,
                    genome=job.individual.genome,
                    budget=job.individual.budget_assigned,
                )
            )

    def _wait_and_settle(self, queue, clock, busy, errors, timings) -> int:
        inflight = [
            w for w in self._workers if w is not None and w.job is not None
        ]
        if not inflight:
            if queue:  # head is backing off; sleep toward its ready time
                time.sleep(min(max(queue[0].ready_at - clock.elapsed(), 0.0), 0.1))
            return 0
        waits = [
            max(w.job.deadline - clock.elapsed(), 0.0)
            for w in inflight
            if w.job.deadline is not None
        ]
        if queue and len(inflight) < self.n_workers:
            waits.append(max(queue[0].ready_at - clock.elapsed(), 0.0))
        timeout = min(waits) if waits else None
        ready = connection.wait([w.conn for w in inflight], timeout)
        settled = 0
        for conn in ready:
            worker = next(w for w in inflight if w.conn is conn)
            try:
                payload = conn.recv()
            except (EOFError, ConnectionResetError, OSError):
                settled += self._settle_death(
                    worker, clock, queue, errors, timings, busy
                )
                continue
            settled += self._settle_result(
                worker, payload, clock, queue, busy, errors, timings
            )
        now = clock.elapsed()
        for worker in inflight:
            if (
                worker.job is not None
                and worker.job.deadline is not None
                and worker.job.deadline <= now
            ):
                settled += self._settle_timeout(
                    worker, clock, queue, busy, errors, timings
                )
        return settled

    def evaluate_generation(self, individuals: list[Individual]) -> list[Individual]:
        """Evaluate one generation on the worker processes; blocks until settled.

        Every job settles first; then one error re-raises as itself and
        several raise an ``ExceptionGroup`` (in submission order).  With a :class:`~repro.scheduler.faults.FaultPolicy`,
        faults retry/quarantine instead of propagating.
        """
        if self._closed:
            raise RuntimeError("ProcessWorkerPool is closed")
        if self._stream is not None:
            raise RuntimeError(
                "a stream is open on this pool; finish() it before batch evaluation"
            )
        if not individuals:
            return individuals
        self._ensure_workers()
        clock = Stopwatch().start()
        queue = deque(_Job(ind, order) for order, ind in enumerate(individuals))
        errors: dict[int, Exception] = {}
        timings: dict[int, JobTiming] = {}
        busy = [0.0] * self.n_workers
        remaining = len(individuals)
        while remaining:
            self._dispatch(queue, clock)
            remaining -= self._wait_and_settle(queue, clock, busy, errors, timings)
        clock.stop()
        self.reports.append(
            PoolReport(
                n_workers=self.n_workers,
                wall_seconds=clock.total,
                n_jobs=len(individuals),
                backend="process",
                jobs=tuple(timings[i] for i in sorted(timings)),
                worker_busy_seconds=tuple(busy),
            )
        )
        errs = [errors[i] for i in sorted(errors)]
        if len(errs) == 1:
            raise errs[0]
        if errs:
            raise ExceptionGroup(
                f"{len(errs)} of {len(individuals)} evaluations failed", errs
            )
        return individuals

    # -- streaming seam (steady-state evolution) --------------------------------

    def submit(self, individual: Individual) -> None:
        """Queue one evaluation on the stream (FIFO dispatch order).

        Opens the stream lazily on first use; dispatches immediately so
        a free worker picks the job up without waiting for the consumer
        to call :meth:`settled`.
        """
        if self._closed:
            raise RuntimeError("ProcessWorkerPool is closed")
        if self._stream is None:
            self._ensure_workers()
            self._stream = _ProcStreamState(self.n_workers)
        state = self._stream
        state.queue.append(_Job(individual, state.order))
        state.order += 1
        self._dispatch(state.queue, state.clock)

    def settled(self) -> Individual:
        """Block for the next completed evaluation, in any order.

        Without a :class:`~repro.scheduler.faults.FaultPolicy`, the
        error of a failed job raises here (in settle order); with a
        policy, faults retry/quarantine exactly as on the batch path.
        """
        state = self._stream
        while state is not None and not state.settled_jobs:
            if state.n_settled >= state.order:
                state = None
                break
            self._dispatch(state.queue, state.clock)
            state.n_settled += self._wait_and_settle(
                state.queue, state.clock, state.busy, state.errors, state.timings
            )
        if state is None:
            raise RuntimeError("no evaluations in flight")
        job = state.settled_jobs.popleft()
        if job.order in state.errors:
            raise state.errors.pop(job.order)
        return job.individual

    def on_commit(self, individual: Individual) -> None:
        """Nothing to do: the pool holds no commit-ordered state."""

    def finish(self) -> PoolReport | None:
        """Drain the stream and record one report covering the whole run."""
        state = self._stream
        if state is None:
            return None
        while state.n_settled < state.order:
            self._dispatch(state.queue, state.clock)
            state.n_settled += self._wait_and_settle(
                state.queue, state.clock, state.busy, state.errors, state.timings
            )
        self._stream = None
        state.clock.stop()
        report = PoolReport(
            n_workers=self.n_workers,
            wall_seconds=state.clock.total,
            n_jobs=state.order,
            backend="process",
            jobs=tuple(state.timings[i] for i in sorted(state.timings)),
            worker_busy_seconds=tuple(state.busy),
        )
        self.reports.append(report)
        return report

    @property
    def total_wall_seconds(self) -> float:
        """Measured wall time across all generations run so far."""
        return sum(r.wall_seconds for r in self.reports)
