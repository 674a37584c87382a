"""Fault-tolerant candidate evaluation: retry, timeout, quarantine.

The paper's workflow implicitly assumes every candidate network trains
to a usable fitness.  Real runs do not cooperate: training crashes,
diverges into NaN (the sanitizer's :class:`~repro.tooling.sanitizer.
NumericalFault`), or hangs.  Without a policy, one bad genome aborts a
multi-generation search.  PEng4NN and Baker et al. treat degenerate
learning curves as a normal outcome to route around; this module gives
the A4NN stack the same stance:

* :class:`FaultPolicy` — per-evaluation timeout, bounded retries with
  exponential backoff and re-seeded RNG children, and quarantine
  objectives for candidates that exhaust their attempts.
* :class:`FaultTolerantEvaluator` — wraps any
  :class:`~repro.nas.evaluation.Evaluator`; a quarantined individual
  receives a penalized (fitness, FLOPs) pair, so NSGA-II environmental
  selection discards it naturally instead of the search dying.
* :class:`FaultInjectionConfig` / :class:`FaultInjectingEvaluator` — a
  deterministic fault-injection harness (crash, hang-past-timeout, and
  NaN-loss modes, seeded from the run's RNG stream) used by the tier-1
  fault suite to prove searches survive injected faults end-to-end.

Every fault, retry, and quarantine decision is emitted as a
:class:`FaultEvent` both onto the individual and through the
``on_event`` callback, which the workflow orchestrator wires into the
lineage tracker so the data commons keeps the full record trail.

Determinism notes: injection decisions are drawn from
``stream.generator("inject", model_id, attempt)``, and retried attempts
re-derive their training RNG children from ``("retry", attempt)`` salts
(attempt 0 uses the historical stream names, so fault-free runs are
byte-identical to pre-fault-policy runs).  Timed-out attempts run the
inner evaluation against a *shadow* individual on a daemon thread;
Python threads cannot be killed, so an abandoned attempt may keep
computing in the background, but its results are discarded and never
touch the real individual.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.nas.population import Individual
from repro.tooling.sanitizer import NumericalFault
from repro.utils.logging import get_logger
from repro.utils.rng import RngStream
from repro.utils.validation import ValidationError

__all__ = [
    "EvaluationTimeout",
    "InjectedFault",
    "FaultEvent",
    "FaultPolicy",
    "FaultTolerantEvaluator",
    "FaultInjectionConfig",
    "FaultInjectingEvaluator",
]

_LOG = get_logger("scheduler.faults")

#: Penalized FLOPs objective for quarantined candidates: large enough to
#: be dominated by every real architecture, finite so NSGA-II's sort and
#: crowding-distance arithmetic stay well-behaved.
QUARANTINE_FLOPS = 10**15


class EvaluationTimeout(RuntimeError):
    """An evaluation attempt exceeded the policy's timeout."""


class InjectedFault(RuntimeError):
    """A deliberately injected evaluation failure (test harness).

    Attributes
    ----------
    mode:
        ``"crash"`` or ``"hang"`` (NaN injection raises
        :class:`~repro.tooling.sanitizer.NumericalFault` instead, so the
        policy's numerical-fault routing is exercised for real).
    """

    def __init__(self, mode: str, message: str) -> None:
        super().__init__(message)
        self.mode = mode

    def __reduce__(self):
        # exceptions pickle via their args by default, which would drop
        # ``mode``; the process backend transports these across workers
        return (type(self), (self.mode, str(self)))


@dataclass(frozen=True)
class FaultEvent:
    """One fault-handling decision for one evaluation attempt.

    ``timeout_leaked`` records whether the timed-out attempt's
    computation is still running somewhere: the serial backend cannot
    kill a Python thread, so its abandoned attempts keep
    computing in the background (leaked) until they finish on their
    own.  Only the process backend hard-kills the worker, so only there
    is a timeout event guaranteed non-leaking (see DESIGN §8).
    """

    model_id: int
    attempt: int
    kind: str  # "crash" | "timeout" | "numerical"
    action: str  # "retry" | "quarantine"
    error: str
    backoff_seconds: float = 0.0
    detail: dict = field(default_factory=dict)
    timeout_leaked: bool = False

    def to_dict(self) -> dict:
        return {
            "model_id": self.model_id,
            "attempt": self.attempt,
            "kind": self.kind,
            "action": self.action,
            "error": self.error,
            "backoff_seconds": self.backoff_seconds,
            "detail": dict(self.detail),
            "timeout_leaked": self.timeout_leaked,
        }


@dataclass(frozen=True)
class FaultPolicy:
    """How the workflow handles failing candidate evaluations.

    Attributes
    ----------
    max_retries:
        Additional attempts after the first failure (0 = quarantine on
        the first fault).  Each retry re-derives the candidate's
        training RNG children with a ``("retry", attempt)`` salt, so a
        crash caused by an unlucky initialization gets a genuinely
        different draw while staying fully reproducible.
    backoff_seconds:
        Base backoff before retry ``n`` sleeps ``backoff_seconds *
        2**n`` (0 disables sleeping; retries are then immediate).
    timeout_seconds:
        Wall-clock budget per evaluation attempt; ``None`` disables the
        timeout.  Timed-out attempts count as faults like any other.
    retry_numerical:
        Whether :class:`~repro.tooling.sanitizer.NumericalFault`s are
        retried.  Off by default: NaN divergence is usually a property
        of the architecture, not the seed, so the candidate goes
        straight to quarantine.
    quarantine_fitness:
        Accuracy (percent) assigned to quarantined candidates.
    quarantine_flops:
        FLOPs objective assigned to quarantined candidates.  The
        default is dominated by every real architecture, so NSGA-II
        discards quarantined genomes on both objectives.
    """

    max_retries: int = 2
    backoff_seconds: float = 0.0
    timeout_seconds: float | None = None
    retry_numerical: bool = False
    quarantine_fitness: float = 0.0
    quarantine_flops: int = QUARANTINE_FLOPS

    def __post_init__(self) -> None:
        if int(self.max_retries) < 0:
            raise ValidationError(f"max_retries must be >= 0, got {self.max_retries}")
        if float(self.backoff_seconds) < 0:
            raise ValidationError(
                f"backoff_seconds must be >= 0, got {self.backoff_seconds}"
            )
        if self.timeout_seconds is not None and float(self.timeout_seconds) <= 0:
            raise ValidationError(
                f"timeout_seconds must be positive or None, got {self.timeout_seconds}"
            )
        if int(self.quarantine_flops) <= 0:
            raise ValidationError(
                f"quarantine_flops must be positive, got {self.quarantine_flops}"
            )

    def backoff_for(self, attempt: int) -> float:
        """Backoff to sleep before re-running after failed ``attempt``."""
        return float(self.backoff_seconds) * (2 ** int(attempt))

    def to_dict(self) -> dict:
        return {
            "max_retries": self.max_retries,
            "backoff_seconds": self.backoff_seconds,
            "timeout_seconds": self.timeout_seconds,
            "retry_numerical": self.retry_numerical,
            "quarantine_fitness": self.quarantine_fitness,
            "quarantine_flops": self.quarantine_flops,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPolicy":
        return cls(**payload)


@dataclass(frozen=True)
class FaultInjectionConfig:
    """Deterministic fault injection for testing the tolerance layer.

    Attributes
    ----------
    rate:
        Probability an evaluation *attempt* is sabotaged, drawn from
        ``stream.generator("inject", model_id, attempt)`` — so the same
        seed always injects the same faults into the same candidates,
        and a retried attempt re-draws (it may succeed).
    modes:
        Fault modes to sample uniformly: ``"crash"`` raises immediately,
        ``"hang"`` sleeps ``hang_seconds`` then raises (tripping the
        policy timeout when one is configured), ``"nan"`` raises a
        sanitizer-shaped :class:`~repro.tooling.sanitizer.NumericalFault`.
    hang_seconds:
        Sleep duration of the hang mode; set it above the policy's
        ``timeout_seconds`` to exercise the timeout path.
    """

    rate: float = 0.0
    modes: tuple = ("crash", "hang", "nan")
    hang_seconds: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 <= float(self.rate) <= 1.0:
            raise ValidationError(f"rate must be in [0, 1], got {self.rate}")
        unknown = set(self.modes) - {"crash", "hang", "nan"}
        if not self.modes or unknown:
            raise ValidationError(
                f"modes must be a non-empty subset of crash/hang/nan, got {self.modes}"
            )
        if float(self.hang_seconds) < 0:
            raise ValidationError(
                f"hang_seconds must be >= 0, got {self.hang_seconds}"
            )

    def to_dict(self) -> dict:
        return {
            "rate": self.rate,
            "modes": list(self.modes),
            "hang_seconds": self.hang_seconds,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultInjectionConfig":
        payload = dict(payload)
        if "modes" in payload:
            payload["modes"] = tuple(payload["modes"])
        return cls(**payload)


class FaultInjectingEvaluator:
    """Evaluator wrapper that deterministically sabotages attempts.

    Injection happens *before* the inner evaluator runs, so a sabotaged
    attempt writes nothing into observers or lineage — exactly like a
    worker process dying before useful work.

    Parameters
    ----------
    evaluator:
        The real evaluation backend.
    config:
        Injection rate, modes, and hang duration.
    rng_stream:
        Stream the injection decisions derive from (use a child of the
        run's root stream so injection is part of the reproducible run).
    """

    def __init__(
        self,
        evaluator,
        config: FaultInjectionConfig,
        rng_stream: RngStream | None = None,
    ) -> None:
        self.evaluator = evaluator
        self.config = config
        self.rng_stream = rng_stream or RngStream(0)
        self.max_epochs = evaluator.max_epochs
        self.n_injected = 0

    def evaluate(self, individual: Individual) -> Individual:
        attempt = getattr(individual, "eval_attempt", 0)
        rng = self.rng_stream.generator("inject", individual.model_id, attempt)
        if rng.random() < self.config.rate:
            mode = self.config.modes[int(rng.integers(len(self.config.modes)))]
            self.n_injected += 1
            _LOG.debug(
                "injecting %s into model %d attempt %d", mode, individual.model_id, attempt
            )
            if mode == "hang":
                time.sleep(self.config.hang_seconds)
                raise InjectedFault(
                    "hang",
                    f"injected hang ({self.config.hang_seconds}s) in model "
                    f"{individual.model_id} attempt {attempt}",
                )
            if mode == "nan":
                raise NumericalFault(
                    "nonfinite-loss",
                    f"injected NaN loss in model {individual.model_id} attempt {attempt}",
                    model=f"model-{individual.model_id}",
                    epoch=1,
                    detail={"injected": True},
                )
            raise InjectedFault(
                "crash",
                f"injected crash in model {individual.model_id} attempt {attempt}",
            )
        return self.evaluator.evaluate(individual)


class FaultTolerantEvaluator:
    """Evaluator wrapper applying a :class:`FaultPolicy` to every candidate.

    Implements the same ``evaluate(individual)`` protocol as the backends
    it wraps, so the search, the FIFO worker pool, and the lineage hooks
    cannot tell it apart from a raw evaluator.  A candidate that exhausts
    its attempts is *quarantined*: it comes back evaluated, carrying the
    policy's penalized objectives and ``individual.quarantined = True``,
    and NSGA-II selection discards it on dominance alone.

    Parameters
    ----------
    evaluator:
        Inner backend (optionally already wrapped in a
        :class:`FaultInjectingEvaluator`).
    policy:
        Retry/timeout/quarantine settings.
    on_event:
        Callback ``on_event(individual, event_dict)`` invoked for every
        fault decision (the orchestrator wires the lineage tracker's
        :meth:`~repro.lineage.tracker.LineageTracker.observe_fault_event`
        here).
    sleep:
        Injection point for the backoff sleep (tests pass a recorder).
    """

    def __init__(
        self,
        evaluator,
        policy: FaultPolicy | None = None,
        *,
        on_event=None,
        sleep=time.sleep,
    ) -> None:
        self.evaluator = evaluator
        self.policy = policy or FaultPolicy()
        self.on_event = on_event
        self._sleep = sleep
        self.max_epochs = evaluator.max_epochs
        self.events: list[FaultEvent] = []
        #: Shadow threads abandoned by timed-out attempts.  Python
        #: threads cannot be killed, so these keep computing in the
        #: background until they finish on their own; the process
        #: backend is the only one that truly reclaims a hung
        #: evaluation (DESIGN §8).
        self.leaked_threads: list[threading.Thread] = []

    # -- attempt execution ------------------------------------------------------

    def _attempt(self, individual: Individual) -> None:
        """Run one evaluation attempt, enforcing the timeout if configured."""
        timeout = self.policy.timeout_seconds
        if timeout is None:
            self.evaluator.evaluate(individual)
            return
        # Run against a shadow so an abandoned (timed-out) thread can
        # never mutate the real individual after quarantine.
        shadow = Individual(
            genome=individual.genome,
            model_id=individual.model_id,
            generation=individual.generation,
            eval_attempt=individual.eval_attempt,
        )
        outcome: dict = {}

        def target() -> None:
            try:
                self.evaluator.evaluate(shadow)
            except BaseException as exc:  # a4nn: noqa(NUM001) -- transported to the caller thread and re-raised there
                outcome["error"] = exc

        thread = threading.Thread(
            target=target,
            name=f"eval-model{individual.model_id}-a{individual.eval_attempt}",
            daemon=True,
        )
        thread.start()
        thread.join(timeout)
        if thread.is_alive():
            self.leaked_threads.append(thread)
            raise EvaluationTimeout(
                f"evaluation of model {individual.model_id} attempt "
                f"{individual.eval_attempt} exceeded {timeout}s"
            )
        if "error" in outcome:
            raise outcome["error"]
        individual.fitness = shadow.fitness
        individual.flops = shadow.flops
        individual.result = shadow.result
        individual.epoch_seconds = shadow.epoch_seconds

    # -- fault routing ----------------------------------------------------------

    @staticmethod
    def _classify(exc: Exception) -> tuple[str, dict]:
        if isinstance(exc, EvaluationTimeout):
            return "timeout", {}
        if isinstance(exc, NumericalFault):
            return "numerical", exc.to_dict()
        return "crash", {"type": type(exc).__name__}

    def n_leaked_threads(self) -> int:
        """Abandoned evaluation threads still running right now."""
        self.leaked_threads = [t for t in self.leaked_threads if t.is_alive()]
        return len(self.leaked_threads)

    def _emit(
        self,
        individual: Individual,
        attempt: int,
        kind: str,
        action: str,
        exc: Exception,
        backoff: float,
        detail: dict,
    ) -> None:
        event = FaultEvent(
            model_id=individual.model_id,
            attempt=attempt,
            kind=kind,
            action=action,
            error=str(exc),
            backoff_seconds=backoff,
            detail=detail,
            # threads cannot be hard-killed: every thread-path timeout
            # leaves its shadow evaluation running in the background
            timeout_leaked=kind == "timeout",
        )
        self.events.append(event)
        individual.fault_events.append(event.to_dict())
        if self.on_event is not None:
            self.on_event(individual, event.to_dict())
        log = _LOG.warning if action == "quarantine" else _LOG.info
        log(
            "model %d attempt %d %s fault -> %s: %s",
            individual.model_id,
            attempt,
            kind,
            action,
            exc,
        )

    def _quarantine(self, individual: Individual) -> Individual:
        policy = self.policy
        individual.fitness = float(policy.quarantine_fitness)
        individual.flops = int(policy.quarantine_flops)
        individual.result = None
        individual.epoch_seconds = []
        individual.quarantined = True
        return individual

    # -- the policy loop --------------------------------------------------------

    def evaluate(self, individual: Individual) -> Individual:
        """Evaluate with bounded retries; quarantine instead of raising."""
        policy = self.policy
        for attempt in range(policy.max_retries + 1):
            individual.eval_attempt = attempt
            try:
                self._attempt(individual)
            except Exception as exc:  # a4nn: noqa(NUM001) -- every fault is classified, logged, and recorded into lineage
                kind, detail = self._classify(exc)
                retriable = attempt < policy.max_retries and (
                    kind != "numerical" or policy.retry_numerical
                )
                if not retriable:
                    self._emit(individual, attempt, kind, "quarantine", exc, 0.0, detail)
                    return self._quarantine(individual)
                backoff = policy.backoff_for(attempt)
                self._emit(individual, attempt, kind, "retry", exc, backoff, detail)
                if backoff > 0:
                    self._sleep(backoff)
            else:
                return individual
        raise AssertionError("unreachable: retry loop is bounded")  # pragma: no cover
