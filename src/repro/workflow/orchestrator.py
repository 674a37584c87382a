"""The A4NN workflow orchestrator.

Ties together the components of the paper's Fig. 1: it instantiates the
prediction engine from user settings, plugs it into the NAS through the
Algorithm-1 evaluator, routes per-epoch data to the shared history store
and the lineage tracker, publishes record trails to the data commons,
and hands the recorded workload to the resource manager for wall-time
accounting on each requested GPU-pool size.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.core.engine import PredictionEngine
from repro.lineage.commons import DataCommons
from repro.lineage.records import RunRecord
from repro.lineage.tracker import LineageTracker
from repro.nas.evalcache import EvaluationCache, MemoizingEvaluator, MemoizingStream
from repro.nas.evaluation import TrainingEvaluator
from repro.nas.search import InlineStream, NSGANet, SearchResult
from repro.nas.surrogate import BudgetAllocator, SurrogateEvaluator
from repro.scheduler.faults import FaultInjectingEvaluator, FaultTolerantEvaluator
from repro.scheduler.procpool import EvalSpec, ProcessWorkerPool
from repro.scheduler.simulator import WallTimeReport, simulate_walltime
from repro.utils.logging import get_logger
from repro.utils.rng import RngStream
from repro.workflow.history import HistoryStore
from repro.workflow.interfaces import WorkflowConfig
from repro.xfel.dataset import load_or_generate
from repro.xfel.shm import share_dataset

__all__ = ["WorkflowResult", "A4NNOrchestrator"]

_LOG = get_logger("workflow.orchestrator")


@dataclass
class WorkflowResult:
    """Everything one orchestrated run produced.

    Attributes
    ----------
    config:
        The settings the run used.
    search:
        The NAS outcome (archive, survivors, per-generation stats).
    tracker:
        Lineage records for every evaluated model.
    walltime:
        Wall-time report per simulated pool size, keyed by GPU count.
    run_id:
        Commons identifier (set when published).
    """

    config: WorkflowConfig
    search: SearchResult
    tracker: LineageTracker
    walltime: dict = field(default_factory=dict)
    run_id: str = ""

    @property
    def total_epochs_trained(self) -> int:
        return self.search.total_epochs_trained

    @property
    def total_epochs_saved(self) -> int:
        return self.search.total_epochs_saved

    @property
    def total_epochs_skipped(self) -> int:
        """Epochs the surrogate allocator skipped by reducing budgets."""
        return self.search.total_epochs_skipped

    def epochs_saved_fraction(self) -> float:
        """Fraction of the 25-epoch budget the engine saved.

        The budget covers completed evaluations only (quarantined
        candidates never trained, so their budget was never at stake);
        see :attr:`~repro.nas.search.SearchResult.epoch_budget`.
        """
        budget = self.search.epoch_budget
        return self.total_epochs_saved / budget if budget else 0.0


class A4NNOrchestrator:
    """Build and run the composed workflow from one configuration.

    Parameters
    ----------
    config:
        The user-facing workflow settings (§2.6).
    commons:
        Optional data commons to publish record trails into.
    checkpoint_dir:
        Directory for per-epoch model state (real mode with
        ``config.checkpoint_models``).
    """

    def __init__(
        self,
        config: WorkflowConfig,
        *,
        commons: DataCommons | None = None,
        checkpoint_dir: str | Path | None = None,
    ) -> None:
        self.config = config
        self.commons = commons
        self.checkpoint_dir = checkpoint_dir
        self.history_store = HistoryStore()
        self.memoizer: MemoizingEvaluator | None = None
        self.allocator: BudgetAllocator | None = None
        self.pool = None  # ProcessWorkerPool of the process backend
        self.pool_reports: list = []  # PoolReports kept after close_pool()
        self._tracker: LineageTracker | None = None
        self._base = None  # innermost evaluation backend
        self._dataset = None  # loaded dataset (real mode)

    # -- assembly ---------------------------------------------------------------

    def build_engine(self) -> PredictionEngine | None:
        """The prediction engine, or ``None`` for standalone baselines."""
        if self.config.engine is None:
            return None
        return PredictionEngine(self.config.engine)

    def _history_observer(self, individual, epoch, fitness, prediction, context) -> None:
        self.history_store.for_model(individual.model_id).record_epoch(fitness, prediction)

    def build_evaluator(self, tracker: LineageTracker, engine: PredictionEngine | None):
        """The evaluation backend for the configured mode, with observers wired.

        When the config carries a :class:`~repro.scheduler.faults.
        FaultPolicy`, the backend is wrapped so evaluation faults retry
        and then quarantine instead of aborting the search; configured
        fault injection (test harness) wraps *inside* the policy so
        injected failures are routed like real ones.
        """
        observers = [self._history_observer, tracker.observe_epoch]
        stream = RngStream(self.config.seed)
        self._tracker = tracker
        if self.config.mode == "real":
            dataset = load_or_generate(self.config.dataset).astype(self.config.dtype)
            self._dataset = dataset
            base = TrainingEvaluator(
                dataset,
                engine,
                max_epochs=self.config.nas.max_epochs,
                rng_stream=stream.child("eval"),
                observers=observers,
                sanitize=self.config.sanitize,
                sanitize_writes=self.config.sanitize_writes,
                on_fault=tracker.observe_fault,
                rng_keying=self.config.rng_keying,
                dtype=self.config.dtype,
                dataset_key=self.config.dataset.cache_key(),
            )
        else:
            base = SurrogateEvaluator(
                self.config.intensity,
                engine,
                max_epochs=self.config.nas.max_epochs,
                rng_stream=stream.child("eval"),
                observers=observers,
                rng_keying=self.config.rng_keying,
            )
        self._base = base
        evaluator = base
        injection = self.config.fault_injection
        injection_active = injection is not None and injection.rate > 0
        if injection_active:
            evaluator = FaultInjectingEvaluator(
                evaluator, injection, rng_stream=stream.child("inject")
            )
        if self.config.faults is not None:
            evaluator = FaultTolerantEvaluator(
                evaluator,
                self.config.faults,
                on_event=tracker.observe_fault_event,
            )
        # memoization wraps outermost so only post-retry, non-quarantined
        # outcomes are cached; with fault injection active the injection
        # schedule (keyed per evaluation) must stay undisturbed, so the
        # cache is bypassed
        self.memoizer = None
        if self.config.eval_cache and not injection_active:
            self.memoizer = MemoizingEvaluator(evaluator, base, cache=EvaluationCache())
            evaluator = self.memoizer
        # the surrogate pre-ranking allocator scores candidates at breed
        # time against the base evaluator's FLOP counter; its predictor
        # state lives here in the parent only (workers receive budgets
        # via EvalTask)
        self.allocator = None
        if self.config.surrogate is not None:
            self.allocator = BudgetAllocator(
                self.config.surrogate,
                max_epochs=self.config.nas.max_epochs,
                flops_fn=base.flops_for,
            )
        return evaluator

    def _on_individual(self, individual) -> None:
        """Commit hook: lineage first, then the surrogate refit."""
        self._tracker.observe_individual(individual)
        if self.allocator is not None:
            self.allocator.observe(individual)

    def _build_process_pool(self) -> ProcessWorkerPool:
        """Assemble the spawned-worker backend from the built evaluator chain.

        The dataset (real mode) is published into shared memory first so
        workers attach zero-copy; the pool owns the arena and unlinks it
        in :meth:`close_pool`.  Requires :meth:`build_evaluator` to have
        run (it wires the tracker and the live observers list the pool
        replays worker traces through).
        """
        if self._base is None or self._tracker is None:
            raise RuntimeError("build_evaluator must run before the process pool")
        config = self.config
        spec_kwargs = dict(
            mode=config.mode,
            seed=config.seed,
            max_epochs=config.nas.max_epochs,
            engine=config.engine,
            intensity_label=config.intensity.label,
            sanitize=config.sanitize,
            sanitize_writes=config.sanitize_writes,
            rng_keying=config.rng_keying,
            dtype=config.dtype,
            injection=config.fault_injection,
        )
        arena = None
        if config.mode == "real":
            dataset_spec, arena = share_dataset(self._dataset)
            spec_kwargs.update(
                dataset=dataset_spec, dataset_key=config.dataset.cache_key()
            )
        return ProcessWorkerPool(
            EvalSpec(**spec_kwargs),
            n_workers=config.n_workers,
            policy=config.faults,
            on_fault_event=self._tracker.observe_fault_event,
            observers=self._base.observers,
            on_fault=self._tracker.observe_fault,
            arena=arena,
        )

    def build_executor(self, evaluator):
        """Generation executor matching the configured backend/cache setup.

        With the cache active the memoizer partitions each generation
        deterministically (hits/leaders/followers) before dispatching,
        so serial and pooled execution produce identical record trails.
        Returns ``None`` for the serial backend without the cache: the
        search's own loop evaluates through ``evaluator``.  The process
        pool built here is kept on ``self.pool`` so callers can read its
        reports and so :meth:`close_pool` can release it.
        """
        if self.config.backend == "process":
            self.pool = self._build_process_pool()
            if self.memoizer is None:
                return self.pool.evaluate_generation
            self.pool.on_result = self.memoizer.register_remote
            self.memoizer.executor = self.pool.evaluate_generation
        if self.memoizer is not None:
            return self.memoizer.evaluate_generation
        return None

    def build_stream(self, evaluator):
        """Streaming evaluation backend for steady-state evolution.

        The returned object satisfies the :class:`~repro.nas.search.
        EvalStream` seam: the process pool, or for the serial backend an
        :class:`~repro.nas.search.InlineStream` that evaluates on the
        search's thread.  With the cache active the inner stream runs the
        chain *below* the memoizer and a :class:`~repro.nas.evalcache.
        MemoizingStream` resolves hits at submit time and primes at
        commit time — both logical-clock events, so cache behaviour is
        identical on both backends.  The pool is kept on ``self.pool``
        so its report survives :meth:`close_pool`.
        """
        if self.config.backend == "process":
            # no on_result hook here: in steady mode the MemoizingStream
            # primes the cache at commit, in logical-clock order
            self.pool = self._build_process_pool()
            inner = self.pool
        else:
            inner = InlineStream(
                evaluator if self.memoizer is None else self.memoizer.evaluator
            )
        if self.memoizer is not None:
            return MemoizingStream(self.memoizer, inner)
        return inner

    def effective_nas(self):
        """The NAS settings the run actually uses.

        Steady mode with ``steady_lag=None`` pins the lag to the worker
        count — the largest window the pool can keep busy.  Replays
        resolve the same lag from the stored config (it records the
        original ``n_workers``; ``WorkflowConfig.from_dict`` pins the lag
        of legacy thread-backend documents), so the resolution is
        reproducible.
        """
        nas = self.config.nas
        if nas.evolution == "steady" and nas.steady_lag is None:
            nas = replace(nas, steady_lag=self.config.n_workers)
        return nas

    def close_pool(self) -> None:
        """Release the process pool (idempotent; no-op on the serial backend).

        For the process backend this stops every worker and unlinks the
        shared-memory dataset, so it must run even when the search
        raises — :meth:`run` calls it from a ``finally`` block.
        """
        if self.pool is not None:
            # close first (it flushes an interrupted stream's report),
            # then keep the reports so callers (the scaling bench, the
            # pool-timeline renderers) can read them after the run
            self.pool.close()
            self.pool_reports = list(self.pool.reports)
            self.pool = None

    # -- execution ----------------------------------------------------------------

    def run(self) -> WorkflowResult:
        """Execute search → lineage → wall-time accounting → publish."""
        config = self.config
        engine = self.build_engine()
        tracker = LineageTracker(
            engine_parameters=engine.describe() if engine else None,
            checkpoint_dir=self.checkpoint_dir if config.checkpoint_models else None,
            training_parameters={
                "mode": config.mode,
                "intensity": config.intensity.label,
                "fitness_measurement": "validation_accuracy_percent",
                "max_epochs": config.nas.max_epochs,
            },
        )
        evaluator = self.build_evaluator(tracker, engine)
        nas = self.effective_nas()
        steady = nas.evolution == "steady"
        search = NSGANet(
            nas,
            evaluator,
            rng_stream=RngStream(config.seed).child("search"),
            on_individual=self._on_individual,
            on_candidate=self.allocator.score if self.allocator else None,
            executor=None if steady else self.build_executor(evaluator),
            stream=self.build_stream(evaluator) if steady else None,
        )
        _LOG.info(
            "starting %s run: mode=%s intensity=%s seed=%d",
            "A4NN" if engine else "standalone NAS",
            config.mode,
            config.intensity.label,
            config.seed,
        )
        try:
            result = search.run()
        finally:
            self.close_pool()

        walltime: dict[int, WallTimeReport] = {
            n: simulate_walltime(result, n) for n in config.n_gpus
        }

        workflow_result = WorkflowResult(
            config=config,
            search=result,
            tracker=tracker,
            walltime=walltime,
            run_id=config.resolved_run_id(),
        )
        if self.commons is not None:
            self.publish(workflow_result)
        return workflow_result

    def publish(self, result: WorkflowResult) -> None:
        """Push the run's record trails into the data commons."""
        if self.commons is None:
            raise RuntimeError("orchestrator was built without a data commons")
        run = RunRecord(
            run_id=result.run_id,
            intensity=self.config.intensity.label,
            nas_parameters=self.config.nas.to_dict(),
            engine_parameters=self.config.engine.to_dict() if self.config.engine else None,
            notes=f"mode={self.config.mode}, seed={self.config.seed}",
            workflow_config=self.config.to_dict(),
            generation_stats=[
                {
                    "generation": g.generation,
                    "n_evaluated": g.n_evaluated,
                    "best_fitness": g.best_fitness,
                    "mean_fitness": g.mean_fitness,
                    "epochs_trained": g.epochs_trained,
                    "epochs_saved": g.epochs_saved,
                    "epochs_skipped": g.epochs_skipped,
                    "pareto_size": g.pareto_size,
                    "n_quarantined": g.n_quarantined,
                    "n_cache_hits": g.n_cache_hits,
                }
                for g in result.search.generations
            ],
        )
        self.commons.publish_run(run, result.tracker)
        _LOG.info("published run %s to commons", result.run_id)
