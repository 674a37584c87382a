"""Fault-tolerant evaluation: policy, pool semantics, injection, e2e.

Covers the ISSUE-2 acceptance criteria: a seeded end-to-end search with
faults injected into >=20% of evaluations (crash, hang, and NaN modes)
completes all generations, quarantines the faulty candidates with
penalized fitness recorded in lineage, and reproduces identical results
on re-run with the same seed.
"""

import time

import pytest

from repro.core.engine import EngineConfig
from repro.nas import Individual, random_genome
from repro.nas.nsga2 import environmental_selection, pareto_front_mask
from repro.nas.population import Population
from repro.nas.search import NSGANetConfig
from repro.scheduler.faults import (
    EvaluationTimeout,
    FaultInjectingEvaluator,
    FaultInjectionConfig,
    FaultPolicy,
    FaultTolerantEvaluator,
    InjectedFault,
)
from repro.scheduler.procpool import EvalSpec, ProcessWorkerPool
from repro.tooling.sanitizer import NumericalFault
from repro.utils.rng import RngStream
from repro.utils.validation import ValidationError
from repro.workflow import WorkflowConfig, run_workflow


def make_individuals(rng, n, generation=0, first_id=0):
    return [
        Individual(random_genome(rng), first_id + i, generation) for i in range(n)
    ]


class FlakyEvaluator:
    """Fails with ``error`` until attempt ``succeed_at``, then succeeds."""

    max_epochs = 5

    def __init__(self, succeed_at=1, error=None, delay=0.0):
        self.succeed_at = succeed_at
        self.error = error or RuntimeError("boom")
        self.delay = delay
        self.calls = []

    def evaluate(self, individual):
        attempt = individual.eval_attempt
        self.calls.append((individual.model_id, attempt))
        if self.delay:
            time.sleep(self.delay)
        if attempt < self.succeed_at:
            raise self.error
        individual.fitness = 80.0
        individual.flops = 1000
        return individual


class TestFaultPolicy:
    def test_defaults_and_roundtrip(self):
        policy = FaultPolicy(max_retries=3, backoff_seconds=0.5, timeout_seconds=2.0)
        assert FaultPolicy.from_dict(policy.to_dict()) == policy

    def test_validation(self):
        with pytest.raises(ValidationError):
            FaultPolicy(max_retries=-1)
        with pytest.raises(ValidationError):
            FaultPolicy(timeout_seconds=0.0)
        with pytest.raises(ValidationError):
            FaultPolicy(backoff_seconds=-1.0)

    def test_exponential_backoff(self):
        policy = FaultPolicy(backoff_seconds=0.5)
        assert [policy.backoff_for(a) for a in (0, 1, 2)] == [0.5, 1.0, 2.0]

    def test_injection_config_validation(self):
        with pytest.raises(ValidationError):
            FaultInjectionConfig(rate=1.5)
        with pytest.raises(ValidationError):
            FaultInjectionConfig(rate=0.1, modes=("crash", "explode"))
        cfg = FaultInjectionConfig(rate=0.2, modes=("crash",))
        assert FaultInjectionConfig.from_dict(cfg.to_dict()) == cfg


class TestFaultTolerantEvaluator:
    def test_crash_then_succeed_on_retry(self, rng):
        inner = FlakyEvaluator(succeed_at=1)
        sleeps = []
        wrapped = FaultTolerantEvaluator(
            inner,
            FaultPolicy(max_retries=2, backoff_seconds=0.25),
            sleep=sleeps.append,
        )
        [ind] = make_individuals(rng, 1)
        wrapped.evaluate(ind)
        assert ind.fitness == 80.0 and not ind.quarantined
        # attempt 0 failed, attempt 1 succeeded, with one backoff between
        assert inner.calls == [(0, 0), (0, 1)]
        assert sleeps == [0.25]
        assert [e["action"] for e in ind.fault_events] == ["retry"]
        assert ind.fault_events[0]["kind"] == "crash"

    def test_exhausted_retries_quarantine(self, rng):
        inner = FlakyEvaluator(succeed_at=99)
        policy = FaultPolicy(max_retries=2, quarantine_fitness=0.0)
        wrapped = FaultTolerantEvaluator(inner, policy)
        [ind] = make_individuals(rng, 1)
        wrapped.evaluate(ind)
        assert ind.quarantined and ind.evaluated
        assert ind.fitness == policy.quarantine_fitness
        assert ind.flops == policy.quarantine_flops
        assert ind.result is None
        assert [e["action"] for e in ind.fault_events] == [
            "retry",
            "retry",
            "quarantine",
        ]

    def test_timeout_hits_hanging_evaluation(self, rng):
        inner = FlakyEvaluator(succeed_at=0, delay=0.5)
        wrapped = FaultTolerantEvaluator(
            inner, FaultPolicy(max_retries=0, timeout_seconds=0.05)
        )
        [ind] = make_individuals(rng, 1)
        wrapped.evaluate(ind)
        assert ind.quarantined
        assert ind.fault_events[0]["kind"] == "timeout"
        # the abandoned thread finishes against a shadow, never the real
        # individual: quarantined objectives must survive it
        time.sleep(0.6)
        assert ind.fitness == wrapped.policy.quarantine_fitness

    def test_numerical_fault_skips_retries_by_default(self, rng):
        fault = NumericalFault("nonfinite-loss", "NaN loss", epoch=3)
        inner = FlakyEvaluator(succeed_at=99, error=fault)
        wrapped = FaultTolerantEvaluator(inner, FaultPolicy(max_retries=3))
        [ind] = make_individuals(rng, 1)
        wrapped.evaluate(ind)
        assert ind.quarantined
        assert len(inner.calls) == 1  # no retries burned on NaN
        event = ind.fault_events[0]
        assert event["kind"] == "numerical" and event["action"] == "quarantine"
        assert event["detail"]["kind"] == "nonfinite-loss"

    def test_numerical_fault_retried_when_opted_in(self, rng):
        fault = NumericalFault("nonfinite-loss", "NaN loss")
        inner = FlakyEvaluator(succeed_at=1, error=fault)
        wrapped = FaultTolerantEvaluator(
            inner, FaultPolicy(max_retries=2, retry_numerical=True)
        )
        [ind] = make_individuals(rng, 1)
        wrapped.evaluate(ind)
        assert not ind.quarantined and ind.fitness == 80.0

    def test_on_event_callback_receives_every_decision(self, rng):
        seen = []
        inner = FlakyEvaluator(succeed_at=99)
        wrapped = FaultTolerantEvaluator(
            inner,
            FaultPolicy(max_retries=1),
            on_event=lambda ind, event: seen.append((ind.model_id, event["action"])),
        )
        [ind] = make_individuals(rng, 1)
        wrapped.evaluate(ind)
        assert seen == [(0, "retry"), (0, "quarantine")]

    def test_quarantined_dominated_in_selection(self, rng):
        individuals = make_individuals(rng, 4)
        for i, ind in enumerate(individuals[:3]):
            ind.fitness = 60.0 + i
            ind.flops = 10_000 + i
        policy = FaultPolicy()
        FaultTolerantEvaluator(FlakyEvaluator(succeed_at=99), FaultPolicy(max_retries=0)).evaluate(
            individuals[3]
        )
        population = Population(individuals)
        mask = pareto_front_mask(population.objective_array())
        assert not mask[3]  # quarantined candidate is never pareto-optimal
        survivors = environmental_selection(population.objective_array(), 3)
        assert 3 not in set(int(i) for i in survivors)
        assert policy.quarantine_flops > 10**12


class TestFaultInjection:
    def test_injection_is_deterministic(self, rng):
        config = FaultInjectionConfig(rate=0.5, modes=("crash",), hang_seconds=0.0)

        def outcomes():
            inner = FlakyEvaluator(succeed_at=0)
            injector = FaultInjectingEvaluator(inner, config, RngStream(3))
            results = []
            for ind in make_individuals(rng, 10):
                try:
                    injector.evaluate(ind)
                    results.append("ok")
                except InjectedFault as exc:
                    results.append(exc.mode)
            return results

        first, second = outcomes(), outcomes()
        assert first == second
        assert "crash" in first and "ok" in first

    def test_retry_attempt_redraws_injection(self, rng):
        # rate 1.0 on attempt 0 only: we check the attempt number feeds
        # the draw by observing that different attempts use different
        # streams (a retried attempt can escape a sabotaged first draw
        # only if its decision is independent)
        config = FaultInjectionConfig(rate=0.5, modes=("crash",))
        inner = FlakyEvaluator(succeed_at=0)
        injector = FaultInjectingEvaluator(inner, config, RngStream(3))
        wrapped = FaultTolerantEvaluator(injector, FaultPolicy(max_retries=4))
        individuals = make_individuals(rng, 10)
        for ind in individuals:
            wrapped.evaluate(ind)
        assert all(ind.evaluated for ind in individuals)
        # with 4 retries at 50% rate, some candidate must have recovered
        retried = [ind for ind in individuals if ind.fault_events]
        recovered = [ind for ind in retried if not ind.quarantined]
        assert retried and recovered

    def test_nan_mode_raises_numerical_fault(self, rng):
        config = FaultInjectionConfig(rate=1.0, modes=("nan",))
        injector = FaultInjectingEvaluator(
            FlakyEvaluator(succeed_at=0), config, RngStream(0)
        )
        [ind] = make_individuals(rng, 1)
        with pytest.raises(NumericalFault):
            injector.evaluate(ind)

    def test_hang_mode_trips_timeout(self, rng):
        config = FaultInjectionConfig(rate=1.0, modes=("hang",), hang_seconds=0.5)
        injector = FaultInjectingEvaluator(
            FlakyEvaluator(succeed_at=0), config, RngStream(0)
        )
        wrapped = FaultTolerantEvaluator(
            injector, FaultPolicy(max_retries=0, timeout_seconds=0.05)
        )
        [ind] = make_individuals(rng, 1)
        start = time.monotonic()
        wrapped.evaluate(ind)
        assert time.monotonic() - start < 0.4  # did not wait out the hang
        assert ind.quarantined and ind.fault_events[0]["kind"] == "timeout"


class NthFails:
    """Fails every attempt of the listed model ids."""

    max_epochs = 1

    def __init__(self, failing_ids):
        self.failing_ids = set(failing_ids)

    def evaluate(self, individual):
        if individual.model_id in self.failing_ids:
            raise RuntimeError(f"boom {individual.model_id}")
        individual.fitness = 50.0
        individual.flops = 1
        return individual


# module-level factories: spawned pool workers rebuild the evaluator
def fails_first():
    return NthFails({0})


def fails_pair():
    return NthFails({1, 3})


def fails_middle():
    return NthFails({2})


class TestPoolFailureSemantics:
    """The process pool settles a generation before failing it."""

    @pytest.fixture
    def pool_for(self):
        pools = []

        def build(factory, n_workers, **kwargs):
            pools.append(ProcessWorkerPool(EvalSpec(factory=factory), n_workers, **kwargs))
            return pools[-1]

        yield build
        for pool in pools:
            pool.close()

    @pytest.mark.parametrize("n_workers", [1, 3])
    def test_generation_settles_before_raising(self, rng, n_workers, pool_for):
        pool = pool_for(fails_first, n_workers)
        individuals = make_individuals(rng, 5)
        with pytest.raises(RuntimeError, match="boom 0"):
            pool.evaluate_generation(individuals)
        # jobs after the failure still ran, at any worker count
        assert all(ind.evaluated for ind in individuals[1:])
        assert pool.reports[-1].n_jobs == 5

    @pytest.mark.parametrize("n_workers", [1, 3])
    def test_multiple_errors_raise_exception_group(self, rng, n_workers, pool_for):
        pool = pool_for(fails_pair, n_workers)
        individuals = make_individuals(rng, 5)
        with pytest.raises(ExceptionGroup) as excinfo:
            pool.evaluate_generation(individuals)
        messages = sorted(str(e) for e in excinfo.value.exceptions)
        assert messages == ["boom 1", "boom 3"]

    @pytest.mark.parametrize("n_workers", [1, 3])
    def test_policy_quarantines_instead_of_raising(self, rng, n_workers, pool_for):
        pool = pool_for(fails_middle, n_workers, policy=FaultPolicy(max_retries=1))
        individuals = make_individuals(rng, 5)
        pool.evaluate_generation(individuals)  # does not raise
        assert individuals[2].quarantined
        assert all(ind.evaluated for ind in individuals)


def faulty_workflow_config(seed=11, rate=0.4):
    """A small surrogate run with all three injection modes active."""
    return WorkflowConfig(
        nas=NSGANetConfig(
            population_size=5,
            offspring_per_generation=5,
            generations=4,
            max_epochs=10,
        ),
        engine=EngineConfig(e_pred=10),
        seed=seed,
        faults=FaultPolicy(max_retries=1, timeout_seconds=0.5),
        fault_injection=FaultInjectionConfig(
            rate=rate, modes=("crash", "hang", "nan"), hang_seconds=0.75
        ),
    )


class TestEndToEnd:
    """The ISSUE-2 acceptance run (shared across assertions via fixture)."""

    @pytest.fixture(scope="class")
    def faulty_run(self):
        return run_workflow(faulty_workflow_config())

    def test_search_completes_all_generations(self, faulty_run):
        config = faulty_workflow_config()
        assert len(faulty_run.search.archive) == config.nas.total_evaluations
        assert len(faulty_run.search.generations) == config.nas.generations

    def test_faults_were_actually_injected_and_quarantined(self, faulty_run):
        records = faulty_run.tracker.all_records()
        faulted = [r for r in records if r.fault_events]
        assert len(faulted) >= 0.2 * len(records)  # >=20% of evaluations hit
        kinds = {e["kind"] for r in faulted for e in r.fault_events}
        assert {"crash", "timeout", "numerical"} <= kinds
        quarantined = [r for r in records if r.quarantined]
        assert quarantined
        assert faulty_run.search.n_quarantined == len(quarantined)

    def test_quarantine_recorded_with_penalized_fitness(self, faulty_run):
        policy = faulty_workflow_config().faults
        for record in faulty_run.tracker.all_records():
            if record.quarantined:
                assert record.fitness == policy.quarantine_fitness
                assert record.flops == policy.quarantine_flops
                assert record.fault_events[-1]["action"] == "quarantine"

    def test_epochs_saved_metric_stays_honest(self, faulty_run):
        search = faulty_run.search
        completed = [m for m in search.archive if m.result]
        assert search.epoch_budget == 10 * len(completed)
        assert 0 <= search.total_epochs_saved <= search.epoch_budget
        assert 0.0 <= faulty_run.epochs_saved_fraction() <= 1.0
        per_generation = sum(g.epochs_saved for g in search.generations)
        assert per_generation == search.total_epochs_saved

    def test_rerun_is_bit_identical(self, faulty_run):
        def trail(result):
            return [
                (
                    r.model_id,
                    r.generation,
                    r.fitness,
                    r.flops,
                    r.epochs_trained,
                    r.quarantined,
                    [
                        (e["attempt"], e["kind"], e["action"])
                        for e in r.fault_events
                    ],
                    r.fitness_history,
                )
                for r in result.tracker.all_records()
            ]

        rerun = run_workflow(faulty_workflow_config())
        assert trail(rerun) == trail(faulty_run)

    def test_config_roundtrips_through_json(self):
        config = faulty_workflow_config()
        restored = WorkflowConfig.from_dict(config.to_dict())
        assert restored.faults == config.faults
        assert restored.fault_injection == config.fault_injection

    def test_injection_without_policy_rejected(self):
        with pytest.raises(ValidationError, match="fault policy"):
            WorkflowConfig(
                fault_injection=FaultInjectionConfig(rate=0.2),
            )


class TestBudgetAudit:
    """ISSUE-2 satellite: the epochs-saved budget vs the archive."""

    def test_archive_counts_every_evaluated_model_without_faults(self):
        config = WorkflowConfig(
            nas=NSGANetConfig(
                population_size=4,
                offspring_per_generation=4,
                generations=3,
                max_epochs=10,
            ),
            engine=EngineConfig(e_pred=10),
            seed=5,
        )
        result = run_workflow(config)
        assert len(result.search.archive) == config.nas.total_evaluations
        assert result.search.epoch_budget == 10 * config.nas.total_evaluations
        assert 0 <= result.search.total_epochs_saved <= result.search.epoch_budget

    def test_resumed_run_budget_matches_uninterrupted(self, tmp_path):
        from repro.lineage.commons import DataCommons
        from repro.workflow.resume import rebuild_search_state

        config = faulty_workflow_config(seed=23)
        commons = DataCommons(tmp_path / "commons")
        full = run_workflow(config, commons_path=commons.root)
        records = commons.load_models(full.run_id)
        state = rebuild_search_state(
            records,
            population_size=config.nas.population_size,
            offspring_per_generation=config.nas.offspring_per_generation,
        )
        # every evaluated model (quarantined included) is in the rebuilt archive
        assert len(state.archive) == len(full.search.archive)
        rebuilt_saved = sum(g.epochs_saved for g in state.generation_stats)
        assert rebuilt_saved == full.search.total_epochs_saved
        rebuilt_quarantined = sum(
            1 for m in state.archive if m.quarantined
        )
        assert rebuilt_quarantined == full.search.n_quarantined
