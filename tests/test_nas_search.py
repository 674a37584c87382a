"""Tests for population handling, evaluators, and the search driver."""

import numpy as np
import pytest

from repro.core.engine import EngineConfig, PredictionEngine
from repro.nas import (
    Individual,
    LearningCurveModel,
    NSGANet,
    NSGANetConfig,
    Population,
    REGIMES,
    SurrogateEvaluator,
    TrainingEvaluator,
    random_genome,
    sample_curve,
)
from repro.nas.decoder import DecoderConfig
from repro.scheduler.costmodel import EpochCostModel
from repro.utils.rng import RngStream, derive_rng
from repro.xfel import BeamIntensity


class TestIndividualPopulation:
    def test_unevaluated_objectives_raise(self, rng):
        individual = Individual(random_genome(rng), model_id=0, generation=0)
        assert not individual.evaluated
        with pytest.raises(ValueError):
            individual.objectives()

    def test_objectives_minimization_form(self, rng):
        individual = Individual(
            random_genome(rng), model_id=1, generation=0, fitness=95.0, flops=1000
        )
        assert individual.objectives() == (-95.0, 1000.0)

    def test_population_objective_array(self, rng):
        members = [
            Individual(random_genome(rng), i, 0, fitness=90.0 + i, flops=100 * (i + 1))
            for i in range(3)
        ]
        pop = Population(members)
        arr = pop.objective_array()
        assert arr.shape == (3, 2)
        assert pop.best_fitness() == 92.0

    def test_population_subset_shares_objects(self, rng):
        members = [
            Individual(random_genome(rng), i, 0, fitness=50.0, flops=1) for i in range(4)
        ]
        pop = Population(members)
        sub = pop.subset([2, 0])
        assert sub[0] is members[2] and sub[1] is members[0]

    def test_to_dict_serializable(self, rng):
        import json

        individual = Individual(
            random_genome(rng), 7, 2, fitness=88.0, flops=123, epoch_seconds=[1.0, 2.0]
        )
        json.dumps(individual.to_dict())


class TestSurrogateEvaluator:
    def _evaluator(self, engine=True, intensity=BeamIntensity.MEDIUM):
        return SurrogateEvaluator(
            intensity,
            PredictionEngine() if engine else None,
            rng_stream=RngStream(1),
            cost_model=EpochCostModel(jitter=0.0),
        )

    def test_fills_individual(self, rng):
        evaluator = self._evaluator()
        individual = Individual(random_genome(rng), 0, 0)
        evaluator.evaluate(individual)
        assert individual.evaluated
        assert 0.0 <= individual.fitness <= 100.0
        assert individual.flops > 0
        assert len(individual.epoch_seconds) == individual.result.epochs_trained

    def test_deterministic_per_model_id(self, rng):
        genome = random_genome(rng)
        results = []
        for _ in range(2):
            evaluator = self._evaluator()
            individual = Individual(genome, 5, 0)
            evaluator.evaluate(individual)
            results.append((individual.fitness, tuple(individual.epoch_seconds)))
        assert results[0] == results[1]

    def test_standalone_trains_full_budget(self, rng):
        evaluator = self._evaluator(engine=False)
        individual = Individual(random_genome(rng), 0, 0)
        evaluator.evaluate(individual)
        assert individual.result.epochs_trained == evaluator.max_epochs

    def test_flops_cached_per_genome(self, rng):
        evaluator = self._evaluator()
        genome = random_genome(rng)
        a = Individual(genome, 0, 0)
        b = Individual(genome, 1, 0)
        evaluator.evaluate(a)
        evaluator.evaluate(b)
        assert a.flops == b.flops
        assert len(evaluator._flops_cache) == 1

    def test_observer_called_per_epoch(self, rng):
        calls = []
        evaluator = SurrogateEvaluator(
            BeamIntensity.MEDIUM,
            PredictionEngine(),
            rng_stream=RngStream(1),
            observers=[lambda ind, e, f, p, ctx: calls.append(e)],
        )
        individual = Individual(random_genome(rng), 0, 0)
        evaluator.evaluate(individual)
        assert calls == list(range(1, individual.result.epochs_trained + 1))


class TestSampleCurve:
    def test_curve_in_bounds(self, rng):
        for intensity in BeamIntensity:
            curve = sample_curve(random_genome(rng), REGIMES[intensity], rng, 25)
            assert curve.shape == (25,)
            assert np.all((curve >= 0) & (curve <= 100))

    def test_capacity_raises_asymptote(self):
        from repro.nas.genome import Genome

        sparse = Genome.from_bits((0,) * 21, (4, 4, 4))
        dense = Genome.from_bits((1,) * 21, (4, 4, 4))
        regime = REGIMES[BeamIntensity.MEDIUM]
        finals_sparse = [
            sample_curve(sparse, regime, derive_rng(i, "s"), 25)[-1] for i in range(40)
        ]
        finals_dense = [
            sample_curve(dense, regime, derive_rng(i, "d"), 25)[-1] for i in range(40)
        ]
        assert np.mean(finals_dense) > np.mean(finals_sparse)

    def test_learning_curve_model_replay(self):
        curve = np.array([50.0, 60.0, 70.0])
        model = LearningCurveModel(curve)
        with pytest.raises(RuntimeError):
            model.validate()
        model.train()
        assert model.validate() == 50.0
        model.train()
        model.train()
        assert model.validate() == 70.0
        with pytest.raises(RuntimeError):
            model.train()


class TestNSGANetConfig:
    def test_paper_totals(self):
        config = NSGANetConfig()
        assert config.total_evaluations == 100

    def test_validation(self):
        with pytest.raises(Exception):
            NSGANetConfig(population_size=0)
        with pytest.raises(ValueError):
            NSGANetConfig(crossover="spicy")


class TestSearch:
    def _run(self, engine=True, seed=0, **config_kwargs):
        config = NSGANetConfig(
            population_size=4,
            offspring_per_generation=4,
            generations=3,
            max_epochs=10,
            **config_kwargs,
        )
        evaluator = SurrogateEvaluator(
            BeamIntensity.MEDIUM,
            PredictionEngine(EngineConfig(e_pred=10)) if engine else None,
            max_epochs=10,
            rng_stream=RngStream(seed),
            cost_model=EpochCostModel(jitter=0.0),
        )
        return NSGANet(config, evaluator, rng_stream=RngStream(seed)).run()

    def test_archive_size_matches_config(self):
        result = self._run()
        assert len(result.archive) == 4 + 2 * 4
        assert len(result.population) == 4

    def test_model_ids_unique_and_ordered(self):
        result = self._run()
        ids = [m.model_id for m in result.archive]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)

    def test_generations_recorded(self):
        result = self._run()
        assert [g.generation for g in result.generations] == [0, 1, 2]
        assert all(g.n_evaluated == 4 for g in result.generations)

    def test_epoch_accounting(self):
        result = self._run()
        budget = 10 * len(result.archive)
        assert result.total_epochs_trained + result.total_epochs_saved == budget
        assert result.total_epochs_saved >= 0

    def test_standalone_saves_nothing(self):
        result = self._run(engine=False)
        assert result.total_epochs_saved == 0

    def test_deterministic_given_seed(self):
        r1 = self._run(seed=3)
        r2 = self._run(seed=3)
        assert [m.fitness for m in r1.archive] == [m.fitness for m in r2.archive]
        assert [m.genome.key() for m in r1.archive] == [
            m.genome.key() for m in r2.archive
        ]

    def test_different_seeds_differ(self):
        r1 = self._run(seed=3)
        r2 = self._run(seed=4)
        assert [m.genome.key() for m in r1.archive] != [
            m.genome.key() for m in r2.archive
        ]

    def test_pareto_individuals_non_dominated(self):
        result = self._run()
        pareto = result.pareto_individuals()
        assert pareto
        for p in pareto:
            for other in result.archive:
                dominated = (
                    other.fitness >= p.fitness
                    and other.flops <= p.flops
                    and (other.fitness > p.fitness or other.flops < p.flops)
                )
                assert not dominated

    def test_callbacks_invoked(self):
        seen_individuals, seen_generations = [], []
        config = NSGANetConfig(
            population_size=3, offspring_per_generation=3, generations=2, max_epochs=5
        )
        evaluator = SurrogateEvaluator(
            BeamIntensity.HIGH,
            PredictionEngine(EngineConfig(e_pred=5)),
            max_epochs=5,
            rng_stream=RngStream(0),
        )
        NSGANet(
            config,
            evaluator,
            rng_stream=RngStream(0),
            on_individual=seen_individuals.append,
            on_generation=seen_generations.append,
        ).run()
        assert len(seen_individuals) == 6
        assert len(seen_generations) == 2


class ShuffleStream:
    """Adversarial stream: evaluates eagerly, settles in random order.

    Steady mode must commit in logical-clock order no matter how the
    backend reorders completions; this stream is the worst case.
    """

    def __init__(self, evaluator, seed):
        self._evaluator = evaluator
        self._rng = np.random.default_rng(seed)
        self._in_flight = []
        self.commits = []

    def submit(self, individual):
        self._evaluator.evaluate(individual)
        self._in_flight.append(individual)

    def settled(self):
        if not self._in_flight:
            raise RuntimeError("no evaluations in flight")
        pick = int(self._rng.integers(len(self._in_flight)))
        return self._in_flight.pop(pick)

    def on_commit(self, individual):
        self.commits.append(individual.model_id)

    def finish(self):
        pass


class TestSteadySearch:
    def _search(self, seed=0, stream=None, **config_kwargs):
        config_kwargs.setdefault("evolution", "steady")
        if config_kwargs["evolution"] == "steady":
            config_kwargs.setdefault("steady_lag", 3)
        config = NSGANetConfig(
            population_size=4,
            offspring_per_generation=4,
            generations=3,
            max_epochs=10,
            **config_kwargs,
        )
        evaluator = SurrogateEvaluator(
            BeamIntensity.MEDIUM,
            PredictionEngine(EngineConfig(e_pred=10)),
            max_epochs=10,
            rng_stream=RngStream(seed),
            cost_model=EpochCostModel(jitter=0.0),
        )
        return NSGANet(
            config,
            evaluator,
            rng_stream=RngStream(seed),
            stream=stream(evaluator) if stream else None,
        )

    @staticmethod
    def _key(result):
        return [
            (m.model_id, m.logical_tick, m.genome.key(), m.fitness, m.flops)
            for m in result.archive
        ]

    def test_archive_and_logical_ticks(self):
        result = self._search().run()
        assert len(result.archive) == 4 + 2 * 4
        assert [m.logical_tick for m in result.archive] == list(range(12))
        assert [m.model_id for m in result.archive] == list(range(12))
        assert len(result.population) == 4

    def test_deterministic_given_seed(self):
        assert self._key(self._search(seed=3).run()) == self._key(
            self._search(seed=3).run()
        )

    def test_settle_order_does_not_matter(self):
        baseline = self._key(self._search().run())
        for shuffle_seed in range(4):
            search = self._search(
                stream=lambda ev, s=shuffle_seed: ShuffleStream(ev, s)
            )
            assert self._key(search.run()) == baseline

    def test_commits_fire_in_tick_order(self):
        search = self._search(stream=lambda ev: ShuffleStream(ev, 9))
        search.run()
        assert search.stream.commits == list(range(12))

    def test_lag_changes_trajectory(self):
        one = self._key(self._search(steady_lag=1).run())
        four = self._key(self._search(steady_lag=4).run())
        assert [k[2] for k in one] != [k[2] for k in four]

    def test_pseudo_generation_stats(self):
        result = self._search().run()
        assert [g.generation for g in result.generations] == [0, 1, 2]
        assert all(g.n_evaluated == 4 for g in result.generations)

    def test_offspring_generation_numbers(self):
        result = self._search().run()
        assert [m.generation for m in result.archive] == [0] * 4 + [1] * 4 + [2] * 4

    def test_resume_matches_uninterrupted(self):
        from repro.nas.search import SearchState
        from repro.nas.population import Population

        full = self._search().run()
        # resume from a chunk-aligned prefix (2 pseudo-generations = 8 ticks)
        prefix = self._search()  # fresh evaluator, same seed
        state = SearchState(
            population=Population([]),
            archive=Population(list(full.archive.members[:8])),
            next_generation=2,
            next_model_id=8,
            generation_stats=list(full.generations[:2]),
        )
        resumed = prefix.run(resume=state)
        assert self._key(resumed) == self._key(full)
        assert [g.generation for g in resumed.generations] == [0, 1, 2]

    def test_resume_rejects_non_contiguous_archive(self):
        from repro.nas.search import SearchState
        from repro.nas.population import Population

        full = self._search().run()
        state = SearchState(
            population=Population([]),
            archive=Population(list(full.archive.members[:8])),
            next_generation=2,
            next_model_id=9,  # gap: archive has 8 members
            generation_stats=[],
        )
        with pytest.raises(ValueError, match="contiguous ticks"):
            self._search().run(resume=state)

    def test_barrier_resume_at_final_generation_is_noop(self):
        # satellite: resume with next_generation == config.generations
        from repro.nas.search import SearchState

        full = self._search(evolution="barrier").run()
        calls = []

        class CountingEvaluator:
            max_epochs = 10

            def evaluate(self, individual):
                calls.append(individual.model_id)
                raise AssertionError("no-op resume must not evaluate")

        config = NSGANetConfig(
            population_size=4,
            offspring_per_generation=4,
            generations=3,
            max_epochs=10,
        )
        state = SearchState(
            population=full.population,
            archive=full.archive,
            next_generation=3,
            next_model_id=12,
            generation_stats=list(full.generations),
        )
        result = NSGANet(config, CountingEvaluator(), rng_stream=RngStream(0)).run(
            resume=state
        )
        assert calls == []
        assert len(result.archive) == 12
        assert [g.generation for g in result.generations] == [0, 1, 2]


class TestSteadyInsert:
    def test_grows_until_full(self, rng):
        from repro.nas.search import steady_insert

        members = []
        for i in range(3):
            ind = Individual(random_genome(rng), i, 0, fitness=50.0 + i, flops=100)
            members = steady_insert(members, ind, population_size=3)
        assert [m.model_id for m in members] == [0, 1, 2]

    def test_evicts_exactly_one_preserving_order(self, rng):
        from repro.nas.nsga2 import steady_eviction
        from repro.nas.search import steady_insert

        members = [
            Individual(random_genome(rng), i, 0, fitness=50.0 + i, flops=100 * (i + 1))
            for i in range(4)
        ]
        incoming = Individual(random_genome(rng), 9, 1, fitness=70.0, flops=150)
        combined = members + [incoming]
        objectives = np.array([m.objectives() for m in combined])
        victim = steady_eviction(objectives)
        survivors = steady_insert(list(members), incoming, population_size=4)
        assert len(survivors) == 4
        assert [m.model_id for m in survivors] == [
            m.model_id for i, m in enumerate(combined) if i != victim
        ]


class TestTrainingEvaluatorIntegration:
    def test_real_mode_small(self, tiny_dataset):
        engine = PredictionEngine(EngineConfig(e_pred=4, n_predictions=2, tolerance=2.0))
        evaluator = TrainingEvaluator(
            tiny_dataset,
            engine,
            max_epochs=4,
            decoder_config=DecoderConfig(tiny_dataset.input_shape, 2, (2, 3, 4)),
            rng_stream=RngStream(0),
        )
        individual = Individual(random_genome(np.random.default_rng(0)), 0, 0)
        evaluator.evaluate(individual)
        assert individual.evaluated
        assert individual.flops > 0
        assert 0 <= individual.fitness <= 100
        assert len(individual.epoch_seconds) == individual.result.epochs_trained
        assert all(s > 0 for s in individual.epoch_seconds)
