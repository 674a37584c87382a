"""Cross-module integration tests: the full composed workflow."""

import numpy as np
import pytest

from repro.analysis import CommonsQuery, pareto_frontier, termination_histogram
from repro.core.engine import EngineConfig
from repro.lineage import DataCommons, ProvenanceGraph
from repro.nas import NSGANetConfig
from repro.workflow import WorkflowConfig, run_comparison, run_workflow
from repro.xfel import BeamIntensity, DatasetConfig


def mini_config(intensity, mode="surrogate", seed=11):
    return WorkflowConfig(
        nas=NSGANetConfig(
            population_size=4, offspring_per_generation=4, generations=3, max_epochs=12
        ),
        engine=EngineConfig(e_pred=12, tolerance=1.0),
        dataset=DatasetConfig(intensity=intensity, images_per_class=24, image_size=16),
        mode=mode,
        n_gpus=(1, 2, 4),
        seed=seed,
    )


class TestSurrogateWorkflowIntegration:
    @pytest.fixture(scope="class")
    def comparison(self):
        return run_comparison(mini_config(BeamIntensity.MEDIUM))

    def test_engine_saves_epochs_without_hurting_best_fitness(self, comparison):
        assert comparison.epochs_saved_percent > 0
        best_a4nn = comparison.a4nn.search.population.best_fitness()
        best_standalone = comparison.standalone.search.population.best_fitness()
        # A4NN's best reported fitness stays within a few points
        assert best_a4nn >= best_standalone - 5.0

    def test_walltime_consistent_with_epochs(self, comparison):
        w1 = comparison.a4nn.walltime[1]
        assert w1.total_epochs == comparison.a4nn.total_epochs_trained
        assert comparison.standalone.walltime[1].total_epochs == 12 * 12

    def test_scaling_monotone_in_gpus(self, comparison):
        walltimes = [comparison.a4nn.walltime[n].wall_seconds for n in (1, 2, 4)]
        assert walltimes[0] > walltimes[1] > walltimes[2]

    def test_lineage_agrees_with_search(self, comparison):
        records = comparison.a4nn.tracker.all_records()
        archive = comparison.a4nn.search.archive
        assert len(records) == len(archive)
        for record, member in zip(records, archive):
            assert record.fitness == member.fitness
            assert record.flops == member.flops
            assert len(record.fitness_history) == member.result.epochs_trained


class TestCommonsRoundTripIntegration:
    def test_full_cycle_publish_query_analyze(self, tmp_path):
        config = mini_config(BeamIntensity.HIGH)
        result = run_workflow(config, commons_path=tmp_path)
        commons = DataCommons(tmp_path)
        records = commons.load_models(result.run_id)

        # query layer sees exactly what the search produced
        query = CommonsQuery(records)
        assert len(query) == len(result.search.archive)
        assert query.mean_fitness() == pytest.approx(
            np.mean([m.fitness for m in result.search.archive])
        )

        # analysis layer consumes commons records directly
        frontier = pareto_frontier(records)
        assert frontier
        summary = termination_histogram(records, max_epochs=12)
        assert 0.0 <= summary.percent_terminated <= 100.0

        graph = ProvenanceGraph.from_records(records)
        assert set(graph.generations()) == {0, 1, 2}

    def test_rerun_same_seed_identical_records(self, tmp_path):
        config = mini_config(BeamIntensity.LOW, seed=3)
        r1 = run_workflow(config, commons_path=tmp_path / "a")
        r2 = run_workflow(config, commons_path=tmp_path / "b")
        m1 = DataCommons(tmp_path / "a").load_models(r1.run_id)
        m2 = DataCommons(tmp_path / "b").load_models(r2.run_id)
        for a, b in zip(m1, m2):
            da, db = a.to_dict(), b.to_dict()
            # measured engine wall time is inherently non-deterministic
            da.pop("engine_overhead_seconds")
            db.pop("engine_overhead_seconds")
            assert da == db


class TestRealModeIntegration:
    def test_real_training_through_full_stack(self, tmp_path):
        config = mini_config(BeamIntensity.HIGH, mode="real")
        result = run_workflow(config, commons_path=tmp_path)
        # real epoch times are measured seconds
        for member in result.search.archive:
            assert all(0 < s < 60 for s in member.epoch_seconds)
        # something beats chance on the clean dataset
        assert result.search.population.best_fitness() > 50.0
        # lineage has train-loss traces only real mode produces
        record = result.tracker.all_records()[0]
        assert record.epochs[0]["train_loss"] is not None


class TestWorkerPoolIntegration:
    def test_parallel_generation_matches_serial(self):
        from repro.core.engine import PredictionEngine
        from repro.nas import Individual, SurrogateEvaluator, random_genome
        from repro.scheduler import EvalSpec, ProcessWorkerPool
        from repro.utils.rng import RngStream

        def individuals():
            rng = np.random.default_rng(0)
            return [Individual(random_genome(rng), i, 0) for i in range(6)]

        serial = individuals()
        evaluator = SurrogateEvaluator(
            BeamIntensity.MEDIUM,
            PredictionEngine(),
            rng_stream=RngStream(4).child("eval"),
        )
        for individual in serial:
            evaluator.evaluate(individual)
        parallel = individuals()
        pool = ProcessWorkerPool(
            EvalSpec(seed=4, engine=EngineConfig(), rng_keying="model"), n_workers=3
        )
        try:
            pool.evaluate_generation(parallel)
        finally:
            pool.close()
        assert [(m.fitness, m.flops) for m in parallel] == [
            (m.fitness, m.flops) for m in serial
        ]
