"""Tests for the resource manager: cost model, FIFO scheduling, DES, pool."""

import numpy as np
import pytest

from repro.core.engine import EngineConfig, PredictionEngine
from repro.nas import NSGANet, NSGANetConfig, SurrogateEvaluator
from repro.scheduler import (
    EpochCostModel,
    EvalSpec,
    Gpu,
    GpuPool,
    Job,
    ProcessWorkerPool,
    schedule_generation,
    schedule_run,
    simulate_walltime,
)
from repro.scheduler.simulator import jobs_by_generation
from repro.utils.rng import RngStream
from repro.xfel import BeamIntensity


class TestCostModel:
    def test_mean_linear_in_flops(self):
        model = EpochCostModel(jitter=0.0)
        t1 = model.mean_epoch_seconds(1e6)
        t2 = model.mean_epoch_seconds(2e6)
        assert t2 - t1 == pytest.approx(model.seconds_per_flop_image * 1e6 * model.n_images)

    def test_fixed_floor(self):
        model = EpochCostModel(jitter=0.0)
        assert model.mean_epoch_seconds(0) == model.fixed_seconds

    def test_jitter_zero_deterministic(self, rng):
        model = EpochCostModel(jitter=0.0)
        draws = model.sample_epoch_seconds(1e6, rng, size=5)
        assert np.all(draws == model.mean_epoch_seconds(1e6))

    def test_jitter_positive_varies_but_positive(self, rng):
        model = EpochCostModel(jitter=0.2)
        draws = model.sample_epoch_seconds(1e6, rng, size=100)
        assert np.std(draws) > 0
        assert np.all(draws > 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            EpochCostModel(fixed_seconds=-1)
        with pytest.raises(ValueError):
            EpochCostModel(n_images=0)


class TestGpuPool:
    def test_run_advances_availability(self):
        gpu = Gpu(0)
        finish = gpu.run("job", 0.0, 10.0)
        assert finish == 10.0
        assert gpu.available_at == 10.0
        assert gpu.busy_seconds == 10.0
        assert gpu.jobs == ["job"]

    def test_cannot_start_while_busy(self):
        gpu = Gpu(0)
        gpu.run("a", 0.0, 10.0)
        with pytest.raises(ValueError, match="busy"):
            gpu.run("b", 5.0, 1.0)

    def test_next_free_picks_earliest(self):
        pool = GpuPool(3)
        pool.gpus[0].run("a", 0.0, 10.0)
        pool.gpus[1].run("b", 0.0, 5.0)
        assert pool.next_free().index == 2
        pool.gpus[2].run("c", 0.0, 20.0)
        assert pool.next_free().index == 1

    def test_barrier_advance(self):
        pool = GpuPool(2)
        pool.gpus[0].run("a", 0.0, 3.0)
        pool.advance_all(10.0)
        assert all(g.available_at == 10.0 for g in pool)

    def test_utilization(self):
        pool = GpuPool(2)
        pool.gpus[0].run("a", 0.0, 10.0)
        assert pool.utilization() == pytest.approx(0.5)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            GpuPool(0)


class TestFifoScheduling:
    def test_single_gpu_serializes(self):
        jobs = [Job(i, (5.0,)) for i in range(4)]
        result = schedule_run([jobs], 1)
        assert result.makespan == pytest.approx(20.0)
        assert result.utilization == pytest.approx(1.0)
        starts = [p.start for p in result.placements]
        assert starts == [0.0, 5.0, 10.0, 15.0]

    def test_fifo_order_on_multiple_gpus(self):
        # durations 10, 1, 1, 1 on 2 gpus: jobs 1-3 chain on gpu 1
        jobs = [Job(0, (10.0,)), Job(1, (1.0,)), Job(2, (1.0,)), Job(3, (1.0,))]
        result = schedule_run([jobs], 2)
        placements = {p.job_id: p for p in result.placements}
        assert placements[0].gpu == 0
        assert placements[1].gpu == 1 and placements[2].gpu == 1 and placements[3].gpu == 1
        assert result.makespan == pytest.approx(10.0)

    def test_generation_barrier_creates_idle(self):
        # gen 1: one long + one short job on 2 gpus; gen 2 cannot start early
        gen1 = [Job(0, (10.0,)), Job(1, (2.0,))]
        gen2 = [Job(2, (1.0,)), Job(3, (1.0,))]
        result = schedule_run([gen1, gen2], 2)
        placements = {p.job_id: p for p in result.placements}
        assert placements[2].start == pytest.approx(10.0)
        assert placements[3].start == pytest.approx(10.0)
        assert result.idle_seconds == pytest.approx(8.0 + 0.0)
        assert result.generation_ends == [pytest.approx(10.0), pytest.approx(11.0)]

    def test_work_conservation(self, rng):
        generations = [
            [Job(g * 10 + i, tuple(rng.uniform(1, 5, 3))) for i in range(7)]
            for g in range(3)
        ]
        total_work = sum(j.duration for gen in generations for j in gen)
        for n_gpus in (1, 2, 4):
            result = schedule_run(generations, n_gpus)
            assert result.busy_seconds == pytest.approx(total_work)
            assert result.makespan >= total_work / n_gpus - 1e-9
            assert result.makespan <= total_work + 1e-9

    def test_more_gpus_never_slower(self, rng):
        generations = [
            [Job(i, tuple(rng.uniform(1, 10, 5))) for i in range(10)]
        ]
        makespans = [schedule_run(generations, n).makespan for n in (1, 2, 4, 8)]
        assert all(a >= b - 1e-9 for a, b in zip(makespans, makespans[1:]))

    def test_job_validation(self):
        with pytest.raises(ValueError):
            Job(0, (-1.0,))


class TestWallTimeSimulation:
    @pytest.fixture(scope="class")
    def search_result(self):
        config = NSGANetConfig(
            population_size=4, offspring_per_generation=4, generations=3, max_epochs=10
        )
        evaluator = SurrogateEvaluator(
            BeamIntensity.MEDIUM,
            PredictionEngine(EngineConfig(e_pred=10)),
            max_epochs=10,
            rng_stream=RngStream(0),
        )
        return NSGANet(config, evaluator, rng_stream=RngStream(0)).run()

    def test_jobs_grouped_by_generation(self, search_result):
        generations = jobs_by_generation(search_result)
        assert len(generations) == 3
        assert [len(g) for g in generations] == [4, 4, 4]

    def test_four_gpus_faster_than_one(self, search_result):
        w1 = simulate_walltime(search_result, 1)
        w4 = simulate_walltime(search_result, 4)
        assert w4.wall_seconds < w1.wall_seconds
        speedup = w1.wall_seconds / w4.wall_seconds
        assert 2.0 < speedup <= 4.0

    def test_single_gpu_fully_utilized(self, search_result):
        w1 = simulate_walltime(search_result, 1)
        assert w1.utilization == pytest.approx(1.0)
        assert w1.idle_seconds == pytest.approx(0.0, abs=1e-6)

    def test_overhead_included_when_requested(self, search_result):
        with_overhead = simulate_walltime(search_result, 1, include_engine_overhead=True)
        without = simulate_walltime(search_result, 1, include_engine_overhead=False)
        assert with_overhead.wall_seconds >= without.wall_seconds
        assert with_overhead.engine_overhead_seconds > 0
        assert without.engine_overhead_seconds == 0.0

    def test_total_epochs_match_search(self, search_result):
        report = simulate_walltime(search_result, 2)
        assert report.total_epochs == search_result.total_epochs_trained


class ConstantEvaluator:
    max_epochs = 1

    def evaluate(self, individual):
        individual.fitness = 50.0
        individual.flops = 1
        return individual


class FailingEvaluator:
    max_epochs = 1

    def evaluate(self, individual):
        raise RuntimeError("boom")


# module-level factories: spawned pool workers rebuild the evaluator
def constant_factory():
    return ConstantEvaluator()


def failing_factory():
    return FailingEvaluator()


class TestFifoWorkerPool:
    """:class:`ProcessWorkerPool`, the FIFO worker pool of the process backend."""

    def test_serial_and_parallel_complete_all(self, rng):
        from repro.nas import Individual, random_genome

        for workers in (1, 3):
            pool = ProcessWorkerPool(EvalSpec(factory=constant_factory), workers)
            individuals = [
                Individual(random_genome(rng), i, 0) for i in range(7)
            ]
            try:
                pool.evaluate_generation(individuals)
            finally:
                pool.close()
            assert all(ind.fitness == 50.0 for ind in individuals)
            assert pool.reports[-1].n_jobs == 7
            assert pool.reports[-1].wall_seconds > 0

    def test_exceptions_propagate(self, rng):
        from repro.nas import Individual, random_genome

        pool = ProcessWorkerPool(EvalSpec(factory=failing_factory), 2)
        try:
            with pytest.raises(RuntimeError, match="boom"):
                pool.evaluate_generation(
                    [Individual(random_genome(rng), 0, 0)]
                )
        finally:
            pool.close()

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ProcessWorkerPool(EvalSpec(factory=constant_factory), 0)
