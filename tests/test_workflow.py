"""Tests for workflow configuration, history store, and the orchestrator."""

import pytest

from repro.core.engine import EngineConfig
from repro.lineage import DataCommons
from repro.nas import NSGANetConfig
from repro.utils.validation import ValidationError
from repro.workflow import (
    A4NNOrchestrator,
    HistoryStore,
    WorkflowConfig,
    run_comparison,
    run_standalone,
    run_workflow,
)
from repro.xfel import BeamIntensity, DatasetConfig


def small_config(intensity=BeamIntensity.MEDIUM, mode="surrogate", seed=5, engine=True):
    nas = NSGANetConfig(
        population_size=3, offspring_per_generation=3, generations=2, max_epochs=12
    )
    return WorkflowConfig(
        nas=nas,
        engine=EngineConfig(e_pred=12, tolerance=1.0) if engine else None,
        dataset=DatasetConfig(intensity=intensity, images_per_class=20, image_size=16),
        mode=mode,
        n_gpus=(1, 4),
        seed=seed,
    )


class TestHistoryStore:
    def test_shared_per_model(self):
        store = HistoryStore()
        history = store.for_model(3)
        assert store.for_model(3) is history
        history.record_epoch(50.0, None)
        history.record_epoch(60.0, 80.0)
        assert history.fitness == [50.0, 60.0]
        assert history.predictions == [80.0]
        assert history.n_epochs == 2
        assert 3 in store and len(store) == 1
        assert store.model_ids() == [3]


class TestWorkflowConfig:
    def test_defaults_are_paper_settings(self):
        config = WorkflowConfig()
        assert config.nas.total_evaluations == 100
        assert config.engine.e_pred == config.nas.max_epochs == 25

    def test_e_pred_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="e_pred"):
            WorkflowConfig(engine=EngineConfig(e_pred=30))

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValidationError):
            WorkflowConfig(mode="imaginary")

    def test_invalid_gpus_rejected(self):
        with pytest.raises(ValidationError):
            WorkflowConfig(n_gpus=(0,))

    def test_standalone_copy(self):
        config = small_config()
        baseline = config.standalone()
        assert baseline.engine is None
        assert baseline.nas == config.nas
        assert "standalone" in baseline.resolved_run_id()

    def test_run_id_resolution(self):
        config = small_config()
        assert config.resolved_run_id() == "a4nn_surrogate_medium_seed5"
        named = WorkflowConfig(run_id="custom")
        assert named.resolved_run_id() == "custom"

    def test_dict_round_trip(self):
        config = small_config()
        rebuilt = WorkflowConfig.from_dict(config.to_dict())
        assert rebuilt.nas == config.nas
        assert rebuilt.engine == config.engine
        assert rebuilt.dataset == config.dataset
        assert rebuilt.mode == config.mode

    def test_dict_round_trip_standalone(self):
        config = small_config(engine=False)
        rebuilt = WorkflowConfig.from_dict(config.to_dict())
        assert rebuilt.engine is None

    def test_sanitize_writes_round_trips_and_defaults_off(self):
        config = small_config()
        assert config.sanitize_writes is False  # legacy documents stay off
        on = WorkflowConfig.from_dict({**config.to_dict(), "sanitize_writes": True})
        assert on.sanitize_writes is True
        assert WorkflowConfig.from_dict(config.to_dict()).sanitize_writes is False


class TestOrchestrator:
    def test_surrogate_run_end_to_end(self, tmp_path):
        config = small_config()
        commons = DataCommons(tmp_path)
        result = A4NNOrchestrator(config, commons=commons).run()
        assert len(result.search.archive) == 6
        assert set(result.walltime) == {1, 4}
        assert result.walltime[4].wall_seconds < result.walltime[1].wall_seconds
        assert result.run_id in commons.run_ids()
        assert len(commons.load_models(result.run_id)) == 6
        assert 0 < result.epochs_saved_fraction() < 1

    def test_histories_populated(self):
        config = small_config()
        orchestrator = A4NNOrchestrator(config)
        result = orchestrator.run()
        assert len(orchestrator.history_store) == len(result.search.archive)
        for member in result.search.archive:
            history = orchestrator.history_store.for_model(member.model_id)
            assert history.fitness == member.result.fitness_history

    def test_standalone_no_engine_records(self):
        result = run_standalone(small_config())
        assert result.total_epochs_saved == 0
        record = result.tracker.all_records()[0]
        assert record.engine_parameters is None
        assert record.prediction_history == []

    def test_real_mode_end_to_end(self):
        config = small_config(mode="real", intensity=BeamIntensity.HIGH)
        result = run_workflow(config)
        assert len(result.search.archive) == 6
        for member in result.search.archive:
            assert 0 <= member.fitness <= 100
            # real wall times measured, not modeled
            assert all(s > 0 for s in member.epoch_seconds)

    def test_publish_requires_commons(self):
        orchestrator = A4NNOrchestrator(small_config())
        result = orchestrator.run()
        with pytest.raises(RuntimeError, match="without a data commons"):
            orchestrator.publish(result)


class TestComparison:
    def test_paired_runs_differ_only_by_engine(self):
        comparison = run_comparison(small_config())
        assert comparison.a4nn.config.engine is not None
        assert comparison.standalone.config.engine is None
        # same initial genomes (same seed drives both searches)
        a_keys = [m.genome.key() for m in comparison.a4nn.search.archive[:3]]
        s_keys = [m.genome.key() for m in comparison.standalone.search.archive[:3]]
        assert a_keys == s_keys

    def test_savings_metrics(self):
        comparison = run_comparison(small_config())
        assert comparison.epochs_saved_percent > 0
        assert comparison.walltime_saved_hours(1) > 0
        assert comparison.speedup(1, 4) > 1.5

    def test_requires_engine_config(self):
        with pytest.raises(ValueError):
            run_comparison(small_config(engine=False))


class TestParallelExecution:
    def test_n_workers_gives_same_records_as_serial(self, tmp_path):
        import dataclasses

        serial = run_workflow(small_config(seed=2))
        parallel = run_workflow(
            dataclasses.replace(small_config(seed=2), backend="process", n_workers=3)
        )
        serial_records = {
            r.model_id: (r.fitness, r.flops, r.epochs_trained)
            for r in serial.tracker.all_records()
        }
        parallel_records = {
            r.model_id: (r.fitness, r.flops, r.epochs_trained)
            for r in parallel.tracker.all_records()
        }
        assert serial_records == parallel_records

    def test_invalid_worker_count_rejected(self):
        import dataclasses

        with pytest.raises(ValidationError):
            dataclasses.replace(small_config(), n_workers=0)
