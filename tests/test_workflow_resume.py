"""Tests for resuming interrupted searches from the commons."""

import dataclasses
import json

import pytest

from repro.lineage import DataCommons
from repro.workflow import (
    individual_from_record,
    rebuild_search_state,
    resume_workflow,
    run_workflow,
)

from tests.test_workflow import small_config


def steady_config(seed=31, lag=3):
    config = small_config(seed=seed)
    return dataclasses.replace(
        config,
        nas=dataclasses.replace(config.nas, evolution="steady", steady_lag=lag),
    )


def publish_tick_prefix(tmp_path, *, keep_ticks, seed=31, lag=3):
    """Publish a steady run, then delete all records past a tick prefix."""
    config = steady_config(seed=seed, lag=lag)
    result = run_workflow(config, commons_path=tmp_path)
    commons = DataCommons(tmp_path)
    run_id = result.run_id
    for record in commons.load_models(run_id):
        if record.model_id >= keep_ticks:
            (
                commons.root
                / "runs"
                / run_id
                / "models"
                / f"model_{record.model_id:05d}.json"
            ).unlink()
    return commons, run_id, result


def publish_truncated(tmp_path, *, keep_generations, seed=31):
    """Publish a run, then delete the records of later generations."""
    config = small_config(seed=seed)
    result = run_workflow(config, commons_path=tmp_path)
    commons = DataCommons(tmp_path)
    run_id = result.run_id
    for record in commons.load_models(run_id):
        if record.generation >= keep_generations:
            path = (
                commons.root
                / "runs"
                / run_id
                / "models"
                / f"model_{record.model_id:05d}.json"
            )
            path.unlink()
    return commons, run_id, result


class TestIndividualFromRecord:
    def test_round_trip_through_records(self, tmp_path):
        commons, run_id, result = publish_truncated(tmp_path, keep_generations=2)
        record = commons.load_models(run_id)[0]
        individual = individual_from_record(record)
        original = result.search.archive[0]
        assert individual.fitness == original.fitness
        assert individual.flops == original.flops
        assert individual.genome == original.genome
        assert individual.result.epochs_trained == original.result.epochs_trained
        assert individual.epoch_seconds == pytest.approx(original.epoch_seconds)

    def test_incomplete_record_rejected(self, tmp_path):
        from repro.lineage.records import ModelRecord
        from repro.nas import random_genome
        import numpy as np

        record = ModelRecord(
            model_id=0, generation=0, genome=random_genome(np.random.default_rng(0)).to_dict()
        )
        with pytest.raises(ValueError, match="incomplete"):
            individual_from_record(record)


class TestRebuildState:
    def test_state_covers_complete_generations(self, tmp_path):
        commons, run_id, _ = publish_truncated(tmp_path, keep_generations=1)
        state = rebuild_search_state(
            commons.load_models(run_id),
            population_size=3,
            offspring_per_generation=3,
        )
        assert state.next_generation == 1
        assert len(state.archive) == 3
        assert len(state.population) == 3
        assert state.next_model_id == 3
        assert len(state.generation_stats) == 1

    def test_partial_generation_dropped(self, tmp_path):
        commons, run_id, _ = publish_truncated(tmp_path, keep_generations=2)
        records = commons.load_models(run_id)
        # remove one model of generation 1 to make it incomplete
        victim = next(r for r in records if r.generation == 1)
        (
            commons.root
            / "runs"
            / run_id
            / "models"
            / f"model_{victim.model_id:05d}.json"
        ).unlink()
        state = rebuild_search_state(
            commons.load_models(run_id),
            population_size=3,
            offspring_per_generation=3,
        )
        assert state.next_generation == 1  # gen 1 incomplete -> redo it

    def test_missing_initial_generation_rejected(self):
        with pytest.raises(ValueError, match="initial generation"):
            rebuild_search_state([], population_size=3, offspring_per_generation=3)


class TestResumeWorkflow:
    def test_resumed_run_matches_uninterrupted(self, tmp_path):
        commons, run_id, full = publish_truncated(tmp_path, keep_generations=1, seed=33)
        resumed = resume_workflow(commons, run_id)

        assert len(resumed.search.archive) == len(full.search.archive)
        for a, b in zip(resumed.search.archive, full.search.archive):
            assert a.model_id == b.model_id
            assert a.genome == b.genome
            assert a.fitness == b.fitness
            assert a.result.epochs_trained == b.result.epochs_trained
        # republished commons is complete again
        assert len(commons.load_models(run_id)) == len(full.search.archive)

    def test_resume_verifies_against_replay(self, tmp_path):
        from repro.lineage import verify_run

        commons, run_id, _ = publish_truncated(tmp_path, keep_generations=1, seed=35)
        resume_workflow(commons, run_id)
        report = verify_run(commons, run_id)
        assert report.matches, report.summary()

    def test_resume_requires_stored_config(self, tmp_path):
        from repro.lineage.records import RunRecord

        commons = DataCommons(tmp_path)
        commons.publish_run(
            RunRecord(run_id="legacy", intensity="low", nas_parameters={}, engine_parameters=None),
            [],
        )
        with pytest.raises(ValueError, match="no stored configuration"):
            resume_workflow(commons, "legacy")

    def test_resume_of_complete_run_is_noop(self, tmp_path):
        # edge case: nothing left to do — the resumed result must cover
        # the whole run without re-evaluating anything
        config = small_config(seed=39)
        full = run_workflow(config, commons_path=tmp_path)
        commons = DataCommons(tmp_path)
        resumed = resume_workflow(commons, full.run_id)
        assert len(resumed.search.archive) == len(full.search.archive)
        assert [m.fitness for m in resumed.search.archive] == [
            m.fitness for m in full.search.archive
        ]
        assert [g.generation for g in resumed.search.generations] == [
            g.generation for g in full.search.generations
        ]


class TestRebuildSteadyState:
    def test_prefix_cut_to_whole_chunks(self, tmp_path):
        commons, run_id, _ = publish_tick_prefix(tmp_path, keep_ticks=4)
        state = rebuild_search_state(
            commons.load_models(run_id),
            population_size=3,
            offspring_per_generation=3,
            evolution="steady",
        )
        # 4 contiguous ticks, but only the first chunk (3) is whole
        assert state.next_model_id == 3
        assert state.next_generation == 1
        assert [m.logical_tick for m in state.archive] == [0, 1, 2]
        assert len(state.generation_stats) == 1

    def test_id_gap_cuts_the_prefix(self, tmp_path):
        commons, run_id, _ = publish_tick_prefix(tmp_path, keep_ticks=6)
        (
            commons.root / "runs" / run_id / "models" / "model_00004.json"
        ).unlink()
        state = rebuild_search_state(
            commons.load_models(run_id),
            population_size=3,
            offspring_per_generation=3,
            evolution="steady",
        )
        # ticks 0..3,5 -> contiguous prefix 0..3 -> one whole chunk
        assert state.next_model_id == 3

    def test_initial_population_incomplete_rejected(self, tmp_path):
        commons, run_id, _ = publish_tick_prefix(tmp_path, keep_ticks=2)
        with pytest.raises(ValueError, match="initial population incomplete"):
            rebuild_search_state(
                commons.load_models(run_id),
                population_size=3,
                offspring_per_generation=3,
                evolution="steady",
            )

    def test_tick_id_mismatch_rejected(self, tmp_path):
        commons, run_id, _ = publish_tick_prefix(tmp_path, keep_ticks=6)
        records = commons.load_models(run_id)
        records[2].logical_tick = 5  # corrupted trail
        with pytest.raises(ValueError, match="logical_tick"):
            rebuild_search_state(
                records,
                population_size=3,
                offspring_per_generation=3,
                evolution="steady",
            )


class TestResumeSteadyWorkflow:
    def test_resumed_run_matches_uninterrupted(self, tmp_path):
        commons, run_id, full = publish_tick_prefix(tmp_path, keep_ticks=4, seed=37)
        resumed = resume_workflow(commons, run_id)
        assert [m.logical_tick for m in resumed.search.archive] == list(range(6))
        for a, b in zip(resumed.search.archive, full.search.archive):
            assert a.model_id == b.model_id
            assert a.logical_tick == b.logical_tick
            assert a.genome == b.genome
            assert a.fitness == b.fitness
        assert len(commons.load_models(run_id)) == 6

    def test_state_survives_serialization_bit_exactly(self, tmp_path):
        # satellite: archive, lineage ticks, and next_model_id must
        # round-trip through the published JSON without drift
        config = steady_config(seed=41)
        full = run_workflow(config, commons_path=tmp_path)
        commons = DataCommons(tmp_path)
        state = rebuild_search_state(
            commons.load_models(full.run_id),
            population_size=config.nas.population_size,
            offspring_per_generation=config.nas.offspring_per_generation,
            evolution="steady",
        )
        assert state.next_model_id == len(full.search.archive)
        assert [m.logical_tick for m in state.archive] == [
            m.logical_tick for m in full.search.archive
        ]
        for restored, original in zip(state.archive, full.search.archive):
            assert restored.genome == original.genome
            assert restored.fitness == original.fitness
            assert restored.flops == original.flops
            assert restored.result.fitness_history == original.result.fitness_history
        assert [m.model_id for m in state.population] == [
            m.model_id for m in full.search.population
        ]

    def test_resume_verifies_against_replay(self, tmp_path):
        from repro.lineage import verify_run

        commons, run_id, _ = publish_tick_prefix(tmp_path, keep_ticks=4, seed=43)
        resume_workflow(commons, run_id)
        report = verify_run(commons, run_id)
        assert report.matches, report.summary()

    def test_legacy_thread_run_resumes_with_its_lag(self, tmp_path):
        # thread-backend documents stored the worker count and an
        # unresolved lag; they replay on the serial loop, which must keep
        # the lag the live run derived from that worker count
        commons, run_id, full = publish_tick_prefix(
            tmp_path, keep_ticks=4, seed=47, lag=2
        )
        run_path = commons.root / "runs" / run_id / "run.json"
        run = json.loads(run_path.read_text())
        run["workflow_config"].update(backend="thread", n_workers=2)
        run["workflow_config"]["nas"]["steady_lag"] = None
        run_path.write_text(json.dumps(run))
        resumed = resume_workflow(commons, run_id)
        assert (resumed.config.backend, resumed.config.n_workers) == ("serial", 1)
        assert resumed.config.nas.steady_lag == 2

        def trail(result):
            return [
                (m.model_id, m.logical_tick, m.genome, m.fitness)
                for m in result.search.archive
            ]

        assert trail(resumed) == trail(full)
