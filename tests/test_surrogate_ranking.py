"""Surrogate pre-ranking: featurization, predictor, allocator, determinism.

Covers the cross-architecture fitness predictor (DESIGN §14): the
deterministic genome featurization, the prefix-addressable online ridge
model, the dominance-aware budget allocator, and the end-to-end
guarantees — ``--surrogate off`` byte-identical to the pre-predictor
baseline, surrogate-on runs bit-identical across backends and evolution
modes, and resume rebuilding the exact predictor state.
"""

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis import skip_report, training_matrix
from repro.core.engine import EngineConfig
from repro.core.fitting import ridge_lstsq
from repro.lineage import DataCommons
from repro.nas.genome import Genome, PhaseGenome
from repro.nas.population import Individual
from repro.nas.search import NSGANetConfig
from repro.nas.surrogate import (
    SKIP_EXPLORE,
    SKIP_PROBE,
    BudgetAllocator,
    FitnessPredictor,
    SurrogateConfig,
    genome_feature_names,
    genome_features,
    phase_depth,
)
from repro.scheduler.simulator import simulate_walltime
from repro.utils.validation import ValidationError
from repro.workflow import resume_workflow, run_workflow
from repro.workflow.interfaces import WorkflowConfig

FIXTURES = Path(__file__).resolve().parent / "fixtures"

#: ModelRecord fields added with the surrogate allocator; absent from the
#: pre-predictor baseline fixture and required to be null in off mode.
PREDICTOR_KEYS = (
    "predicted_fitness",
    "predicted_rank",
    "budget_assigned",
    "skip_reason",
)


# ---------------------------------------------------------------------------
# featurization
# ---------------------------------------------------------------------------


def genome_from_bits(bits, nodes=(2, 2, 2)) -> Genome:
    return Genome.from_bits(bits, nodes)


class TestFeaturization:
    def test_feature_names_match_row_length(self):
        genome = genome_from_bits((1, 0, 0, 1, 1, 1))
        names = genome_feature_names(genome.nodes_per_phase)
        row = genome_features(genome, 1e6)
        assert len(names) == len(row)
        assert names[0] == "bias" and row[0] == 1.0
        assert names[-1] == "log10_flops"

    def test_phase_depth_chain_vs_parallel(self):
        # 3 nodes: connection bits (0,1), (0,2), (1,2) then skip
        chain = PhaseGenome(3, (1, 0, 1, 0))  # 0 -> 1 -> 2
        parallel = PhaseGenome(3, (0, 0, 0, 0))  # no edges: all depth 1
        fan = PhaseGenome(3, (1, 1, 0, 0))  # 0 -> {1, 2}
        assert phase_depth(chain) == 3
        assert phase_depth(parallel) == 1
        assert phase_depth(fan) == 2

    def test_features_are_pure_structure_plus_flops(self):
        genome = genome_from_bits((1, 1, 0, 0, 1, 0))
        row = genome_features(genome, 10**6 - 1)
        # bias, 3 phases x (connections, skip, depth), totals, density, flops
        assert row[1:4] == (1.0, 1.0, 2.0)  # phase 0: edge + skip, depth 2
        assert row[4:7] == (0.0, 0.0, 1.0)  # phase 1 empty
        assert row[7:10] == (1.0, 0.0, 2.0)  # phase 2: edge, no skip
        assert row[10] == 2.0 and row[11] == 1.0  # totals
        assert row[-1] == pytest.approx(6.0)


# ---------------------------------------------------------------------------
# predictor
# ---------------------------------------------------------------------------


class TestFitnessPredictor:
    def test_prefix_addressing_ignores_later_commits(self):
        predictor = FitnessPredictor(ridge=1e-6, sigma_floor=0.0)
        for i in range(6):
            predictor.observe((1.0, float(i)), 2.0 * i + 1.0, commit_count=i + 1)
        # an outlier landing later must not affect predictions "as of" 6
        predictor.observe((1.0, 50.0), -1000.0, commit_count=7)
        reference = FitnessPredictor(ridge=1e-6, sigma_floor=0.0)
        for i in range(6):
            reference.observe((1.0, float(i)), 2.0 * i + 1.0, commit_count=i + 1)
        assert predictor.visible_rows(6) == 6
        assert predictor.predict((1.0, 3.0), 6) == reference.predict((1.0, 3.0), 6)
        full = predictor.predict((1.0, 3.0), None)
        assert full != predictor.predict((1.0, 3.0), 6)

    def test_out_of_order_commit_rejected(self):
        predictor = FitnessPredictor()
        predictor.observe((1.0,), 1.0, commit_count=5)
        with pytest.raises(ValueError, match="commit order"):
            predictor.observe((1.0,), 2.0, commit_count=4)

    def test_no_visible_observations_gives_none(self):
        predictor = FitnessPredictor()
        predictor.observe((1.0, 2.0), 3.0, commit_count=10)
        assert predictor.predict((1.0, 2.0), 9) is None
        assert predictor.predict((1.0, 2.0), 10) is not None

    def test_sigma_floor_and_leverage_inflation(self):
        predictor = FitnessPredictor(ridge=1e-6, sigma_floor=0.25)
        rng = np.random.default_rng(3)
        for i in range(40):
            x = float(rng.uniform(0.0, 1.0))
            predictor.observe((1.0, x), 10.0 + 2.0 * x + rng.normal(0, 0.5), i + 1)
        _, sigma_in = predictor.predict((1.0, 0.5), 40)
        _, sigma_out = predictor.predict((1.0, 25.0), 40)
        assert sigma_in >= 0.25
        # extrapolated point carries much larger predictive uncertainty
        assert sigma_out > 3.0 * sigma_in

    def test_fingerprint_tracks_observation_log(self):
        a, b = FitnessPredictor(), FitnessPredictor()
        for p in (a, b):
            p.observe((1.0, 2.0), 3.0, 1)
        assert a.fingerprint() == b.fingerprint()
        a.observe((1.0, 4.0), 5.0, 2)
        assert a.fingerprint() != b.fingerprint()


class TestRidgeLeverage:
    def test_leverage_defines_predictive_scale(self):
        rng = np.random.default_rng(0)
        x = np.column_stack([np.ones(30), rng.uniform(0, 1, 30)])
        y = 4.0 + 3.0 * x[:, 1]
        fit = ridge_lstsq(x.tolist(), y.tolist(), ridge=1e-9)
        assert fit.predict([1.0, 0.5]) == pytest.approx(5.5, abs=1e-6)
        inside = fit.leverage([1.0, 0.5])
        outside = fit.leverage([1.0, 100.0])
        assert 0.0 < inside < outside


# ---------------------------------------------------------------------------
# allocator
# ---------------------------------------------------------------------------


def flops_of(genome: Genome) -> int:
    return 10_000 + 1_000 * genome.n_connections + 100 * genome.n_skips


def fitness_of(genome: Genome) -> float:
    return 50.0 + 6.0 * genome.n_connections + 3.0 * genome.n_skips


def trained_allocator(settings: SurrogateConfig, n_rows: int) -> BudgetAllocator:
    """Allocator whose predictor saw ``n_rows`` noise-free outcomes."""
    allocator = BudgetAllocator(settings, max_epochs=8, flops_fn=flops_of)
    rng = np.random.default_rng(7)
    for i in range(n_rows):
        bits = tuple(int(b) for b in rng.integers(0, 2, size=6))
        genome = genome_from_bits(bits)
        allocator.predictor.observe(
            genome_features(genome, flops_of(genome)), fitness_of(genome), i + 1
        )
        allocator.n_commits = i + 1
    return allocator


def candidate(bits=(0, 0, 0, 0, 0, 0), model_id=99) -> Individual:
    return Individual(genome=genome_from_bits(bits), model_id=model_id, generation=1)


def member(fitness: float, flops: int) -> SimpleNamespace:
    return SimpleNamespace(fitness=fitness, flops=flops, quarantined=False)


class TestSurrogateConfig:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("probe_epochs", -1),
            ("min_records", 0),
            ("explore_every", 0),
            ("band", -0.5),
            ("min_dominators", 0),
            ("ridge", -1e-3),
            ("sigma_floor", -1.0),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValidationError):
            SurrogateConfig(**{field: value})

    def test_roundtrip(self):
        config = SurrogateConfig(probe_epochs=0, band=1.5, explore_every=9)
        assert SurrogateConfig.from_dict(config.to_dict()) == config


class TestBudgetAllocator:
    def test_underdetermined_fit_never_scores(self):
        # 14 features for (2, 2, 2) genomes: the gate requires 16 rows
        # even though min_records is far lower
        settings = SurrogateConfig(min_records=1, band=0.0)
        allocator = trained_allocator(settings, n_rows=15)
        individual = candidate()
        allocator.score(individual, [member(99.0, 1.0)], n_committed=15)
        assert individual.predicted_fitness is None
        assert individual.budget_assigned is None
        assert allocator.n_scored == 0

    def test_dominated_candidate_probed(self):
        settings = SurrogateConfig(min_records=1, band=0.0, probe_epochs=1)
        allocator = trained_allocator(settings, n_rows=30)
        weak = candidate(bits=(0, 0, 0, 0, 0, 0))  # predicted ~50
        pool = [member(95.0, flops_of(weak.genome) - 1)]
        allocator.score(weak, pool, n_committed=30)
        assert weak.predicted_fitness == pytest.approx(50.0, abs=1.0)
        assert weak.skip_reason == SKIP_PROBE
        assert weak.budget_assigned == 1
        assert weak.predicted_rank == 2

    def test_undominated_candidate_keeps_full_budget(self):
        settings = SurrogateConfig(min_records=1, band=0.0)
        allocator = trained_allocator(settings, n_rows=30)
        strong = candidate(bits=(1, 1, 1, 1, 1, 1))  # predicted ~77, top rank
        allocator.score(strong, [member(60.0, 5_000)], n_committed=30)
        assert strong.predicted_fitness is not None
        assert strong.predicted_rank == 1
        assert strong.budget_assigned is None and strong.skip_reason is None

    def test_band_widens_the_benefit_of_the_doubt(self):
        # dominator sits 5 points above the prediction: a wide band keeps
        # the candidate optimistic enough to escape the skip
        allocator = trained_allocator(SurrogateConfig(min_records=1, band=100.0), 30)
        weak = candidate()
        allocator.score(weak, [member(55.0, 1.0)], n_committed=30)
        assert weak.skip_reason is None and weak.budget_assigned is None

    def test_exploration_floor_grants_full_budget(self):
        settings = SurrogateConfig(min_records=1, band=0.0, explore_every=3)
        allocator = trained_allocator(settings, n_rows=30)
        pool = [member(99.0, 1.0)]
        reasons = []
        for i in range(6):
            loser = candidate(model_id=100 + i)
            allocator.score(loser, pool, n_committed=30)
            reasons.append((loser.skip_reason, loser.budget_assigned))
        assert reasons[2] == (SKIP_EXPLORE, None)
        assert reasons[5] == (SKIP_EXPLORE, None)
        assert all(r == (SKIP_PROBE, 1) for i, r in enumerate(reasons) if i not in (2, 5))

    def test_probe_epochs_zero_prefills_outcome(self):
        settings = SurrogateConfig(min_records=1, band=0.0, probe_epochs=0)
        allocator = trained_allocator(settings, n_rows=30)
        skipped = candidate()
        allocator.score(skipped, [member(99.0, 1.0)], n_committed=30)
        assert skipped.budget_assigned == 0
        assert skipped.fitness == skipped.predicted_fitness
        assert skipped.flops == flops_of(skipped.genome)
        assert skipped.result is None

    def test_observe_only_learns_clean_full_budget_outcomes(self):
        allocator = BudgetAllocator(
            SurrogateConfig(), max_epochs=8, flops_fn=flops_of
        )
        genome = genome_from_bits((1, 0, 1, 0, 1, 0))
        base = dict(
            genome=genome,
            quarantined=False,
            budget_assigned=None,
            fitness=80.0,
            flops=flops_of(genome),
            result=SimpleNamespace(epochs_trained=8),
        )
        allocator.observe(SimpleNamespace(**base))
        allocator.observe(SimpleNamespace(**{**base, "budget_assigned": 1}))
        allocator.observe(SimpleNamespace(**{**base, "quarantined": True}))
        allocator.observe(SimpleNamespace(**{**base, "result": None}))
        assert allocator.n_commits == 4
        assert allocator.predictor.n_observations == 1


# ---------------------------------------------------------------------------
# end-to-end determinism
# ---------------------------------------------------------------------------


def workflow_config(**kw) -> WorkflowConfig:
    surrogate = kw.pop(
        "surrogate", SurrogateConfig(min_records=6, explore_every=4)
    )
    return WorkflowConfig(
        nas=NSGANetConfig(
            population_size=6,
            offspring_per_generation=6,
            generations=4,
            max_epochs=8,
            nodes_per_phase=2,
            evolution=kw.pop("evolution", "barrier"),
            steady_lag=kw.pop("steady_lag", None),
        ),
        engine=EngineConfig(e_pred=8),
        mode="surrogate",
        seed=11,
        run_id=kw.pop("run_id", "surrogate-test"),
        surrogate=surrogate,
        **kw,
    )


def trails(result) -> list[dict]:
    out = [r.to_dict() for r in result.tracker.all_records()]
    for trail in out:
        # the only wall-clock (nondeterministic) field in surrogate mode
        trail["engine_overhead_seconds"] = None
    return out


@pytest.fixture(scope="module")
def serial_barrier():
    return run_workflow(workflow_config(backend="serial", n_workers=1))


@pytest.fixture(scope="module")
def serial_steady():
    return run_workflow(
        workflow_config(
            backend="serial", n_workers=1, evolution="steady", steady_lag=3
        )
    )


class TestOffModeBaseline:
    def test_surrogate_off_matches_pr8_fixture_byte_for_byte(self):
        baseline = json.loads(
            (FIXTURES / "lineage_pr8_baseline.json").read_text()
        )
        config = WorkflowConfig(
            nas=NSGANetConfig(
                population_size=4,
                offspring_per_generation=4,
                generations=3,
                max_epochs=8,
                nodes_per_phase=2,
            ),
            engine=EngineConfig(e_pred=8),
            mode="surrogate",
            seed=11,
            run_id="pr8-baseline",
            surrogate=None,
        )
        current = trails(run_workflow(config))
        assert len(current) == len(baseline)
        for trail in current:
            for key in PREDICTOR_KEYS:
                assert trail.pop(key) is None
        assert json.dumps(current, sort_keys=True) == json.dumps(
            baseline, sort_keys=True
        )


class TestCrossBackendDeterminism:
    def test_barrier_backends_bit_identical(self, serial_barrier):
        reference = trails(serial_barrier)
        assert any(t["budget_assigned"] is not None for t in reference)
        other = run_workflow(workflow_config(backend="process", n_workers=2))
        assert trails(other) == reference

    def test_steady_backends_bit_identical(self, serial_steady):
        reference = trails(serial_steady)
        assert any(t["budget_assigned"] is not None for t in reference)
        other = run_workflow(
            workflow_config(
                backend="process", n_workers=2, evolution="steady", steady_lag=3
            )
        )
        assert trails(other) == reference

    @pytest.mark.parametrize("fixture", ["serial_barrier", "serial_steady"])
    def test_epoch_accounting_partition(self, fixture, request):
        result = request.getfixturevalue(fixture)
        search = result.search
        assert search.epoch_budget == (
            result.total_epochs_trained
            + search.total_epochs_saved
            + result.total_epochs_skipped
        )
        assert result.total_epochs_skipped > 0
        assert search.total_epochs_saved >= 0

    def test_skip_decisions_auditable_from_lineage_alone(self, serial_barrier):
        for trail in trails(serial_barrier):
            if trail["budget_assigned"] is not None:
                assert trail["skip_reason"] == SKIP_PROBE
                assert trail["predicted_fitness"] is not None
                assert trail["predicted_rank"] >= 1
                assert trail["epochs_trained"] <= trail["budget_assigned"]
            if trail["skip_reason"] == SKIP_EXPLORE:
                assert trail["budget_assigned"] is None


class TestResume:
    @pytest.mark.parametrize(
        "evolution,lag,cut", [("barrier", None, 2), ("steady", 3, 10)]
    )
    def test_resume_rebuilds_identical_trails(self, tmp_path, evolution, lag, cut):
        config = workflow_config(
            evolution=evolution, steady_lag=lag, run_id=f"resume-{evolution}"
        )
        full = run_workflow(config, commons_path=tmp_path)
        commons = DataCommons(tmp_path)
        for record in commons.load_models(full.run_id):
            interrupted = (
                record.generation >= cut
                if evolution == "barrier"
                else record.model_id >= cut
            )
            if interrupted:
                model_file = (
                    commons.root
                    / "runs"
                    / full.run_id
                    / "models"
                    / f"model_{record.model_id:05d}.json"
                )
                model_file.unlink()
        resumed = resume_workflow(commons, full.run_id)
        assert trails(resumed) == trails(full)

    def test_restore_equals_live_observation(self, serial_barrier, tmp_path):
        # replaying committed records must rebuild the predictor's exact
        # observation log (same rows, targets, and commit tags)
        records = sorted(
            serial_barrier.tracker.all_records(), key=lambda r: r.model_id
        )
        settings = SurrogateConfig(min_records=6, explore_every=4)

        def fake_flops(genome):  # restore never recomputes FLOPs
            raise AssertionError("restore must use recorded flops")

        restored = BudgetAllocator(settings, max_epochs=8, flops_fn=fake_flops)
        restored.restore(records)
        live = BudgetAllocator(settings, max_epochs=8, flops_fn=fake_flops)
        for record in records:
            live.observe(
                SimpleNamespace(
                    genome=Genome.from_dict(record.genome),
                    quarantined=record.quarantined,
                    budget_assigned=record.budget_assigned,
                    fitness=record.fitness,
                    flops=record.flops,
                    result=SimpleNamespace(epochs_trained=record.epochs_trained),
                )
            )
        assert restored.predictor.fingerprint() == live.predictor.fingerprint()
        assert restored.n_commits == live.n_commits == len(records)
        assert restored.n_scored == sum(
            1 for r in records if r.predicted_fitness is not None
        )


class TestAnalysisQueries:
    def test_training_matrix_matches_live_featurization(self, serial_barrier, tmp_path):
        records = serial_barrier.tracker.all_records()
        matrix = training_matrix(records)
        assert matrix.features.shape[0] == len(matrix.model_ids) > 0
        assert len(matrix.feature_names) == matrix.features.shape[1]
        by_id = {r.model_id: r for r in records}
        for model_id, row in zip(matrix.model_ids, matrix.features):
            record = by_id[int(model_id)]
            expected = genome_features(Genome.from_dict(record.genome), record.flops)
            assert np.allclose(row, expected)
            assert record.budget_assigned is None and not record.quarantined

    def test_skip_report_counts_consistent(self, serial_barrier):
        report = skip_report(serial_barrier.tracker.all_records())
        assert report.n_scored >= report.n_flagged >= report.n_probed > 0
        if report.precision is not None:
            assert 0.0 <= report.precision <= 1.0
        if report.recall is not None:
            assert 0.0 <= report.recall <= 1.0
        assert report.mae is not None and report.mae >= 0.0


class TestZeroBudgetPath:
    def test_probe_epochs_zero_bypasses_training_and_simulator(self):
        config = workflow_config(
            surrogate=SurrogateConfig(min_records=6, explore_every=4, probe_epochs=0),
            run_id="zero-budget",
        )
        result = run_workflow(config)
        skipped = [
            m for m in result.search.archive if m.budget_assigned == 0
        ]
        assert skipped, "expected at least one zero-budget skip"
        for individual in skipped:
            assert individual.result is None
            assert individual.fitness == individual.predicted_fitness
            assert not individual.epoch_seconds
        # zero-budget members never occupied a worker: the wall-time
        # simulation must exclude them rather than crash
        report = simulate_walltime(result.search, 2)
        assert report.total_epochs == result.total_epochs_trained
