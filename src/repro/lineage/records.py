"""Record schemas for the NN data commons.

The paper's commons (§2.3, §4.5) stores, per neural architecture:
epoch times, training accuracies, validation accuracies, FLOPS,
predictions, prediction-engine parameters, genomes, and architecture
information — plus per-epoch model checkpoints.  These dataclasses are
that schema; they serialize to plain JSON-able dicts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

__all__ = ["EpochRecord", "ModelRecord", "RunRecord"]


@dataclass
class EpochRecord:
    """One training epoch of one model."""

    epoch: int
    validation_accuracy: float
    train_accuracy: float | None = None
    train_loss: float | None = None
    epoch_seconds: float | None = None
    prediction: float | None = None
    checkpoint: dict | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "EpochRecord":
        return cls(**payload)


@dataclass
class ModelRecord:
    """The full record trail of one neural architecture.

    Attributes mirror the paper's commons fields; ``architecture`` holds
    the decoded layer table (types, configs, shapes, per-layer FLOPs)
    and ``engine_parameters`` the Table-1 snapshot active during
    training.
    """

    model_id: int
    generation: int
    genome: dict
    flops: int | None = None
    fitness: float | None = None
    measured_fitness: float | None = None
    terminated_early: bool = False
    epochs_trained: int = 0
    max_epochs: int = 0
    fitness_history: list = field(default_factory=list)
    prediction_history: list = field(default_factory=list)
    epochs: list = field(default_factory=list)  # list[EpochRecord dicts]
    architecture: list = field(default_factory=list)
    engine_parameters: dict | None = None
    engine_overhead_seconds: float = 0.0
    training_parameters: dict = field(default_factory=dict)
    # structured NumericalFault snapshot when the sanitizer aborted this
    # model's training; None for clean runs
    fault: dict | None = None
    # every fault/retry/quarantine decision the fault policy took for
    # this model (FaultEvent dicts, in order); empty for clean runs
    fault_events: list = field(default_factory=list)
    # whether the fault policy quarantined this model (fitness/flops are
    # then the policy's penalized objectives, not measurements)
    quarantined: bool = False
    # whether this model's outcome was reused from the evaluation cache
    # (same canonical genome already evaluated); cache_source is the
    # model id whose evaluation was copied
    cache_hit: bool = False
    cache_source: int | None = None
    # steady-state logical-clock position: the commit index at which
    # this model's result entered the population (equal to model_id by
    # construction); None for barrier-mode and historical records
    logical_tick: int | None = None
    # whether a network was trained on buffer-arena scratch (false in
    # surrogate mode and older records), and the arena's peak footprint
    arena_enabled: bool = False
    arena_peak_bytes: int = 0
    # surrogate pre-ranking audit trail: the cross-architecture
    # prediction made when this model was bred, its rank against the
    # breeding population, the (possibly reduced) epoch budget the
    # allocator assigned, and why; all None/absent when the surrogate is
    # off or had not yet reached its cold-start floor
    predicted_fitness: float | None = None
    predicted_rank: int | None = None
    budget_assigned: int | None = None
    skip_reason: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ModelRecord":
        return cls(**payload)

    @property
    def epochs_saved(self) -> int:
        """Epochs the *engine* saved by terminating inside the budget.

        ``max_epochs`` stores the effective budget the training loop ran
        under (the surrogate-reduced budget when one was assigned), so
        this never includes surrogate-skipped epochs — those are
        :attr:`epochs_skipped`.
        """
        return self.max_epochs - self.epochs_trained

    @property
    def epochs_skipped(self) -> int:
        """Epochs the *surrogate* skipped by reducing this model's budget.

        The gap between the run's full training budget (from
        ``training_parameters``) and the assigned budget; 0 for
        full-budget and quarantined models.
        """
        if self.budget_assigned is None or self.quarantined:
            return 0
        full = int(self.training_parameters.get("max_epochs", self.max_epochs))
        return max(full - min(int(self.budget_assigned), full), 0)

    def total_epoch_seconds(self) -> float:
        """Wall time across recorded epochs (0 for missing timings)."""
        return sum(
            e["epoch_seconds"] or 0.0 if isinstance(e, dict) else (e.epoch_seconds or 0.0)
            for e in self.epochs
        )


@dataclass
class RunRecord:
    """Metadata of one search run (the commons' top-level entry).

    ``workflow_config`` stores the complete
    :class:`~repro.workflow.interfaces.WorkflowConfig` document, making
    the run *replayable*: :func:`repro.lineage.replay.replay_run`
    re-executes it from the seed and verifies the record trails match.
    """

    run_id: str
    intensity: str
    nas_parameters: dict
    engine_parameters: dict | None
    n_models: int = 0
    total_epochs_trained: int = 0
    total_epochs_saved: int = 0
    total_epochs_skipped: int = 0
    notes: str = ""
    workflow_config: dict | None = None
    generation_stats: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "RunRecord":
        return cls(**payload)
