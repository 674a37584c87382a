"""User-facing workflow configuration (paper §2.6).

One document controls the three independently swappable pieces the
paper's user interface exposes: NAS settings (§2.6.1), the data path /
dataset definition (§2.6.2), and the prediction-engine settings
(§2.6.3).  ``WorkflowConfig`` round-trips to plain dicts, so it can be
driven from JSON files or command-line tooling.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.engine import EngineConfig
from repro.nas.evaluation import validate_rng_keying
from repro.nas.search import NSGANetConfig
from repro.nas.surrogate import SurrogateConfig
from repro.nn.dtype import dtype_label
from repro.scheduler.faults import FaultInjectionConfig, FaultPolicy
from repro.utils.validation import ValidationError
from repro.xfel.dataset import DatasetConfig
from repro.xfel.intensity import BeamIntensity

__all__ = ["WorkflowConfig"]

_MODES = ("real", "surrogate")
_BACKENDS = ("serial", "process")


@dataclass(frozen=True)
class WorkflowConfig:
    """Everything a user sets to launch an A4NN run.

    Attributes
    ----------
    nas:
        NSGA-Net settings (Table 2).
    engine:
        Prediction-engine settings (Table 1); ``None`` disables the
        engine, giving the standalone-NAS baseline.
    dataset:
        XFEL dataset definition (real mode) — also fixes the beam
        intensity in surrogate mode.
    mode:
        ``"real"`` (train NumPy CNNs) or ``"surrogate"`` (paper-scale
        synthetic curves).
    n_gpus:
        Pool sizes to simulate wall time for (paper: 1 and 4).
    seed:
        Root seed; the whole run is reproducible from it.
    run_id:
        Commons identifier; auto-derived when empty.
    checkpoint_models:
        Persist per-epoch model state (real mode only).
    n_workers:
        Concurrent evaluations: worker processes of the process backend
        (the serial backend requires 1).
    backend:
        Generation-execution backend — ``"serial"`` (the search's own
        in-process loop; the default) or ``"process"`` (spawned worker
        processes sharing the dataset through shared memory; hard-kills
        timed-out evaluations).  ``from_dict`` replays documents of the
        retired ``"thread"`` backend on ``"serial"``.  See DESIGN
        "Execution backends".
    sanitize:
        Attach the runtime numerical sanitizer to every trained network
        (real mode): non-finite losses/activations/gradients raise
        :class:`~repro.tooling.sanitizer.NumericalFault`, recorded into
        the model's lineage record.
    sanitize_writes:
        Attach the runtime write guard to every trained network (real
        mode): borrowed inter-layer tensors are flipped read-only around
        layer calls, so an aliasing write raises a ``guarded-write``
        :class:`~repro.tooling.sanitizer.NumericalFault`.  Flag-flips
        only — an untripped guarded run stays byte-identical.
    faults:
        Optional :class:`~repro.scheduler.faults.FaultPolicy`.  When
        set, evaluation failures (crashes, timeouts, sanitizer faults)
        are retried with re-seeded RNG children and, if unrecoverable,
        quarantined with penalized objectives — one bad genome costs one
        penalized individual, never the run.  ``None`` keeps the legacy
        abort-on-first-fault behaviour.
    fault_injection:
        Optional deterministic fault-injection settings (test harness);
        requires ``faults`` so injected failures are routed rather than
        aborting the run.
    dtype:
        Compute dtype for real-mode evaluation (``"float32"`` or
        ``"float64"``).  New runs default to the float32 fast path;
        ``from_dict`` defaults *missing* keys to float64 so historical
        run documents replay with the fields ``verify`` compares.
        Both dtypes train on the buffer-arena kernels
        (:mod:`repro.nn.arena`), the only kernel path; ``from_dict``
        ignores the ``arena`` key that older documents carry.
    rng_keying:
        Evaluation RNG identity — see :data:`repro.nas.evaluation.
        RNG_KEYINGS`.  ``"genome"`` (new-run default) makes evaluation a
        pure function of the canonical genome, enabling the evaluation
        cache; ``"model"`` replays historical runs byte-exactly.
    eval_cache:
        Memoize evaluations of duplicate (isomorphic) genomes.  Requires
        ``rng_keying="genome"``.  Ignored while fault *injection* is
        active (the injection schedule is keyed per evaluation, so
        deduplication would change which candidates fault).
    surrogate:
        Cross-architecture surrogate pre-ranking settings
        (:class:`~repro.nas.surrogate.SurrogateConfig`).  ``None`` (the
        default, and the ``from_dict`` default for missing keys) keeps
        the allocator off entirely — runs are byte-identical to
        pre-surrogate behaviour.
    """

    nas: NSGANetConfig = field(default_factory=NSGANetConfig)
    engine: EngineConfig | None = field(default_factory=EngineConfig)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    mode: str = "surrogate"
    n_gpus: tuple = (1, 4)
    seed: int = 42
    run_id: str = ""
    checkpoint_models: bool = False
    n_workers: int = 1
    backend: str = "serial"
    sanitize: bool = False
    sanitize_writes: bool = False
    faults: FaultPolicy | None = None
    fault_injection: FaultInjectionConfig | None = None
    dtype: str = "float32"
    rng_keying: str = "genome"
    eval_cache: bool = True
    surrogate: SurrogateConfig | None = None

    def __post_init__(self) -> None:
        if int(self.n_workers) < 1:
            raise ValidationError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.backend not in _BACKENDS:
            raise ValidationError(
                f"backend must be one of {_BACKENDS}, got {self.backend!r}"
            )
        if self.backend == "serial" and int(self.n_workers) != 1:
            raise ValidationError(
                f"n_workers={self.n_workers} needs the process backend "
                f"(--backend process); backend='serial' runs one evaluation "
                f"at a time"
            )
        if self.backend == "process" and self.checkpoint_models:
            raise ValidationError(
                "backend='process' cannot checkpoint per-epoch model state: "
                "trained networks live in the worker processes and only "
                "measurements travel back; use the serial backend"
            )
        try:
            object.__setattr__(self, "dtype", dtype_label(self.dtype))
            validate_rng_keying(self.rng_keying)
        except ValueError as exc:
            raise ValidationError(str(exc)) from None
        if self.eval_cache and self.rng_keying != "genome":
            raise ValidationError(
                "eval_cache requires rng_keying='genome': model-keyed "
                "evaluations are not pure functions of the genome, so "
                "sharing their results would change the run"
            )
        if (
            self.fault_injection is not None
            and self.fault_injection.rate > 0
            and self.faults is None
        ):
            raise ValidationError(
                "fault_injection without a fault policy would abort the run "
                "on the first injected fault; set faults=FaultPolicy(...)"
            )
        if self.mode not in _MODES:
            raise ValidationError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if not self.n_gpus or any(int(n) < 1 for n in self.n_gpus):
            raise ValidationError(f"n_gpus must be positive pool sizes, got {self.n_gpus}")
        if self.engine is not None and self.engine.e_pred != self.nas.max_epochs:
            # Not fatal in general, but in the paper e_pred is the NAS
            # budget; silently different values usually mean a typo.
            raise ValidationError(
                f"engine.e_pred ({self.engine.e_pred}) should equal "
                f"nas.max_epochs ({self.nas.max_epochs}); construct the "
                f"engine config explicitly if this is intentional"
            )

    @property
    def intensity(self) -> BeamIntensity:
        return self.dataset.intensity

    def resolved_run_id(self) -> str:
        """The commons run id, derived when not set explicitly."""
        if self.run_id:
            return self.run_id
        engine_tag = "a4nn" if self.engine is not None else "standalone"
        return f"{engine_tag}_{self.mode}_{self.intensity.label}_seed{self.seed}"

    def standalone(self) -> "WorkflowConfig":
        """A copy with the prediction engine disabled (baseline runs)."""
        return replace(self, engine=None, run_id="")

    def to_dict(self) -> dict:
        return {
            "nas": self.nas.to_dict(),
            "engine": self.engine.to_dict() if self.engine else None,
            "dataset": {
                "intensity": self.dataset.intensity.label,
                "images_per_class": self.dataset.images_per_class,
                "image_size": self.dataset.image_size,
                "train_fraction": self.dataset.train_fraction,
                "seed": self.dataset.seed,
                "n_atoms": self.dataset.n_atoms,
                "q_max": self.dataset.q_max,
                "orientation_spread": self.dataset.orientation_spread,
                "dtype": self.dataset.dtype,
            },
            "mode": self.mode,
            "n_gpus": list(self.n_gpus),
            "seed": self.seed,
            "run_id": self.run_id,
            "checkpoint_models": self.checkpoint_models,
            "n_workers": self.n_workers,
            "backend": self.backend,
            "sanitize": self.sanitize,
            "sanitize_writes": self.sanitize_writes,
            "faults": self.faults.to_dict() if self.faults else None,
            "fault_injection": self.fault_injection.to_dict()
            if self.fault_injection
            else None,
            "dtype": self.dtype,
            "rng_keying": self.rng_keying,
            "eval_cache": self.eval_cache,
            "surrogate": self.surrogate.to_dict() if self.surrogate else None,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "WorkflowConfig":
        dataset_payload = dict(payload.get("dataset", {}))
        if "intensity" in dataset_payload:
            dataset_payload["intensity"] = BeamIntensity.from_label(
                dataset_payload["intensity"]
            )
        engine_payload = payload.get("engine")
        nas = NSGANetConfig(**payload.get("nas", {}))
        # the retired thread backend (the default of documents that lack
        # the key) replays on the serial loop; its steady runs defaulted
        # the lag to the worker count, so pin that before the count drops
        backend = payload.get("backend", "thread")
        n_workers = payload.get("n_workers", 1)
        if backend == "thread":
            if nas.evolution == "steady" and nas.steady_lag is None:
                nas = replace(nas, steady_lag=n_workers)
            backend, n_workers = "serial", 1
        return cls(
            nas=nas,
            engine=None
            if engine_payload is None
            else EngineConfig(
                **{
                    k: tuple(v) if k == "fitness_bounds" else v
                    for k, v in engine_payload.items()
                }
            ),
            dataset=DatasetConfig(**dataset_payload),
            mode=payload.get("mode", "surrogate"),
            n_gpus=tuple(payload.get("n_gpus", (1, 4))),
            seed=payload.get("seed", 42),
            run_id=payload.get("run_id", ""),
            checkpoint_models=payload.get("checkpoint_models", False),
            n_workers=n_workers,
            backend=backend,
            sanitize=payload.get("sanitize", False),
            sanitize_writes=payload.get("sanitize_writes", False),
            faults=FaultPolicy.from_dict(payload["faults"])
            if payload.get("faults")
            else None,
            fault_injection=FaultInjectionConfig.from_dict(payload["fault_injection"])
            if payload.get("fault_injection")
            else None,
            # missing keys default to the *legacy* behaviour, not the
            # new-run defaults: historical run documents predate the fast
            # path and must replay byte-exactly
            dtype=payload.get("dtype", "float64"),
            rng_keying=payload.get("rng_keying", "model"),
            eval_cache=payload.get("eval_cache", False),
            surrogate=SurrogateConfig.from_dict(payload["surrogate"])
            if payload.get("surrogate")
            else None,
        )
