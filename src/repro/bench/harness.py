"""The ``a4nn bench`` harness: kernel microbenches + end-to-end search.

Two tiers, both fully seeded:

* **Kernel microbenches** — forward+backward of the hot layers (conv,
  dense, pool) and one full trainer epoch, per compute dtype, on the
  buffer-arena kernels (:mod:`repro.nn.arena`).  Every entry carries
  the approximate FLOPs per call and the achieved GFLOP/s, so the
  document doubles as a roofline-style before/after record.
* **End-to-end evaluation path** — the same seeded real-mode mini
  search run twice: once with the *baseline* settings (float64,
  model-keyed RNG, no cache) and once with the *fast path* (float32,
  genome-keyed RNG, evaluation cache).  The headline number is the
  wall-time ratio.

All timing goes through :class:`~repro.utils.timing.Stopwatch` (the
project's only sanctioned wall-clock seam).  Results serialize to the
``BENCH_evalpath.json`` document committed at the repo root, so
``make bench`` can diff a fresh run against the recorded one and
``make bench-kernels`` can smoke the kernel tier alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.engine import EngineConfig
from repro.nas.search import NSGANetConfig
from repro.nn.dtype import SUPPORTED_DTYPES, resolve_dtype
from repro.nn.layers import Conv2D, Dense, MaxPool2D
from repro.nn.optimizers import Adam
from repro.nn.trainer import Trainer
from repro.utils.logging import get_logger
from repro.utils.rng import RngStream
from repro.utils.timing import Stopwatch
from repro.workflow.interfaces import WorkflowConfig
from repro.xfel.dataset import DatasetConfig
from repro.xfel.intensity import BeamIntensity

__all__ = [
    "BenchReport",
    "bench_kernels",
    "bench_evalpath",
    "bench_predictor",
    "compare_reports",
    "run_bench",
]

_LOG = get_logger("bench")

#: Schema tag written into every bench document.
#: v2 added per-kernel alloc-vs-arena timings, FLOP rates, and the
#: ``arena`` flags on the end-to-end runs.  v3 added the ``predictor``
#: section: the same seeded search with surrogate pre-ranking off vs on
#: (epochs trained, skip precision/recall, front equality).  v4 times
#: one kernel path: the ``alloc``/``arena``/``arena_speedup`` kernel
#: fields and the end-to-end ``arena`` flags are gone.
SCHEMA = "a4nn-bench/4"


def _timeit(fn, *, repeats: int, warmup: int = 1) -> dict:
    """Best/mean seconds over ``repeats`` calls (after ``warmup`` calls)."""
    for _ in range(warmup):
        fn()
    clock = Stopwatch()
    for _ in range(repeats):
        with clock:
            fn()
    return {
        "best_seconds": min(clock.laps),
        "mean_seconds": clock.mean_lap,
        "repeats": repeats,
    }


def _conv_bench(dtype, rng: np.random.Generator, repeats: int) -> dict:
    layer = Conv2D(8, 16, kernel_size=3, rng=rng, dtype=dtype)
    x = rng.standard_normal((16, 8, 16, 16)).astype(dtype)

    def step() -> None:
        out = layer.forward(x, training=True)
        layer.backward(out)

    timing = _timeit(step, repeats=repeats)
    # fwd+bwd costs ~3x the forward GEMM (one product, two adjoints)
    timing["flops_per_call"] = 3 * x.shape[0] * layer.flops(x.shape[1:])
    return timing


def _dense_bench(dtype, rng: np.random.Generator, repeats: int) -> dict:
    layer = Dense(256, 128, rng=rng, dtype=dtype)
    x = rng.standard_normal((64, 256)).astype(dtype)

    def step() -> None:
        out = layer.forward(x, training=True)
        layer.backward(out)

    timing = _timeit(step, repeats=repeats)
    timing["flops_per_call"] = 3 * x.shape[0] * layer.flops(x.shape[1:])
    return timing


def _pool_bench(dtype, rng: np.random.Generator, repeats: int) -> dict:
    layer = MaxPool2D(2)
    x = rng.standard_normal((16, 16, 16, 16)).astype(dtype)

    def step() -> None:
        out = layer.forward(x, training=True)
        layer.backward(out)

    timing = _timeit(step, repeats=repeats)
    # comparisons forward + one scatter backward: ~2x the forward count
    timing["flops_per_call"] = 2 * x.shape[0] * layer.flops(x.shape[1:])
    return timing


def _trainer_epoch_bench(dtype, rng: np.random.Generator, repeats: int) -> dict:
    from repro.nas.decoder import DecoderConfig, decode_genome
    from repro.nas.genome import random_genome

    genome = random_genome(rng, n_phases=3, nodes_per_phase=2, density=0.5)
    network = decode_genome(
        genome,
        DecoderConfig(input_shape=(1, 16, 16), n_classes=2, dtype=dtype),
        rng=rng,
    )
    n = 48
    x = rng.standard_normal((n, 1, 16, 16)).astype(dtype)
    y = (rng.random(n) < 0.5).astype(np.int64)
    trainer = Trainer(
        network,
        x,
        y,
        x[: n // 4],
        y[: n // 4],
        optimizer=Adam(network, 1e-3),
        batch_size=16,
        rng=rng,
    )
    timing = _timeit(trainer.train, repeats=repeats, warmup=1)
    timing["flops_per_call"] = 3 * n * network.flops()
    return timing


_KERNELS = {
    "conv2d_fwd_bwd": _conv_bench,
    "dense_fwd_bwd": _dense_bench,
    "maxpool_fwd_bwd": _pool_bench,
    "trainer_epoch": _trainer_epoch_bench,
}


def bench_kernels(*, seed: int = 0, repeats: int = 5) -> dict:
    """Per-dtype kernel timings, plus dtype ratios.

    For each kernel and dtype the entry records the best and mean
    seconds per call, the approximate FLOPs per call and the achieved
    GFLOP/s.  The ``float64_over_float32`` ratios compare best times;
    above 1 means float32 is that many times faster.
    """
    results: dict = {}
    for label in SUPPORTED_DTYPES:
        dtype = resolve_dtype(label)
        stream = RngStream(seed).child("bench-kernels")
        per_kernel: dict = {}
        for name, fn in _KERNELS.items():
            entry = fn(dtype, stream.generator(name, label), repeats)
            entry["gflops"] = (
                entry["flops_per_call"] / max(entry["best_seconds"], 1e-12) / 1e9
            )
            per_kernel[name] = entry
        results[label] = per_kernel
    results["float64_over_float32"] = {
        name: results["float64"][name]["best_seconds"]
        / max(results["float32"][name]["best_seconds"], 1e-12)
        for name in _KERNELS
    }
    return results


def _bench_workflow_config(seed: int) -> WorkflowConfig:
    """The seeded real-mode mini search both end-to-end runs share."""
    return WorkflowConfig(
        nas=NSGANetConfig(
            population_size=6,
            offspring_per_generation=6,
            generations=4,
            max_epochs=6,
            nodes_per_phase=2,
        ),
        engine=EngineConfig(e_pred=6),
        dataset=DatasetConfig(
            intensity=BeamIntensity.MEDIUM, images_per_class=20, image_size=16
        ),
        mode="real",
        seed=seed,
        n_gpus=(1,),
    )


def _run_evalpath(config: WorkflowConfig) -> dict:
    from repro.workflow.orchestrator import A4NNOrchestrator

    orchestrator = A4NNOrchestrator(config)
    clock = Stopwatch()
    with clock:
        result = orchestrator.run()
    cache_stats = (
        orchestrator.memoizer.cache.stats() if orchestrator.memoizer else None
    )
    return {
        "dtype": config.dtype,
        "rng_keying": config.rng_keying,
        "eval_cache": config.eval_cache,
        "wall_seconds": clock.total,
        "n_models": len(result.search.archive),
        "cache_hits": sum(g.n_cache_hits for g in result.search.generations),
        "cache_stats": cache_stats,
        "epochs_trained": result.total_epochs_trained,
        "best_fitness": result.search.population.best_fitness(),
        "pareto": [
            {"model_id": m.model_id, "fitness": m.fitness, "flops": m.flops}
            for m in result.search.pareto_individuals()
        ],
    }


def bench_evalpath(*, seed: int = 21) -> dict:
    """Baseline (pre-fast-path semantics) vs fast-path end-to-end timing."""
    import dataclasses

    config = _bench_workflow_config(seed)
    baseline = _run_evalpath(
        dataclasses.replace(config, dtype="float64", rng_keying="model", eval_cache=False)
    )
    _LOG.info("baseline evalpath: %.2fs", baseline["wall_seconds"])
    fastpath = _run_evalpath(config)
    _LOG.info("fastpath evalpath: %.2fs", fastpath["wall_seconds"])
    return {
        "seed": seed,
        "baseline": baseline,
        "fastpath": fastpath,
        "speedup": baseline["wall_seconds"]
        / max(fastpath["wall_seconds"], 1e-12),
    }


def _predictor_workflow_config(seed: int) -> WorkflowConfig:
    """The seeded surrogate-mode search both predictor-bench runs share."""
    return WorkflowConfig(
        nas=NSGANetConfig(
            population_size=8,
            offspring_per_generation=8,
            generations=10,
            max_epochs=16,
            nodes_per_phase=2,
        ),
        engine=EngineConfig(e_pred=16),
        mode="surrogate",
        seed=seed,
        n_gpus=(1,),
    )


def _run_predictor_case(config: WorkflowConfig) -> dict:
    from repro.analysis.queries import skip_report
    from repro.workflow.orchestrator import A4NNOrchestrator

    orchestrator = A4NNOrchestrator(config)
    clock = Stopwatch()
    with clock:
        result = orchestrator.run()
    skips = skip_report(result.tracker.all_records())
    return {
        "surrogate": config.surrogate.to_dict() if config.surrogate else None,
        "wall_seconds": clock.total,
        "n_models": len(result.search.archive),
        "epochs_trained": result.total_epochs_trained,
        "epochs_saved_engine": result.search.total_epochs_saved,
        "epochs_skipped": result.total_epochs_skipped,
        "epoch_budget": result.search.epoch_budget,
        "best_fitness": result.search.population.best_fitness(),
        "pareto": [
            {"model_id": m.model_id, "fitness": m.fitness, "flops": m.flops}
            for m in result.search.pareto_individuals()
        ],
        "skip": {
            "n_scored": skips.n_scored,
            "n_flagged": skips.n_flagged,
            "n_probed": skips.n_probed,
            "n_true_losers": skips.n_true_losers,
            "precision": skips.precision,
            "recall": skips.recall,
            "mae": skips.mae,
        },
    }


def bench_predictor(*, seed: int = 21) -> dict:
    """The same seeded search with surrogate pre-ranking off vs on.

    What must hold (and is recorded so CI can assert it): the surrogate
    run reaches the *same best fitness and Pareto front* as the off
    baseline — the dominance-aware skip rule only ever takes budget from
    candidates whose optimistic estimate is already dominated — while
    training meaningfully fewer epochs.
    """
    import dataclasses

    from repro.nas.surrogate import SurrogateConfig

    config = _predictor_workflow_config(seed)
    off = _run_predictor_case(config)
    _LOG.info("predictor off: %d epochs", off["epochs_trained"])
    on = _run_predictor_case(
        dataclasses.replace(
            config, surrogate=SurrogateConfig(band=1.0, explore_every=8)
        )
    )
    _LOG.info("predictor on : %d epochs", on["epochs_trained"])

    def front(case: dict) -> list:
        # the front as a set of objective points: several archive members
        # can share one (fitness, flops) point (duplicate genomes), and
        # how many copies survive is not part of the front itself
        return sorted({(round(p["fitness"], 10), p["flops"]) for p in case["pareto"]})
    return {
        "seed": seed,
        "off": off,
        "on": on,
        "epochs_reduction": 1.0
        - on["epochs_trained"] / max(off["epochs_trained"], 1),
        "same_best_fitness": off["best_fitness"] == on["best_fitness"],
        "same_pareto_front": front(off) == front(on),
        "wall_delta_seconds": off["wall_seconds"] - on["wall_seconds"],
    }


@dataclass
class BenchReport:
    """One complete bench document (kernels + end-to-end)."""

    kernels: dict = field(default_factory=dict)
    evalpath: dict = field(default_factory=dict)
    predictor: dict = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        return float(self.evalpath.get("speedup", 0.0))

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "kernels": self.kernels,
            "evalpath": self.evalpath,
            "predictor": self.predictor,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BenchReport":
        return cls(
            kernels=payload.get("kernels", {}),
            evalpath=payload.get("evalpath", {}),
            predictor=payload.get("predictor", {}),
        )

    @classmethod
    def load(cls, path: str | Path) -> "BenchReport":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path

    def summary(self) -> str:
        lines = ["a4nn bench — evaluation fast path"]
        for label in ("float32", "float64"):
            for name, entry in sorted(self.kernels.get(label, {}).items()):
                lines.append(
                    f"  kernel {name:<18} {label}: best {entry['best_seconds']*1e3:7.3f}ms"
                    f"  {entry['gflops']:6.2f} GFLOP/s"
                )
        ratios = self.kernels.get("float64_over_float32", {})
        for name, ratio in sorted(ratios.items()):
            lines.append(f"  kernel {name:<18} float32 is {ratio:5.2f}x faster")
        base = self.evalpath.get("baseline", {})
        fast = self.evalpath.get("fastpath", {})
        if base and fast:
            lines.append(
                f"  e2e baseline (float64, no cache): {base['wall_seconds']:.2f}s "
                f"over {base['n_models']} models"
            )
            lines.append(
                f"  e2e fastpath (float32, cache)   : {fast['wall_seconds']:.2f}s "
                f"({fast['cache_hits']} cache hits)"
            )
            lines.append(f"  end-to-end speedup              : {self.speedup:.2f}x")
        if self.predictor:
            off, on = self.predictor.get("off", {}), self.predictor.get("on", {})
            skip = on.get("skip", {})
            lines.append(
                f"  predictor off: {off.get('epochs_trained')} epochs; "
                f"on: {on.get('epochs_trained')} epochs "
                f"({100 * self.predictor.get('epochs_reduction', 0.0):.1f}% fewer, "
                f"{on.get('epochs_skipped')} skipped)"
            )
            precision, recall = skip.get("precision"), skip.get("recall")
            lines.append(
                "  predictor skips: "
                f"{skip.get('n_flagged')}/{skip.get('n_scored')} flagged, "
                f"precision {precision if precision is None else f'{precision:.2f}'}, "
                f"recall {recall if recall is None else f'{recall:.2f}'}"
            )
            lines.append(
                f"  predictor front: best fitness "
                f"{'identical' if self.predictor.get('same_best_fitness') else 'DIFFERS'}, "
                f"pareto front "
                f"{'identical' if self.predictor.get('same_pareto_front') else 'DIFFERS'}"
            )
        return "\n".join(lines)


def run_bench(
    *,
    seed: int = 21,
    repeats: int = 5,
    skip_kernels: bool = False,
    kernels_only: bool = False,
) -> BenchReport:
    """Execute the harness and return the report.

    ``kernels_only`` skips the (slow) end-to-end searches — the CI smoke
    job and ``make bench-kernels`` use it.
    """
    kernels = {} if skip_kernels else bench_kernels(seed=seed, repeats=repeats)
    evalpath = {} if kernels_only else bench_evalpath(seed=seed)
    # the predictor section runs in surrogate mode (seconds, not minutes),
    # so even the kernels-only CI smoke covers its schema
    predictor = bench_predictor(seed=seed)
    return BenchReport(kernels=kernels, evalpath=evalpath, predictor=predictor)


def compare_reports(fresh: BenchReport, committed: BenchReport) -> str:
    """Diff a fresh bench run against the committed document.

    Wall times vary across machines; what must agree are the *shape* of
    the result (same models, same cache-hit count — the search is fully
    seeded) and the direction of the speedup.
    """
    lines = ["bench diff (fresh vs committed):"]
    f_fast, c_fast = fresh.evalpath.get("fastpath", {}), committed.evalpath.get(
        "fastpath", {}
    )
    for key in ("n_models", "cache_hits", "best_fitness"):
        a, b = f_fast.get(key), c_fast.get(key)
        marker = "OK " if a == b else "DIFF"
        lines.append(f"  [{marker}] fastpath.{key}: fresh {a!r} vs committed {b!r}")
    lines.append(
        f"  [----] speedup: fresh {fresh.speedup:.2f}x vs committed "
        f"{committed.speedup:.2f}x (wall time is machine-dependent)"
    )
    f_pred, c_pred = fresh.predictor, committed.predictor
    if f_pred and c_pred:
        for key in ("same_best_fitness", "same_pareto_front"):
            a, b = f_pred.get(key), c_pred.get(key)
            marker = "OK " if a == b else "DIFF"
            lines.append(f"  [{marker}] predictor.{key}: fresh {a!r} vs committed {b!r}")
        for key in ("epochs_trained", "epochs_skipped"):
            a = f_pred.get("on", {}).get(key)
            b = c_pred.get("on", {}).get(key)
            marker = "OK " if a == b else "DIFF"
            lines.append(
                f"  [{marker}] predictor.on.{key}: fresh {a!r} vs committed {b!r}"
            )
    for label in ("float32", "float64"):
        f_k, c_k = fresh.kernels.get(label, {}), committed.kernels.get(label, {})
        for name in sorted(set(f_k) & set(c_k)):
            f_e, c_e = f_k[name], c_k[name]
            if not (isinstance(f_e, dict) and isinstance(c_e, dict)):
                continue
            a, b = f_e.get("best_seconds"), c_e.get("best_seconds")
            if a is None or b is None:
                continue
            lines.append(
                f"  [----] kernel {label}.{name}: fresh {a*1e3:.3f}ms vs "
                f"committed {b*1e3:.3f}ms"
            )
    return "\n".join(lines)
