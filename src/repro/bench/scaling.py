"""Backend scaling sweep for ``a4nn bench --scaling``.

Runs the same fully-seeded real-mode mini search on every execution
backend × worker-count combination (serial, process × {1,2,4}), plus
steady-state evolution points sharing one pinned breeding lag, and
reports, per entry:

* the end-to-end wall time (machine-dependent — recorded for context,
  never compared);
* the structural outcome (models evaluated, best fitness, epochs
  trained), which must be **identical across every entry** — the sweep
  doubles as a determinism check for the process backend;
* for process entries, the measured :class:`~repro.scheduler.pool.
  PoolReport` per generation: per-worker busy seconds, utilization, and the
  generation-boundary *barrier downtime* each worker spends waiting for
  the stragglers — the sweep population (5) is deliberately not
  divisible by 2 or 4, so the barrier cost is visible at every
  multi-worker point.  Each entry also splits the idle tail into
  ``mid_run_barrier_downtime_seconds`` (stalls at interior generation
  boundaries — structurally zero for steady entries, which run one
  continuous stream) and ``final_drain_seconds`` (the unavoidable
  end-of-run drain).

The committed ``BENCH_scaling.json`` records one run of this sweep;
``make bench-scale`` re-runs it and diffs the structural fields.  A note
on reading the wall times: process workers need real cores, so on a
single-core host *every* multi-worker configuration is expected to be
no faster (process workers additionally pay a spawn + import cost).
The sweep measures the machinery honestly rather than proving a
speedup the hardware cannot deliver; ``host_cpus`` is recorded so
readers can judge the numbers.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.engine import EngineConfig
from repro.nas.search import NSGANetConfig
from repro.utils.logging import get_logger
from repro.utils.timing import Stopwatch
from repro.workflow.interfaces import WorkflowConfig
from repro.xfel.dataset import DatasetConfig
from repro.xfel.intensity import BeamIntensity

__all__ = [
    "SCALING_SCHEMA",
    "SCALING_GRID",
    "STEADY_LAG",
    "ScalingReport",
    "run_scaling",
    "compare_scaling",
]

_LOG = get_logger("bench.scaling")

#: Schema tag written into every scaling document.
SCALING_SCHEMA = "a4nn-bench-scaling/2"

#: Breeding lag the steady-state sweep entries pin.  Fixed (rather than
#: defaulted to ``n_workers``) so every steady entry runs the *same*
#: logical clock and the sweep's cross-backend determinism check holds.
STEADY_LAG = 4

#: (backend, n_workers, evolution) points the sweep measures, in order.
SCALING_GRID = (
    ("serial", 1, "barrier"),
    ("process", 1, "barrier"),
    ("process", 2, "barrier"),
    ("process", 4, "barrier"),
    ("serial", 1, "steady"),
    ("process", 4, "steady"),
)


def _scaling_config(
    seed: int, backend: str, n_workers: int, evolution: str = "barrier"
) -> WorkflowConfig:
    """The seeded real-mode mini search every sweep entry runs.

    Population 5 is deliberately coprime to the 2- and 4-worker points
    so the generation barrier leaves visible per-worker downtime.  The
    cache is off so every entry evaluates the same number of models.
    Steady entries pin ``steady_lag`` to :data:`STEADY_LAG` so they all
    share one logical clock regardless of worker count.
    """
    return WorkflowConfig(
        nas=NSGANetConfig(
            population_size=5,
            offspring_per_generation=5,
            generations=2,
            max_epochs=4,
            nodes_per_phase=2,
            evolution=evolution,
            steady_lag=STEADY_LAG if evolution == "steady" else None,
        ),
        engine=EngineConfig(e_pred=4),
        dataset=DatasetConfig(
            intensity=BeamIntensity.MEDIUM, images_per_class=16, image_size=16
        ),
        mode="real",
        seed=seed,
        n_gpus=(1,),
        backend=backend,
        n_workers=n_workers,
        eval_cache=False,
    )


def _run_entry(
    seed: int, backend: str, n_workers: int, evolution: str = "barrier"
) -> dict:
    from repro.workflow.orchestrator import A4NNOrchestrator

    orchestrator = A4NNOrchestrator(
        _scaling_config(seed, backend, n_workers, evolution)
    )
    clock = Stopwatch()
    with clock:
        result = orchestrator.run()
    reports = orchestrator.pool_reports
    entry = {
        "backend": backend,
        "n_workers": n_workers,
        "evolution": evolution,
        "wall_seconds": clock.total,
        "n_models": len(result.search.archive),
        "best_fitness": result.search.population.best_fitness(),
        "epochs_trained": result.total_epochs_trained,
        "generations": [report.to_dict() for report in reports],
    }
    if reports:
        entry["busy_seconds"] = sum(r.busy_seconds for r in reports)
        entry["idle_seconds"] = sum(r.idle_seconds for r in reports)
        entry["barrier_downtime_seconds"] = [
            r.barrier_downtime() for r in reports
        ]
        # A barrier run stalls at every generation boundary; a steady run
        # has exactly one report whose only idle tail is the final drain.
        # Splitting the two makes the tentpole claim measurable: steady
        # mid-run barrier downtime is structurally zero.
        entry["mid_run_barrier_downtime_seconds"] = sum(
            sum(r.barrier_downtime()) for r in reports[:-1]
        )
        entry["final_drain_seconds"] = sum(reports[-1].barrier_downtime())
    else:
        # the serial backend runs the search's own loop with no pool
        # behind it, so there is nothing to report per worker
        entry["note"] = "inline serial loop (no pool report)"
    return entry


@dataclass
class ScalingReport:
    """One complete backend-scaling document."""

    seed: int = 0
    host_cpus: int = 0
    entries: list = field(default_factory=list)

    def consistent(self) -> bool:
        """Whether every entry produced the identical search outcome.

        Compared *per evolution mode*: barrier and steady visit
        different candidate sequences by design, but within one mode
        every backend × worker-count point must agree bit-exactly.
        """
        by_mode: dict[str, set] = {}
        for e in self.entries:
            by_mode.setdefault(e.get("evolution", "barrier"), set()).add(
                (e["n_models"], e["best_fitness"], e["epochs_trained"])
            )
        return all(len(outcomes) <= 1 for outcomes in by_mode.values())

    def to_dict(self) -> dict:
        return {
            "schema": SCALING_SCHEMA,
            "seed": self.seed,
            "host_cpus": self.host_cpus,
            "consistent": self.consistent(),
            "entries": self.entries,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ScalingReport":
        return cls(
            seed=payload.get("seed", 0),
            host_cpus=payload.get("host_cpus", 0),
            entries=list(payload.get("entries", [])),
        )

    @classmethod
    def load(cls, path: str | Path) -> "ScalingReport":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path

    def summary(self) -> str:
        lines = [
            f"a4nn bench — backend scaling (seed {self.seed}, "
            f"{self.host_cpus} cpu core(s))"
        ]
        for e in self.entries:
            label = f"{e['backend']}@{e['n_workers']}"
            if e.get("evolution", "barrier") == "steady":
                label += "/steady"
            line = (
                f"  {label:<17} wall {e['wall_seconds']:6.2f}s  "
                f"models {e['n_models']}  best {e['best_fitness']:.2f}%"
            )
            if "busy_seconds" in e:
                downtime = sum(
                    sum(gen) for gen in e.get("barrier_downtime_seconds", [])
                )
                line += (
                    f"  busy {e['busy_seconds']:6.2f}s  "
                    f"barrier-idle {downtime:5.2f}s"
                )
                if "mid_run_barrier_downtime_seconds" in e:
                    line += (
                        f"  (mid-run {e['mid_run_barrier_downtime_seconds']:5.2f}s"
                        f" + drain {e['final_drain_seconds']:5.2f}s)"
                    )
            lines.append(line)
        lines.append(
            "  outcome identical across backends (per evolution mode): "
            + ("yes" if self.consistent() else "NO — DETERMINISM BROKEN")
        )
        if self.host_cpus <= 1:
            lines.append(
                "  note: single-core host — multi-worker wall times cannot "
                "beat serial here; compare busy/idle structure, not speed"
            )
        return "\n".join(lines)


def run_scaling(*, seed: int = 21) -> ScalingReport:
    """Execute the full backend × n_workers sweep and return the report."""
    entries = []
    for backend, n_workers, evolution in SCALING_GRID:
        _LOG.info(
            "scaling sweep: backend=%s n_workers=%d evolution=%s",
            backend,
            n_workers,
            evolution,
        )
        entries.append(_run_entry(seed, backend, n_workers, evolution))
    return ScalingReport(
        seed=seed, host_cpus=os.cpu_count() or 1, entries=entries
    )


def compare_scaling(fresh: ScalingReport, committed: ScalingReport) -> str:
    """Diff a fresh sweep against the committed document.

    Wall times and busy/idle splits are machine-dependent; what must
    agree are the grid itself and the structural outcome of each entry
    (the search is fully seeded), plus the cross-backend consistency
    flag.
    """
    lines = ["scaling diff (fresh vs committed):"]

    def by_point(report: ScalingReport) -> dict:
        return {
            (e["backend"], e["n_workers"], e.get("evolution", "barrier")): e
            for e in report.entries
        }

    fresh_by, comm_by = by_point(fresh), by_point(committed)
    for key in sorted(set(fresh_by) | set(comm_by)):
        a, b = fresh_by.get(key), comm_by.get(key)
        label = f"{key[0]}@{key[1]}"
        if key[2] != "barrier":
            label += f"/{key[2]}"
        if a is None or b is None:
            lines.append(f"  [DIFF] {label}: present only in one document")
            continue
        for metric in ("n_models", "best_fitness", "epochs_trained"):
            marker = "OK " if a[metric] == b[metric] else "DIFF"
            lines.append(
                f"  [{marker}] {label}.{metric}: fresh {a[metric]!r} "
                f"vs committed {b[metric]!r}"
            )
    marker = "OK " if fresh.consistent() and committed.consistent() else "DIFF"
    lines.append(
        f"  [{marker}] consistent: fresh {fresh.consistent()} "
        f"vs committed {committed.consistent()}"
    )
    lines.append(
        "  [----] wall/busy seconds are machine-dependent and not compared"
    )
    return "\n".join(lines)
