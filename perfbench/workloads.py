"""Workload definitions: one seeded batch of A4NN searches per workload.

Every workload is a closed loop driven by one search process.  A run
executes a fixed batch of searches whose seeds derive from the
benchmark's ``--seed``; batching several small searches is what keeps
the end-to-end figures steady across seeds (see NOTES.md).

Configs use only fields the ROADMAP keeps: ``backend`` is always set
explicitly to ``serial`` or ``process`` and ``arena`` is never set.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.core.engine import EngineConfig
from repro.lineage.commons import DataCommons
from repro.nas.search import NSGANetConfig
from repro.nas.surrogate import SurrogateConfig
from repro.workflow.interfaces import WorkflowConfig
from repro.workflow.orchestrator import A4NNOrchestrator
from repro.xfel.dataset import DatasetConfig
from repro.xfel.intensity import BeamIntensity

__all__ = ["Workload", "WORKLOADS", "SearchRun", "run_search"]

# the real-mode dataset is fixed: only the search seed varies per run
_DATASET = DatasetConfig(
    intensity=BeamIntensity.MEDIUM, images_per_class=20, image_size=16
)


def _real_clones(seed: int) -> WorkflowConfig:
    return WorkflowConfig(
        nas=NSGANetConfig(
            population_size=8,
            offspring_per_generation=8,
            generations=5,
            max_epochs=10,
            nodes_per_phase=2,
            evolution="barrier",
        ),
        engine=EngineConfig(e_pred=10),
        dataset=_DATASET,
        mode="real",
        seed=seed,
        n_gpus=(1,),
        backend="serial",
    )


def _surrogate_paper(seed: int) -> WorkflowConfig:
    return WorkflowConfig(
        nas=NSGANetConfig(
            population_size=10,
            offspring_per_generation=10,
            generations=4,
            max_epochs=25,
            nodes_per_phase=4,
            evolution="barrier",
        ),
        engine=EngineConfig(e_pred=25),
        mode="surrogate",
        seed=seed,
        n_gpus=(1,),
        backend="serial",
        surrogate=SurrogateConfig(),
    )


def _standalone_steady_proc(seed: int) -> WorkflowConfig:
    return WorkflowConfig(
        nas=NSGANetConfig(
            population_size=8,
            offspring_per_generation=8,
            generations=3,
            max_epochs=10,
            nodes_per_phase=4,
            evolution="steady",
        ),
        engine=None,
        dataset=_DATASET,
        mode="real",
        seed=seed,
        n_gpus=(1,),
        backend="process",
        n_workers=2,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    make_config: Callable[[int], WorkflowConfig]
    searches: int  # searches per batch

    def seeds(self, seed: int) -> list[int]:
        """The batch's search seeds: a pure function of the run seed."""
        return [seed * 1000 + i for i in range(self.searches)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("real-clones", _real_clones, 3),
        Workload("surrogate-paper", _surrogate_paper, 4),
        Workload("standalone-steady-proc", _standalone_steady_proc, 2),
    )
}


@dataclass
class SearchRun:
    """One search's result plus the end-to-end timings around it."""

    seed: int
    config: WorkflowConfig
    orchestrator: A4NNOrchestrator
    result: object  # WorkflowResult
    commons: DataCommons
    setup_s: float
    search_s: float


def run_search(config: WorkflowConfig, scratch: Path, entry_spans: list) -> SearchRun:
    """Run one search, publishing to a fresh temporary commons.

    ``entry_spans`` is the span list of a tracer that wraps at least
    ``NSGANet.run``; the start of the span this search adds marks the
    end of set-up.
    """
    if scratch.exists():
        shutil.rmtree(scratch)
    commons = DataCommons(scratch)
    orchestrator = A4NNOrchestrator(config, commons=commons)
    n_before = len(entry_spans)
    t0 = time.perf_counter()
    result = orchestrator.run()
    t1 = time.perf_counter()
    entry = next(s for s in entry_spans[n_before:] if s[0] == "search.run")
    return SearchRun(
        seed=config.seed,
        config=config,
        orchestrator=orchestrator,
        result=result,
        commons=commons,
        setup_s=entry[2] - t0,
        search_s=t1 - entry[2],
    )
