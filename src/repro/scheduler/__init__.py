"""Workflow resource manager (Ray substitute).

FIFO dynamic scheduling of per-network training jobs onto accelerators
(paper §2.5), in two forms: a deterministic discrete-event simulator
that replays recorded epoch durations on an N-GPU pool
(:mod:`repro.scheduler.simulator`), and a real worker pool for machines
with actual parallelism — spawned processes with a shared-memory
dataset and hard-kill timeouts (:mod:`repro.scheduler.procpool`), whose
measured timings :mod:`repro.scheduler.pool` records.  The
FLOPs→seconds cost model (:mod:`repro.scheduler.costmodel`) calibrates
simulated epoch durations to the paper's single-V100 wall times.
"""

from repro.scheduler.costmodel import PAPER_TRAIN_IMAGES, EpochCostModel
from repro.scheduler.faults import (
    EvaluationTimeout,
    FaultEvent,
    FaultInjectingEvaluator,
    FaultInjectionConfig,
    FaultPolicy,
    FaultTolerantEvaluator,
    InjectedFault,
)
from repro.scheduler.fifo import (
    Job,
    JobPlacement,
    ScheduleResult,
    schedule_generation,
    schedule_run,
)
from repro.scheduler.pool import JobTiming, PoolReport
from repro.scheduler.procpool import (
    EvalResult,
    EvalSpec,
    EvalTask,
    ProcessWorkerPool,
)
from repro.scheduler.resources import Gpu, GpuPool
from repro.scheduler.simulator import WallTimeReport, jobs_by_generation, simulate_walltime
from repro.scheduler.trace import (
    ascii_timeline,
    chrome_trace,
    pool_chrome_trace,
    pool_timeline,
)

__all__ = [
    "PAPER_TRAIN_IMAGES",
    "EpochCostModel",
    "EvaluationTimeout",
    "FaultEvent",
    "FaultInjectingEvaluator",
    "FaultInjectionConfig",
    "FaultPolicy",
    "FaultTolerantEvaluator",
    "InjectedFault",
    "Job",
    "JobPlacement",
    "ScheduleResult",
    "schedule_generation",
    "schedule_run",
    "JobTiming",
    "PoolReport",
    "EvalResult",
    "EvalSpec",
    "EvalTask",
    "ProcessWorkerPool",
    "Gpu",
    "GpuPool",
    "WallTimeReport",
    "jobs_by_generation",
    "simulate_walltime",
    "ascii_timeline",
    "chrome_trace",
    "pool_chrome_trace",
    "pool_timeline",
]
