"""Measured timings of a generation executed on a worker pool.

The discrete-event simulator (:mod:`repro.scheduler.simulator`) answers
"what would this schedule cost on N GPUs"; the process backend
(:class:`~repro.scheduler.procpool.ProcessWorkerPool`) actually *runs*
evaluations concurrently and records what happened in the types below:
per-job start/end timestamps against the generation clock and
per-worker busy seconds, from which utilization and the paper's
generation-boundary barrier downtime follow.  :mod:`repro.scheduler.
trace` renders them as text lanes or Chrome trace JSON.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["JobTiming", "PoolReport"]


@dataclass(frozen=True)
class JobTiming:
    """Measured placement of one evaluation on one worker.

    Timestamps are seconds relative to the generation's dispatch start,
    so timings from different generations are directly comparable.  A
    job that was retried keeps one timing spanning every attempt (the worker
    slot was occupied the whole time, as on a real accelerator).
    """

    job_id: int
    worker: int
    start_seconds: float
    end_seconds: float

    @property
    def duration(self) -> float:
        return self.end_seconds - self.start_seconds

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "worker": self.worker,
            "start_seconds": self.start_seconds,
            "end_seconds": self.end_seconds,
        }


@dataclass(frozen=True)
class PoolReport:
    """Measured outcome of one generation executed on a pool.

    Attributes
    ----------
    n_workers:
        Worker slots the generation ran on.
    wall_seconds:
        Dispatch-to-settle wall time of the whole generation.
    n_jobs:
        Evaluations submitted.
    backend:
        The backend that ran the generation (``"process"``).
    jobs:
        Per-job :class:`JobTiming` entries in submission order.
    worker_busy_seconds:
        Seconds each worker spent executing jobs (len ``n_workers``).
    """

    n_workers: int
    wall_seconds: float
    n_jobs: int
    backend: str = "process"
    jobs: tuple = ()
    worker_busy_seconds: tuple = ()

    @property
    def busy_seconds(self) -> float:
        """Total worker-seconds spent executing jobs."""
        return float(sum(self.worker_busy_seconds))

    @property
    def idle_seconds(self) -> float:
        """Total worker-seconds spent idle (includes barrier downtime)."""
        return max(self.n_workers * self.wall_seconds - self.busy_seconds, 0.0)

    @property
    def utilization(self) -> float:
        """Busy fraction of the pool over the generation."""
        capacity = self.n_workers * self.wall_seconds
        return self.busy_seconds / capacity if capacity > 0 else 0.0

    @property
    def idle_workers(self) -> int:
        """Workers that never ran a job (oversized pool, not barrier loss)."""
        scheduled = {job.worker for job in self.jobs}
        return sum(1 for w in range(self.n_workers) if w not in scheduled)

    def barrier_downtime(self) -> list:
        """Seconds each worker idled between its last job and the barrier.

        This is the paper's generation-boundary downtime: when
        ``population % n_workers != 0`` some workers finish early and
        must wait for the slowest one before the next generation can be
        bred.  A worker that never ran a job is *not* charged barrier
        downtime — its loss is a sizing problem, reported separately via
        :attr:`idle_workers` — so oversized pools don't overstate
        barrier loss.
        """
        last_end: dict[int, float] = {}
        for job in self.jobs:
            last_end[job.worker] = max(last_end.get(job.worker, 0.0), job.end_seconds)
        return [
            max(self.wall_seconds - last_end[w], 0.0) if w in last_end else 0.0
            for w in range(self.n_workers)
        ]

    def to_dict(self) -> dict:
        return {
            "n_workers": self.n_workers,
            "wall_seconds": self.wall_seconds,
            "n_jobs": self.n_jobs,
            "backend": self.backend,
            "jobs": [job.to_dict() for job in self.jobs],
            "worker_busy_seconds": list(self.worker_busy_seconds),
            "barrier_downtime_seconds": self.barrier_downtime(),
            "idle_workers": self.idle_workers,
            "utilization": self.utilization,
        }
