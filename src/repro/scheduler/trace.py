"""Schedule traces: timeline exports of simulated and measured schedules.

Two renderings of a :class:`~repro.scheduler.fifo.ScheduleResult`:

* :func:`ascii_timeline` — a per-GPU text Gantt chart for terminals and
  reports;
* :func:`chrome_trace` — the Chrome ``chrome://tracing`` / Perfetto JSON
  event format, so schedules can be inspected interactively.

And the same two for a *measured* :class:`~repro.scheduler.pool.
PoolReport` from the process worker pool:

* :func:`pool_timeline` — per-worker text lanes with the
  generation-boundary barrier downtime called out;
* :func:`pool_chrome_trace` — trace-event JSON of the measured
  per-job placements.
"""

from __future__ import annotations

import json

from repro.scheduler.fifo import ScheduleResult
from repro.scheduler.pool import PoolReport

__all__ = ["ascii_timeline", "chrome_trace", "pool_timeline", "pool_chrome_trace"]


def ascii_timeline(result: ScheduleResult, *, width: int = 80) -> str:
    """Render the schedule as one text lane per GPU.

    Each job is drawn as a run of its id's last digit; idle time is
    ``.``; generation boundaries are marked under the lanes.
    """
    if not result.placements:
        return "(empty schedule)"
    if width < 10:
        raise ValueError(f"width must be >= 10, got {width}")
    makespan = result.makespan or max(p.finish for p in result.placements)
    scale = (width - 1) / makespan if makespan > 0 else 0.0

    lanes = {gpu: ["."] * width for gpu in range(result.n_gpus)}
    for placement in result.placements:
        start = int(placement.start * scale)
        finish = max(int(placement.finish * scale), start + 1)
        glyph = str(placement.job_id % 10)
        for col in range(start, min(finish, width)):
            lanes[placement.gpu][col] = glyph

    marker_row = [" "] * width
    for end in result.generation_ends:
        col = min(int(end * scale), width - 1)
        marker_row[col] = "|"

    lines = [
        f"gpu{gpu} {''.join(cells)}" for gpu, cells in sorted(lanes.items())
    ]
    lines.append("gen  " + "".join(marker_row))
    lines.append(
        f"time 0 .. {makespan:.0f}s  (utilization {100 * result.utilization:.0f}%, "
        f"idle {result.idle_seconds:.0f}s)"
    )
    return "\n".join(lines)


def chrome_trace(result: ScheduleResult) -> str:
    """Serialize the schedule as Chrome trace-event JSON.

    Load the returned text into ``chrome://tracing`` or Perfetto; each
    GPU is a thread, each job a complete event (microsecond units).
    """
    events = [
        {
            "name": f"job {p.job_id}",
            "cat": "training",
            "ph": "X",
            "ts": p.start * 1e6,
            "dur": (p.finish - p.start) * 1e6,
            "pid": 0,
            "tid": p.gpu,
            "args": {"job_id": p.job_id},
        }
        for p in result.placements
    ]
    events.extend(
        {
            "name": f"generation {idx} barrier",
            "cat": "barrier",
            "ph": "i",
            "ts": end * 1e6,
            "pid": 0,
            "tid": 0,
            "s": "g",
        }
        for idx, end in enumerate(result.generation_ends)
    )
    metadata = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": gpu,
            "args": {"name": f"GPU {gpu}"},
        }
        for gpu in range(result.n_gpus)
    ]
    return json.dumps({"traceEvents": metadata + events}, indent=2)


def pool_timeline(report: PoolReport, *, width: int = 80) -> str:
    """Render one generation's measured pool execution as text lanes.

    Same visual language as :func:`ascii_timeline` — one lane per
    worker, jobs drawn as their id's last digit, idle time as ``.`` —
    plus a trailing summary with each worker's generation-boundary
    barrier downtime (the tail idle stretch that appears when
    ``population % n_workers != 0``).
    """
    if not report.jobs:
        return "(empty pool report)"
    if width < 10:
        raise ValueError(f"width must be >= 10, got {width}")
    span = report.wall_seconds or max(j.end_seconds for j in report.jobs)
    scale = (width - 1) / span if span > 0 else 0.0

    lanes = {worker: ["."] * width for worker in range(report.n_workers)}
    for job in report.jobs:
        start = int(job.start_seconds * scale)
        finish = max(int(job.end_seconds * scale), start + 1)
        glyph = str(job.job_id % 10)
        for col in range(start, min(finish, width)):
            lanes[job.worker][col] = glyph

    lines = [
        f"worker{worker} {''.join(cells)}" for worker, cells in sorted(lanes.items())
    ]
    downtime = report.barrier_downtime()
    scheduled = {job.worker for job in report.jobs}
    lines.append(
        f"backend={report.backend} jobs={report.n_jobs} "
        f"wall={report.wall_seconds:.2f}s "
        f"utilization={100 * report.utilization:.0f}%"
    )
    lines.append(
        "barrier downtime: "
        + "  ".join(
            f"w{i}={d:.2f}s" if i in scheduled else f"w{i}=idle"
            for i, d in enumerate(downtime)
        )
    )
    if report.idle_workers:
        lines.append(
            f"idle workers: {report.idle_workers} never scheduled "
            "(pool larger than the work; not barrier loss)"
        )
    return "\n".join(lines)


def pool_chrome_trace(report: PoolReport) -> str:
    """Serialize a measured pool generation as Chrome trace-event JSON.

    Each worker is a thread, each job a complete event; per-worker
    barrier downtime is appended as instant events at the generation
    end so the boundary stall is visible in Perfetto.
    """
    events = [
        {
            "name": f"job {j.job_id}",
            "cat": f"eval-{report.backend}",
            "ph": "X",
            "ts": j.start_seconds * 1e6,
            "dur": j.duration * 1e6,
            "pid": 0,
            "tid": j.worker,
            "args": {"job_id": j.job_id},
        }
        for j in report.jobs
    ]
    scheduled = {j.worker for j in report.jobs}
    events.extend(
        {
            "name": f"barrier downtime worker {worker}",
            "cat": "barrier",
            "ph": "X",
            "ts": (report.wall_seconds - downtime) * 1e6,
            "dur": downtime * 1e6,
            "pid": 0,
            "tid": worker,
            "args": {"downtime_seconds": downtime},
        }
        for worker, downtime in enumerate(report.barrier_downtime())
        if downtime > 0
    )
    # a never-scheduled worker spans the whole run as its own event so
    # the lane isn't mislabelled as barrier loss
    events.extend(
        {
            "name": f"worker {worker} never scheduled",
            "cat": "idle",
            "ph": "X",
            "ts": 0.0,
            "dur": report.wall_seconds * 1e6,
            "pid": 0,
            "tid": worker,
            "args": {"idle": True},
        }
        for worker in range(report.n_workers)
        if worker not in scheduled
    )
    metadata = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": worker,
            "args": {"name": f"{report.backend} worker {worker}"},
        }
        for worker in range(report.n_workers)
    ]
    return json.dumps({"traceEvents": metadata + events}, indent=2)
