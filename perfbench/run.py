"""Seeded benchmark of the A4NN search, end to end or traced by layer.

Run from the repository root::

    python3 perfbench/run.py --workload real-clones --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload's batch of searches with tracing off and
prints the end-to-end metrics.  Each untraced search runs in a fresh
interpreter of its own, one at a time, so that a run samples several
processes instead of inheriting one process's speed.  ``--trace 1`` runs
the same batch once untraced and once in this process with every layer's
entry points wrapped, checks that both give the same outcome digest,
writes the spans as Chrome/Perfetto JSON under ``.perfbench/`` and prints
a per-layer self-time table and the per-layer metrics.  The last line of
standard output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 1 when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

END_TO_END_UNITS = {
    "setup_s": "s",
    "search_s": "s",
    "fresh_epochs_per_s": "epochs/s",
    "epochs_fresh": "count",
    "distinct_archs": "count",
    "front_hv": "hv",
    "best_fitness": "%",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def host_record() -> dict:
    """CPU count, BLAS library and threads in effect, library versions."""
    import ctypes
    import glob
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_one(workload, search_seed: int, tracer) -> dict:
    """One search in this process; ``tracer`` must wrap NSGANet.run."""
    from outcome import check_search, search_outcome
    from workloads import run_search

    first_span = len(tracer.spans)
    run = run_search(workload.make_config(search_seed), OUT / "commons", tracer.spans)
    outcome = search_outcome(run)
    outcome["commons_bytes"] = run.commons.size_bytes()
    return {
        "run": run,
        "outcome": outcome,
        "first_span": first_span,
        "problems": check_search(run, outcome),
    }


def run_batch(workload, seed: int, tracer) -> dict:
    """One batch of the workload's searches in this process."""
    searches = [run_one(workload, s, tracer) for s in workload.seeds(seed)]
    return {
        "searches": searches,
        "problems": [p for s in searches for p in s["problems"]],
        "search_s": sum(s["run"].search_s for s in searches),
        "digests": [s["outcome"]["digest"] for s in searches],
    }


#: outcome figures a search child reports besides its timings
CHILD_OUTCOME = (
    "attempted", "failed", "epochs_fresh", "distinct_archs",
    "front_hv", "best_fitness", "digest",
)
CHILD_TIMEOUT_S = 150.0


def child_search(workload, search_seed: int) -> dict:
    """What a search child reports: timings, outcome figures, check failures."""
    from tracing import SPANS, Tracer

    entry = Tracer().install([s for s in SPANS if s.name == "search.run"])
    try:
        one = run_one(workload, search_seed, entry)
    finally:
        entry.uninstall()
    outcome = one["outcome"]
    return {
        "setup_s": one["run"].setup_s,
        "search_s": one["run"].search_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # the largest waited-for child: a pool worker, 0 on serial backends
        "worker_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "problems": one["problems"],
        **{k: outcome[k] for k in CHILD_OUTCOME},
    }


def spawn_search(workload, search_seed: int) -> dict:
    """Run one untraced search in a fresh interpreter and read its report."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
            "--seed", "0", "--seconds", "0", "--search-seed", str(search_seed)]
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if child.poll() is None:
            # the group holds the child's pool workers too
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RuntimeError(
            f"search seed {search_seed} exited {child.returncode} without a report"
        )
    return json.loads(lines[-1])


def spawn_batch(workload, seed: int) -> dict:
    """One batch of the workload's searches, each in its own interpreter."""
    searches = [spawn_search(workload, s) for s in workload.seeds(seed)]
    return {
        "searches": searches,
        "problems": [p for s in searches for p in s["problems"]],
        "search_s": sum(s["search_s"] for s in searches),
        "digests": [s["digest"] for s in searches],
    }


def end_to_end(batches: list[dict]) -> dict:
    """End-to-end metrics: times are medians over batches, counts from the first."""
    first = batches[0]["searches"]
    search_s = statistics.median(b["search_s"] for b in batches)
    epochs_fresh = sum(o["epochs_fresh"] for o in first)
    attempted = sum(o["attempted"] for o in first)
    failed = sum(o["failed"] for o in first)
    searches = [s for b in batches for s in b["searches"]]
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in searches),
        "search_s": search_s,
        "fresh_epochs_per_s": epochs_fresh / search_s,
        "epochs_fresh": epochs_fresh,
        "distinct_archs": sum(o["distinct_archs"] for o in first),
        "front_hv": statistics.fmean(o["front_hv"] for o in first),
        "best_fitness": statistics.fmean(o["best_fitness"] for o in first),
        "success_ratio": 1.0 - failed / attempted,
        "peak_rss_mb": max(s["peak_rss_mb"] for s in searches),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run one untraced search and print its report (see spawn_search)
    parser.add_argument("--search-seed", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: A4NN sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from tracing import Tracer, format_layer_table
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.search_seed is not None:
        print(json.dumps(child_search(workload, args.search_seed)), flush=True)
        return 0
    print("host", json.dumps(host_record()), flush=True)

    started = time.perf_counter()
    batches = []
    while True:
        t0 = time.perf_counter()
        batches.append(spawn_batch(workload, args.seed))
        took = time.perf_counter() - t0
        if args.trace or time.perf_counter() - started + took > args.seconds:
            break
    problems = list(batches[0]["problems"])
    if any(b["digests"] != batches[0]["digests"] for b in batches):
        problems.append("repeated batches of one seed gave different outcomes")

    if args.trace:
        import layers

        tracer = Tracer().install()
        try:
            traced = run_batch(workload, args.seed, tracer)
        finally:
            tracer.uninstall()
        problems += traced["problems"]
        if traced["digests"] != batches[0]["digests"]:
            problems.append("traced and untraced runs gave different outcome digests")
        metrics, layer_problems = layers.per_layer(
            workload.name, tracer, traced, untraced_search_s=batches[0]["search_s"],
            worker_peak_rss_mb=max(s["worker_peak_rss_mb"] for s in batches[0]["searches"]),
        )
        problems += layer_problems
        trace_path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
        tracer.chrome_trace(trace_path, layers.pool_lanes(tracer, traced))
        print(format_layer_table(tracer))
        print(f"trace written to {trace_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(batches)

    first = batches[0]["searches"]
    for name, metric in metrics.items():
        print(f"{name:<28}{metric['value']:>16.6g} {metric['unit']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(o["attempted"] for o in first),
        "failed": sum(o["failed"] for o in first),
        "metrics": metrics,
    }), flush=True)
    return 0 if not problems else 1


def _reap_children() -> None:
    """Wait for every process this run started, the shared-memory tracker too."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(10.0)
    # the tracker outlives the pool by design; stopping it closes its pipe
    # and waits for it to exit
    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    try:
        code = main()
    finally:
        _reap_children()
    sys.exit(code)
