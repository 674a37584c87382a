"""Per-layer metrics of a traced batch.

Times are summed over the batch's searches.  Where a layer runs in
spawned worker processes (``standalone-steady-proc``), wrappers in the
parent cannot reach it: the pool figures come from the program's
``PoolReport``/``JobTiming`` records and the trainer figures from the
worker-measured epoch times the lineage records carry (see NOTES.md).
"""

from __future__ import annotations

from repro.analysis.queries import skip_report
from tracing import END, NAME, SPANS, START, layer_table

__all__ = ["PER_LAYER_UNITS", "LAYERS", "per_layer", "pool_lanes"]

#: module names of the layers the spans cover (self time is reported per layer)
LAYERS = sorted({spec.layer for spec in SPANS})

PER_LAYER_UNITS = {
    "xfel.dataset_s": "s",
    "nn.epochs": "count",
    "nn.train_s": "s",
    "nn.epoch_p50_s": "s",
    "nn.epoch_p90_s": "s",
    "nn.validate_s": "s",
    "nn.gflops": "GFLOP/s",
    "decoder.decode_s": "s",
    "evaluate.calls": "count",
    "evaluate.p50_s": "s",
    "evaluate.p90_s": "s",
    "evaluate.self_s": "s",
    "engine.fit_calls": "count",
    "engine.fit_s": "s",
    "engine.fit_p50_ms": "ms",
    "engine.fit_p90_ms": "ms",
    "engine.fit_fail_ratio": "ratio",
    "engine.analyze_s": "s",
    "engine.early_stops": "count",
    "engine.epochs_saved": "count",
    "evalcache.lookups": "count",
    "evalcache.hits": "count",
    "evalcache.hit_ratio": "ratio",
    "evalcache.epochs_replayed": "count",
    "ranker.scored": "count",
    "ranker.score_s": "s",
    "ranker.observe_s": "s",
    "ranker.reduced": "count",
    "ranker.epochs_skipped": "count",
    "ranker.precision": "ratio",
    "curves.sim_self_s": "s",
    "nsga2.select_calls": "count",
    "nsga2.select_s": "s",
    "operators.vary_s": "s",
    "pool.start_s": "s",
    "pool.busy_s": "s",
    "pool.idle_share": "ratio",
    "pool.job_p50_s": "s",
    "pool.job_p90_s": "s",
    "pool.parent_s": "s",
    "pool.worker_peak_rss_mb": "MB",
    "lineage.observe_s": "s",
    "lineage.publish_s": "s",
    "lineage.bytes": "bytes",
    "trace.overhead": "ratio",
    **{f"self_s.{layer}": "s" for layer in LAYERS},
}

_SELECT = ("nsga2.environmental_selection", "nsga2.binary_tournament", "nsga2.steady_eviction")
_VARY = ("operators.uniform_crossover", "operators.bitflip_mutation")


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _first_submits(tracer, batch) -> list:
    """Per search, the first ``ProcessWorkerPool.submit`` span (it spawns)."""
    spans = tracer.spans
    firsts = []
    for search in batch["searches"]:
        span = next(
            (s for s in spans[search["first_span"]:] if s[NAME] == "procpool.submit"),
            None,
        )
        if span is not None:
            firsts.append(span)
    return firsts


def per_layer(
    workload: str, tracer, batch: dict, *, untraced_search_s: float,
    worker_peak_rss_mb: float,
):
    """Per-layer metrics of a traced batch, plus span-coverage problems."""
    searches = batch["searches"]
    records = [r for s in searches for r in s["outcome"]["records"]]
    fresh = [r for r in records if not r.cache_hit]
    durations = {}
    for span in tracer.spans:
        durations.setdefault(span[NAME], []).append(span[END] - span[START])

    def total(*names) -> float:
        return sum(sum(durations.get(n, ())) for n in names)

    def calls(*names) -> int:
        return sum(len(durations.get(n, ())) for n in names)

    m: dict[str, float] = {"xfel.dataset_s": total("xfel.load_or_generate")}

    # nn: spans in the parent; with the process backend the trainer runs in
    # the workers, so use the epoch times they measured (surrogate-mode
    # epoch times are simulated and never count)
    real = searches[0]["run"].config.mode == "real"
    if calls("nn.train") or not real:
        epoch_times = durations.get("nn.train", [])
    else:
        epoch_times = [
            e["epoch_seconds"]
            for r in fresh
            for e in r.epochs
            if e.get("epoch_seconds") is not None
        ]
    train_s = sum(epoch_times)
    # computed: 3 x samples x forward FLOPs per sample, per trained epoch
    trained_flops = real * 3.0 * tracer.train_samples * sum(
        r.flops * r.epochs_trained for r in fresh if r.flops
    )
    m["nn.epochs"] = len(epoch_times)
    m["nn.train_s"] = train_s
    m["nn.epoch_p50_s"] = _percentile(epoch_times, 0.5)
    m["nn.epoch_p90_s"] = _percentile(epoch_times, 0.9)
    m["nn.validate_s"] = total("nn.validate")
    m["nn.gflops"] = trained_flops / train_s / 1e9 if train_s else 0.0

    evaluate = durations.get("evaluation.evaluate", [])
    m["decoder.decode_s"] = total("decoder.decode_genome", "decoder.decode_for_flops")
    m["evaluate.calls"] = len(evaluate)
    m["evaluate.p50_s"] = _percentile(evaluate, 0.5)
    m["evaluate.p90_s"] = _percentile(evaluate, 0.9)
    m["evaluate.self_s"] = tracer.self_seconds_of("evaluation.evaluate")

    fits = durations.get("engine.fit", [])
    m["engine.fit_calls"] = len(fits)
    m["engine.fit_s"] = sum(fits)
    m["engine.fit_p50_ms"] = 1e3 * _percentile(fits, 0.5)
    m["engine.fit_p90_ms"] = 1e3 * _percentile(fits, 0.9)
    m["engine.fit_fail_ratio"] = tracer.fit_failures / len(fits) if fits else 0.0
    m["engine.analyze_s"] = total("engine.analyze")
    engine_on = [r for r in fresh if r.engine_parameters is not None and not r.quarantined]
    m["engine.early_stops"] = sum(1 for r in engine_on if r.terminated_early)
    m["engine.epochs_saved"] = sum(r.max_epochs - r.epochs_trained for r in engine_on)

    stats = [
        s["run"].orchestrator.memoizer.cache.stats()
        for s in searches
        if s["run"].orchestrator.memoizer is not None
    ]
    lookups = sum(st["hits"] + st["misses"] for st in stats)
    hits = sum(st["hits"] for st in stats)
    m["evalcache.lookups"] = lookups
    m["evalcache.hits"] = hits
    m["evalcache.hit_ratio"] = hits / lookups if lookups else 0.0
    m["evalcache.epochs_replayed"] = sum(s["outcome"]["epochs_replayed"] for s in searches)

    allocators = [s["run"].orchestrator.allocator for s in searches]
    precisions = [
        p
        for s in searches
        if s["run"].orchestrator.allocator is not None
        for p in [skip_report(s["outcome"]["records"]).precision]
        if p is not None
    ]
    m["ranker.scored"] = sum(a.n_scored for a in allocators if a is not None)
    m["ranker.score_s"] = total("ranker.score")
    m["ranker.observe_s"] = total("ranker.observe")
    m["ranker.reduced"] = sum(1 for r in records if r.budget_assigned is not None)
    m["ranker.epochs_skipped"] = sum(r.epochs_skipped for r in records)
    m["ranker.precision"] = sum(precisions) / len(precisions) if precisions else 0.0
    m["curves.sim_self_s"] = tracer.self_seconds_of("curves.evaluate")

    m["nsga2.select_calls"] = calls(*_SELECT)
    m["nsga2.select_s"] = total(*_SELECT)
    m["operators.vary_s"] = total(*_VARY)

    proc_reports = []
    jobs = []
    parent = []  # job duration beyond the training the worker measured
    for s in searches:
        trained = {
            r.model_id: sum(e.get("epoch_seconds") or 0.0 for e in r.epochs)
            for r in s["outcome"]["records"]
        }
        for report in s["run"].orchestrator.pool_reports:
            if report.backend != "process":
                continue
            proc_reports.append(report)
            for job in report.jobs:
                jobs.append(job.duration)
                parent.append(job.duration - trained[job.job_id])
    capacity = sum(r.n_workers * r.wall_seconds for r in proc_reports)
    m["pool.start_s"] = sum(s[END] - s[START] for s in _first_submits(tracer, batch))
    m["pool.busy_s"] = sum(r.busy_seconds for r in proc_reports)
    m["pool.idle_share"] = (
        sum(r.idle_seconds for r in proc_reports) / capacity if capacity else 0.0
    )
    m["pool.job_p50_s"] = _percentile(jobs, 0.5)
    m["pool.job_p90_s"] = _percentile(jobs, 0.9)
    m["pool.parent_s"] = _percentile(parent, 0.5)
    m["pool.worker_peak_rss_mb"] = worker_peak_rss_mb

    m["lineage.observe_s"] = total("lineage.observe_epoch", "lineage.observe_individual")
    m["lineage.publish_s"] = total("lineage.publish_run")
    m["lineage.bytes"] = sum(s["outcome"]["commons_bytes"] for s in searches)
    m["trace.overhead"] = batch["search_s"] / untraced_search_s - 1.0

    table = layer_table(tracer)
    for layer in LAYERS:
        m[f"self_s.{layer}"] = table.get(layer, {}).get("self_s", 0.0)

    problems = [
        f"span {spec.name} never fired on {workload}"
        for spec in SPANS
        if workload in spec.fires_on and not calls(spec.name)
    ]
    if calls("nn.train") and calls("nn.train") != sum(r.epochs_trained for r in fresh):
        problems.append("trainer epochs disagree with fresh epochs in lineage")
    if stats and hits != sum(1 for r in records if r.cache_hit):
        problems.append("cache hit count disagrees with cache-hit records")
    metrics = {k: {"value": float(m[k]), "unit": u} for k, u in PER_LAYER_UNITS.items()}
    return metrics, problems


def pool_lanes(tracer, batch) -> list[dict]:
    """Chrome-trace events for worker lanes, from each search's PoolReport.

    Job timestamps are relative to the stream clock, which starts inside
    the first ``submit`` right after the workers come up; the end of
    that span is used as the lane origin.
    """
    events = []
    firsts = iter(_first_submits(tracer, batch))
    for s in batch["searches"]:
        for report in s["run"].orchestrator.pool_reports:
            if report.backend != "process":
                continue
            origin = next(firsts)[END]
            events += [
                {
                    "name": f"model {job.job_id}",
                    "cat": "pool.job",
                    "ph": "X",
                    "ts": (origin + job.start_seconds) * 1e6,
                    "dur": job.duration * 1e6,
                    "pid": 2,
                    "tid": job.worker,
                }
                for job in report.jobs
            ]
    return events
