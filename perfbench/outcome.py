"""What one search produced: outcome figures and output checks.

Everything here reads the lineage records the search committed, never
``SearchResult.total_epochs_trained``: that field counts epochs replayed
from the evaluation cache as training, so fresh epochs are summed over
records with ``cache_hit=False`` instead.
"""

from __future__ import annotations

import hashlib
import json
import math

from repro.nas.genome import Genome

__all__ = ["QUARANTINE_FLOPS", "search_outcome", "check_search", "front_hypervolume"]

#: FLOPs the fault policy assigns to quarantined candidates; the
#: hypervolume reference point sits here, so they add nothing.
QUARANTINE_FLOPS = 1e15


def _canonical(record) -> str:
    return Genome.from_dict(record.genome).canonical_key()


def front_hypervolume(records) -> float:
    """Hypervolume of the Pareto front over (fitness %, log10 FLOPs).

    Reference point (0 %, 1e15 FLOPs).  Records are reduced to one per
    canonical genome first, so clones in the front add nothing.
    """
    ref = math.log10(QUARANTINE_FLOPS)
    points = {}
    for r in records:
        if r.quarantined or r.fitness is None or not r.flops:
            continue
        points.setdefault(_canonical(r), (math.log10(r.flops), float(r.fitness)))
    volume, best = 0.0, 0.0
    ordered = sorted(points.values())
    for i, (cost, fitness) in enumerate(ordered):
        best = max(best, fitness)
        right = ordered[i + 1][0] if i + 1 < len(ordered) else ref
        volume += max(right - cost, 0.0) * best
    return volume


def digest(records) -> str:
    """Outcome digest: model id, canonical genome, fitness, FLOPs, epochs."""
    rows = [
        [r.model_id, _canonical(r), repr(r.fitness), repr(r.flops), r.epochs_trained]
        for r in records
    ]
    return hashlib.blake2b(json.dumps(rows).encode(), digest_size=16).hexdigest()


def search_outcome(run) -> dict:
    """End-to-end figures of one search, read from its lineage records."""
    records = run.result.tracker.all_records()
    fresh = [r for r in records if not r.cache_hit]
    return {
        "records": records,
        "attempted": len(records),
        "failed": sum(1 for r in records if r.quarantined or r.fault is not None),
        "epochs_fresh": sum(r.epochs_trained for r in fresh),
        "epochs_replayed": sum(r.epochs_trained for r in records if r.cache_hit),
        "distinct_archs": len({_canonical(r) for r in records}),
        "front_hv": front_hypervolume(records),
        "best_fitness": float(run.result.search.population.best_fitness()),
        "digest": digest(records),
    }


def check_search(run, outcome: dict) -> list[str]:
    """Output checks for one search; returns the failures found."""
    config = run.config
    records = outcome["records"]
    problems = []
    if len(records) != config.nas.total_evaluations:
        problems.append(
            f"{len(records)} records for {config.nas.total_evaluations} evaluations"
        )
    by_id = {r.model_id: r for r in records}
    for r in records:
        tag = f"seed {config.seed} model {r.model_id}"
        if not r.quarantined:
            if r.fitness is None or not 0.0 <= r.fitness <= 100.0:
                problems.append(f"{tag}: fitness {r.fitness} outside [0, 100]")
            if r.flops is None or not math.isfinite(r.flops):
                problems.append(f"{tag}: FLOPs {r.flops} not finite")
            if not 0 <= r.epochs_trained <= min(r.max_epochs, config.nas.max_epochs):
                problems.append(
                    f"{tag}: {r.epochs_trained} epochs over budget {r.max_epochs}"
                )
        if r.cache_hit:
            source = by_id.get(r.cache_source)
            if source is None or (source.fitness, source.epochs_trained) != (
                r.fitness,
                r.epochs_trained,
            ):
                problems.append(f"{tag}: cache hit differs from source {r.cache_source}")
    stored = run.commons.load_models(run.result.run_id)
    expected = [json.loads(json.dumps(r.to_dict())) for r in records]
    if [m.to_dict() for m in stored] != expected:
        problems.append(f"seed {config.seed}: commons records differ from memory")
    return problems
