"""Outside-in span tracer for the A4NN benchmark.

The tracer wraps public entry points of each layer *where the caller
looks them up*: a class attribute for methods (so bound methods captured
later resolve to the wrapper), or the importing module's global for
functions imported by value (``repro.nas.search`` imports the NSGA-II
functions and the crossover table that way, so patching their home
module would measure nothing).

Spans are kept in memory as ``[name, layer, start, end, parent, tid]``
lists and turned into per-layer counts, busy time and self time when the
run ends.  Nothing under ``src/`` changes; :meth:`Tracer.uninstall`
restores every patched attribute.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from dataclasses import dataclass

__all__ = ["SpanSpec", "SPANS", "Tracer", "layer_table", "format_layer_table"]

ALL = ("real-clones", "surrogate-paper", "standalone-steady-proc")
REAL_SERIAL = ("real-clones",)
SURROGATE = ("surrogate-paper",)
BARRIER = ("real-clones", "surrogate-paper")
ENGINE = ("real-clones", "surrogate-paper")
PROC = ("standalone-steady-proc",)
REAL = ("real-clones", "standalone-steady-proc")


@dataclass(frozen=True)
class SpanSpec:
    """One wrapped entry point.

    ``owner`` is ``"module"`` or ``"module:Class"``; a ``"module:NAME"``
    whose target is a dict wraps the dict entry ``attr`` (the crossover
    table).  ``fires_on`` lists the workloads on which the span must
    record at least once.
    """

    name: str
    layer: str
    owner: str
    attr: str
    fires_on: tuple


SPANS = (
    SpanSpec("orchestrator.run", "workflow.orchestrator",
             "repro.workflow.orchestrator:A4NNOrchestrator", "run", ALL),
    SpanSpec("xfel.load_or_generate", "xfel",
             "repro.workflow.orchestrator", "load_or_generate", REAL),
    SpanSpec("xfel.share_dataset", "xfel",
             "repro.workflow.orchestrator", "share_dataset", PROC),
    SpanSpec("search.run", "nas.search", "repro.nas.search:NSGANet", "run", ALL),
    SpanSpec("nsga2.environmental_selection", "nas.nsga2",
             "repro.nas.search", "environmental_selection", BARRIER),
    SpanSpec("nsga2.binary_tournament", "nas.nsga2",
             "repro.nas.search", "binary_tournament", ALL),
    SpanSpec("nsga2.steady_eviction", "nas.nsga2",
             "repro.nas.search", "steady_eviction", PROC),
    SpanSpec("nsga2.pareto_front_mask", "nas.nsga2",
             "repro.nas.search", "pareto_front_mask", ALL),
    SpanSpec("operators.uniform_crossover", "nas.operators",
             "repro.nas.search:_CROSSOVERS", "uniform", ALL),
    SpanSpec("operators.bitflip_mutation", "nas.operators",
             "repro.nas.search", "bitflip_mutation", ALL),
    SpanSpec("decoder.decode_genome", "nas.decoder",
             "repro.nas.evaluation", "decode_genome", REAL_SERIAL),
    SpanSpec("decoder.decode_for_flops", "nas.decoder",
             "repro.nas.surrogate", "decode_genome", SURROGATE),
    SpanSpec("evaluation.evaluate", "nas.evaluation",
             "repro.nas.evaluation:TrainingEvaluator", "evaluate", REAL_SERIAL),
    SpanSpec("curves.evaluate", "nas.surrogate",
             "repro.nas.surrogate:SurrogateEvaluator", "evaluate", SURROGATE),
    SpanSpec("nn.train", "nn", "repro.nn.trainer:Trainer", "train", REAL_SERIAL),
    SpanSpec("nn.validate", "nn", "repro.nn.trainer:Trainer", "validate", REAL_SERIAL),
    SpanSpec("engine.fit", "core", "repro.core.engine:PredictionEngine", "fit", ENGINE),
    SpanSpec("engine.analyze", "core",
             "repro.core.engine:PredictionEngine", "converged", ENGINE),
    SpanSpec("evalcache.evaluate_generation", "nas.evalcache",
             "repro.nas.evalcache:MemoizingEvaluator", "evaluate_generation", BARRIER),
    SpanSpec("evalcache.evaluate", "nas.evalcache",
             "repro.nas.evalcache:MemoizingEvaluator", "evaluate", BARRIER),
    SpanSpec("evalcache.stream_submit", "nas.evalcache",
             "repro.nas.evalcache:MemoizingStream", "submit", PROC),
    SpanSpec("evalcache.stream_commit", "nas.evalcache",
             "repro.nas.evalcache:MemoizingStream", "on_commit", PROC),
    SpanSpec("ranker.score", "nas.surrogate",
             "repro.nas.surrogate:BudgetAllocator", "score", SURROGATE),
    SpanSpec("ranker.observe", "nas.surrogate",
             "repro.nas.surrogate:BudgetAllocator", "observe", SURROGATE),
    SpanSpec("procpool.submit", "scheduler.procpool",
             "repro.scheduler.procpool:ProcessWorkerPool", "submit", PROC),
    SpanSpec("procpool.settled", "scheduler.procpool",
             "repro.scheduler.procpool:ProcessWorkerPool", "settled", PROC),
    SpanSpec("procpool.finish", "scheduler.procpool",
             "repro.scheduler.procpool:ProcessWorkerPool", "finish", PROC),
    SpanSpec("procpool.close", "scheduler.procpool",
             "repro.scheduler.procpool:ProcessWorkerPool", "close", PROC),
    SpanSpec("lineage.observe_epoch", "lineage",
             "repro.lineage.tracker:LineageTracker", "observe_epoch", ALL),
    SpanSpec("lineage.observe_individual", "lineage",
             "repro.lineage.tracker:LineageTracker", "observe_individual", ALL),
    SpanSpec("lineage.publish_run", "lineage",
             "repro.lineage.commons:DataCommons", "publish_run", ALL),
)

# span record fields
NAME, LAYER, START, END, PARENT, TID = range(6)


def _resolve(owner: str):
    module_name, _, attr = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, attr) if attr else target


class Tracer:
    """Records nested spans around wrapped entry points.

    Spans nest per thread through a stack; ``parent`` is the index of
    the enclosing span in :attr:`spans` (``-1`` at top level).
    :attr:`fit_failures` counts engine fits that returned no curve even
    though at least ``c_min`` points were given; :attr:`train_samples`
    is the training-split size of the last dataset loaded.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.fit_failures = 0
        self.train_samples = 0
        self._local = threading.local()
        self._restore: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _note_fit(self, span: list, args: tuple, result) -> None:
        """Split engine fits: too few points (no fit runs) vs real fits."""
        engine, history = args[0], args[1]
        if len(history) < engine.config.c_min:
            span[NAME] = "engine.fit_short"
        elif result is None:
            self.fit_failures += 1

    def _note_dataset(self, span: list, args: tuple, result) -> None:
        self.train_samples = len(result.x_train)

    def _wrap(self, fn, name: str, layer: str):
        spans = self.spans
        clock = time.perf_counter
        stack_of = self._stack
        note = {
            "engine.fit": self._note_fit,
            "xfel.load_or_generate": self._note_dataset,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span = [name, layer, clock(), 0.0, stack[-1] if stack else -1,
                    threading.get_ident()]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                note(span, args, result)
            return result

        return traced

    def install(self, specs=SPANS) -> "Tracer":
        """Patch every spec's entry point."""
        for spec in specs:
            owner = _resolve(spec.owner)
            if isinstance(owner, dict):
                original = owner[spec.attr]
                owner[spec.attr] = self._wrap(original, spec.name, spec.layer)
                self._restore.append((owner.__setitem__, spec.attr, original))
                continue
            original = inspect.getattr_static(owner, spec.attr)
            if not inspect.isfunction(original):
                raise TypeError(f"{spec.owner}.{spec.attr} is not a plain function")
            setattr(owner, spec.attr, self._wrap(original, spec.name, spec.layer))
            self._restore.append(
                (functools.partial(setattr, owner), spec.attr, original)
            )
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute, most recent first."""
        while self._restore:
            setter, attr, original = self._restore.pop()
            setter(attr, original)

    # -- queries ------------------------------------------------------------

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s[END] - s[START] for s in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def self_seconds_of(self, name: str) -> float:
        own = self.self_seconds()
        return sum(t for t, s in zip(own, self.spans) if s[NAME] == name)

    def chrome_trace(self, path, extra_events=()) -> None:
        """Write the spans as Chrome/Perfetto ``traceEvents`` JSON."""
        origin = min((s[START] for s in self.spans), default=0.0)
        tids: dict[int, int] = {}
        events = [
            {
                "name": s[NAME],
                "cat": s[LAYER],
                "ph": "X",
                "ts": (s[START] - origin) * 1e6,
                "dur": (s[END] - s[START]) * 1e6,
                "pid": 1,
                "tid": tids.setdefault(s[TID], len(tids)),
                "args": {"span": i, "parent": s[PARENT]},
            }
            for i, s in enumerate(self.spans)
        ]
        events += [dict(e, ts=e["ts"] - origin * 1e6) for e in extra_events]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def layer_table(tracer: Tracer) -> dict[str, dict]:
    """Per-layer span count, busy seconds and self seconds.

    Busy time is the union of the layer's spans: a span nested inside a
    span of the same layer adds nothing.  Self time subtracts whatever
    the layer's spans spent inside child spans of any layer.
    """
    spans = tracer.spans
    own = tracer.self_seconds()
    table: dict[str, dict] = {}
    for i, span in enumerate(spans):
        row = table.setdefault(span[LAYER], {"count": 0, "busy_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["self_s"] += own[i]
        parent = span[PARENT]
        while parent >= 0 and spans[parent][LAYER] != span[LAYER]:
            parent = spans[parent][PARENT]
        if parent < 0:
            row["busy_s"] += span[END] - span[START]
    return dict(sorted(table.items(), key=lambda kv: -kv[1]["self_s"]))


def format_layer_table(tracer: Tracer) -> str:
    """The per-layer table as text, largest self time first."""
    table = layer_table(tracer)
    total = sum(row["self_s"] for row in table.values()) or 1.0
    lines = [f"{'layer':<24}{'spans':>9}{'busy s':>11}{'self s':>11}{'self %':>9}"]
    for layer, row in table.items():
        lines.append(
            f"{layer:<24}{row['count']:>9}{row['busy_s']:>11.3f}"
            f"{row['self_s']:>11.3f}{100 * row['self_s'] / total:>8.1f}%"
        )
    return "\n".join(lines)
