"""Concurrency rules: state that must not cross the worker boundary.

The process backend's contract (DESIGN §10) is that a worker rebuilds
its entire evaluator chain from a picklable :class:`EvalSpec` and never
shares Python state with the parent.  PERF002 enforces the syntactic
half inside the worker-entry modules; these rules use the call graph
and value tracing to police the *flows*:

* ``CONC001`` — a write to module-level mutable state (a ``global``
  rebind, or a mutation of a module-level container) in any function
  transitively reachable from a worker-entry function
  (``scheduler/procpool.py`` / ``xfel/shm.py``).  Each spawned worker
  re-imports the module, so such writes silently diverge per process —
  the parent never sees them, and replay cannot reproduce them.
* ``CONC002`` — a value with a non-picklable (or contract-breaking)
  origin flowing into ``EvalSpec(...)`` construction *anywhere in the
  project*: lambdas, locally-defined closures, generator expressions,
  open file handles, thread/lock objects — and RNG objects, which
  pickle fine but violate the "workers re-derive RNG, never receive
  it" replay contract.  This replaces PERF002's module-local lambda
  spotting with real dataflow: the construction site can be three
  modules away from the worker entry and the flow is still caught.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.tooling.context import ModuleContext
from repro.tooling.dataflow import (
    MUTABLE_CONSTRUCTORS,
    RNG_FACTORY_CHAINS,
    mapping_values,
    reach_from,
    render_chain,
    trace_value,
)
from repro.tooling.diagnostics import Diagnostic, RelatedLocation
from repro.tooling.graph import ProjectGraph, build_graph
from repro.tooling.rules import BaseRule, dotted_name, register

__all__ = ["WorkerSharedStateRule", "SpecPicklabilityRule", "WORKER_ENTRY_MODULES"]

#: Worker-entry modules (PERF002's scope, as dotted names).
WORKER_ENTRY_MODULES = [
    "repro.scheduler.procpool",
    "repro.xfel.shm",
]

#: Container-mutating method names (on a module-level name).
_MUTATOR_METHODS = {
    "append",
    "extend",
    "insert",
    "add",
    "update",
    "setdefault",
    "remove",
    "discard",
    "clear",
    "popitem",
}

#: Call chains whose result cannot (or must not) cross the spawn pickle
#: boundary inside an EvalSpec.
_UNPICKLABLE_FACTORIES = {
    "open": "an open file handle",
    "threading.Lock": "a thread lock",
    "threading.RLock": "a thread lock",
    "threading.Condition": "a condition variable",
    "threading.Event": "a thread event",
    "threading.Thread": "a thread object",
    "socket.socket": "a socket",
}


def _is_module_mutable(symbols, name: str) -> bool:
    value = symbols.module_assigns.get(name)
    if value is None:
        return False
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        chain = dotted_name(value.func)
        if chain is not None and chain.split(".")[-1] in MUTABLE_CONSTRUCTORS:
            return True
    return False


def _module_state_writes(symbols, func: ast.AST) -> Iterable[tuple[ast.AST, str]]:
    """(node, description) for writes to module-level state inside ``func``."""
    declared_global: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id in declared_global:
                    yield node, f"rebinds module global {target.id!r}"
                elif isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    name = target.value.id
                    if _is_module_mutable(symbols, name):
                        yield node, f"writes into module-level container {name!r}"
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    name = target.value.id
                    if _is_module_mutable(symbols, name):
                        yield node, f"deletes from module-level container {name!r}"
        elif isinstance(node, ast.Call):
            chain = dotted_name(node.func)
            if chain is None or "." not in chain:
                continue
            head, method = chain.split(".", 1)
            if "." in method:
                continue
            if method in _MUTATOR_METHODS and _is_module_mutable(symbols, head):
                yield node, f"mutates module-level container {head!r} via .{method}()"


@register
class WorkerSharedStateRule(BaseRule):
    rule_id = "CONC001"
    category = "concurrency"
    scope = "project"
    description = (
        "write to module-level mutable state in a function reachable from a "
        "process-backend worker entry point"
    )
    doc = (
        "no writes to module-level mutable state (`global` rebinds, container "
        "mutations) in any function transitively reachable from the worker-entry "
        "functions of `scheduler/procpool.py` / `xfel/shm.py` — each spawned "
        "worker re-imports the module, so such state silently diverges per "
        "process and breaks replay"
    )

    def applies_to(self, module: ModuleContext) -> bool:
        return module.project is not None and module.project.modules[0] is module

    def check(self, module: ModuleContext) -> Iterable[Diagnostic]:
        graph = build_graph(module.project)
        if not any(name in graph.modules for name in WORKER_ENTRY_MODULES):
            return
        chains = reach_from(graph, WORKER_ENTRY_MODULES, name_matches=True)
        seen: set[tuple[str, int, int]] = set()
        for qualname, chain in sorted(chains.items()):
            info = graph.functions[qualname]
            symbols = graph.modules[info.module]
            owner = symbols.context
            entry_info = graph.functions[chain[0]]
            entry_ctx = graph.modules[entry_info.module].context
            for node, what in _module_state_writes(symbols, info.node):
                key = (owner.display_path, node.lineno, node.col_offset)
                if key in seen:
                    continue
                seen.add(key)
                yield Diagnostic(
                    path=owner.display_path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule_id=self.rule_id,
                    severity=self.severity,
                    message=(
                        f"{qualname} {what}, and is reachable from worker entry "
                        f"point {chain[0]} via {render_chain(chain)}; each "
                        "spawned worker re-imports the module, so this state "
                        "diverges per process — pass state through EvalSpec or "
                        "return it to the parent"
                    ),
                    related=RelatedLocation(
                        path=entry_ctx.display_path,
                        line=entry_info.node.lineno,
                        col=entry_info.node.col_offset,
                        note=f"worker entry point {chain[0]}",
                    ),
                )


_SPEC_NAME = "EvalSpec"
_SPEC_QUALNAME = "repro.scheduler.procpool.EvalSpec"


def _hostile_origin(origin) -> str | None:
    """Why an origin must not enter an EvalSpec, or ``None`` when fine."""
    if origin.kind == "lambda":
        return "a lambda is unpicklable and cannot cross the spawn boundary"
    if origin.kind == "closure":
        return (
            f"locally-defined function {origin.detail!r} closes over its frame "
            "and cannot cross the spawn boundary; promote it to module level"
        )
    if origin.kind == "genexp":
        return "a generator expression is unpicklable"
    if origin.kind == "call":
        tail = origin.detail.split(".")[-1]
        if origin.detail in _UNPICKLABLE_FACTORIES:
            return f"{_UNPICKLABLE_FACTORIES[origin.detail]} is unpicklable"
        if origin.detail in RNG_FACTORY_CHAINS or tail in ("default_rng", "fallback_rng", "derive_rng"):
            return (
                "an RNG object must not be shipped to workers — they re-derive "
                "generators from the seed and genome identity (replay contract)"
            )
    return None


@register
class SpecPicklabilityRule(BaseRule):
    rule_id = "CONC002"
    category = "concurrency"
    scope = "project"
    description = (
        "non-picklable or contract-breaking value flowing into EvalSpec "
        "construction"
    )
    doc = (
        "no non-picklable values (lambdas, closures, generator expressions, file "
        "handles, locks) and no RNG objects flowing into `EvalSpec(...)` "
        "construction anywhere in the project — traced through assignments and "
        "`**kwargs` dicts, not just spotted at the call site"
    )

    def applies_to(self, module: ModuleContext) -> bool:
        return module.project is not None and module.project.modules[0] is module

    def _spec_calls(self, graph: ProjectGraph):
        """Every ``EvalSpec(...)`` construction, resolved through imports."""
        for symbols in graph.modules.values():
            seen: set[int] = set()
            for info in symbols.functions.values():
                if id(info.node) in seen:
                    continue
                seen.add(id(info.node))
                for node in ast.walk(info.node):
                    if not isinstance(node, ast.Call):
                        continue
                    chain = dotted_name(node.func)
                    if chain is None:
                        continue
                    if symbols.resolve(chain) == _SPEC_QUALNAME:
                        yield symbols, info, node

    def check(self, module: ModuleContext) -> Iterable[Diagnostic]:
        graph = build_graph(module.project)
        for symbols, info, call in self._spec_calls(graph):
            owner = symbols.context
            flows: list[tuple[str | None, ast.AST]] = []
            for kw in call.keywords:
                if kw.arg is None:
                    flows.extend(mapping_values(symbols, info, kw.value))
                    # dict.update(...) keywords feed the same mapping
                    if isinstance(kw.value, ast.Name):
                        for sub in ast.walk(info.node):
                            if (
                                isinstance(sub, ast.Call)
                                and isinstance(sub.func, ast.Attribute)
                                and sub.func.attr == "update"
                                and isinstance(sub.func.value, ast.Name)
                                and sub.func.value.id == kw.value.id
                            ):
                                flows.extend(
                                    (k.arg, k.value) for k in sub.keywords if k.arg
                                )
                else:
                    flows.append((kw.arg, kw.value))
            flows.extend((None, arg) for arg in call.args)
            for field_name, expr in flows:
                origin = trace_value(symbols, info, expr)
                why = _hostile_origin(origin)
                if why is None:
                    continue
                anchor = origin.node if origin.node is not None else expr
                field_txt = f"field {field_name!r}" if field_name else "a positional field"
                yield Diagnostic(
                    path=owner.display_path,
                    line=getattr(anchor, "lineno", call.lineno),
                    col=getattr(anchor, "col_offset", call.col_offset),
                    rule_id=self.rule_id,
                    severity=self.severity,
                    message=(
                        f"value flowing into EvalSpec {field_txt} "
                        f"(constructed in {info.qualname}): {why}"
                    ),
                    related=RelatedLocation(
                        path=owner.display_path,
                        line=call.lineno,
                        col=call.col_offset,
                        note=f"EvalSpec construction in {info.qualname}",
                    ),
                )
