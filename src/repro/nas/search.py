"""NSGA-Net search driver.

Implements the evolutionary loop the paper plugs A4NN into (§3.2):
genomes encode macro-space connectivity; the first generation is random;
offspring come from binary-tournament parent selection, crossover, and
bit-flip mutation; survivors are chosen by NSGA-II environmental
selection on the two objectives (maximize validation accuracy, minimize
FLOPs).

With the paper's Table 2 settings — population 10, 10 offspring per
generation, 10 generations (the initial population counts as generation
1) — a run evaluates exactly ``10 + 9 × 10 = 100`` networks, matching
"each test produces 100 networks in total".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from repro.nas.evaluation import Evaluator, effective_budget
from repro.nas.genome import Genome, random_genome
from repro.nas.nsga2 import (
    binary_tournament,
    environmental_selection,
    pareto_front_mask,
    steady_eviction,
)
from repro.nas.operators import bitflip_mutation, point_crossover, uniform_crossover
from repro.nas.population import Individual, Population
from repro.utils.logging import get_logger
from repro.utils.rng import RngStream
from repro.utils.validation import ensure_positive

__all__ = [
    "NSGANetConfig",
    "GenerationStats",
    "SearchResult",
    "SearchState",
    "NSGANet",
    "EvalStream",
    "InlineStream",
    "steady_insert",
]

_LOG = get_logger("nas.search")

_CROSSOVERS = {"uniform": uniform_crossover, "point": point_crossover}

_EVOLUTIONS = ("barrier", "steady")


@runtime_checkable
class EvalStream(Protocol):
    """Streaming evaluation seam for steady-state evolution.

    ``submit`` hands a candidate to the backend; ``settled`` blocks for
    the next completed evaluation *in any order*; ``on_commit`` fires
    when the search folds a result into the population in logical-clock
    order (the deterministic point for cache priming); ``finish`` flushes
    end-of-stream bookkeeping (e.g. a :class:`~repro.scheduler.pool.
    PoolReport` covering the whole run).
    """

    def submit(self, individual: Individual) -> None: ...

    def settled(self) -> Individual: ...

    def on_commit(self, individual: Individual) -> None: ...

    def finish(self) -> None: ...


class InlineStream:
    """The serial backend's stream: evaluates on the search's own thread.

    Nothing runs at :meth:`submit`; :meth:`settled` evaluates the oldest
    queued candidate, so results settle in submission order.
    """

    def __init__(self, evaluator: Evaluator) -> None:
        self._evaluator = evaluator
        self._queue: deque[Individual] = deque()

    def submit(self, individual: Individual) -> None:
        self._queue.append(individual)

    def settled(self) -> Individual:
        if not self._queue:
            raise RuntimeError("no evaluations in flight")
        individual = self._queue.popleft()
        self._evaluator.evaluate(individual)
        return individual

    def on_commit(self, individual: Individual) -> None:
        pass

    def finish(self) -> None:
        pass


def steady_insert(
    members: list[Individual], individual: Individual, population_size: int
) -> list[Individual]:
    """One-in/one-out environmental selection step.

    Adds ``individual`` to ``members``; once the population is full,
    evicts exactly one member (worst rank, least crowded — see
    :func:`~repro.nas.nsga2.steady_eviction`).  Survivor order is
    insertion order, which keeps the replayed population byte-stable.
    """
    combined = list(members) + [individual]
    if len(combined) <= population_size:
        return combined
    objectives = np.array([m.objectives() for m in combined], dtype=float)
    victim = steady_eviction(objectives)
    return [m for i, m in enumerate(combined) if i != victim]


@dataclass(frozen=True)
class NSGANetConfig:
    """NSGA-Net settings (paper Table 2 defaults).

    Attributes
    ----------
    population_size:
        Size of the starting population (and of every survivor set).
    nodes_per_phase:
        Nodes in each phase's DAG.
    n_phases:
        Number of phases (NSGA-Net uses 3 in its macro space).
    offspring_per_generation:
        Offspring produced in each generation after the first.
    generations:
        Total generations *including* the initial population.
    max_epochs:
        Per-network training budget.
    mutation_rate:
        Per-bit flip probability; ``None`` means ``1 / genome_length``.
    crossover:
        ``"uniform"`` or ``"point"``.
    initial_density:
        Bernoulli density of initial random genomes.
    evolution:
        ``"barrier"`` (generational, the paper's loop) or ``"steady"``
        (asynchronous steady-state: one-in/one-out selection under a
        deterministic logical clock).
    steady_lag:
        Breeding lag of the steady-state logical clock: offspring ``g``
        is bred from the population state after commit ``g - lag``, so
        up to ``lag`` evaluations are in flight at once.  Determinism
        depends only on ``(seed, steady_lag)`` — two runs with the same
        lag are bit-identical regardless of backend or worker count.
        ``None`` lets the orchestrator pin it to ``n_workers``; a bare
        :class:`NSGANet` falls back to 1 (classic steady state).
    """

    population_size: int = 10
    nodes_per_phase: int = 4
    n_phases: int = 3
    offspring_per_generation: int = 10
    generations: int = 10
    max_epochs: int = 25
    mutation_rate: float | None = None
    crossover: str = "uniform"
    initial_density: float = 0.5
    evolution: str = "barrier"
    steady_lag: int | None = None

    def __post_init__(self) -> None:
        ensure_positive(self.population_size, "population_size")
        ensure_positive(self.offspring_per_generation, "offspring_per_generation")
        ensure_positive(self.generations, "generations")
        ensure_positive(self.max_epochs, "max_epochs")
        if self.crossover not in _CROSSOVERS:
            raise ValueError(
                f"crossover must be one of {sorted(_CROSSOVERS)}, got {self.crossover!r}"
            )
        if self.evolution not in _EVOLUTIONS:
            raise ValueError(
                f"evolution must be one of {_EVOLUTIONS}, got {self.evolution!r}"
            )
        if self.steady_lag is not None:
            ensure_positive(self.steady_lag, "steady_lag")

    @property
    def total_evaluations(self) -> int:
        """Networks evaluated in a full run."""
        return self.population_size + (self.generations - 1) * self.offspring_per_generation

    def to_dict(self) -> dict:
        """Lineage-record form (paper Table 2)."""
        return {
            "population_size": self.population_size,
            "nodes_per_phase": self.nodes_per_phase,
            "n_phases": self.n_phases,
            "offspring_per_generation": self.offspring_per_generation,
            "generations": self.generations,
            "max_epochs": self.max_epochs,
            "mutation_rate": self.mutation_rate,
            "crossover": self.crossover,
            "initial_density": self.initial_density,
            "evolution": self.evolution,
            "steady_lag": self.steady_lag,
        }


@dataclass
class GenerationStats:
    """Aggregates recorded after each generation's evaluation.

    ``epochs_saved`` counts epochs the *engine* saved by terminating
    early inside each evaluation's effective budget; ``epochs_skipped``
    counts epochs the *surrogate* allocator removed by assigning reduced
    budgets before evaluation.  The two never overlap, and both are
    measured against completed evaluations only: a quarantined candidate
    never trained, so it neither consumes nor "saves" budget (counting
    it would overstate the paper's epochs-saved metric).
    """

    generation: int
    n_evaluated: int
    best_fitness: float
    mean_fitness: float
    epochs_trained: int
    epochs_saved: int
    pareto_size: int
    n_quarantined: int = 0
    n_cache_hits: int = 0
    epochs_skipped: int = 0


@dataclass
class SearchState:
    """Mid-search snapshot sufficient to continue a run exactly.

    Because every stochastic draw in the search derives from the root
    seed plus stable keys (generation number for variation, model id for
    evaluation), continuing from a completed generation reproduces the
    identical run an uninterrupted search would have produced.

    Attributes
    ----------
    population:
        Current survivor set (evaluated individuals).
    archive:
        Every individual evaluated so far, in evaluation order.
    next_generation:
        First generation still to run (1-based; generation 0 is the
        initial population).
    next_model_id:
        Model id the next created individual receives.
    generation_stats:
        Stats of the generations already completed.
    """

    population: Population
    archive: Population
    next_generation: int
    next_model_id: int
    generation_stats: list = field(default_factory=list)


@dataclass
class SearchResult:
    """Everything a completed search produced.

    Attributes
    ----------
    archive:
        Every individual ever evaluated, in evaluation order.
    population:
        Final survivor set.
    generations:
        Per-generation statistics.
    config:
        The settings used.
    """

    archive: Population
    population: Population
    generations: list = field(default_factory=list)
    config: NSGANetConfig | None = None

    @property
    def total_epochs_trained(self) -> int:
        return sum(m.result.epochs_trained for m in self.archive if m.result)

    @property
    def n_quarantined(self) -> int:
        """Archive members the fault policy gave up on."""
        return sum(1 for m in self.archive if m.quarantined)

    @property
    def epoch_budget(self) -> int:
        """Full training budget over *completed* evaluations.

        Quarantined candidates never trained; excluding them keeps the
        paper's epochs-saved metric honest — it can neither go negative
        nor count budget that was never at stake.  Surrogate-skipped
        candidates (zero/reduced budget) still count: their full budget
        was at stake, the allocator just chose not to spend it.
        """
        completed = sum(1 for m in self.archive if not m.quarantined)
        return (self.config.max_epochs if self.config else 0) * completed

    @property
    def total_epochs_skipped(self) -> int:
        """Epochs the surrogate allocator removed by reducing budgets."""
        max_epochs = self.config.max_epochs if self.config else 0
        return sum(
            max_epochs - effective_budget(m, max_epochs)
            for m in self.archive
            if not m.quarantined
        )

    @property
    def total_epochs_saved(self) -> int:
        """Epochs the engine saved by early termination (never includes
        surrogate-skipped epochs; the three counters partition
        :attr:`epoch_budget` exactly)."""
        return self.epoch_budget - self.total_epochs_skipped - self.total_epochs_trained

    def pareto_individuals(self) -> list[Individual]:
        """Pareto-optimal members of the archive (accuracy ↑, FLOPs ↓)."""
        mask = pareto_front_mask(self.archive.objective_array())
        return [m for m, keep in zip(self.archive.members, mask) if keep]


class NSGANet:
    """The evolutionary search loop.

    Parameters
    ----------
    config:
        Search settings.
    evaluator:
        Real or surrogate evaluation backend; must expose
        ``evaluate(individual)``.
    rng_stream:
        Deterministic stream for initialization and genetic operators.
    on_individual:
        Optional callback after each evaluation (lineage hook).
    on_candidate:
        Optional callback ``on_candidate(individual, members,
        n_committed)`` fired the moment a candidate is created, before
        it is submitted for evaluation: ``members`` is the (pinned)
        population state it was bred from and ``n_committed`` the number
        of lineage commits visible at that point.  The surrogate budget
        allocator scores candidates here; because both arguments are
        pure functions of the logical clock, scoring is deterministic
        across backends and replayable on resume.
    on_generation:
        Optional callback with each :class:`GenerationStats`.
    executor:
        Optional generation executor ``executor(individuals) ->
        individuals`` that runs a whole generation's evaluations (e.g.
        :class:`~repro.scheduler.procpool.ProcessWorkerPool` for real
        parallel hardware).  Defaults to serial evaluation through
        ``evaluator``.  Barrier mode only.
    stream:
        Optional :class:`EvalStream` used by steady-state mode.
        Defaults to an :class:`InlineStream` over ``evaluator``.
    """

    def __init__(
        self,
        config: NSGANetConfig,
        evaluator: Evaluator,
        *,
        rng_stream: RngStream | None = None,
        on_individual: Callable[[Individual], None] | None = None,
        on_candidate: Callable[[Individual, list, int], None] | None = None,
        on_generation: Callable[[GenerationStats], None] | None = None,
        executor: Callable[[list], list] | None = None,
        stream: EvalStream | None = None,
    ) -> None:
        self.config = config
        self.evaluator = evaluator
        self.rng_stream = rng_stream or RngStream(0)
        self.on_individual = on_individual
        self.on_candidate = on_candidate
        self.on_generation = on_generation
        self.executor = executor
        self.stream = stream
        self._next_model_id = 0

    def _new_individual(self, genome: Genome, generation: int) -> Individual:
        individual = Individual(genome=genome, model_id=self._next_model_id, generation=generation)
        self._next_model_id += 1
        return individual

    def _notify_candidate(
        self, individual: Individual, members: list[Individual], n_committed: int
    ) -> None:
        if self.on_candidate is not None:
            self.on_candidate(individual, members, n_committed)

    def _evaluate_all(self, individuals: list[Individual]) -> None:
        # zero-budget candidates arrive pre-filled by the surrogate
        # allocator and never reach the evaluation backend
        todo = [m for m in individuals if not m.evaluated]
        if self.executor is not None:
            if todo:
                self.executor(todo)
        else:
            for individual in todo:
                self.evaluator.evaluate(individual)
        for individual in individuals:
            if not individual.evaluated:
                raise RuntimeError(
                    f"model {individual.model_id} was not evaluated by the executor"
                )
            if self.on_individual is not None:
                self.on_individual(individual)

    def _record_generation(
        self, generation: int, evaluated: list[Individual], population: Population
    ) -> GenerationStats:
        fitnesses = [float(m.fitness) for m in evaluated]
        completed = [m for m in evaluated if m.result]
        max_epochs = self.config.max_epochs
        epochs = sum(m.result.epochs_trained for m in completed)
        # engine savings are measured inside each evaluation's effective
        # (surrogate-reduced) budget; the gap up to the full budget is
        # what the surrogate skipped — the two counters never overlap
        budget = sum(effective_budget(m, max_epochs) for m in completed)
        skipped = sum(
            max_epochs - effective_budget(m, max_epochs)
            for m in evaluated
            if not m.quarantined
        )
        stats = GenerationStats(
            generation=generation,
            n_evaluated=len(evaluated),
            best_fitness=max(fitnesses),
            mean_fitness=float(np.mean(fitnesses)),
            epochs_trained=epochs,
            epochs_saved=budget - epochs,
            pareto_size=int(pareto_front_mask(population.objective_array()).sum()),
            n_quarantined=sum(1 for m in evaluated if m.quarantined),
            n_cache_hits=sum(1 for m in evaluated if m.cache_hit),
            epochs_skipped=skipped,
        )
        _LOG.info(
            "generation %d: best %.2f%%, mean %.2f%%, epochs %d/%d, quarantined %d, cache hits %d",
            generation,
            stats.best_fitness,
            stats.mean_fitness,
            epochs,
            budget,
            stats.n_quarantined,
            stats.n_cache_hits,
        )
        if self.on_generation is not None:
            self.on_generation(stats)
        return stats

    def _make_offspring(
        self, population: Population, generation: int, n_committed: int = 0
    ) -> list[Individual]:
        rng = self.rng_stream.generator("variation", generation)
        objectives = population.objective_array()
        n = self.config.offspring_per_generation
        parent_idx = binary_tournament(objectives, rng, n_winners=2 * ((n + 1) // 2))
        crossover = _CROSSOVERS[self.config.crossover]

        children: list[Individual] = []
        for pair_start in range(0, len(parent_idx), 2):
            a = population[int(parent_idx[pair_start])].genome
            b = population[int(parent_idx[pair_start + 1])].genome
            child_a, child_b = crossover(a, b, rng)
            for child in (child_a, child_b):
                if len(children) >= n:
                    break
                mutated = bitflip_mutation(child, rng, rate=self.config.mutation_rate)
                offspring = self._new_individual(mutated, generation)
                self._notify_candidate(offspring, population.members, n_committed)
                children.append(offspring)
        return children

    # -- steady-state mode -------------------------------------------------

    def _steady_pool(
        self, members: list[Individual], archive_members: list[Individual]
    ) -> list[Individual]:
        """Breeding pool: current population plus the non-dominated archive."""
        pool = list(members)
        present = {m.model_id for m in pool}
        if archive_members:
            objectives = np.array(
                [m.objectives() for m in archive_members], dtype=float
            )
            for member, keep in zip(archive_members, pareto_front_mask(objectives)):
                if keep and member.model_id not in present:
                    pool.append(member)
                    present.add(member.model_id)
        return pool

    def _breed_steady(
        self, g: int, members: list[Individual], archive_members: list[Individual]
    ) -> Individual:
        """Breed offspring ``g`` from a pinned logical-clock state.

        The RNG is keyed by the candidate's global index, never by wall
        time or completion order, so breeding is reproducible from the
        clock alone.
        """
        rng = self.rng_stream.generator("steady-variation", g)
        pool = self._steady_pool(members, archive_members)
        objectives = np.array([m.objectives() for m in pool], dtype=float)
        parent_idx = binary_tournament(objectives, rng, n_winners=2)
        a = pool[int(parent_idx[0])].genome
        b = pool[int(parent_idx[1])].genome
        child, _ = _CROSSOVERS[self.config.crossover](a, b, rng)
        mutated = bitflip_mutation(child, rng, rate=self.config.mutation_rate)
        generation = 1 + (g - self.config.population_size) // self.config.offspring_per_generation
        individual = self._new_individual(mutated, generation)
        if individual.model_id != g:
            raise RuntimeError(
                f"steady breeding out of order: bred model {individual.model_id}, "
                f"expected global index {g}"
            )
        # the pinned commit count is a pure function of g and the lag, so
        # candidate scoring replays identically on resume
        pinned = max(1, g - (self.config.steady_lag or 1) + 1)
        self._notify_candidate(individual, members, pinned)
        return individual

    def _run_steady(self, resume: SearchState | None) -> SearchResult:
        """Asynchronous steady-state loop under a deterministic logical clock.

        Candidates carry global indices ``g = 0..total_evaluations-1``;
        results may *settle* in any order but *commit* (selection, tick
        assignment, cache priming, lineage) strictly in submission
        order.  Offspring ``g`` is bred the moment commit ``g - lag``
        lands, from exactly that population state — so the whole run is
        a pure function of ``(seed, steady_lag)`` and replays
        bit-identically on any backend.
        """
        config = self.config
        population_size = config.population_size
        per_generation = config.offspring_per_generation
        total = config.total_evaluations
        lag = config.steady_lag or 1
        stream = self.stream if self.stream is not None else InlineStream(self.evaluator)

        pending: dict[int, Individual] = {}
        chunk: list[Individual] = []

        def submit(individual: Individual) -> None:
            if individual.evaluated:
                # zero-budget candidate pre-filled by the surrogate
                # allocator: it never reaches the backend and is ready
                # to commit at its tick
                pending[individual.model_id] = individual
            else:
                stream.submit(individual)

        if resume is None:
            init_rng = self.rng_stream.generator("init-population")
            initial = [
                self._new_individual(
                    random_genome(
                        init_rng,
                        n_phases=config.n_phases,
                        nodes_per_phase=config.nodes_per_phase,
                        density=config.initial_density,
                    ),
                    generation=0,
                )
                for _ in range(population_size)
            ]
            population = Population([])
            archive = Population([])
            generation_stats: list[GenerationStats] = []
            committed = 0
            for individual in initial:
                self._notify_candidate(individual, [], 0)
                submit(individual)
            next_submit = population_size
        else:
            archive = resume.archive
            generation_stats = list(resume.generation_stats)
            committed = len(archive.members)
            if resume.next_model_id != committed:
                raise ValueError(
                    f"steady resume requires contiguous ticks: archive has "
                    f"{committed} members but next_model_id is {resume.next_model_id}"
                )
            self._next_model_id = resume.next_model_id
            # Replay the one-in/one-out commits to re-derive the population
            # states the in-flight window was bred from: offspring g needs
            # the snapshot after commit g - lag, which for the backlog
            # g = committed..committed+lag-1 lies in the last `lag` commits.
            history: dict[int, list[Individual]] = {}
            members: list[Individual] = []
            for tick, individual in enumerate(archive.members, start=1):
                members = steady_insert(members, individual, population_size)
                if tick > committed - lag:
                    history[tick] = list(members)
            population = Population(members)
            next_submit = committed
            while next_submit < total and max(1, next_submit - lag + 1) <= committed:
                pinned = max(1, next_submit - lag + 1)
                child = self._breed_steady(
                    next_submit, history[pinned], archive.members[:pinned]
                )
                submit(child)
                next_submit += 1

        while committed < total:
            if committed not in pending:
                # the next tick is in flight (commits land in submission
                # order, so anything not yet pending is on the backend)
                settled = stream.settled()
                if not settled.evaluated:
                    raise RuntimeError(
                        f"model {settled.model_id} was not evaluated by the stream"
                    )
                pending[settled.model_id] = settled
            while committed in pending:
                individual = pending.pop(committed)
                individual.logical_tick = committed
                archive.append(individual)
                population.members = steady_insert(
                    population.members, individual, population_size
                )
                stream.on_commit(individual)
                if self.on_individual is not None:
                    self.on_individual(individual)
                committed += 1
                chunk.append(individual)
                if committed == population_size or (
                    committed > population_size
                    and (committed - population_size) % per_generation == 0
                ):
                    generation = (
                        0
                        if committed == population_size
                        else (committed - population_size) // per_generation
                    )
                    generation_stats.append(
                        self._record_generation(generation, chunk, population)
                    )
                    chunk = []
                # Breed every candidate whose pinned state just became
                # current; pumping after *each* commit keeps the breeding
                # state exactly at commit g - lag.
                while next_submit < total and max(1, next_submit - lag + 1) <= committed:
                    child = self._breed_steady(
                        next_submit, population.members, archive.members
                    )
                    submit(child)
                    next_submit += 1
        stream.finish()

        return SearchResult(
            archive=archive,
            population=population,
            generations=generation_stats,
            config=config,
        )

    def run(self, *, resume: SearchState | None = None) -> SearchResult:
        """Execute the search (optionally continuing from ``resume``).

        With ``resume``, the initial population phase is skipped and
        evolution continues from ``resume.next_generation``; the result
        covers the whole run (resumed archive included).
        """
        config = self.config
        if config.evolution == "steady":
            return self._run_steady(resume)
        if resume is None:
            init_rng = self.rng_stream.generator("init-population")
            initial = [
                self._new_individual(
                    random_genome(
                        init_rng,
                        n_phases=config.n_phases,
                        nodes_per_phase=config.nodes_per_phase,
                        density=config.initial_density,
                    ),
                    generation=0,
                )
                for _ in range(config.population_size)
            ]
            for individual in initial:
                self._notify_candidate(individual, [], 0)
            self._evaluate_all(initial)
            population = Population(initial)
            archive = Population(list(initial))
            generation_stats = [self._record_generation(0, initial, population)]
            start_generation = 1
        else:
            population = resume.population
            archive = resume.archive
            generation_stats = list(resume.generation_stats)
            start_generation = resume.next_generation
            self._next_model_id = resume.next_model_id
            if len(population) != config.population_size:
                raise ValueError(
                    f"resume population has {len(population)} members, "
                    f"config expects {config.population_size}"
                )

        for generation in range(start_generation, config.generations):
            offspring = self._make_offspring(
                population, generation, n_committed=len(archive.members)
            )
            self._evaluate_all(offspring)
            archive.extend(offspring)

            combined = Population(population.members + offspring)
            survivors = environmental_selection(
                combined.objective_array(), config.population_size
            )
            population = combined.subset(survivors)
            generation_stats.append(
                self._record_generation(generation, offspring, population)
            )

        return SearchResult(
            archive=archive,
            population=population,
            generations=generation_stats,
            config=config,
        )
