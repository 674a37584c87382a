"""Process-parallel evaluation backend: parity, hard kills, FIFO, shm.

Covers the ISSUE-5 acceptance criteria: the process backend produces
bit-identical fitness values and lineage records to the serial path on a
seeded mini search (eval cache on and off), hung candidates are
hard-killed within the policy timeout with the worker respawned, no
worker processes leak past ``close()``, and submission order stays FIFO
under randomized per-job delays.

The ``EvalSpec.factory`` hook keeps the direct-pool tests cheap: a
module-level zero-argument factory (picklable across the ``spawn``
boundary) builds a scripted evaluator inside the worker, so the dispatch
/ timeout / retry machinery is exercised without training anything.
"""

import json
import multiprocessing as mp
import pickle
import time

import numpy as np
import pytest

from repro.core.engine import EngineConfig
from repro.nas import Individual, random_genome
from repro.nas.evalcache import EvaluationCache, MemoizingEvaluator
from repro.nas.search import EvalStream, NSGANetConfig
from repro.scheduler.faults import (
    FaultInjectionConfig,
    FaultPolicy,
    FaultTolerantEvaluator,
)
from repro.scheduler.pool import JobTiming, PoolReport
from repro.scheduler.procpool import EvalResult, EvalSpec, EvalTask, ProcessWorkerPool
from repro.scheduler.trace import pool_chrome_trace, pool_timeline
from repro.utils.validation import ValidationError
from repro.workflow.interfaces import WorkflowConfig
from repro.workflow.orchestrator import A4NNOrchestrator
from repro.xfel.dataset import DatasetConfig
from repro.xfel.shm import attach_dataset, share_dataset


def make_individuals(rng, n, generation=0, first_id=0):
    return [
        Individual(random_genome(rng), first_id + i, generation) for i in range(n)
    ]


class ScriptedEvaluator:
    """Deterministic scripted evaluator: delays, hangs, and scripted failures.

    Behaviour derives from ``model_id`` only, so a copy rebuilt inside a
    spawned worker acts exactly like the parent's would have.
    """

    max_epochs = 1

    def __init__(self, hang_ids=(), fail_ids=(), delay_scale=0.0):
        self.hang_ids = set(hang_ids)
        self.fail_ids = set(fail_ids)
        self.delay_scale = delay_scale

    def evaluate(self, individual):
        mid = individual.model_id
        if mid in self.hang_ids:
            time.sleep(60.0)
        if mid in self.fail_ids and individual.eval_attempt == 0:
            raise RuntimeError(f"boom {mid}")
        if self.delay_scale:
            # pseudo-random per-job delay, reproducible in any process
            time.sleep(((mid * 7919) % 5) * self.delay_scale)
        individual.fitness = 50.0 + mid
        individual.flops = 1000 + mid
        return individual


def delay_factory():
    return ScriptedEvaluator(delay_scale=0.01)


def hang_factory():
    return ScriptedEvaluator(hang_ids=(0,))


def flaky_pair_factory():
    return ScriptedEvaluator(fail_ids=(1, 3))


def flaky_single_factory():
    return ScriptedEvaluator(fail_ids=(2,))


def make_pool(factory, n_workers=2, **kwargs):
    return ProcessWorkerPool(EvalSpec(factory=factory), n_workers, **kwargs)


class TestMessageTypes:
    def test_spec_task_result_pickle_roundtrip(self, rng):
        spec = EvalSpec(
            mode="surrogate", seed=9, max_epochs=4, engine=EngineConfig(e_pred=4)
        )
        assert pickle.loads(pickle.dumps(spec)) == spec
        task = EvalTask(model_id=3, generation=1, attempt=0, genome=random_genome(rng))
        restored = pickle.loads(pickle.dumps(task))
        assert restored.model_id == 3 and restored.genome == task.genome
        result = EvalResult(model_id=3, attempt=0, fitness=81.5, flops=7)
        assert pickle.loads(pickle.dumps(result)) == result

    def test_result_transports_exception(self):
        from repro.scheduler.procpool import _encode_error

        result = EvalResult(
            model_id=0, attempt=0, error=_encode_error(RuntimeError("boom"))
        )
        exc = result.exception()
        assert isinstance(exc, RuntimeError) and str(exc) == "boom"

    def test_unpicklable_error_degrades_to_summary(self):
        from repro.scheduler.procpool import _encode_error

        class Hostile(Exception):
            def __reduce__(self):
                raise TypeError("nope")

        exc = pickle.loads(_encode_error(Hostile("payload")))
        assert isinstance(exc, RuntimeError)
        assert "Hostile" in str(exc) and "payload" in str(exc)


class TestSharedMemory:
    def test_share_attach_roundtrip_is_bytewise_and_readonly(self, tiny_dataset):
        spec, arena = share_dataset(tiny_dataset)
        try:
            attached, handles = attach_dataset(spec)
            for name in ("x_train", "y_train", "x_test", "y_test"):
                original = getattr(tiny_dataset, name)
                view = getattr(attached, name)
                assert np.array_equal(view, original)
                assert view.dtype == original.dtype
                assert not view.flags.writeable
            with pytest.raises(ValueError):
                attached.x_train[0] = 0.0
            assert attached.n_classes == tiny_dataset.n_classes
            assert attached.image_size == tiny_dataset.image_size
            for handle in handles:
                handle.close()
        finally:
            arena.close()

    def test_spec_is_tiny_regardless_of_payload(self, tiny_dataset):
        spec, arena = share_dataset(tiny_dataset)
        try:
            # the whole point of shm: the picklable handle stays O(1)
            assert len(pickle.dumps(spec)) < 2048
            assert spec.x_train.nbytes == tiny_dataset.x_train.nbytes
        finally:
            arena.close()

    def test_arena_close_is_idempotent(self, tiny_dataset):
        _, arena = share_dataset(tiny_dataset)
        assert len(arena) == 4
        arena.close()
        assert len(arena) == 0
        arena.close()  # second close is a no-op


class TestProcessPoolDirect:
    def test_satisfies_worker_pool_protocol(self):
        # what the orchestrator requires of the pool: the barrier entry
        # point, the steady-state stream seam, reports, and close()
        pool = make_pool(delay_factory)
        assert isinstance(pool, EvalStream)
        assert callable(pool.evaluate_generation) and callable(pool.close)
        assert pool.n_workers == 2 and pool.reports == []
        pool.close()

    def test_generation_evaluates_all_and_reports_fifo(self, rng):
        pool = make_pool(delay_factory, n_workers=2)
        try:
            individuals = make_individuals(rng, 6)
            pool.evaluate_generation(individuals)
            assert [ind.fitness for ind in individuals] == [
                50.0 + i for i in range(6)
            ]
            assert pool.alive_workers() == 2
            [report] = pool.reports
            assert report.backend == "process"
            assert report.n_jobs == 6 and report.n_workers == 2
            assert [j.job_id for j in report.jobs] == list(range(6))
            # FIFO under unequal delays: job i starts no later than job i+1
            starts = [j.start_seconds for j in report.jobs]
            assert starts == sorted(starts)
            assert report.busy_seconds > 0
            assert 0.0 < report.utilization <= 1.0
            assert len(report.worker_busy_seconds) == 2
        finally:
            pool.close()
        assert pool.alive_workers() == 0

    def test_close_is_idempotent_and_final(self, rng):
        pool = make_pool(delay_factory, n_workers=1)
        pool.evaluate_generation(make_individuals(rng, 1))
        pool.close()
        pool.close()
        assert pool.alive_workers() == 0
        with pytest.raises(RuntimeError, match="closed"):
            pool.evaluate_generation(make_individuals(rng, 1))

    def test_single_error_reraises_after_generation_settles(self, rng):
        pool = make_pool(flaky_single_factory, n_workers=2)
        try:
            individuals = make_individuals(rng, 5)
            with pytest.raises(RuntimeError, match="boom 2"):
                pool.evaluate_generation(individuals)
            assert all(
                ind.evaluated for ind in individuals if ind.model_id != 2
            )
            assert pool.reports[-1].n_jobs == 5
        finally:
            pool.close()

    def test_multiple_errors_raise_exception_group(self, rng):
        pool = make_pool(flaky_pair_factory, n_workers=2)
        try:
            with pytest.raises(ExceptionGroup) as excinfo:
                pool.evaluate_generation(make_individuals(rng, 5))
            assert sorted(str(e) for e in excinfo.value.exceptions) == [
                "boom 1",
                "boom 3",
            ]
        finally:
            pool.close()

    def test_policy_retries_transient_failure(self, rng):
        events = []
        pool = make_pool(
            flaky_pair_factory,
            n_workers=2,
            policy=FaultPolicy(max_retries=1, backoff_seconds=0.0),
            on_fault_event=lambda ind, e: events.append(
                (ind.model_id, e["kind"], e["action"])
            ),
        )
        try:
            individuals = make_individuals(rng, 5)
            pool.evaluate_generation(individuals)  # does not raise
            # the scripted failure clears on attempt 1: retried, not quarantined
            assert all(ind.evaluated and not ind.quarantined for ind in individuals)
            assert sorted(events) == [(1, "crash", "retry"), (3, "crash", "retry")]
            report = pool.reports[-1]
            # a retried job keeps ONE timing spanning both attempts
            assert len(report.jobs) == 5
        finally:
            pool.close()


class TestHardKill:
    def test_hang_is_killed_within_timeout_and_worker_respawned(self, rng):
        pool = make_pool(
            hang_factory,
            n_workers=2,
            policy=FaultPolicy(
                max_retries=1, backoff_seconds=0.0, timeout_seconds=0.5
            ),
        )
        try:
            individuals = make_individuals(rng, 4)
            start = time.monotonic()
            pool.evaluate_generation(individuals)
            elapsed = time.monotonic() - start
            # model 0 hangs 60s per attempt; two attempts were reclaimed
            # in well under one hang's duration
            assert elapsed < 30.0
            assert individuals[0].quarantined
            assert pool.n_killed == 2
            assert all(ind.evaluated for ind in individuals)
            assert [
                (e["kind"], e["action"]) for e in individuals[0].fault_events
            ] == [("timeout", "retry"), ("timeout", "quarantine")]
            # the attempts ran in killable processes: nothing leaked
            assert all(
                e["timeout_leaked"] is False for e in individuals[0].fault_events
            )
            assert all(e.timeout_leaked is False for e in pool.events)
        finally:
            pool.close()
        assert pool.alive_workers() == 0

    def test_thread_path_timeout_leaks_by_contrast(self, rng):
        # the serial backend cannot kill a thread: the same timeout
        # decision carries timeout_leaked=True and the shadow
        # thread shows up in the leak accounting until it drains
        wrapped = FaultTolerantEvaluator(
            _ShortHang(), FaultPolicy(max_retries=0, timeout_seconds=0.05)
        )
        [ind] = make_individuals(rng, 1)
        wrapped.evaluate(ind)
        assert ind.quarantined
        assert ind.fault_events[0]["kind"] == "timeout"
        assert ind.fault_events[0]["timeout_leaked"] is True
        assert wrapped.n_leaked_threads() >= 1
        time.sleep(0.7)  # the abandoned attempt finishes on its own
        assert wrapped.n_leaked_threads() == 0


class _ShortHang:
    max_epochs = 1

    def evaluate(self, individual):
        time.sleep(0.5)
        individual.fitness = 1.0
        individual.flops = 1
        return individual


def surrogate_config(backend, n_workers=1, eval_cache=True, seed=7, **kwargs):
    return WorkflowConfig(
        nas=NSGANetConfig(
            population_size=5,
            offspring_per_generation=5,
            generations=2,
            max_epochs=4,
        ),
        engine=EngineConfig(e_pred=4),
        mode="surrogate",
        n_gpus=(1,),
        seed=seed,
        backend=backend,
        n_workers=n_workers,
        eval_cache=eval_cache,
        **kwargs,
    )


def run_trail(result):
    """Everything that must be bit-identical across backends."""
    archive = sorted(
        (i.model_id, i.fitness, i.flops, i.cache_hit, i.cache_source)
        for i in result.search.archive
    )
    records = {
        model_id: (
            [
                (e["epoch"], e["validation_accuracy"], e.get("prediction"))
                for e in record.epochs
            ],
            [
                (e["attempt"], e["kind"], e["action"])
                for e in (record.fault_events or [])
            ],
            record.quarantined,
        )
        for model_id, record in result.tracker.records.items()
    }
    return archive, records


class TestBackendParitySurrogate:
    @pytest.mark.parametrize("eval_cache", [True, False])
    def test_process_is_bit_identical_to_serial(self, eval_cache):
        serial = A4NNOrchestrator(surrogate_config("serial", eval_cache=eval_cache))
        r_serial = serial.run()
        process = A4NNOrchestrator(
            surrogate_config("process", 2, eval_cache=eval_cache)
        )
        r_process = process.run()
        assert run_trail(r_process) == run_trail(r_serial)
        if eval_cache:
            # leaders evaluated remotely must count misses/prime entries
            # exactly like local lookups
            assert (
                process.memoizer.cache.stats() == serial.memoizer.cache.stats()
            )
        # the run closed its pool: reports stashed, workers gone
        assert process.pool is None
        assert not [
            p for p in mp.active_children() if p.name.startswith("a4nn-eval-worker")
        ]
        assert [r.backend for r in process.pool_reports] == ["process"] * 2
        assert serial.pool_reports == []  # the search's own loop: no pool

    def test_fault_injection_parity(self):
        def faulty(backend, n_workers):
            return surrogate_config(
                backend,
                n_workers,
                eval_cache=False,
                seed=3,
                faults=FaultPolicy(
                    max_retries=1, backoff_seconds=0.0, timeout_seconds=2.0
                ),
                fault_injection=FaultInjectionConfig(
                    rate=0.3, modes=("crash", "hang", "nan"), hang_seconds=30.0
                ),
            )

        r_serial = A4NNOrchestrator(faulty("serial", 1)).run()
        r_process = A4NNOrchestrator(faulty("process", 2)).run()
        assert run_trail(r_process) == run_trail(r_serial)
        assert r_process.search.n_quarantined == r_serial.search.n_quarantined


class TestBackendParityReal:
    def test_shared_memory_training_matches_serial(self):
        def real_config(backend, n_workers):
            return WorkflowConfig(
                nas=NSGANetConfig(
                    population_size=4,
                    offspring_per_generation=4,
                    generations=2,
                    max_epochs=3,
                ),
                engine=EngineConfig(e_pred=3),
                dataset=DatasetConfig(images_per_class=8, image_size=12),
                mode="real",
                n_gpus=(1,),
                seed=11,
                backend=backend,
                n_workers=n_workers,
            )

        serial = A4NNOrchestrator(real_config("serial", 1))
        r_serial = serial.run()
        process = A4NNOrchestrator(real_config("process", 2))
        r_process = process.run()
        assert run_trail(r_process) == run_trail(r_serial)
        assert process.memoizer.cache.stats() == serial.memoizer.cache.stats()
        # run() closed the pool, which also released the shm arena
        assert process.pool is None
        assert not [
            p for p in mp.active_children() if p.name.startswith("a4nn-eval-worker")
        ]


class _StubBase:
    """Minimal memoization base: constant-keyed, observerless."""

    def __init__(self, key=("k",)):
        self.key = key
        self.observers = []

    def memo_key(self, individual):
        return self.key


class TestRegisterRemote:
    def test_record_miss_counts_outside_lookup(self):
        cache = EvaluationCache()
        cache.record_miss()
        assert cache.stats() == {"entries": 0, "hits": 0, "misses": 1}

    def _clean_individual(self, rng, model_id=0):
        [ind] = make_individuals(rng, 1, first_id=model_id)
        ind.fitness = 90.0
        ind.flops = 123
        ind.result = {"proxy": True}
        ind.epoch_seconds = [0.1]
        return ind

    def test_clean_leader_primes_cache_and_counts_miss(self, rng):
        base = _StubBase()
        memo = MemoizingEvaluator(base, base)
        leader = self._clean_individual(rng)
        memo.register_remote(leader, [(1, 90.0, None)])
        assert memo.cache.stats() == {"entries": 1, "hits": 0, "misses": 1}
        entry = memo.cache.peek(base.key)
        assert entry.source_model_id == leader.model_id
        assert entry.epoch_trace == [(1, 90.0, None)]

    def test_faulted_leader_counts_miss_but_never_caches(self, rng):
        base = _StubBase()
        memo = MemoizingEvaluator(base, base)
        faulted = self._clean_individual(rng)
        faulted.fault_events.append({"kind": "crash", "action": "retry"})
        memo.register_remote(faulted, [])
        assert memo.cache.stats() == {"entries": 0, "hits": 0, "misses": 1}

    def test_unkeyed_leader_is_ignored(self, rng):
        base = _StubBase(key=None)
        memo = MemoizingEvaluator(base, base)
        memo.register_remote(self._clean_individual(rng), [])
        assert memo.cache.stats() == {"entries": 0, "hits": 0, "misses": 0}


class TestWorkflowConfigBackend:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValidationError, match="backend"):
            WorkflowConfig(backend="mpi")

    def test_serial_requires_single_worker(self):
        with pytest.raises(ValidationError, match="serial"):
            WorkflowConfig(backend="serial", n_workers=2)

    def test_process_cannot_checkpoint_models(self):
        with pytest.raises(ValidationError, match="checkpoint"):
            WorkflowConfig(backend="process", checkpoint_models=True)

    def test_n_workers_needs_process_backend(self):
        with pytest.raises(ValidationError, match="--backend process"):
            WorkflowConfig(n_workers=2)

    def test_backend_roundtrips_and_defaults_to_serial(self):
        assert WorkflowConfig().backend == "serial"
        config = WorkflowConfig(backend="process", n_workers=4)
        restored = WorkflowConfig.from_dict(config.to_dict())
        assert restored.backend == "process" and restored.n_workers == 4
        # legacy documents: an explicit or defaulted "thread" backend
        # replays on the serial loop with one worker
        payload = config.to_dict()
        payload["backend"] = "thread"
        legacy = WorkflowConfig.from_dict(payload)
        assert (legacy.backend, legacy.n_workers) == ("serial", 1)
        del payload["backend"]
        legacy = WorkflowConfig.from_dict(payload)
        assert (legacy.backend, legacy.n_workers) == ("serial", 1)


class TestPoolTraceRendering:
    def _report(self):
        return PoolReport(
            n_workers=2,
            wall_seconds=10.0,
            n_jobs=3,
            backend="process",
            jobs=(
                JobTiming(0, 0, 0.0, 4.0),
                JobTiming(1, 1, 0.0, 10.0),
                JobTiming(2, 0, 4.0, 7.0),
            ),
            worker_busy_seconds=(7.0, 10.0),
        )

    def test_barrier_downtime_per_worker(self):
        report = self._report()
        assert report.barrier_downtime() == [3.0, 0.0]
        assert report.busy_seconds == 17.0
        assert report.idle_seconds == 3.0
        assert report.utilization == pytest.approx(0.85)
        payload = report.to_dict()
        assert payload["barrier_downtime_seconds"] == [3.0, 0.0]
        assert [j["job_id"] for j in payload["jobs"]] == [0, 1, 2]

    def test_pool_timeline_renders_lanes_and_downtime(self):
        text = pool_timeline(self._report(), width=40)
        assert "worker0" in text and "worker1" in text
        assert "backend=process" in text
        assert "w0=3.00s" in text and "w1=0.00s" in text
        assert pool_timeline(PoolReport(1, 0.0, 0)) == "(empty pool report)"
        with pytest.raises(ValueError):
            pool_timeline(self._report(), width=5)

    def test_pool_chrome_trace_is_loadable_json(self):
        payload = json.loads(pool_chrome_trace(self._report()))
        events = payload["traceEvents"]
        jobs = [e for e in events if e.get("cat") == "eval-process"]
        assert len(jobs) == 3
        assert jobs[1]["dur"] == pytest.approx(10.0 * 1e6)
        barriers = [e for e in events if e.get("cat") == "barrier"]
        assert [b["tid"] for b in barriers] == [0]  # only worker 0 idles
        names = [e for e in events if e.get("ph") == "M"]
        assert len(names) == 2


class TestStreamingSeam:
    """The submit/settled/finish seam steady-state evolution runs on."""

    def test_settled_without_submissions_raises(self):
        pool = make_pool(delay_factory, n_workers=2)
        try:
            with pytest.raises(RuntimeError, match="no evaluations in flight"):
                pool.settled()
        finally:
            pool.close()

    def test_stream_error_propagates_at_settle(self, rng):
        pool = make_pool(flaky_single_factory, n_workers=1)
        try:
            pool.submit(make_individuals(rng, 1, first_id=2)[0])
            with pytest.raises(RuntimeError, match="boom 2"):
                pool.settled()
        finally:
            pool.close()

    def test_close_flushes_open_stream_report(self, rng):
        pool = make_pool(delay_factory, n_workers=2)
        pool.submit(make_individuals(rng, 1)[0])
        pool.settled()
        pool.close()  # stream never finished explicitly
        assert len(pool.reports) == 1 and pool.reports[0].n_jobs == 1

    def test_process_stream_settles_all_and_reports_once(self, rng):
        pool = make_pool(delay_factory, n_workers=2)
        try:
            individuals = make_individuals(rng, 5)
            for ind in individuals:
                pool.submit(ind)
            settled = [pool.settled() for _ in range(5)]
            assert sorted(ind.model_id for ind in settled) == list(range(5))
            assert all(ind.fitness == 50.0 + ind.model_id for ind in settled)
            report = pool.finish()
            assert report.n_jobs == 5
            assert report.backend == "process"
            assert pool.reports == [report]
            with pytest.raises(RuntimeError, match="no evaluations in flight"):
                pool.settled()
        finally:
            pool.close()

    def test_process_batch_entry_rejected_while_stream_open(self, rng):
        pool = make_pool(delay_factory, n_workers=2)
        try:
            pool.submit(make_individuals(rng, 1)[0])
            with pytest.raises(RuntimeError, match="stream is open"):
                pool.evaluate_generation(make_individuals(rng, 2, first_id=5))
            pool.settled()
            pool.finish()
        finally:
            pool.close()


class TestIdleWorkerAccounting:
    def _oversized_report(self):
        # 3-worker pool, but only worker 0 ever ran a job
        return PoolReport(
            n_workers=3,
            wall_seconds=10.0,
            n_jobs=2,
            backend="process",
            jobs=(JobTiming(0, 0, 0.0, 4.0), JobTiming(1, 0, 4.0, 8.0)),
            worker_busy_seconds=(8.0, 0.0, 0.0),
        )

    def test_never_scheduled_workers_not_charged_barrier_downtime(self):
        report = self._oversized_report()
        assert report.barrier_downtime() == [2.0, 0.0, 0.0]
        assert report.idle_workers == 2
        payload = report.to_dict()
        assert payload["idle_workers"] == 2
        assert payload["barrier_downtime_seconds"] == [2.0, 0.0, 0.0]

    def test_timeline_marks_idle_workers(self):
        text = pool_timeline(self._oversized_report(), width=40)
        assert "w0=2.00s" in text
        assert "w1=idle" in text and "w2=idle" in text
        assert "idle workers: 2 never scheduled" in text

    def test_chrome_trace_labels_idle_lanes(self):
        payload = json.loads(pool_chrome_trace(self._oversized_report()))
        idle = [e for e in payload["traceEvents"] if e.get("cat") == "idle"]
        assert sorted(e["tid"] for e in idle) == [1, 2]
        assert all(e["dur"] == pytest.approx(10.0 * 1e6) for e in idle)
        barriers = [e for e in payload["traceEvents"] if e.get("cat") == "barrier"]
        assert [b["tid"] for b in barriers] == [0]


class TestScalingReport:
    def _entry(self, backend, n_workers, best=91.0):
        return {
            "backend": backend,
            "n_workers": n_workers,
            "wall_seconds": 1.0,
            "n_models": 10,
            "best_fitness": best,
            "epochs_trained": 24,
            "generations": [],
        }

    def test_consistency_flags_divergent_outcomes(self):
        from repro.bench.scaling import ScalingReport

        report = ScalingReport(
            seed=21,
            host_cpus=1,
            entries=[self._entry("serial", 1), self._entry("process", 2)],
        )
        assert report.consistent()
        report.entries.append(self._entry("process", 4, best=50.0))
        assert not report.consistent()
        assert "DETERMINISM BROKEN" in report.summary()

    def test_roundtrip_and_single_core_note(self, tmp_path):
        from repro.bench.scaling import ScalingReport

        report = ScalingReport(
            seed=21, host_cpus=1, entries=[self._entry("serial", 1)]
        )
        path = report.save(tmp_path / "scaling.json")
        restored = ScalingReport.load(path)
        assert restored.entries == report.entries
        assert "single-core host" in restored.summary()

    def test_consistency_is_per_evolution_mode(self):
        from repro.bench.scaling import ScalingReport

        # steady and barrier trajectories legitimately differ; the
        # determinism check must only compare within each mode
        report = ScalingReport(
            seed=21,
            host_cpus=1,
            entries=[
                self._entry("serial", 1),
                self._entry("process", 2),
                dict(self._entry("serial", 1, best=77.0), evolution="steady"),
                dict(self._entry("process", 2, best=77.0), evolution="steady"),
            ],
        )
        assert report.consistent()
        report.entries.append(
            dict(self._entry("process", 4, best=33.0), evolution="steady")
        )
        assert not report.consistent()
        assert "DETERMINISM BROKEN" in report.summary()

    def test_summary_labels_steady_entries(self):
        from repro.bench.scaling import ScalingReport

        entry = dict(
            self._entry("process", 4),
            evolution="steady",
            busy_seconds=3.5,
            idle_seconds=0.5,
            barrier_downtime_seconds=[[0.0, 0.0, 0.0, 0.25]],
            mid_run_barrier_downtime_seconds=0.0,
            final_drain_seconds=0.25,
        )
        text = ScalingReport(seed=21, host_cpus=8, entries=[entry]).summary()
        assert "process@4/steady" in text
        assert "mid-run" in text and "drain" in text

    def test_compare_is_structural_only(self):
        from repro.bench.scaling import ScalingReport, compare_scaling

        fresh = ScalingReport(
            seed=21, host_cpus=1, entries=[self._entry("serial", 1)]
        )
        same = ScalingReport(
            seed=21,
            host_cpus=64,
            entries=[dict(self._entry("serial", 1), wall_seconds=99.0)],
        )
        diff = compare_scaling(fresh, same)
        assert "DIFF" not in diff
        worse = ScalingReport(
            seed=21, host_cpus=1, entries=[self._entry("serial", 1, best=12.0)]
        )
        assert "DIFF" in compare_scaling(fresh, worse)
