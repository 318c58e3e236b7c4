"""SweepQueue behaviour: equivalence, resume, recovery, failed chunks.

The queue's contract is that *nothing* about chunking, worker count,
caching, or crash history may show up in the results: every test here
compares against the plain serial executor's values.
"""

import os
import threading
from dataclasses import dataclass

import pytest

from repro.analysis.grid import GridCell, GridSpec
from repro.core.solver import FixedPointSolver
from repro.protocols.modifications import ProtocolSpec, all_combinations
from repro.service.cache import ResultCache
from repro.service.executor import (
    CellTask,
    SweepExecutor,
    tasks_for_spec,
)
from repro.service.metrics import MetricsRegistry
from repro.sweepq import (
    PACK_LANE_CAP,
    ResultStore,
    SweepJournal,
    SweepQueue,
)
from repro.sweepq import queue as queue_module
from repro.workload.parameters import SharingLevel, appendix_a_workload

SPEC = GridSpec(
    protocols=[ProtocolSpec(), ProtocolSpec.of(1, 4)],
    sizes=[2, 4, 8, 16],
    sharing_levels=[SharingLevel.FIVE_PERCENT],
)

#: Converges nowhere: every cell becomes an error payload.
_POISONED = FixedPointSolver(tolerance=1e-30, max_iterations=3)


def _tasks():
    return tasks_for_spec(SPEC)


def _serial_rows(tasks):
    result = SweepExecutor(jobs=1).run(tasks)
    return [cell.as_row() for cell in result.cells]


def _rows_from(tasks, outcome):
    rows = []
    for task, value in zip(tasks, outcome.values):
        error = value.get("error")
        if error is not None:
            rows.append(GridCell.failed(
                protocol=task.protocol.label, sharing=task.sharing_label,
                n_processors=task.n, method=task.method,
                error=f"{error.get('type', 'Exception')}: "
                      f"{error.get('message', '')}").as_row())
        else:
            rows.append(GridCell(**value["cell"]).as_row())
    return rows


def _queue(tmp_path, **kwargs):
    kwargs.setdefault("cache", ResultCache(path=str(tmp_path / "c.json")))
    kwargs.setdefault("chunk_size", 3)
    return SweepQueue(state_dir=tmp_path / "q", **kwargs)


class TestResultStore:
    def test_mva_value_roundtrips_bit_exact(self, tmp_path):
        task = CellTask(
            protocol=ProtocolSpec(), sharing_label="5%",
            workload=appendix_a_workload(SharingLevel.FIVE_PERCENT), n=4)
        from repro.service.executor import evaluate_with_retry
        value = evaluate_with_retry(task, 0)
        store = ResultStore.create(tmp_path / "r", 1)
        extras = store.write(0, task, value)
        assert store.read(0, task, extras) == value

    def test_sim_value_roundtrips(self, tmp_path):
        task = CellTask(
            protocol=ProtocolSpec(), sharing_label="5%",
            workload=appendix_a_workload(SharingLevel.FIVE_PERCENT), n=2,
            method="sim", sim_requests=500, sim_seed=9)
        from repro.service.executor import evaluate_with_retry
        value = evaluate_with_retry(task, 0)
        store = ResultStore.create(tmp_path / "r", 1)
        extras = store.write(0, task, value)
        assert store.read(0, task, extras) == value

    def test_error_value_rides_in_extras_verbatim(self, tmp_path):
        task = CellTask(
            protocol=ProtocolSpec(), sharing_label="5%",
            workload=appendix_a_workload(SharingLevel.FIVE_PERCENT), n=4,
            solver=_POISONED)
        from repro.service.executor import evaluate_with_retry
        value = evaluate_with_retry(task, 0)
        assert value.get("error") is not None
        store = ResultStore.create(tmp_path / "r", 1)
        extras = store.write(0, task, value)
        assert extras == value
        assert store.read(0, task, extras) == value

    def test_unwritten_cell_raises(self, tmp_path):
        task = CellTask(
            protocol=ProtocolSpec(), sharing_label="5%",
            workload=appendix_a_workload(SharingLevel.FIVE_PERCENT), n=4)
        store = ResultStore.create(tmp_path / "r", 2)
        with pytest.raises(ValueError, match="no result"):
            store.read(1, task, None)

    def test_attach_sees_creators_writes(self, tmp_path):
        task = CellTask(
            protocol=ProtocolSpec(), sharing_label="5%",
            workload=appendix_a_workload(SharingLevel.FIVE_PERCENT), n=4)
        from repro.service.executor import evaluate_with_retry
        value = evaluate_with_retry(task, 0)
        creator = ResultStore.create(tmp_path / "r", 1)
        extras = creator.write(0, task, value)
        creator.flush()
        attached = ResultStore.attach(tmp_path / "r", 1)
        assert attached.read(0, task, extras) == value


class TestQueueEquivalence:
    def test_inprocess_matches_serial_executor(self, tmp_path):
        tasks = _tasks()
        outcome = _queue(tmp_path).run_tasks(tasks, workers=1)
        assert outcome.mode == "chunked-inprocess"
        assert _rows_from(tasks, outcome) == _serial_rows(tasks)
        assert outcome.counters["done"] == outcome.counters["chunks"]

    def test_two_workers_match_serial_executor(self, tmp_path):
        tasks = _tasks()
        outcome = _queue(tmp_path).run_tasks(tasks, workers=2)
        assert _rows_from(tasks, outcome) == _serial_rows(tasks)

    def test_chunk_size_one_matches(self, tmp_path):
        tasks = _tasks()
        outcome = _queue(tmp_path, chunk_size=1).run_tasks(tasks,
                                                           workers=1)
        assert outcome.counters["chunks"] == len(tasks)
        assert _rows_from(tasks, outcome) == _serial_rows(tasks)

    def test_poisoned_cells_become_error_payloads(self, tmp_path):
        """Per-cell failure isolation survives the chunked path: the
        poisoned cell's error row matches the serial executor's."""
        tasks = _tasks()
        poisoned = list(tasks)
        poisoned[3] = CellTask(
            protocol=poisoned[3].protocol,
            sharing_label=poisoned[3].sharing_label,
            workload=poisoned[3].workload, n=poisoned[3].n,
            solver=_POISONED)
        outcome = _queue(tmp_path).run_tasks(poisoned, workers=1)
        assert outcome.values[3].get("error") is not None
        assert _rows_from(poisoned, outcome) == _serial_rows(poisoned)


class TestQueueCacheAndResume:
    def test_second_run_is_all_cache(self, tmp_path):
        tasks = _tasks()
        queue = _queue(tmp_path)
        first = queue.run_tasks(tasks, workers=1)
        assert not any(first.cached)
        job_id = queue.submit(tasks)
        second = queue.run(job_id, workers=1)
        assert all(second.cached)
        assert _rows_from(tasks, second) == _rows_from(tasks, first)

    def test_partial_run_then_resume(self, tmp_path):
        """The crash/restart workflow: drain two chunks, 'die', then a
        fresh run() completes only the remainder."""
        tasks = _tasks()
        queue = _queue(tmp_path)
        job_id = queue.submit(tasks)
        counters = queue.process_chunks(job_id, limit=2)
        assert counters["done"] == 2
        outcome = queue.run(job_id, workers=1)
        assert outcome.counters["done"] == outcome.counters["chunks"]
        # The first two chunks came back from the cache...
        assert sum(outcome.cached) == 6  # 2 chunks x chunk_size 3
        # ...and the rows are what an uninterrupted serial run gives.
        assert _rows_from(tasks, outcome) == _serial_rows(tasks)

    def test_evicted_cache_requeues_done_chunks(self, tmp_path):
        """A done chunk whose cached cells vanished is re-solved, not
        trusted: the cache is a fast path, never a correctness input."""
        tasks = _tasks()
        queue = _queue(tmp_path)
        job_id = queue.submit(tasks)
        queue.process_chunks(job_id, limit=2)
        queue.cache.clear()
        outcome = queue.run(job_id, workers=1)
        assert not any(outcome.cached)  # everything re-solved
        assert _rows_from(tasks, outcome) == _serial_rows(tasks)

    def test_precheck_completes_chunks_from_cache(self, tmp_path):
        tasks = _tasks()
        cache = ResultCache(path=str(tmp_path / "shared.json"))
        warm = SweepQueue(state_dir=tmp_path / "q1", cache=cache,
                          chunk_size=3)
        warm.run_tasks(tasks, workers=1)
        cold = SweepQueue(state_dir=tmp_path / "q2", cache=cache,
                          chunk_size=3)
        outcome = cold.run_tasks(tasks, workers=1)
        assert all(outcome.cached)
        assert outcome.counters["done"] == outcome.counters["chunks"]


class TestCrashRecovery:
    def test_chaos_killed_worker_is_recovered(self, tmp_path):
        """SIGKILL one worker after its first claim: the lease expires,
        another worker requeues the chunk, and the final rows are
        byte-identical to an undisturbed serial run."""
        tasks = _tasks()
        metrics = MetricsRegistry()
        queue = _queue(tmp_path, lease_ttl=1.0, metrics=metrics)
        job_id = queue.submit(tasks)
        outcome = queue.run(job_id, workers=2, chaos_kill=1)
        assert outcome.counters["requeues"] >= 1
        assert outcome.counters["recovered"] >= 1
        assert outcome.counters["done"] == outcome.counters["chunks"]
        assert _rows_from(tasks, outcome) == _serial_rows(tasks)
        assert metrics.snapshot()["repro_sweep_chunks_recovered"] >= 1

    def test_failed_chunk_becomes_error_rows(self, tmp_path):
        tasks = _tasks()
        queue = _queue(tmp_path)
        job_id = queue.submit(tasks)
        queue.journal.fail_chunk(job_id, 0, "abandoned after 5 "
                                            "expired leases")
        outcome = queue.run(job_id, workers=1)
        for value in outcome.values[:3]:
            assert value["error"]["type"] == "ChunkFailedError"
            assert "abandoned" in value["error"]["message"]
        for value in outcome.values[3:]:
            assert value.get("error") is None
        assert outcome.counters["failed"] == 1


class TestWorkerStart:
    """Workers fork straight from a single-threaded parent; a threaded
    one (the HTTP service) starts them from a forkserver, because a
    fork taken while another thread holds SQLite's global mutex leaves
    the child blocked on its first journal query."""

    @pytest.mark.parametrize("threads, method", [(1, "fork"),
                                                 (3, "forkserver")])
    def test_start_method(self, monkeypatch, threads, method):
        monkeypatch.setattr(queue_module.threading, "active_count",
                            lambda: threads)
        assert queue_module._worker_context().get_start_method() == method

    def test_threaded_parent_matches_serial_executor(self, tmp_path):
        tasks = _tasks()
        outcome = {}
        thread = threading.Thread(target=lambda: outcome.update(
            run=_queue(tmp_path).run_tasks(tasks, workers=2)))
        thread.start()
        thread.join(timeout=120)
        assert outcome["run"].counters["workers_used"] >= 1
        assert _rows_from(tasks, outcome["run"]) == _serial_rows(tasks)


class TestValidation:
    def test_empty_submit_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty task list"):
            _queue(tmp_path).submit([])

    def test_bad_workers_rejected(self, tmp_path):
        queue = _queue(tmp_path)
        job_id = queue.submit(_tasks())
        with pytest.raises(ValueError, match="workers"):
            queue.run(job_id, workers=0)

    def test_bad_lease_ttl_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="lease_ttl"):
            SweepQueue(state_dir=tmp_path, lease_ttl=0)

    def test_ephemeral_queue_cleans_up(self):
        queue = SweepQueue()
        state_dir = queue.state_dir
        assert state_dir.exists()
        queue.close()
        assert not state_dir.exists()


@dataclass(frozen=True)
class _StubTask:
    """All ``submit`` reads of a task: its cache key, method and
    vector-DES lane count."""

    key: str
    method: str = "mva"
    sim_lanes: int = 0


def _stubs(n_cells, sim_at=None):
    return [_StubTask(key=f"cell-{i}",
                      method="sim" if i == sim_at else "mva")
            for i in range(n_cells)]


class TestChunkPolicy:
    """``submit`` owns the one default chunk-size rule that ``repro
    sweep``, the executor and ``POST /v1/sweep`` all use."""

    @staticmethod
    def _chunk_size(tmp_path, tasks, queue_chunk_size=None, **kwargs):
        queue = SweepQueue(state_dir=tmp_path / "q",
                           chunk_size=queue_chunk_size)
        try:
            return queue.progress(queue.submit(tasks, **kwargs))[
                "chunk_size"]
        finally:
            queue.close()

    def test_mva_only_caps_at_full_batch_width(self, tmp_path):
        assert self._chunk_size(tmp_path, _stubs(5000)) == 1024

    def test_simulation_cells_cap_lower(self, tmp_path):
        assert self._chunk_size(tmp_path, _stubs(5000, sim_at=7)) == 256

    @pytest.mark.parametrize("workers, size", [(1, 12), (2, 6), (4, 3)])
    def test_about_four_chunks_per_worker(self, tmp_path, workers, size):
        assert self._chunk_size(tmp_path, _stubs(48, sim_at=0),
                                workers=workers) == size

    def test_explicit_chunk_size_wins(self, tmp_path):
        tasks = _stubs(5000)
        assert self._chunk_size(tmp_path / "a", tasks, chunk_size=7) == 7
        assert self._chunk_size(tmp_path / "b", tasks,
                                queue_chunk_size=5) == 5
        assert self._chunk_size(tmp_path / "c", tasks, chunk_size=7,
                                queue_chunk_size=5) == 7


def _vector_spec(sizes, sim_reps, protocols=None):
    return GridSpec(protocols=protocols or [ProtocolSpec(),
                                            ProtocolSpec.of(1, 2, 3, 4)],
                    sizes=sizes, include_simulation=True,
                    sim_requests=300, sim_engine="vector",
                    sim_reps=sim_reps)


class TestPackedChunkPolicy:
    """Sweeps with vector-DES cells get one chunk per worker -- each
    chunk one lockstep pack -- and never more than
    ``PACK_LANE_CAP`` lanes (cells x replications) per chunk."""

    @staticmethod
    def _chunks(tmp_path, tasks, workers):
        queue = SweepQueue(state_dir=tmp_path / "q")
        try:
            job_id = queue.submit(tasks, workers=workers)
            return [(chunk.start, chunk.stop)
                    for chunk in queue.journal.chunk_rows(job_id)]
        finally:
            queue.close()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_one_chunk_per_worker(self, tmp_path, workers):
        """The perfbench ``sweep-des`` shape: 12 DES + 12 MVA cells."""
        tasks = tasks_for_spec(_vector_spec([4, 16], 16))
        chunks = self._chunks(tmp_path, tasks, workers)
        assert len(chunks) == workers
        assert chunks[-1][1] == len(tasks)

    @pytest.mark.parametrize("workers, sim_reps", [(1, 100), (2, 64),
                                                    (4, 512), (2, 600)])
    def test_lane_cap(self, tmp_path, workers, sim_reps):
        tasks = tasks_for_spec(_vector_spec([2, 4, 8, 16], sim_reps,
                                            protocols=all_combinations()))
        chunks = self._chunks(tmp_path, tasks, workers)
        lanes = [sum(task.sim_lanes for task in tasks[start:stop])
                 for start, stop in chunks]
        # A single cell wider than the cap still gets a chunk of its own.
        assert all(width <= max(PACK_LANE_CAP, sim_reps) for width in lanes)
        assert len(chunks) >= workers

    def test_scalar_des_keeps_four_chunks_per_worker(self, tmp_path):
        tasks = tasks_for_spec(_MIXED)
        assert len(self._chunks(tmp_path, tasks, 2)) == 6

    def test_packed_chunks_match_cells_alone(self, tmp_path):
        """Default chunking (one pack per chunk) and ``chunk_size=1``
        (every DES cell alone) produce identical values."""
        tasks = tasks_for_spec(_vector_spec([2, 4], 2))
        outcomes = []
        for name, chunk_size in (("a", None), ("b", 1)):
            queue = SweepQueue(state_dir=tmp_path / name,
                               chunk_size=chunk_size)
            try:
                outcomes.append(queue.run_tasks(tasks, workers=1))
            finally:
                queue.close()
        packed, alone = outcomes
        assert packed.counters["chunks"] == 1
        assert _rows_from(tasks, packed) == _rows_from(tasks, alone)
        des_cells = sum(1 for task in tasks if task.sim_lanes)
        for task, value in zip(tasks, packed.values):
            if task.sim_lanes:
                assert value["sim_pack_cells"] == des_cells
                assert value["effective_seed"] == task.sim_seed
        assert {value.get("sim_pack_cells") for task, value
                in zip(tasks, alone.values) if task.sim_lanes} == {1}


#: 12 cells: six MVA rows, each with its simulation row.
_MIXED = GridSpec(protocols=[ProtocolSpec(), ProtocolSpec.of(1, 4)],
                  sizes=[2, 4, 8],
                  sharing_levels=[SharingLevel.FIVE_PERCENT],
                  include_simulation=True, sim_requests=300)
#: 3072 MVA cells: all 16 protocols, three sharing levels, N = 1..64.
_MVA_ONLY = GridSpec(protocols=all_combinations(), sizes=list(range(1, 65)))


class TestExecutorChunkTables:
    """``SweepExecutor(jobs=4)`` keeps the chunk tables it had when it
    computed its own default: (chunks, chunk size) per core count."""

    @pytest.mark.parametrize("spec, cores, table", [
        (_MIXED, 1, (4, 3)), (_MIXED, 2, (6, 2)), (_MIXED, 4, (12, 1)),
        (_MVA_ONLY, 1, (4, 768)), (_MVA_ONLY, 2, (8, 384)),
    ])
    def test_chunk_table(self, tmp_path, monkeypatch, spec, cores, table):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        SweepExecutor(jobs=4, state_dir=str(tmp_path)).run(
            tasks_for_spec(spec))
        journal = SweepJournal(tmp_path / "journal.db")
        try:
            (job,) = journal.list_jobs()
            chunks = journal.counters(job.job_id)["chunks"]
            assert (chunks, job.chunk_size) == table
        finally:
            journal.close()
