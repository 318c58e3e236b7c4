"""Chunk workers: lease, solve a whole chunk, write shared results.

A worker is a loop over :meth:`repro.sweepq.journal.SweepJournal.claim`:
it leases the lowest-index claimable chunk, heartbeats the lease on a
background thread while solving, writes the chunk's results into the
shared :class:`repro.sweepq.store.ResultStore`, and completes the lease.
The loop exits when every chunk of the job is terminal (done or
failed).

Inside a chunk the cells are solved by
:func:`repro.service.executor.solve_cells`, the executor's own engine
rule: two or more MVA cells are **one** vectorized
:func:`repro.core.batch.solve_batch` fixed point, the vector-DES cells
**one** lockstep pack (cells x replications), so one lease round-trip
covers the whole slice; every other cell takes the per-cell retrying
path.  Per-cell failure isolation is inherited from the executor
payloads: an unsolvable cell becomes an error payload in the extras
sidecar, never a dead worker.

The same loop runs in two modes:

* as a child **process** (:func:`worker_main`, the parallel path);
* **in-process** (:func:`drain_in_process`), used for the serial /
  fallback path, for bounded partial drains in tests, and by a parent
  whose platform cannot fork.

``chaos_kill`` makes a worker SIGKILL itself *after claiming its first
lease and before completing it* -- the deterministic fault injection
used by the crash/recovery tests and the CI sweep-smoke job.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time
from pathlib import Path
from typing import Any

from repro.sweepq.journal import Lease, SweepJournal
from repro.sweepq.store import ResultStore

#: Idle sleep while other workers hold the remaining leases.
POLL_INTERVAL = 0.05


class _Heartbeat:
    """Extends one lease on a timer until stopped."""

    def __init__(self, journal: SweepJournal, job_id: str, lease: Lease,
                 lease_ttl: float):
        self._journal = journal
        self._job_id = job_id
        self._lease = lease
        self._ttl = lease_ttl
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        interval = max(self._ttl / 3.0, 0.05)
        while not self._stop.wait(interval):
            if not self._journal.heartbeat(self._job_id, self._lease.index,
                                           self._lease.lease_id, self._ttl):
                return  # lease reassigned: stop renewing, let solve finish

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=1.0)


def solve_chunk(tasks: list[Any], start: int, stop: int,
                store: ResultStore,
                sim_retries: int) -> dict[str, Any] | None:
    """Solve ``tasks[start:stop]`` into the store; return JSON extras.

    The engines are picked by
    :func:`~repro.service.executor.solve_cells`, exactly as for an
    in-process sweep.
    """
    from repro.service.executor import solve_cells

    extras: dict[str, Any] = {}
    for positions, values in solve_cells(tasks[start:stop], sim_retries):
        for position, value in zip(positions, values):
            index = start + position
            cell_extras = store.write(index, tasks[index], value)
            if cell_extras is not None:
                extras[str(index)] = cell_extras
    # No msync here: MAP_SHARED pages are coherent across processes as
    # written, and on-disk durability of the transport file is not a
    # correctness input (resume rests on the result cache).
    return extras or None


def run_worker_loop(journal: SweepJournal, job_id: str, tasks: list[Any],
                    store: ResultStore, worker_id: str, lease_ttl: float,
                    sim_retries: int, max_attempts: int,
                    chaos_kill: bool = False,
                    max_chunks: int | None = None) -> int:
    """Claim-solve-complete until the job is terminal; returns the
    number of chunks this worker completed.

    ``max_chunks`` bounds the drain (used by tests to simulate a run
    interrupted after N chunks); ``None`` runs to completion.
    """
    completed = 0
    while max_chunks is None or completed < max_chunks:
        lease = journal.claim(job_id, worker_id, lease_ttl,
                              max_attempts=max_attempts)
        if lease is None:
            if journal.unfinished(job_id) == 0:
                break
            time.sleep(POLL_INTERVAL)
            continue
        if chaos_kill:  # pragma: no cover - the process dies here
            # Deterministic fault injection: die holding the lease,
            # exactly as a worker lost mid-solve would.
            os.kill(os.getpid(), signal.SIGKILL)
        heartbeat = _Heartbeat(journal, job_id, lease, lease_ttl)
        try:
            extras = solve_chunk(tasks, lease.start, lease.stop, store,
                                 sim_retries)
        finally:
            heartbeat.stop()
        # A False return is the double-lease rejection: our lease
        # expired mid-solve and the chunk was reassigned; the other
        # worker's results win and ours are simply never read.
        if journal.complete(job_id, lease.index, lease.lease_id,
                            extras=extras):
            completed += 1
    return completed


def drain_in_process(journal: SweepJournal, job_id: str, tasks: list[Any],
                     store: ResultStore, lease_ttl: float = 3600.0,
                     sim_retries: int = 2, max_attempts: int = 5,
                     max_chunks: int | None = None) -> int:
    """Run the worker loop in the calling process (serial path,
    platform fallback, bounded test drains)."""
    return run_worker_loop(journal, job_id, tasks, store,
                           worker_id=f"inproc-{os.getpid()}",
                           lease_ttl=lease_ttl, sim_retries=sim_retries,
                           max_attempts=max_attempts, max_chunks=max_chunks)


def worker_main(journal_path: str, job_id: str, store_path: str,
                n_cells: int, worker_id: str, lease_ttl: float,
                sim_retries: int, max_attempts: int,
                chaos_kill: bool = False) -> None:  # pragma: no cover
    """Child-process entry point (coverage runs in the parent only)."""
    journal = SweepJournal(Path(journal_path))
    tasks = pickle.loads(journal.load_tasks(job_id))
    store = ResultStore.attach(store_path, n_cells)
    try:
        run_worker_loop(journal, job_id, tasks, store, worker_id,
                        lease_ttl, sim_retries, max_attempts,
                        chaos_kill=chaos_kill)
    finally:
        store.close()
