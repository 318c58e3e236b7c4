"""The sweep queue's persistent journal: jobs, chunks and leases.

A single SQLite database (write-ahead-log mode) is the source of truth
for every job's chunk table.  Workers *claim* chunks under a lease --
a UUID token with an expiry timestamp -- heartbeat the lease while
solving, and *complete* the chunk with the same token.  The journal is
the arbiter of every race:

* **lease expiry -> requeue**: a chunk whose lease expired (worker
  killed, machine lost) is claimable again; the takeover is counted in
  ``requeues`` so recovery is observable;
* **double-lease rejection**: ``heartbeat`` and ``complete`` verify the
  caller's lease token against the chunk row -- a zombie worker whose
  lease was reassigned cannot extend or complete the chunk out from
  under the new owner;
* **bounded retries**: a chunk that has burned ``max_attempts`` leases
  without completing is marked ``failed`` instead of being leased
  forever (its cells become error rows downstream).

All timestamps are passed in explicitly (``now``), defaulting to
``time.time()``, so lease semantics are unit-testable without sleeping.
The journal is shared across forked worker processes and threads; its
connections come from :class:`repro.sqlite_wal.WalConnections`.
"""

from __future__ import annotations

import json
import sqlite3
import time
import uuid
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.sqlite_wal import WalConnections
from repro.sweepq.chunks import Chunk

#: Chunk lifecycle states.
QUEUED, LEASED, DONE, FAILED = "queued", "leased", "done", "failed"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    job_id      TEXT PRIMARY KEY,
    created     REAL NOT NULL,
    state       TEXT NOT NULL,
    chunk_size  INTEGER NOT NULL,
    total_cells INTEGER NOT NULL,
    spec        TEXT,
    tasks       BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS chunks (
    job_id        TEXT NOT NULL,
    idx           INTEGER NOT NULL,
    key           TEXT NOT NULL,
    start         INTEGER NOT NULL,
    stop          INTEGER NOT NULL,
    state         TEXT NOT NULL,
    source        TEXT,
    lease_id      TEXT,
    worker        TEXT,
    lease_expires REAL,
    attempts      INTEGER NOT NULL DEFAULT 0,
    requeues      INTEGER NOT NULL DEFAULT 0,
    extras        TEXT,
    error         TEXT,
    PRIMARY KEY (job_id, idx)
);
"""


class UnknownJobError(KeyError):
    """Raised when a job id does not exist in the journal."""


@dataclass(frozen=True)
class Lease:
    """One granted chunk lease (what a worker holds while solving)."""

    index: int
    start: int
    stop: int
    lease_id: str
    attempts: int
    #: True when this lease took over an expired one (a recovery).
    requeued: bool


@dataclass(frozen=True)
class JobRecord:
    job_id: str
    created: float
    state: str
    chunk_size: int
    total_cells: int
    spec: dict[str, Any] | None


@dataclass(frozen=True)
class ChunkRecord:
    index: int
    key: str
    start: int
    stop: int
    state: str
    source: str | None
    attempts: int
    requeues: int
    extras: dict[str, Any] | None
    error: str | None


class _JournalConnections(WalConnections):
    """WAL connections whose SQLite errors (a full disk, say) surface as
    ``OSError`` naming the journal, as the result cache's do."""

    @contextmanager
    def os_errors(self) -> Iterator[None]:
        try:
            yield
        except sqlite3.Error as exc:
            raise OSError(f"sweep journal {self.path}: {exc}") from exc

    def execute(self, sql: str, params: Sequence[Any] = ()) -> sqlite3.Cursor:
        with self.os_errors():
            return super().execute(sql, params)

    @contextmanager
    def transaction(self) -> Iterator[sqlite3.Connection]:
        with self.os_errors(), super().transaction() as conn:
            yield conn


class SweepJournal:
    """SQLite-backed job/chunk/lease bookkeeping for sweep queues."""

    def __init__(self, path: str | Path):
        self._db = _JournalConnections(path)
        self.path = self._db.path
        with self._db.os_errors():
            self._db.connect().executescript(_SCHEMA)

    def close(self) -> None:
        """Close this thread's cached connection."""
        self._db.close()

    # -- jobs ------------------------------------------------------------

    def create_job(self, job_id: str, tasks_blob: bytes,
                   chunks: Sequence[Chunk], chunk_size: int,
                   spec: dict[str, Any] | None = None,
                   now: float | None = None) -> None:
        now = time.time() if now is None else now
        total = chunks[-1].stop if chunks else 0
        with self._db.transaction() as conn:
            conn.execute(
                "INSERT INTO jobs (job_id, created, state, chunk_size, "
                "total_cells, spec, tasks) VALUES (?, ?, ?, ?, ?, ?, ?)",
                (job_id, now, "queued", chunk_size, total,
                 json.dumps(spec) if spec is not None else None,
                 tasks_blob))
            conn.executemany(
                "INSERT INTO chunks (job_id, idx, key, start, stop, state) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                [(job_id, c.index, c.key, c.start, c.stop, QUEUED)
                 for c in chunks])

    def get_job(self, job_id: str) -> JobRecord:
        row = self._db.execute(
            "SELECT job_id, created, state, chunk_size, total_cells, "
            "spec FROM jobs WHERE job_id = ?", (job_id,)).fetchone()
        if row is None:
            raise UnknownJobError(job_id)
        return JobRecord(job_id=row[0], created=row[1], state=row[2],
                         chunk_size=row[3], total_cells=row[4],
                         spec=json.loads(row[5]) if row[5] else None)

    def load_tasks(self, job_id: str) -> bytes:
        row = self._db.execute("SELECT tasks FROM jobs WHERE job_id = ?",
                               (job_id,)).fetchone()
        if row is None:
            raise UnknownJobError(job_id)
        return row[0]

    def list_jobs(self) -> list[JobRecord]:
        ids = [r[0] for r in self._db.execute(
            "SELECT job_id FROM jobs ORDER BY created")]
        return [self.get_job(job_id) for job_id in ids]

    def set_job_state(self, job_id: str, state: str) -> None:
        self._db.execute("UPDATE jobs SET state = ? WHERE job_id = ?",
                         (state, job_id))

    # -- chunk lifecycle -------------------------------------------------

    def chunk_rows(self, job_id: str) -> list[ChunkRecord]:
        rows = self._db.execute(
            "SELECT idx, key, start, stop, state, source, attempts, "
            "requeues, extras, error FROM chunks WHERE job_id = ? "
            "ORDER BY idx", (job_id,)).fetchall()
        return [ChunkRecord(
            index=r[0], key=r[1], start=r[2], stop=r[3], state=r[4],
            source=r[5], attempts=r[6], requeues=r[7],
            extras=json.loads(r[8]) if r[8] else None, error=r[9])
            for r in rows]

    def claim(self, job_id: str, worker: str, lease_ttl: float,
              max_attempts: int = 5,
              now: float | None = None) -> Lease | None:
        """Lease the lowest-index claimable chunk, or return ``None``.

        Claimable: ``queued``, or ``leased`` with an expired lease (the
        takeover increments ``requeues``).  An expired chunk that has
        already burned ``max_attempts`` leases is marked ``failed``
        instead of being leased again.
        """
        now = time.time() if now is None else now
        with self._db.transaction() as conn:
            while True:
                row = conn.execute(
                    "SELECT idx, start, stop, state, attempts, requeues "
                    "FROM chunks WHERE job_id = ? AND (state = ? OR "
                    "(state = ? AND lease_expires <= ?)) "
                    "ORDER BY idx LIMIT 1",
                    (job_id, QUEUED, LEASED, now)).fetchone()
                if row is None:
                    return None
                idx, start, stop, state, attempts, requeues = row
                expired = state == LEASED
                if attempts >= max_attempts:
                    conn.execute(
                        "UPDATE chunks SET state = ?, lease_id = NULL, "
                        "error = ? WHERE job_id = ? AND idx = ?",
                        (FAILED,
                         f"abandoned after {attempts} expired leases",
                         job_id, idx))
                    continue
                lease_id = uuid.uuid4().hex
                conn.execute(
                    "UPDATE chunks SET state = ?, lease_id = ?, "
                    "worker = ?, lease_expires = ?, attempts = ?, "
                    "requeues = ? WHERE job_id = ? AND idx = ?",
                    (LEASED, lease_id, worker, now + lease_ttl,
                     attempts + 1, requeues + (1 if expired else 0),
                     job_id, idx))
                return Lease(index=idx, start=start, stop=stop,
                             lease_id=lease_id, attempts=attempts + 1,
                             requeued=expired)

    def heartbeat(self, job_id: str, index: int, lease_id: str,
                  lease_ttl: float, now: float | None = None) -> bool:
        """Extend a held lease; False if it was reassigned or closed."""
        now = time.time() if now is None else now
        cursor = self._db.execute(
            "UPDATE chunks SET lease_expires = ? WHERE job_id = ? AND "
            "idx = ? AND state = ? AND lease_id = ?",
            (now + lease_ttl, job_id, index, LEASED, lease_id))
        return cursor.rowcount == 1

    def complete(self, job_id: str, index: int, lease_id: str,
                 extras: dict[str, Any] | None = None,
                 now: float | None = None) -> bool:
        """Mark a leased chunk done; False if the lease is no longer
        ours (double-lease rejection: the chunk stays with its current
        owner and this worker's results are discarded)."""
        cursor = self._db.execute(
            "UPDATE chunks SET state = ?, source = 'worker', "
            "lease_id = NULL, extras = ? "
            "WHERE job_id = ? AND idx = ? AND state = ? AND "
            "lease_id = ?",
            (DONE, json.dumps(extras) if extras else None,
             job_id, index, LEASED, lease_id))
        return cursor.rowcount == 1

    def mark_done_cached(self, job_id: str, index: int) -> bool:
        """Complete a queued chunk whose cells were all cache-answered."""
        cursor = self._db.execute(
            "UPDATE chunks SET state = ?, source = 'cache' "
            "WHERE job_id = ? AND idx = ? AND state = ?",
            (DONE, job_id, index, QUEUED))
        return cursor.rowcount == 1

    def reset_chunk(self, job_id: str, index: int) -> None:
        """Requeue a chunk (e.g. a done chunk whose cached cells were
        evicted before a resume could read them)."""
        self._db.execute(
            "UPDATE chunks SET state = ?, source = NULL, "
            "lease_id = NULL, worker = NULL, lease_expires = NULL, "
            "extras = NULL, error = NULL WHERE job_id = ? AND idx = ?",
            (QUEUED, job_id, index))

    def fail_chunk(self, job_id: str, index: int, error: str) -> None:
        self._db.execute(
            "UPDATE chunks SET state = ?, lease_id = NULL, error = ? "
            "WHERE job_id = ? AND idx = ?",
            (FAILED, error, job_id, index))

    # -- progress --------------------------------------------------------

    def counters(self, job_id: str) -> dict[str, int]:
        """Progress counters: chunk states, recoveries, cell totals and
        ``workers_used``, the distinct workers that completed a chunk
        (chunks answered from the cache have no worker)."""
        rows = self._db.execute(
            "SELECT state, COUNT(*), SUM(stop - start), SUM(requeues), "
            "SUM(CASE WHEN requeues > 0 THEN 1 ELSE 0 END), "
            "COUNT(DISTINCT CASE WHEN source = 'worker' THEN worker END) "
            "FROM chunks WHERE job_id = ? GROUP BY state",
            (job_id,)).fetchall()
        out = {state: 0 for state in (QUEUED, LEASED, DONE, FAILED)}
        cells = {state: 0 for state in (QUEUED, LEASED, DONE, FAILED)}
        requeues = 0
        recovered = 0
        workers_used = 0
        for (state, count, cell_count, state_requeues, state_recovered,
             state_workers) in rows:
            out[state] = count
            cells[state] = cell_count or 0
            requeues += state_requeues or 0
            if state == DONE:
                recovered = state_recovered or 0
                workers_used = state_workers
        total = sum(out.values())
        return {
            "chunks": total,
            "queued": out[QUEUED],
            "leased": out[LEASED],
            "done": out[DONE],
            "failed": out[FAILED],
            "requeues": requeues,
            "recovered": recovered,
            "cells": sum(cells.values()),
            "cells_done": cells[DONE],
            "cells_failed": cells[FAILED],
            "workers_used": workers_used,
        }

    def unfinished(self, job_id: str) -> int:
        """Chunks not yet terminal (neither done nor failed)."""
        row = self._db.execute(
            "SELECT COUNT(*) FROM chunks WHERE job_id = ? AND "
            "state NOT IN (?, ?)", (job_id, DONE, FAILED)).fetchone()
        return int(row[0])
