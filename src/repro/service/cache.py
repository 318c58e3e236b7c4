"""Content-addressed result cache: LRU front, optional SQLite disk store.

Values are JSON-representable dicts (a solved cell plus its solve
metadata) keyed by :func:`repro.service.keys.task_key`.  The in-memory
front is a plain ordered-dict LRU; the optional persistent store is a
SQLite-WAL table of one row per key, loaded on construction and
updated row by row on :meth:`ResultCache.flush`, so processes sharing
a file add to it rather than overwrite each other.

Evictions delete their rows, so the LRU ``capacity`` also bounds the
file; another schema's rows are dropped and a non-SQLite file is
replaced (a cache must never take the service down).  Database errors
surface as :class:`OSError`.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.service.keys import SCHEMA_VERSION
from repro.sqlite_wal import WalConnections


@dataclass
class CacheStats:
    """Lifetime counters of one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    stores: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups; 0.0 before the first lookup."""
        return self.hits / self.lookups if self.lookups else 0.0


class ResultCache:
    """LRU cache of solved cells with an optional SQLite file behind it.

    Parameters
    ----------
    capacity:
        Maximum number of entries held (and persisted).  Least recently
        *used* entries are evicted first.
    path:
        Optional SQLite file for persistence across processes/runs.
        Its newest ``capacity`` rows are read once at construction;
        call :meth:`flush` (or use the executor, which flushes after
        every solve) to write back.
    """

    def __init__(self, capacity: int = 4096,
                 path: str | os.PathLike[str] | None = None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self.path = Path(path) if path is not None else None
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, dict[str, Any]] = OrderedDict()
        # Rows to upsert / delete at the next flush (disk store only).
        self._changed: dict[str, dict[str, Any]] = {}
        self._evicted: set[str] = set()
        self._db = WalConnections(self.path) if self.path is not None else None
        if self.path is not None:
            self._load()

    # -- mapping-ish interface -------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> dict[str, Any] | None:
        """Look up ``key``; counts a hit or a miss and refreshes LRU order."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def put(self, key: str, value: dict[str, Any]) -> None:
        """Store ``value`` under ``key``, evicting the LRU tail if full."""
        self.put_many([(key, value)])

    def put_many(self, items: Iterable[tuple[str, dict[str, Any]]]) -> None:
        """Store every ``(key, value)`` pair under one lock acquisition.

        Semantically ``put`` in a loop (same LRU refresh, store counts
        and eviction policy); batch writers -- the coalescer lands
        hundreds of cells per flush -- use this to keep lock traffic
        off their per-cell path.
        """
        with self._lock:
            changed = self._changed if self._db is not None else None
            for key, value in items:
                if key in self._entries:
                    self._entries.move_to_end(key)
                self._entries[key] = value
                if changed is not None:
                    changed[key] = value
                self.stats.stores += 1
            while len(self._entries) > self.capacity:
                key, _ = self._entries.popitem(last=False)
                self.stats.evictions += 1
                if changed is not None:
                    changed.pop(key, None)
                    self._evicted.add(key)

    def clear(self) -> None:
        with self._lock:
            if self._db is not None:
                self._evicted.update(self._entries)
                self._changed.clear()
            self._entries.clear()

    # -- persistence -----------------------------------------------------

    def _load(self) -> None:
        try:
            try:
                rows = self._read_rows()
            except sqlite3.DatabaseError as exc:
                if type(exc) is not sqlite3.DatabaseError:
                    raise
                # Not a SQLite database (say, an old JSON cache file):
                # the cache only saves work, so start an empty one.
                self._db.close()
                for suffix in ("", "-wal", "-shm"):
                    Path(f"{self.path}{suffix}").unlink(missing_ok=True)
                rows = self._read_rows()
        except sqlite3.Error as exc:
            raise OSError(f"result cache {self.path}: {exc}") from exc
        for _, key, value in reversed(rows):
            self._entries[key] = json.loads(value)

    def _read_rows(self) -> list[tuple[int, str, str]]:
        """The newest ``capacity`` ``(rowid, key, value)`` rows, newest
        first; older rows and another schema's rows are deleted."""
        with self._db.transaction() as conn:
            conn.execute("CREATE TABLE IF NOT EXISTS cells "
                         "(key TEXT PRIMARY KEY, value TEXT NOT NULL)")
            (version,) = conn.execute("PRAGMA user_version").fetchone()
            if version != SCHEMA_VERSION:
                conn.execute("DELETE FROM cells")
                conn.execute(f"PRAGMA user_version={SCHEMA_VERSION:d}")
            rows = conn.execute(
                "SELECT rowid, key, value FROM cells ORDER BY rowid DESC "
                "LIMIT ?", (self.capacity,)).fetchall()
            if len(rows) == self.capacity:
                conn.execute("DELETE FROM cells WHERE rowid < ?",
                             (rows[-1][0],))
        return rows

    def flush(self) -> None:
        """Write the rows put or evicted since the last flush in one
        transaction (no-op without a path or when nothing changed)."""
        if self.path is None:
            return
        with self._lock:
            if not self._changed and not self._evicted:
                return
            try:
                with self._db.transaction() as conn:
                    conn.executemany("DELETE FROM cells WHERE key = ?",
                                     [(key,) for key in self._evicted])
                    conn.executemany(
                        "INSERT OR REPLACE INTO cells (key, value) VALUES (?, ?)",
                        [(key, json.dumps(value))
                         for key, value in self._changed.items()])
            except sqlite3.Error as exc:
                raise OSError(f"result cache {self.path}: {exc}") from exc
            self._changed.clear()
            self._evicted.clear()
