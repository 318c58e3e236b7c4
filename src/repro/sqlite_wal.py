"""SQLite write-ahead-log connections shared by the on-disk stores."""

from __future__ import annotations

import os
import sqlite3
import threading
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from pathlib import Path
from typing import Any


class WalConnections:
    """Connections to one WAL database, cached per thread and keyed by
    pid: a connection must cross neither a thread nor a fork, and one
    per call would dominate short transactions."""

    def __init__(self, path: str | os.PathLike[str]):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._tls = threading.local()

    def close(self) -> None:
        """Close this thread's connection (others die with their thread)."""
        conn = getattr(self._tls, "conn", None)
        if conn is not None and self._tls.pid == os.getpid():
            conn.close()
        self._tls.conn = None

    def connect(self) -> sqlite3.Connection:
        """This thread's connection, opened on first use."""
        conn = getattr(self._tls, "conn", None)
        if conn is None or self._tls.pid != os.getpid():
            conn = sqlite3.connect(self.path, timeout=30.0,
                                   isolation_level=None)
            try:
                # WAL + NORMAL keeps commits durable against process
                # crashes (our failure model) without an fsync each.
                for pragma in ("busy_timeout=30000", "journal_mode=WAL",
                               "synchronous=NORMAL"):
                    conn.execute(f"PRAGMA {pragma}")
            except BaseException:
                conn.close()
                raise
            self._tls.conn, self._tls.pid = conn, os.getpid()
        return conn

    def execute(self, sql: str, params: Sequence[Any] = ()) -> sqlite3.Cursor:
        """Run one autocommit statement on this thread's connection."""
        return self.connect().execute(sql, params)

    @contextmanager
    def transaction(self) -> Iterator[sqlite3.Connection]:
        """This thread's connection inside ``BEGIN IMMEDIATE`` ...
        ``COMMIT``; a failing body rolls back (the connection outlives
        the call, so no broken transaction may stay open on it)."""
        conn = self.connect()
        conn.execute("BEGIN IMMEDIATE")
        try:
            yield conn
            conn.execute("COMMIT")
        except BaseException:
            if conn.in_transaction:
                conn.execute("ROLLBACK")
            raise
