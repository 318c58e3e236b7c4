"""Injected faults on the real disk-cache paths of the CLI.

Each test runs ``repro`` in a subprocess against a real SQLite cache
file and breaks it the way production breaks: the process is SIGKILLed
mid-sweep, or the cache directory refuses new files.
"""

import json
import os
import re
import signal
import sqlite3
import subprocess
import sys
import time
from contextlib import closing
from pathlib import Path

import pytest

from repro.service.cache import ResultCache

_SRC = str(Path(__file__).resolve().parents[1] / "src")

#: 48 cells, half of them DES runs: slow enough (~2 s) to kill mid-way.
_GRID = ["grid", "--protocols", "write-once", "1", "-n", "2", "4", "8",
         "16", "--simulate", "--requests", "3000"]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def _repro(*args, timeout=120):
    return subprocess.run([sys.executable, "-m", "repro", *args],
                          capture_output=True, text=True, env=_env(),
                          timeout=timeout)


def _rows(path):
    if not path.exists():
        return 0
    with closing(sqlite3.connect(path, timeout=5)) as conn:
        try:
            return conn.execute("SELECT COUNT(*) FROM cells").fetchone()[0]
        except sqlite3.OperationalError:  # table not created yet
            return 0


@pytest.fixture
def readonly_dir(tmp_path):
    """A directory in which no file can be created.  Root ignores mode
    bits, so under root it is a procfs directory instead."""
    if hasattr(os, "geteuid") and os.geteuid() == 0:
        yield Path("/proc/self")
        return
    path = tmp_path / "ro"
    path.mkdir()
    path.chmod(0o555)
    try:
        yield path
    finally:
        path.chmod(0o755)


def test_sigkill_mid_sweep_keeps_complete_rows(tmp_path):
    """SIGKILL a cold ``grid --cache`` pass once it has persisted some
    cells: a reopened cache holds only complete rows, and a rerun
    serves exactly those from the cache with a byte-identical CSV."""
    path = tmp_path / "cache.db"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *_GRID, "--cache", str(path),
         "--output", str(tmp_path / "killed.csv")],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=_env())
    try:
        deadline = time.monotonic() + 60
        while _rows(path) < 4 and proc.poll() is None:
            assert time.monotonic() < deadline, "no rows persisted"
            time.sleep(0.01)
        proc.send_signal(signal.SIGKILL)
    finally:
        proc.wait(timeout=30)
    assert proc.returncode == -signal.SIGKILL, "sweep finished before kill"

    with closing(sqlite3.connect(path)) as conn:
        stored = [json.loads(value) for (value,)
                  in conn.execute("SELECT value FROM cells")]
    assert all(set(value) >= {"cell", "elapsed_s"} for value in stored)
    survivors = ResultCache(path=path)
    assert 4 <= len(survivors) == len(stored) < 48

    rerun = _repro(*_GRID, "--cache", str(path))
    assert rerun.returncode == 0, rerun.stderr
    summary = re.search(r"(\d+) solved, (\d+) cached", rerun.stderr)
    assert summary, rerun.stderr
    assert int(summary.group(2)) == len(survivors)
    assert int(summary.group(1)) == 48 - len(survivors)
    assert rerun.stdout == _repro(*_GRID).stdout


def test_grid_with_readonly_cache_dir_exits_2_before_solving(readonly_dir):
    result = _repro(*_GRID, "--cache", str(readonly_dir / "cache.db"))
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    assert "solved" not in result.stderr
    assert result.stdout == ""


def test_serve_with_readonly_cache_dir_refuses_to_start(readonly_dir):
    result = _repro("serve", "--port", "0", "--async",
                    "--cache", str(readonly_dir / "cache.db"), timeout=30)
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    assert "listening" not in result.stdout
