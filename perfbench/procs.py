"""Program processes: launch through ``launch.py``, time set-up, sample
the process tree's resident memory, and always reap what was started."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
_PAGE = os.sysconf("SC_PAGE_SIZE")
_BANNER = re.compile(r"listening on (http://\S+)")


def _descendants(root: int) -> list[int]:
    """``root`` and every live process below it (from ``/proc``)."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        ppid = int(stat[stat.rindex(b")") + 2:].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    found, todo = [], [root]
    while todo:
        pid = todo.pop()
        found.append(pid)
        todo.extend(children.get(pid, ()))
    return found


def tree_rss_bytes(root: int) -> int:
    total = 0
    for pid in _descendants(root):
        try:
            with open(f"/proc/{pid}/statm", "rb") as fh:
                total += int(fh.read().split()[1]) * _PAGE
        except OSError:
            pass
    return total


class RssSampler:
    """Background thread tracking the peak summed RSS of a process tree."""

    def __init__(self, pid: int, interval: float):
        self.pid = pid
        self.interval = interval
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.is_set():
            self.peak = max(self.peak, tree_rss_bytes(self.pid))
            self._stop.wait(self.interval)

    def stop(self) -> int:
        self._stop.set()
        self._thread.join()
        return self.peak


@dataclass
class ProgramRun:
    """One finished CLI process."""

    returncode: int
    stdout: str
    stderr: str
    launched: float
    imported: float
    exited: float
    peak_rss_bytes: int

    @property
    def setup_s(self) -> float:
        return self.imported - self.launched

    @property
    def wall_s(self) -> float:
        return self.exited - self.launched

    @property
    def work_s(self) -> float:
        """From the CLI being imported until the process exited."""
        return self.exited - self.imported


def _launch_cmd(workdir: Path, name: str, cli_args: list[str],
                trace_prefix: str | None, import_only: bool = False
                ) -> tuple[list[str], Path]:
    marks = workdir / f"{name}.marks.json"
    cmd = [sys.executable, "-u", str(HERE / "launch.py"),
           "--marks", str(marks)]
    if trace_prefix:
        cmd += ["--trace", trace_prefix]
    if import_only:
        cmd.append("--import-only")
    return cmd + ["--"] + cli_args, marks


def _env(workdir: Path, tag: str) -> dict[str, str]:
    """The program's environment: its temporary files (the sweep queue's
    ephemeral state) stay inside the run's work directory."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PERFBENCH_TAG"] = tag
    env["TMPDIR"] = str(workdir)
    return env


def _wait_rusage(proc: subprocess.Popen, timeout: float) -> int:
    """Reap ``proc`` (killing it past ``timeout``); returns its peak RSS
    in bytes as the kernel recorded it."""
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss * 1024


def run_program(workdir: Path, name: str, cli_args: list[str],
                trace_prefix: str | None = None, timeout: float = 170.0,
                sample_interval: float = 0.05) -> ProgramRun:
    """Run ``repro <cli_args>`` to completion and time it."""
    cmd, marks = _launch_cmd(workdir, name, cli_args, trace_prefix)
    out_path = workdir / f"{name}.stdout"
    err_path = workdir / f"{name}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        launched = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=workdir,
                                env=_env(workdir, name))
        sampler = RssSampler(proc.pid, sample_interval)
        try:
            kernel_peak = _wait_rusage(proc, timeout)
        finally:
            exited = time.perf_counter()
            sampled_peak = sampler.stop()
    imported = json.loads(marks.read_text())["imported"] \
        if marks.exists() else exited
    return ProgramRun(returncode=proc.returncode,
                      stdout=out_path.read_text(),
                      stderr=err_path.read_text(), launched=launched,
                      imported=imported, exited=exited,
                      peak_rss_bytes=max(kernel_peak, sampled_peak))


def import_setup_s(workdir: Path, name: str) -> float:
    """Launch a process that only imports the CLI; return its set-up."""
    cmd, marks = _launch_cmd(workdir, name, [], None, import_only=True)
    launched = time.perf_counter()
    subprocess.run(cmd, check=True, cwd=workdir, env=_env(workdir, name),
                   stdout=subprocess.DEVNULL, timeout=120)
    return json.loads(marks.read_text())["imported"] - launched


class Server:
    """``repro serve --async`` in its own process, started and stopped.

    ``setup_s`` runs from launch until the listening banner is read.
    """

    def __init__(self, workdir: Path, name: str,
                 trace_prefix: str | None = None):
        cmd, _ = _launch_cmd(workdir, name,
                             ["serve", "--async", "--port", "0"],
                             trace_prefix)
        self._err = open(workdir / f"{name}.stderr", "wb")
        launched = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self._err, cwd=workdir,
                                     env=_env(workdir, name))
        self.sampler = RssSampler(self.proc.pid, 0.25)
        self.peak_rss_bytes = 0
        try:
            line = self.proc.stdout.readline().decode()
            match = _BANNER.search(line)
            if match is None:
                raise RuntimeError(f"server did not start: {line!r}")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - launched
        self.url = match.group(1)
        host, port = self.url.removeprefix("http://").rsplit(":", 1)
        self.host, self.port = host, int(port)

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown, which lets a traced server
        write its spans), then reap."""
        if self.proc.returncode is None:
            self.proc.send_signal(2)
            kernel_peak = _wait_rusage(self.proc, 20.0)
            self.peak_rss_bytes = max(kernel_peak, self.sampler.stop())
            self.proc.stdout.close()
            self._err.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()
