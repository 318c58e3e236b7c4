#!/usr/bin/env python
"""E16: load generation against the /v1/solve front-ends.

A standalone harness (argparse, stdlib-only clients) that measures
sustained ``POST /v1/solve`` throughput and latency through four
server configurations on the same machine:

* ``threaded``           -- the ThreadingHTTPServer, solo solves;
* ``threaded+coalesce``  -- same transport, micro-batching coalescer;
* ``async``              -- the asyncio front-end, solo solves;
* ``async+coalesce``     -- asyncio + coalescer (the headline config).

Three load legs per configuration:

* **closed loop** -- N keep-alive clients, each firing its next
  request the moment the previous one answers.  Measures capacity:
  requests/s plus p50/p99 response time.
* **open loop** -- Poisson arrivals at 70 % of the configuration's own
  measured closed-loop capacity, issued from a worker pool on a
  pre-generated exponential schedule.  Latency is measured from
  *scheduled arrival* to completion, so client-side queueing counts
  (the honest open-loop number).  The M/M/1 closed form
  (``repro.queueing.mm1``) predicts p99 ~= -ln(0.01) x mean response
  time at the same offered load, a sanity anchor for the measured tail.
* **shared open loop** -- the same Poisson schedule offered to every
  configuration at one rate, 70 % of the *lowest* closed-loop capacity
  of the run, so the tails compare at equal load (the own-capacity
  legs offer each configuration a different rate).

Every request solves one 32-point speedup curve -- one (protocol,
sharing) pair over a run of consecutive system sizes, the paper-native
query -- drawn round-robin from a pool whose ~8.6k distinct cells
exceed the shared cache capacity, so the coalesced configurations win
by *batching* distinct cells into one vectorized solve -- not by cache
hits (all four configurations share the same cache policy).  Clients
are raw keep-alive sockets with pre-rendered requests: the load
generator shares the server's core (and GIL), so every cycle it does
not spend is a cycle of honest server measurement.

Outputs: ``benchmarks/BENCH_load.json`` (committed machine-readable
baseline) plus ``output/load.txt``; ``--quick`` (the CI smoke job)
shrinks duration/concurrency, writes ``output/BENCH_load.quick.json``
instead, and only asserts zero transport errors.  The full run asserts
the acceptance floor: async+coalesce >= 3x threaded closed-loop
throughput.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import socket
import statistics
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.queueing.mm1 import MM1
from repro.service import (
    ModelService,
    ResultCache,
    start_async_server,
    start_server,
)

BENCH_DIR = Path(__file__).resolve().parent
CONFIGS = ("threaded", "threaded+coalesce", "async", "async+coalesce")

#: Open-loop offered load as a fraction of measured closed-loop
#: capacity: high enough to queue, low enough to stay stable.
OPEN_LOAD_FRACTION = 0.7

#: Full-run acceptance floor (ISSUE 8): async+coalesce closed-loop
#: throughput over the plain threaded server.
SPEEDUP_FLOOR = 3.0


#: System sizes per request: one speedup curve of consecutive N.
CELLS_PER_REQUEST = 32


def _body_pool(cells: int = CELLS_PER_REQUEST) -> list[bytes]:
    """Distinct speedup-curve solve bodies, round-robin shared by every
    client so no configuration gets a repeat-heavy workload.

    Each body asks for one (protocol, sharing) curve over ``cells``
    consecutive system sizes; the pool's distinct-cell count exceeds
    the default cache capacity, so sustained load measures solving, not
    cache hits."""
    protocols = ("write-once", "synapse", "illinois", "berkeley",
                 "rwb", "dragon")
    bodies = [
        json.dumps({"protocol": protocol, "sharing": sharing,
                    "n": list(range(base, base + cells))}).encode()
        for protocol, sharing, base in itertools.product(
            protocols, ("1", "5", "20"), range(2, 480, cells))
    ]
    return bodies


def render_request(host: str, port: int, body: bytes) -> bytes:
    """Pre-render one keep-alive ``POST /v1/solve`` as raw bytes."""
    head = (f"POST /v1/solve HTTP/1.1\r\nHost: {host}:{port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode("ascii")
    return head + body


class _Client:
    """One keep-alive raw socket with self-healing reconnect.

    ``http.client`` costs several hundred microseconds of pure Python
    per request -- cycles stolen from the server under test on a
    one-core box.  This client sends pre-rendered request bytes and
    does the minimum HTTP/1.1 response parse (status + Content-Length).
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._buffer = b""
        self._sock = self._connect()

    def _connect(self) -> socket.socket:
        sock = socket.create_connection((self.host, self.port), timeout=30)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def solve(self, request: bytes) -> int:
        try:
            return self._request(request)
        except (ConnectionError, OSError):
            self.close()
            self._sock = self._connect()
            self._buffer = b""
            return self._request(request)

    def _request(self, request: bytes) -> int:
        self._sock.sendall(request)
        buffer = self._buffer
        while b"\r\n\r\n" not in buffer:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed mid-response")
            buffer += chunk
        head, _, rest = buffer.partition(b"\r\n\r\n")
        status = int(head[9:12])
        length = 0
        for line in head.split(b"\r\n")[1:]:
            if line[:15].lower() == b"content-length:":
                length = int(line[15:])
                break
        while len(rest) < length:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed mid-body")
            rest += chunk
        self._buffer = rest[length:]
        return status

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


class _Counter:
    """Thread-safe round-robin index into the shared body pool."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._next = 0

    def take(self) -> int:
        with self._lock:
            index = self._next
            self._next += 1
            return index


def _percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1,
                       int(fraction * len(ordered)))]


def _closed_loop(host: str, port: int, requests: list[bytes],
                 concurrency: int, warmup_s: float,
                 duration_s: float) -> dict:
    """N clients, each back-to-back; returns rps / p50 / p99 / errors."""
    counter = _Counter()
    measure_start = time.perf_counter() + warmup_s
    deadline = measure_start + duration_s
    latencies: list[list[float]] = [[] for _ in range(concurrency)]
    errors = [0] * concurrency

    def worker(slot: int) -> None:
        client = _Client(host, port)
        try:
            while True:
                now = time.perf_counter()
                if now >= deadline:
                    return
                request = requests[counter.take() % len(requests)]
                started = time.perf_counter()
                try:
                    status = client.solve(request)
                except Exception:  # noqa: BLE001 - count, keep loading
                    status = -1
                elapsed = time.perf_counter() - started
                if started < measure_start:
                    continue  # warmup sample
                if status == 200:
                    latencies[slot].append(elapsed)
                else:
                    errors[slot] += 1
        finally:
            client.close()

    threads = [threading.Thread(target=worker, args=(slot,))
               for slot in range(concurrency)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    samples = [sample for bucket in latencies for sample in bucket]
    if not samples:
        return {"requests": 0, "rps": 0.0, "p50_ms": 0.0, "p99_ms": 0.0,
                "errors": sum(errors)}
    return {
        "requests": len(samples),
        "rps": round(len(samples) / duration_s, 1),
        "p50_ms": round(1e3 * _percentile(samples, 0.50), 3),
        "p99_ms": round(1e3 * _percentile(samples, 0.99), 3),
        "errors": sum(errors),
        "mean_ms": round(1e3 * statistics.fmean(samples), 3),
    }


def _open_loop(host: str, port: int, requests: list[bytes],
               concurrency: int, offered_rps: float, duration_s: float,
               capacity_rps: float, seed: int = 20260808) -> dict:
    """Poisson arrivals at ``offered_rps``; latency counts the wait for
    a free worker (open-loop semantics)."""
    rng = random.Random(seed)
    origin = time.perf_counter() + 0.05
    arrivals: list[float] = []
    clock = 0.0
    while clock < duration_s:
        clock += rng.expovariate(offered_rps)
        arrivals.append(origin + clock)
    counter = _Counter()
    workers = max(concurrency, 2)
    latencies: list[list[float]] = [[] for _ in range(workers)]
    errors = [0] * workers

    def worker(slot: int) -> None:
        client = _Client(host, port)
        try:
            while True:
                index = counter.take()
                if index >= len(arrivals):
                    return
                scheduled = arrivals[index]
                delay = scheduled - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                request = requests[index % len(requests)]
                try:
                    status = client.solve(request)
                except Exception:  # noqa: BLE001 - count, keep loading
                    status = -1
                if status == 200:
                    latencies[slot].append(
                        time.perf_counter() - scheduled)
                else:
                    errors[slot] += 1
        finally:
            client.close()

    threads = [threading.Thread(target=worker, args=(slot,))
               for slot in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = max(time.perf_counter() - origin, 1e-9)
    samples = [sample for bucket in latencies for sample in bucket]
    record = {
        "offered_rps": round(len(arrivals) / duration_s, 1),
        "completed_rps": round(len(samples) / wall, 1),
        "errors": sum(errors),
        "p50_ms": round(1e3 * _percentile(samples, 0.50), 3)
        if samples else 0.0,
        "p99_ms": round(1e3 * _percentile(samples, 0.99), 3)
        if samples else 0.0,
    }
    # The M/M/1 anchor: at this offered load against the measured
    # closed-loop capacity, response time is exponential with mean
    # 1/(mu - lambda), so p99 = -ln(0.01) x mean.
    queue = MM1(arrival_rate=min(offered_rps, 0.95 * capacity_rps),
                service_rate=capacity_rps)
    if queue.stable and math.isfinite(queue.mean_response_time):
        record["mm1_predicted_p99_ms"] = round(
            -math.log(0.01) * queue.mean_response_time * 1e3, 3)
    return record


def _boot(config: str, max_batch: int):
    """Start one server configuration; returns (host, port, teardown,
    service)."""
    if "coalesce" in config:
        service = ModelService.with_coalescer(max_batch=max_batch)
    else:
        service = ModelService(cache=ResultCache())
    if config.startswith("async"):
        handle = start_async_server(service)
        host, port = handle.server.host, handle.server.port

        def teardown() -> None:
            handle.shutdown()
            service.close()
    else:
        server = start_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]

        def teardown() -> None:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            service.close()
    return host, port, teardown, service


def run(args: argparse.Namespace) -> dict:
    bodies = _body_pool(args.cells)
    configs: dict[str, dict] = {}
    for config in args.configs:
        host, port, teardown, service = _boot(config, args.max_batch)
        requests = [render_request(host, port, body) for body in bodies]
        try:
            closed = _closed_loop(host, port, requests, args.concurrency,
                                  args.warmup, args.duration)
            entry: dict = {"closed": closed}
            capacity = closed["rps"]
            if capacity > 0:
                offered = OPEN_LOAD_FRACTION * capacity
                entry["open"] = _open_loop(
                    host, port, requests, args.concurrency, offered,
                    args.duration, capacity)
            if service.coalescer is not None:
                stats = service.coalescer.stats()
                entry["coalesce"] = {
                    "batches": stats["batches"],
                    "mean_batch_cells": stats["mean_batch_cells"],
                    "mean_wait_ms": stats["mean_wait_ms"],
                }
            configs[config] = entry
            print(_render_config(config, entry))
        finally:
            teardown()
    shared_rps = OPEN_LOAD_FRACTION * min(
        entry["closed"]["rps"] for entry in configs.values())
    if shared_rps > 0:
        for config, entry in configs.items():
            host, port, teardown, _ = _boot(config, args.max_batch)
            requests = [render_request(host, port, body) for body in bodies]
            try:
                entry["shared_open"] = _open_loop(
                    host, port, requests, args.concurrency, shared_rps,
                    args.duration, entry["closed"]["rps"])
            finally:
                teardown()
            print(f"{config}: "
                  + _render_open("shared open", entry["shared_open"]))
    record = {
        "schema": 1,
        "quick": args.quick,
        "cores": os.cpu_count() or 1,
        "concurrency": args.concurrency,
        "duration_s": args.duration,
        "warmup_s": args.warmup,
        "coalesce_max_cells": args.max_batch,
        "cells_per_request": args.cells,
        "configs": configs,
        "shared_offered_rps": round(shared_rps, 1),
        "speedup_floor": None if args.quick else SPEEDUP_FLOOR,
    }
    if "threaded" in configs and "async+coalesce" in configs:
        base = configs["threaded"]["closed"]["rps"]
        top = configs["async+coalesce"]["closed"]["rps"]
        if base > 0:
            record["speedup_async_coalesced_vs_threaded"] = round(
                top / base, 2)
    return record


def _render_config(config: str, entry: dict) -> str:
    closed = entry["closed"]
    lines = [f"{config}:",
             f"  closed loop : {closed['rps']:8.1f} req/s  "
             f"p50 {closed['p50_ms']:7.2f} ms  "
             f"p99 {closed['p99_ms']:7.2f} ms  "
             f"({closed['requests']} requests, "
             f"{closed['errors']} errors)"]
    for key, label in (("open", "open loop"), ("shared_open", "shared open")):
        if key in entry:
            lines.append(f"  {_render_open(label, entry[key])}")
    if "coalesce" in entry:
        stats = entry["coalesce"]
        lines.append(
            f"  coalescing  : {stats['batches']} batches, "
            f"{stats['mean_batch_cells']:.1f} cells/batch, "
            f"{stats['mean_wait_ms']:.2f} ms mean wait")
    return "\n".join(lines)


def _render_open(label: str, open_: dict) -> str:
    predicted = open_.get("mm1_predicted_p99_ms")
    return (f"{label:<12}: offered {open_['offered_rps']:8.1f} "
            f"completed {open_['completed_rps']:8.1f} req/s  "
            f"p50 {open_['p50_ms']:7.2f} ms  p99 {open_['p99_ms']:7.2f} ms"
            + (f"  (M/M/1 predicts {predicted:.2f} ms)"
               if predicted is not None else ""))


def _render_report(record: dict) -> str:
    lines = [f"E16 /v1/solve load generation "
             f"({record['concurrency']} clients, "
             f"{record['duration_s']}s measured, "
             f"{record['cores']} cores"
             f"{', quick' if record['quick'] else ''}):"]
    for config, entry in record["configs"].items():
        lines.append(_render_config(config, entry))
    lines.append(f"shared open loop: every configuration offered "
                 f"{record['shared_offered_rps']} req/s")
    speedup = record.get("speedup_async_coalesced_vs_threaded")
    if speedup is not None:
        lines.append(f"async+coalesce over threaded: {speedup:.2f}x "
                     f"(floor {record['speedup_floor']})")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: short run, no speedup floor, "
                             "writes output/BENCH_load.quick.json")
    parser.add_argument("--duration", type=float, default=None,
                        help="measured seconds per mode (default 5, "
                             "quick 1)")
    parser.add_argument("--warmup", type=float, default=None,
                        help="warmup seconds before measuring "
                             "(default 1, quick 0.25)")
    parser.add_argument("--concurrency", type=int, default=None,
                        help="closed-loop clients (default 64, quick 8)")
    parser.add_argument("--max-batch", type=int, default=512,
                        help="coalescing max batch size (the batch "
                             "engine's per-cell cost plateaus by 256; "
                             "512 halves per-flush fixed costs)")
    parser.add_argument("--cells", type=int, default=CELLS_PER_REQUEST,
                        help="curve points (consecutive N) per request")
    parser.add_argument("--configs", nargs="+", choices=CONFIGS,
                        default=list(CONFIGS),
                        help="subset of configurations to run")
    args = parser.parse_args(argv)
    if args.duration is None:
        args.duration = 1.0 if args.quick else 5.0
    if args.warmup is None:
        args.warmup = 0.25 if args.quick else 1.0
    if args.concurrency is None:
        args.concurrency = 8 if args.quick else 64

    record = run(args)
    report = _render_report(record)

    output_dir = BENCH_DIR / "output"
    output_dir.mkdir(exist_ok=True)
    (output_dir / "load.txt").write_text(report)
    json_path = (output_dir / "BENCH_load.quick.json" if args.quick
                 else BENCH_DIR / "BENCH_load.json")
    json_path.write_text(json.dumps(record, indent=1, sort_keys=True)
                         + "\n")
    print(f"\nwrote {json_path}")

    failures = []
    for config, entry in record["configs"].items():
        closed_errors = entry["closed"]["errors"]
        open_errors = sum(entry.get(key, {}).get("errors", 0)
                          for key in ("open", "shared_open"))
        if closed_errors or open_errors:
            failures.append(f"{config}: {closed_errors} closed-loop + "
                            f"{open_errors} open-loop errors")
        if entry["closed"]["requests"] == 0:
            failures.append(f"{config}: no requests completed")
    speedup = record.get("speedup_async_coalesced_vs_threaded")
    if not args.quick and speedup is not None \
            and speedup < SPEEDUP_FLOOR:
        failures.append(
            f"async+coalesce only {speedup:.2f}x over threaded "
            f"(floor {SPEEDUP_FLOOR}x)")
    if failures:
        print("FAILED:\n  " + "\n  ".join(failures), file=sys.stderr)
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
