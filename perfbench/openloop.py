"""``solve-open-loop``: Poisson ``POST /v1/solve`` traffic against
``repro serve --async`` with its defaults (2 ms / 256-cell coalescer,
in-memory 4096-entry cache).

One generator (this process) holds 2 keep-alive connections and sends
open-loop Poisson arrivals.  Each request is a 32-cell speedup curve
from a 270-body pool (8640 distinct cells, more than the cache holds);
the pool is walked round-robin in an order the seed permutes, so every
cell misses the cache.

The offered rates are the fixed 50, 100 and 150 rps plus two ladder
rungs placed at 0.9 and 1.1 times the server's closed-loop capacity
(both connections back to back), probed first, so the rungs bracket the
saturation knee on any machine.  All rates, and closed-loop blocks that
measure the capacity reported as ``work_per_s``, run interleaved in
short blocks, cycle after cycle, so a slow phase of a shared host lands
on every rate alike instead of on whichever window it happens to meet.
The highest rate whose tail stays within 100 ms with no growing backlog
is interpolated between the rungs.

Every request is timed from the moment it was due.  The time it then
waited for one of the two connections (``conn_wait``) is reported apart
from how late the generator itself woke (``late``); a rate whose
generator lateness dominates its tail is flagged and counted, not
dropped.
"""

from __future__ import annotations

import itertools
import json
import random
import re
import socket
import statistics
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from typing import Any

from checks import check_solve_body, comparable_rows
from common import Context, Outcome, traced_layers
from procs import Server
from stats import percentile, saturation_rate

RATES = (50, 100, 150)
#: Ladder rungs as fractions of the probed closed-loop capacity.
LADDER = (0.9, 1.1)
LIMIT_MS = 100.0
CELLS_PER_REQUEST = 32
#: Measured requests per rate.  1000 leave the ten samples the rule
#: needs beyond p99; at 50 rps that would take 20 s, so the lowest rate
#: gets 500 and reports p98 as its tail.
REQUESTS_AT = {50: 500}
REQUESTS = 1000
#: Every rate's requests are spread over this many interleaved blocks.
CYCLES = 5
#: Unmeasured requests that warm the server, and the capacity probe
#: that places the ladder.
WARMUP_REQUESTS = 60
PROBE_REQUESTS = 200
#: Closed-loop requests (both connections back to back) spread over the
#: cycles: the server's capacity, averaged over the whole run.
CLOSED_REQUESTS = 500
#: Extra start/stop launches, so set-up is a median of three.
SETUP_SAMPLES = 2
#: Seconds a response may take before it counts as a timeout.
TIMEOUT_S = 10.0
#: A rate is generator-bound when the generator's tail lateness exceeds
#: this share of the rate's tail latency.
LATE_DOMINATES = 0.5


def body_pool() -> list[dict[str, Any]]:
    """The 270 speedup-curve request bodies (8640 distinct cells)."""
    protocols = ("write-once", "synapse", "illinois", "berkeley", "rwb",
                 "dragon")
    return [{"protocol": protocol, "sharing": sharing,
             "n": list(range(base, base + CELLS_PER_REQUEST))}
            for protocol, sharing, base in itertools.product(
                protocols, ("1", "5", "20"),
                range(2, 480, CELLS_PER_REQUEST))]


def reference_rows(pool: list[dict[str, Any]]) -> list[list[dict]]:
    """Expected response rows of every body, solved in-process."""
    from repro.service import ModelService, ResultCache
    service = ModelService(cache=ResultCache(capacity=1), engine="batch")
    try:
        return [comparable_rows(service.solve(body, strict=True)["results"])
                for body in pool]
    finally:
        service.close()


def tail_fraction(samples: int) -> float:
    """The highest reported percentile the sample rule allows."""
    for fraction in (0.99, 0.98, 0.95, 0.90):
        try:
            percentile(range(samples), fraction)
        except ValueError:
            continue
        return fraction
    raise ValueError(f"{samples} samples are too few for a tail")


class _Connection:
    """One keep-alive socket with a minimal HTTP/1.1 response parser."""

    def __init__(self, host: str, port: int):
        self.address = (host, port)
        self.sock: socket.socket | None = None
        self.buffer = b""

    def request(self, raw: bytes) -> tuple[int, bytes]:
        """Send one request; ``(0, b"")`` on a transport failure."""
        try:
            if self.sock is None:
                self.sock = socket.create_connection(self.address,
                                                     timeout=TIMEOUT_S)
                self.sock.setsockopt(socket.IPPROTO_TCP,
                                     socket.TCP_NODELAY, 1)
                self.buffer = b""
            self.sock.sendall(raw)
            return self._response()
        except (OSError, ValueError):
            self.close()
            return 0, b""

    def _response(self) -> tuple[int, bytes]:
        assert self.sock is not None
        buffer = self.buffer
        while b"\r\n\r\n" not in buffer:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buffer += chunk
        head, _, rest = buffer.partition(b"\r\n\r\n")
        status = int(head[9:12])
        length = 0
        for line in head.split(b"\r\n")[1:]:
            if line[:15].lower() == b"content-length:":
                length = int(line[15:])
        while len(rest) < length:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed mid-body")
            rest += chunk
        self.buffer = rest[length:]
        return status, rest[:length]

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None


@dataclass
class Window:
    """Every request offered at one rate, pooled over its blocks."""

    rate: float
    latency: list[float] = field(default_factory=list)
    service: list[float] = field(default_factory=list)
    late: list[float] = field(default_factory=list)
    conn_wait: list[float] = field(default_factory=list)
    backlogs: list[int] = field(default_factory=list)
    failed: int = 0
    status_200: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latency)

    def extend(self, block: "Window") -> None:
        self.latency += block.latency
        self.service += block.service
        self.late += block.late
        self.conn_wait += block.conn_wait
        self.backlogs += block.backlogs
        self.failed += block.failed
        self.status_200 += block.status_200

    @property
    def tail(self) -> float:
        return tail_fraction(self.attempted)

    def p(self, fraction: float) -> float:
        return 1e3 * percentile(self.latency, fraction)

    @property
    def meets_limit(self) -> bool:
        """Tail within the limit, nothing failed, and no growing backlog:
        when a block's schedule ends, at most what the limit lets queue
        is still unsent."""
        return (self.failed == 0 and self.p(self.tail) <= LIMIT_MS
                and statistics.fmean(self.backlogs)
                <= max(2.0, self.rate * LIMIT_MS / 1e3))

    @property
    def generator_bound(self) -> bool:
        return (1e3 * percentile(self.late, self.tail)
                > LATE_DOMINATES * self.p(self.tail))


class Generator:
    """Open-loop Poisson load over two keep-alive connections."""

    def __init__(self, server: Server, pool: list[dict[str, Any]],
                 references: list[list[dict]], order: list[int],
                 rng: random.Random):
        self.requests = [_render(server.host, server.port, body)
                         for body in pool]
        self.references = references
        self.order = order
        self.cursor = 0
        self.rng = rng
        self.connections = [_Connection(server.host, server.port)
                            for _ in range(2)]

    def close(self) -> None:
        for connection in self.connections:
            connection.close()

    def _next_bodies(self, count: int) -> list[int]:
        bodies = [self.order[(self.cursor + i) % len(self.order)]
                  for i in range(count)]
        self.cursor += count
        return bodies

    def run(self, rate: float, count: int) -> Window:
        """Offer ``count`` requests at ``rate``; check every answer."""
        bodies = self._next_bodies(count)
        offsets = list(itertools.accumulate(
            self.rng.expovariate(rate) for _ in range(count)))
        sent = [0.0] * count
        done = [0.0] * count
        late = [0.0] * count
        wait = [0.0] * count
        answers: list[tuple[int, bytes]] = [(0, b"")] * count
        lock = threading.Lock()
        indices = iter(range(count))
        start = time.perf_counter() + 0.02

        def drive(connection: _Connection) -> None:
            while True:
                with lock:
                    i = next(indices, None)
                if i is None:
                    return
                due = start + offsets[i]
                now = time.perf_counter()
                if now < due:
                    time.sleep(due - now)
                    sent[i] = time.perf_counter()
                    late[i] = sent[i] - due
                else:
                    sent[i] = now
                    wait[i] = now - due
                answers[i] = connection.request(self.requests[bodies[i]])
                done[i] = time.perf_counter()

        self._on_both(drive)
        block = Window(
            rate=rate,
            latency=[d - (start + o) for d, o in zip(done, offsets)],
            service=[d - s for d, s in zip(done, sent)],
            late=late, conn_wait=wait,
            backlogs=[sum(1 for t in sent if t > start + offsets[-1])])
        self._check(block, bodies, answers)
        return block

    def closed_loop(self, count: int) -> tuple[float, Window]:
        """Both connections back to back; returns (seconds, block)."""
        bodies = self._next_bodies(count)
        answers: list[tuple[int, bytes]] = [(0, b"")] * count
        service = [0.0] * count
        lock = threading.Lock()
        indices = iter(range(count))

        def drive(connection: _Connection) -> None:
            while True:
                with lock:
                    i = next(indices, None)
                if i is None:
                    return
                sent = time.perf_counter()
                answers[i] = connection.request(self.requests[bodies[i]])
                service[i] = time.perf_counter() - sent

        started = time.perf_counter()
        self._on_both(drive)
        elapsed = time.perf_counter() - started
        block = Window(rate=0.0, latency=list(service), service=service,
                       late=[0.0] * count, conn_wait=[0.0] * count)
        self._check(block, bodies, answers)
        return elapsed, block

    def _on_both(self, drive: Any) -> None:
        threads = [threading.Thread(target=drive, args=(c,))
                   for c in self.connections]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def _check(self, block: Window, bodies: list[int],
               answers: list[tuple[int, bytes]]) -> None:
        for body, (status, payload) in zip(bodies, answers):
            block.status_200 += status == 200
            if not check_solve_body(status, payload, self.references[body]):
                block.failed += 1


_SERIES = re.compile(r"^([A-Za-z_:][\w:]*(?:\{[^}]*\})?)\s+(\S+)$")


def scrape(server: Server) -> dict[str, float]:
    """``GET /v1/metrics`` as ``{series: value}``."""
    with urllib.request.urlopen(f"{server.url}/v1/metrics",
                                timeout=TIMEOUT_S) as response:
        text = response.read().decode()
    series = {}
    for line in text.splitlines():
        match = _SERIES.match(line)
        if match and not line.startswith("#"):
            series[match.group(1)] = float(match.group(2))
    return series


def _render(host: str, port: int, body: dict[str, Any]) -> bytes:
    data = json.dumps(body).encode()
    return (f"POST /v1/solve HTTP/1.1\r\nHost: {host}:{port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n\r\n").encode() + data


def _counter_deltas(before: dict[str, float],
                    after: dict[str, float]) -> dict[str, float]:
    """Server counters over the measured blocks, summed over labels where
    only the family matters (the per-cell solve latency histogram)."""
    def total(prefix: str, snapshot: dict[str, float]) -> float:
        return sum(v for k, v in snapshot.items()
                   if k == prefix or k.startswith(prefix + "{"))

    names = ('repro_coalesce_flushes_total{reason="window"}',
             'repro_coalesce_flushes_total{reason="max-batch"}',
             "repro_coalesce_batch_cells_sum",
             "repro_coalesce_batch_cells_count",
             "repro_coalesce_wait_seconds_sum",
             "repro_coalesce_wait_seconds_count",
             "repro_cache_hits_total", "repro_cache_misses_total",
             "repro_solve_latency_seconds_sum",
             "repro_solve_latency_seconds_count")
    return {name: total(name, after) - total(name, before) for name in names}


def run(ctx: Context) -> Outcome:
    pool = body_pool()
    references = reference_rows(pool)
    rng = random.Random(ctx.seed)
    order = list(range(len(pool)))
    rng.shuffle(order)

    setups = []
    for i in range(SETUP_SAMPLES):
        with Server(ctx.workdir, f"setup{i}") as server:
            setups.append(server.setup_s)
    with Server(ctx.workdir, "server", ctx.trace_prefix) as server:
        setups.append(server.setup_s)
        generator = Generator(server, pool, references, order, rng)
        try:
            warmup = generator.run(RATES[0], WARMUP_REQUESTS)
            probe_s, probe = generator.closed_loop(PROBE_REQUESTS)
            plan = {rate: REQUESTS_AT.get(rate, REQUESTS) for rate in RATES}
            for share in LADDER:
                plan.setdefault(round(PROBE_REQUESTS / probe_s * share),
                                REQUESTS)
            windows = {rate: Window(rate=rate) for rate in plan}
            closed, closed_s = Window(rate=0.0), 0.0
            before = scrape(server)
            for _ in range(CYCLES):
                elapsed, block = generator.closed_loop(
                    CLOSED_REQUESTS // CYCLES)
                closed.extend(block)
                closed_s += elapsed
                for rate, count in plan.items():
                    windows[rate].extend(generator.run(rate, count // CYCLES))
            counters = _counter_deltas(before, scrape(server))
        finally:
            generator.close()
    rss_mb = server.peak_rss_bytes / 1e6

    capacity = closed.attempted / closed_s
    measured = list(windows.values())
    everything = measured + [closed, warmup, probe]
    attempted = sum(w.attempted for w in everything)
    failed = sum(w.failed for w in everything)
    # Cross-check: the server looked up the cells of exactly the
    # requests the client saw answered 200.
    server_requests = (counters["repro_cache_hits_total"]
                       + counters["repro_cache_misses_total"]
                       ) / CELLS_PER_REQUEST
    failed += abs(round(server_requests)
                  - sum(w.status_200 for w in measured + [closed]))

    named: dict[str, tuple[float, str]] = {
        "capacity_closed_loop_rps": (capacity, "req/s")}
    for rate in RATES:
        window = windows[rate]
        named[f"p50_ms_r{rate}"] = (window.p(0.50), "ms")
        named[f"p{round(100 * window.tail)}_ms_r{rate}"] = (
            window.p(window.tail), "ms")
    max_rps = saturation_rate(
        [(w.rate, w.p(w.tail), w.meets_limit) for w in measured], LIMIT_MS)
    named["max_rps_p99_100ms"] = (max_rps, "req/s")
    named["request_ms_mean"] = (1e3 * statistics.fmean(
        x for w in measured for x in w.latency), "ms")
    named["server_solve_ms_mean"] = (1e3 * _ratio(
        counters["repro_solve_latency_seconds_sum"],
        counters["repro_solve_latency_seconds_count"]), "ms/cell")
    flagged = sum(1 for w in measured if w.generator_bound)
    if flagged:
        print(f"warning: {flagged} rate(s) generator-bound (generator "
              f"tail lateness > {LATE_DOMINATES:g} x tail latency)",
              file=sys.stderr)
    outcome = Outcome(
        metrics={
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss_mb,
            "work_per_s": capacity,
            "latency_ms": windows[RATES[0]].p(0.50),
        },
        named=named, attempted=attempted, failed=min(failed, attempted))
    if ctx.trace:
        outcome.layers = _layers(ctx, everything, measured, counters,
                                 flagged)
    return outcome


def _layers(ctx: Context, everything: list[Window], measured: list[Window],
            counters: dict[str, float], flagged: int) -> dict[str, float]:
    window_flushes = counters['repro_coalesce_flushes_total{reason="window"}']
    batch_flushes = counters[
        'repro_coalesce_flushes_total{reason="max-batch"}']
    flushes = window_flushes + batch_flushes
    answered = (counters["repro_cache_hits_total"]
                + counters["repro_cache_misses_total"]) / CELLS_PER_REQUEST
    late = [x for w in measured for x in w.late]
    waits = [x for w in measured for x in w.conn_wait]
    latency_s = sum(x for w in everything for x in w.latency)
    service_s = sum(x for w in everything for x in w.service)
    requests = [s for s in ctx.load_spans()
                if s["name"] == "service.request"
                and s.get("attrs", {}).get("path") == "/v1/solve"]
    server_s = sum((s["end"] - s["start"]) / 1e9 for s in requests)
    sent = sum(w.attempted for w in everything)
    outside_s = service_s - server_s
    extra = {
        "coalesce.flushes_window": window_flushes,
        "coalesce.flushes_max_batch": batch_flushes,
        "coalesce.requests_per_flush": _ratio(answered, flushes),
        "coalesce.batch_cells_mean": _ratio(
            counters["repro_coalesce_batch_cells_sum"],
            counters["repro_coalesce_batch_cells_count"]),
        "coalesce.wait_ms_mean": 1e3 * _ratio(
            counters["repro_coalesce_wait_seconds_sum"],
            counters["repro_coalesce_wait_seconds_count"]),
        "aio.outside_ms_mean": 1e3 * _ratio(outside_s, sent),
        "loadgen.late_ms_p99": 1e3 * percentile(late, 0.99),
        "loadgen.conn_wait_ms_p99": 1e3 * percentile(waits, 0.99),
        "loadgen.flagged_windows": flagged,
    }
    client_waits = sum(x for w in everything for x in w.late + w.conn_wait)
    # The solve requests' span trees cover the server handler (the
    # coalescer's flusher work shows as each request's coalesce.wait);
    # the client measured the rest: its own waits, and the transport
    # and event-loop time outside the handler as the aio residual.
    return traced_layers(ctx, latency_s, extra,
                         outside={"loadgen": client_waits, "aio": outside_s},
                         tags={s["tag"] for s in requests})


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
