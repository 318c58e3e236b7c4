"""Edge-case tests for the /v1/solve micro-batching coalescer.

Covers the contract corners that only show up under concurrency:
how a drain cuts the queue into batches (window vs max-batch vs close),
work conservation without a hold window, poison
cells failing only their own waiter, identical in-flight requests
deduplicating onto one solve, a cancelled waiter (client disconnect)
leaving its batch siblings untouched, and -- the determinism
non-negotiable -- a coalesced HTTP response carrying byte-identical
model results to a solo solve, end to end through the socket.
"""

import json
import sqlite3
import sys
import threading
import urllib.request
from contextlib import closing

import pytest

import repro.service.coalesce as coalesce_module
import repro.service.executor as executor_module
from repro.service import ModelService, SolveCoalescer, start_server
from repro.service.cache import ResultCache
from repro.service.coalesce import FLUSH_REASONS
from repro.service.executor import CellTask
from repro.service.metrics import MetricsRegistry
from repro.protocols.family import PROTOCOLS
from repro.workload.parameters import SharingLevel, appendix_a_workload


def _task(n, protocol="berkeley"):
    return CellTask(
        protocol=PROTOCOLS[protocol],
        sharing_label="5",
        workload=appendix_a_workload(SharingLevel.FIVE_PERCENT),
        n=n)


def _poison(monkeypatch, bad_n):
    """Make the batch engine return an error payload for n == bad_n."""
    real = executor_module.evaluate_mva_batch

    def poisoned(tasks):
        results = real(tasks)
        for i, task in enumerate(tasks):
            if task.n == bad_n:
                results[i] = {"error": {"type": "RuntimeError",
                                        "message": "poison cell"},
                              "attempts": 1, "elapsed_s": 0.0}
        return results

    monkeypatch.setattr(executor_module, "evaluate_mva_batch", poisoned)


def _record_solves(monkeypatch):
    """Record the cell sizes of every batch the coalescer solves."""
    batches = []
    real = SolveCoalescer._solve

    def recording(self, batch, reason):
        batches.append(([entry.task.n for entry in batch], reason))
        return real(self, batch, reason)

    monkeypatch.setattr(SolveCoalescer, "_solve", recording)
    return batches


class TestFlushTriggers:
    def test_window_flush(self, monkeypatch):
        """A drain solves what is queued as one "window" batch."""
        batches = _record_solves(monkeypatch)
        metrics = MetricsRegistry()
        coalescer = SolveCoalescer(metrics=metrics, max_batch=64)
        future, cached = coalescer.submit_request(
            [_task(2), _task(4), _task(8)])
        assert cached == [False, False, False]
        assert not future.done()  # nothing solves before a drain
        values = coalescer.result(future)
        assert all(v.get("error") is None for v in values)
        assert batches == [([2, 4, 8], "window")]
        stats = coalescer.stats()
        assert stats["batches"] == 1
        assert stats["cells"] == 3
        assert stats["mean_batch_cells"] == 3.0
        assert ('repro_coalesce_flushes_total{reason="window"} 1'
                in metrics.render())
        coalescer.close()

    def test_max_batch_splits_a_drain(self, monkeypatch):
        batches = _record_solves(monkeypatch)
        metrics = MetricsRegistry()
        coalescer = SolveCoalescer(metrics=metrics, max_batch=2)
        future, _ = coalescer.submit_request([_task(2), _task(4), _task(8)])
        coalescer.drain()
        assert future.done()
        assert batches == [([2, 4], "max-batch"), ([8], "window")]
        text = metrics.render()
        assert 'repro_coalesce_flushes_total{reason="max-batch"} 1' in text
        assert 'repro_coalesce_flushes_total{reason="window"} 1' in text

    def test_close_flushes_the_queue(self, monkeypatch):
        batches = _record_solves(monkeypatch)
        coalescer = SolveCoalescer(max_batch=64)
        future, cached = coalescer.submit(_task(4))
        assert not cached
        coalescer.close()
        assert future.result(timeout=0).get("error") is None
        assert batches == [([4], "close")]

    def test_submit_after_close_still_resolves(self, monkeypatch):
        """A late submission is drained by its waiter like any other."""
        batches = _record_solves(monkeypatch)
        coalescer = SolveCoalescer(max_batch=64)
        coalescer.close()
        future, cached = coalescer.submit(_task(4))
        assert not cached
        assert coalescer.result(future)["cell"]["speedup"] > 0
        assert batches == [([4], "close")]

    def test_reason_labels_are_the_documented_set(self):
        assert FLUSH_REASONS == ("window", "max-batch", "close")

    def test_rejects_bad_settings(self):
        with pytest.raises(ValueError):
            SolveCoalescer(max_batch=0)
        with pytest.raises(TypeError):
            SolveCoalescer(window_ms=2)  # the hold window is gone


class TestWorkConservation:
    def test_cells_queued_during_a_solve_form_the_next_batch(
            self, monkeypatch):
        """No timer decides anything: A's drain solves only A, and B and
        C, queued while A solves, make up the next batch together."""
        batches = _record_solves(monkeypatch)
        entered, release = threading.Event(), threading.Event()
        real = executor_module.evaluate_mva_batch

        def gated(tasks):
            entered.set()
            assert release.wait(30)
            return real(tasks)

        monkeypatch.setattr(executor_module, "evaluate_mva_batch", gated)
        coalescer = SolveCoalescer(max_batch=64)
        results = {}

        def client(name, sizes, submitted):
            future, _ = coalescer.submit_request([_task(n) for n in sizes])
            submitted.set()
            results[name] = coalescer.result(future)

        requests = {"A": (2, 3), "B": (4, 5), "C": (6, 7)}
        submitted = {name: threading.Event() for name in requests}
        threads = {name: threading.Thread(
            target=client, args=(name, sizes, submitted[name]))
            for name, sizes in requests.items()}
        threads["A"].start()
        assert entered.wait(30)  # A's drain is inside its solve
        for name in ("B", "C"):
            threads[name].start()
            assert submitted[name].wait(30)
        release.set()
        for thread in threads.values():
            thread.join(timeout=30)
        assert sorted(results) == ["A", "B", "C"]
        assert all(v.get("error") is None
                   for values in results.values() for v in values)
        assert len(batches) == 2
        assert batches[0] == ([2, 3], "window")
        assert sorted(batches[1][0]) == [4, 5, 6, 7]
        assert batches[1][1] == "window"

    def test_many_blocking_callers_all_resolve(self):
        """More blocking callers than cores, switching threads often:
        every request is answered with its own cells and nothing is
        left queued."""
        coalescer = SolveCoalescer(max_batch=8)
        answers = {}

        def client(index):
            for round_ in range(5):
                sizes = (2 + index, 40 + 5 * round_ + index % 3)
                future, _ = coalescer.submit_request(
                    [_task(n) for n in sizes])
                values = coalescer.result(future)
                answers[index, round_] = (
                    [v["cell"]["n_processors"] for v in values] == list(sizes))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(answers) == 40 and all(answers.values())
        assert coalescer.depth == 0

    def test_building_a_coalescer_starts_no_thread(self):
        before = threading.active_count()
        coalescer = SolveCoalescer()
        service = ModelService.with_coalescer()
        assert threading.active_count() == before
        coalescer.close()
        service.close()


class TestPoisonIsolation:
    def test_poison_cell_fails_only_its_own_waiter(self, monkeypatch):
        _poison(monkeypatch, bad_n=4)
        metrics = MetricsRegistry()
        coalescer = SolveCoalescer(metrics=metrics, max_batch=64)
        try:
            future, _ = coalescer.submit_request(
                [_task(2), _task(4), _task(8)])
            ok_a, bad, ok_b = coalescer.result(future)
            assert ok_a["cell"]["speedup"] > 0
            assert ok_b["cell"]["speedup"] > 0
            assert bad["error"]["message"] == "poison cell"
            # One batch solved all three; the poison did not split it.
            assert coalescer.stats()["batches"] == 1
            assert coalescer.stats()["cells"] == 3
        finally:
            coalescer.close()

    def test_poison_cell_is_not_cached(self, monkeypatch, tmp_path):
        _poison(monkeypatch, bad_n=4)
        cache = ResultCache(path=tmp_path / "cache.json")
        coalescer = SolveCoalescer(cache=cache, max_batch=64)
        try:
            future, _ = coalescer.submit_request([_task(2), _task(4)])
            coalescer.result(future)
            assert cache.get(_task(2).key) is not None
            assert cache.get(_task(4).key) is None
        finally:
            coalescer.close()

    def test_wholesale_batch_failure_falls_back_per_cell(self, monkeypatch):
        def explode(tasks):
            raise RuntimeError("batch engine down")

        monkeypatch.setattr(executor_module, "evaluate_mva_batch", explode)
        coalescer = SolveCoalescer(max_batch=64)
        try:
            future, _ = coalescer.submit_request([_task(2), _task(4)])
            values = coalescer.result(future)
            assert all(v.get("error") is None for v in values)
            assert all(v["cell"]["speedup"] > 0 for v in values)
        finally:
            coalescer.close()


class TestWaiterThreadSafety:
    def test_concurrent_deliver_never_loses_a_decrement(self):
        """The submit thread (cache hits) and a draining thread (batch
        results) may deliver to one waiter concurrently; an unguarded
        ``missing -= 1`` loses decrements and the future never
        resolves.  Hammer one waiter from two threads and require the
        fan-in future to land every time."""
        from repro.service.coalesce import _Waiter

        for _ in range(25):
            waiter = _Waiter(400)
            barrier = threading.Barrier(2)

            def hammer(slots, waiter=waiter, barrier=barrier):
                barrier.wait()
                for slot in slots:
                    waiter.deliver(slot, {"slot": slot})

            threads = [threading.Thread(target=hammer,
                                        args=(range(start, 400, 2),))
                       for start in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            values = waiter.future.result(timeout=1)
            assert len(values) == 400
            assert all(value is not None for value in values)

    def test_mixed_cached_and_miss_request_resolves(self):
        """A request whose slots split between immediate cache hits and
        queued misses exercises both delivery paths on one waiter."""
        cache = ResultCache()
        coalescer = SolveCoalescer(cache=cache, max_batch=64)
        try:
            warm, _ = coalescer.submit(_task(2))
            assert coalescer.result(warm).get("error") is None
            for n in range(3, 20):
                future, cached = coalescer.submit_request(
                    [_task(2), _task(n)])
                assert cached == [True, False]
                values = coalescer.result(future)
                assert all(v.get("error") is None for v in values)
        finally:
            coalescer.close()


class TestFlusherResilience:
    def test_cache_write_failure_still_serves_the_batch(self, monkeypatch,
                                                        tmp_path):
        """An OSError from the cache (disk full, bad --cache path) must
        not strand the waiters or stop later batches."""
        cache = ResultCache(path=tmp_path / "cache.json")

        def explode():
            raise OSError("disk full")

        monkeypatch.setattr(cache, "flush", explode)
        coalescer = SolveCoalescer(cache=cache, max_batch=64)
        try:
            first, _ = coalescer.submit(_task(4))
            assert coalescer.result(first).get("error") is None
            # A second batch still solves.
            second, _ = coalescer.submit(_task(8))
            assert coalescer.result(second).get("error") is None
            assert coalescer.stats()["batches"] == 2
        finally:
            coalescer.close()

    def test_real_sqlite_write_failure_serves_uncached(self, tmp_path):
        """A write the database itself rejects (no monkeypatching) is
        served uncached, later batches still solve, and the rows land
        at the next flush that the database accepts."""
        path = tmp_path / "cache.db"
        cache = ResultCache(path=path)
        with closing(sqlite3.connect(path)) as conn:
            conn.execute("CREATE TRIGGER reject BEFORE INSERT ON cells "
                         "BEGIN SELECT RAISE(ABORT, 'disk full'); END")
        coalescer = SolveCoalescer(cache=cache, max_batch=64)
        try:
            first, _ = coalescer.submit(_task(4))
            assert coalescer.result(first).get("error") is None
            assert len(ResultCache(path=path)) == 0
            with closing(sqlite3.connect(path)) as conn:
                conn.execute("DROP TRIGGER reject")
            second, _ = coalescer.submit(_task(8))
            assert coalescer.result(second).get("error") is None
            assert coalescer.stats()["batches"] == 2
        finally:
            coalescer.close()
        assert len(ResultCache(path=path)) == 2

    def test_flush_crash_fails_waiters_but_not_the_flusher(self,
                                                           monkeypatch):
        """An unexpected exception inside a flush delivers error
        payloads to that batch's waiters (no hang) and the next batch
        still solves."""
        calls = {"n": 0}
        real = coalesce_module.record_solve_metrics_batch

        def flaky(metrics, solved):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("metrics sink down")
            real(metrics, solved)

        monkeypatch.setattr(coalesce_module,
                            "record_solve_metrics_batch", flaky)
        coalescer = SolveCoalescer(max_batch=64)
        try:
            doomed, _ = coalescer.submit(_task(4))
            value = coalescer.result(doomed)
            assert value["error"]["type"] == "RuntimeError"
            assert "coalesced flush failed" in value["error"]["message"]
            healthy, _ = coalescer.submit(_task(8))
            assert coalescer.result(healthy).get("error") is None
        finally:
            coalescer.close()


class TestEngineOverride:
    def test_explicit_engine_no_longer_bypasses_the_coalescer(self):
        """The deprecated ``engine`` field has no effect: a request that
        sets it is coalesced like any other, with the same rows."""
        service = ModelService.with_coalescer()
        try:
            explicit = service.solve({"protocol": "berkeley", "n": 4,
                                      "engine": "scalar"})
            assert explicit["summary"]["mode"] == "coalesced"
            assert service.coalescer.stats()["cells"] == 1
            default = service.solve({"protocol": "berkeley", "n": 6})
            assert default["summary"]["mode"] == "coalesced"
            assert service.coalescer.stats()["cells"] == 2
        finally:
            service.close()
        plain = ModelService().solve({"protocol": "berkeley", "n": 4})
        assert explicit["results"] == plain["results"]


class TestDedup:
    def test_identical_inflight_cells_share_one_solve(self):
        metrics = MetricsRegistry()
        coalescer = SolveCoalescer(metrics=metrics, max_batch=64)
        try:
            first, cached_first = coalescer.submit(_task(4))
            second, cached_second = coalescer.submit(_task(4))
            assert not cached_first and not cached_second
            a = coalescer.result(first)
            b = second.result(timeout=0)  # the same drain answered it
            assert a == b
            stats = coalescer.stats()
            assert stats["cells"] == 1  # one solve fanned to two waiters
            assert stats["deduped"] == 1
            assert "repro_coalesce_deduped_total 1" in metrics.render()
        finally:
            coalescer.close()

    def test_cache_hit_resolves_without_queueing(self, tmp_path):
        cache = ResultCache(path=tmp_path / "cache.json")
        coalescer = SolveCoalescer(cache=cache, max_batch=64)
        try:
            warm, cached = coalescer.submit(_task(4))
            assert not cached
            value = coalescer.result(warm)
            repeat, cached = coalescer.submit(_task(4))
            assert cached
            assert repeat.result(timeout=0) == value
            assert coalescer.stats()["cells"] == 1
        finally:
            coalescer.close()


class TestCancellation:
    def test_cancelled_waiter_leaves_siblings_untouched(self):
        coalescer = SolveCoalescer(max_batch=64)
        try:
            gone, _ = coalescer.submit(_task(4))
            stays, _ = coalescer.submit(_task(8))
            assert gone.cancel()  # "client disconnected" before the drain
            value = coalescer.result(stays)
            assert value["cell"]["speedup"] > 0
            assert gone.cancelled()
            # The batch still solved the abandoned cell.
            assert coalescer.stats()["cells"] == 2
        finally:
            coalescer.close()

    def test_cancelled_duplicate_does_not_starve_its_twin(self):
        coalescer = SolveCoalescer(max_batch=64)
        try:
            gone, _ = coalescer.submit(_task(4))
            twin, _ = coalescer.submit(_task(4))  # dedup-attached
            assert gone.cancel()
            assert coalescer.result(twin)["cell"]["speedup"] > 0
        finally:
            coalescer.close()


def _http_solve(url, body):
    request = urllib.request.Request(
        url + "/v1/solve", data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30) as resp:
        return resp.read()


def _normalized(raw):
    """Strip the two operational summary fields that legitimately
    differ between a solo and a coalesced solve (wall-clock and
    dispatch-mode label); everything else must match exactly."""
    payload = json.loads(raw)
    payload["summary"].pop("wall_seconds")
    mode = payload["summary"].pop("mode")
    return json.dumps(payload, sort_keys=True), mode


class TestByteParity:
    """The determinism acceptance test, end to end through the socket."""

    BODY = {"protocol": "berkeley", "n": [2, 4, 10], "sharing": "5"}

    def _serve(self, service):
        server = start_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        return server, thread

    def test_coalesced_response_matches_solo(self):
        solo_service = ModelService()
        co_service = ModelService.with_coalescer()
        solo_server, solo_thread = self._serve(solo_service)
        co_server, co_thread = self._serve(co_service)
        try:
            solo_raw = _http_solve(solo_server.url, self.BODY)
            co_raw = _http_solve(co_server.url, self.BODY)
            solo_norm, solo_mode = _normalized(solo_raw)
            co_norm, co_mode = _normalized(co_raw)
            assert co_mode == "coalesced"
            assert solo_mode != "coalesced"
            assert co_norm == solo_norm
        finally:
            for server, thread in ((solo_server, solo_thread),
                                   (co_server, co_thread)):
                server.shutdown()
                server.server_close()
                thread.join(timeout=5)
            co_service.close()
            solo_service.close()

    def test_concurrent_requests_coalesce_into_shared_batches(
            self, monkeypatch):
        """Handler threads that queue while another thread's drain
        solves are answered by one later batch, not one each."""
        service = ModelService.with_coalescer()
        coalescer = service.coalescer
        sizes = [2, 4, 6, 8, 10, 12]
        all_queued = threading.Event()
        queued = []
        real_submit = coalescer.submit_request

        def counting_submit(tasks, *args, **kwargs):
            answer = real_submit(tasks, *args, **kwargs)
            queued.append(len(tasks))
            if len(queued) == len(sizes):
                all_queued.set()
            return answer

        real_solve = coalesce_module.solve_cells

        def gated_solve(tasks, sim_retries):
            assert all_queued.wait(30)  # hold the first drain
            return real_solve(tasks, sim_retries)

        coalescer.submit_request = counting_submit
        monkeypatch.setattr(coalesce_module, "solve_cells", gated_solve)
        server, thread = self._serve(service)
        results = {}
        try:
            def worker(n):
                raw = _http_solve(server.url,
                                  {"protocol": "dragon", "n": n})
                results[n] = json.loads(raw)["results"][0]["speedup"]

            threads = [threading.Thread(target=worker, args=(n,))
                       for n in sizes]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert set(results) == set(sizes)
            stats = coalescer.stats()
            assert stats["cells"] == len(sizes)
            # Batching happened: fewer flushes than requests.
            assert stats["batches"] < len(sizes)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            service.close()
