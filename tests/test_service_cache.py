"""Tests for the content-addressed result cache and its keys."""

import json
import multiprocessing
import sqlite3

import pytest

from repro.protocols.modifications import ProtocolSpec
from repro.service.cache import ResultCache
from repro.service.executor import CellTask
from repro.service.keys import (
    canonical_key,
    canonicalize,
    prime_task_keys,
    task_key,
    task_key_payload,
)
from repro.workload.parameters import (
    ArchitectureParams,
    SharingLevel,
    WorkloadParameters,
    appendix_a_workload,
)


def _task(**overrides):
    defaults = dict(
        protocol=ProtocolSpec.of(1, 4),
        sharing_label="5%",
        workload=appendix_a_workload(SharingLevel.FIVE_PERCENT),
        n=8,
    )
    defaults.update(overrides)
    return CellTask(**defaults)


class TestCanonicalize:
    def test_dataclasses_become_field_dicts(self):
        data = canonicalize(ArchitectureParams())
        assert data["block_size"] == 4
        assert data["memory_latency"] == 3.0

    def test_enums_become_values(self):
        assert canonicalize(SharingLevel.FIVE_PERCENT) == 0.05

    def test_sets_are_sorted(self):
        assert canonicalize(frozenset({3, 1, 2})) == [1, 2, 3]

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            canonicalize(object())

    def test_key_is_sha256_hex(self):
        key = canonical_key({"a": 1})
        assert len(key) == 64
        int(key, 16)  # hex-decodable


class TestKeyStability:
    def test_equal_but_distinct_instances_share_a_key(self):
        """Two independently built, value-equal tasks must collide."""
        first = _task(workload=appendix_a_workload(SharingLevel.FIVE_PERCENT))
        second = _task(workload=WorkloadParameters(
            p_private=0.95, p_sro=0.03, p_sw=0.02))
        assert first is not second
        assert task_key(first) == task_key(second)

    def test_mod_order_does_not_matter(self):
        assert (task_key(_task(protocol=ProtocolSpec.of(1, 4)))
                == task_key(_task(protocol=ProtocolSpec.of(4, 1))))

    def test_distinct_inputs_get_distinct_keys(self):
        base = _task()
        assert task_key(base) != task_key(_task(n=10))
        assert task_key(base) != task_key(_task(protocol=ProtocolSpec.of(1)))
        assert task_key(base) != task_key(_task(
            workload=appendix_a_workload(SharingLevel.ONE_PERCENT),
            sharing_label="1%"))
        assert task_key(base) != task_key(_task(
            arch=ArchitectureParams(block_size=8)))

    def test_sim_key_includes_seed_and_requests(self):
        sim = _task(method="sim", sim_seed=1, sim_requests=100)
        assert task_key(sim) != task_key(_task(method="sim", sim_seed=2,
                                               sim_requests=100))
        assert task_key(sim) != task_key(_task(method="sim", sim_seed=1,
                                               sim_requests=200))

    def test_mva_key_ignores_sim_settings(self):
        """MVA cells are seed-free: sim knobs must not fragment the key."""
        assert (task_key(_task(sim_seed=1)) == task_key(_task(sim_seed=99)))

    def test_primed_keys_match_task_key(self):
        """``prime_task_keys`` (the one-lookup-per-request fast path)
        must stamp exactly the key ``task_key`` would compute."""
        tasks = [_task(n=n) for n in (2, 8, 32, 128)]
        prime_task_keys(tasks)
        for task in tasks:
            assert task.__dict__["_key"] == task_key(_task(n=task.n))

    def test_primed_sim_keys_match_task_key(self):
        tasks = [_task(method="sim", sim_seed=7, sim_requests=500, n=n)
                 for n in (2, 8)]
        prime_task_keys(tasks)
        for task in tasks:
            assert task.key == task_key(
                _task(method="sim", sim_seed=7, sim_requests=500, n=task.n))

    def test_priming_mixed_run_falls_back_per_task(self):
        """A run whose cells differ in more than ``n`` must still get
        correct (per-task-path) keys, not the first cell's components."""
        tasks = [_task(n=4),
                 _task(n=4, protocol=ProtocolSpec.of(1)),
                 _task(n=8, sharing_label="1%",
                       workload=appendix_a_workload(SharingLevel.ONE_PERCENT))]
        prime_task_keys(tasks)
        assert tasks[0].key == task_key(_task(n=4))
        assert tasks[1].key == task_key(_task(n=4, protocol=ProtocolSpec.of(1)))
        assert tasks[2].key == task_key(_task(
            n=8, sharing_label="1%",
            workload=appendix_a_workload(SharingLevel.ONE_PERCENT)))
        assert len({t.key for t in tasks}) == 3

    def test_priming_empty_run_is_a_noop(self):
        prime_task_keys([])

    def test_fast_path_matches_reference_payload(self):
        """The fragment-assembled ``task_key`` must hash byte-identically
        to ``canonical_key`` over the reference payload; a drift here
        silently invalidates every existing cache file."""
        tasks = [
            _task(),
            _task(n=16, protocol=ProtocolSpec.of(1)),
            _task(method="sim", sim_seed=7, sim_requests=500),
            _task(arch=ArchitectureParams(block_size=8),
                  workload=appendix_a_workload(SharingLevel.ONE_PERCENT),
                  sharing_label="1%"),
        ]
        for task in tasks:
            assert task_key(task) == canonical_key(task_key_payload(task))


class TestLRU:
    def test_hit_miss_accounting(self):
        cache = ResultCache(capacity=4)
        assert cache.get("k") is None
        cache.put("k", {"v": 1})
        assert cache.get("k") == {"v": 1}
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_eviction_order_is_least_recently_used(self):
        cache = ResultCache(capacity=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        cache.get("a")           # refresh "a": "b" is now the LRU tail
        cache.put("c", {"v": 3})
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.stats.evictions == 1

    def test_overwrite_does_not_evict(self):
        cache = ResultCache(capacity=2)
        cache.put("a", {"v": 1})
        cache.put("a", {"v": 2})
        cache.put("b", {"v": 3})
        assert len(cache) == 2
        assert cache.get("a") == {"v": 2}
        assert cache.stats.evictions == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)

    def test_put_many_matches_put_loop(self):
        """One-lock batch insert must leave the cache in exactly the
        state a ``put`` loop would (the coalescer's flush path)."""
        items = [(f"k{i}", {"v": i}) for i in range(5)]
        looped, batched = ResultCache(capacity=3), ResultCache(capacity=3)
        for key, value in items:
            looped.put(key, value)
        batched.put_many(items)
        for key, _ in items:
            assert (key in looped) == (key in batched)
        assert len(looped) == len(batched) == 3
        assert looped.stats.evictions == batched.stats.evictions == 2

    def test_put_many_overwrites_and_refreshes(self):
        cache = ResultCache(capacity=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        cache.put_many([("a", {"v": 9}), ("c", {"v": 3})])
        assert cache.get("a") == {"v": 9}   # overwritten, refreshed
        assert "c" in cache
        assert "b" not in cache             # the LRU tail was evicted

    def test_put_many_persists_on_flush(self, tmp_path):
        path = tmp_path / "cells.json"
        cache = ResultCache(path=path)
        cache.put_many([("a", {"v": 1}), ("b", {"v": 2})])
        cache.flush()
        reloaded = ResultCache(path=path)
        assert reloaded.get("a") == {"v": 1}
        assert reloaded.get("b") == {"v": 2}


class TestDiskStore:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cache.json"
        first = ResultCache(path=path)
        first.put("key-1", {"cell": {"speedup": 2.5}})
        first.flush()
        second = ResultCache(path=path)
        assert second.get("key-1") == {"cell": {"speedup": 2.5}}
        assert len(second) == 1

    def test_flush_without_path_is_noop(self):
        ResultCache().flush()  # must not raise

    def test_missing_file_starts_empty(self, tmp_path):
        cache = ResultCache(path=tmp_path / "absent.json")
        assert len(cache) == 0

    def test_corrupt_file_starts_empty(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{ not json")
        assert len(ResultCache(path=path)) == 0

    def test_wrong_schema_ignored(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"format": "repro.service.cache",
                                    "schema": -1,
                                    "entries": {"k": {"v": 1}}}))
        assert len(ResultCache(path=path)) == 0

    def test_load_respects_capacity(self, tmp_path):
        path = tmp_path / "cache.json"
        big = ResultCache(capacity=10, path=path)
        for i in range(10):
            big.put(f"k{i}", {"v": i})
        big.flush()
        small = ResultCache(capacity=3, path=path)
        assert len(small) == 3

    def test_flush_is_atomic_and_idempotent(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = ResultCache(path=path)
        cache.put("k", {"v": 1})
        cache.flush()
        before = path.read_text()
        cache.flush()  # nothing dirty: file untouched
        assert path.read_text() == before
        assert not list(tmp_path.glob("*.tmp"))


def _lockstep_writer(path, prefix, barrier, count):
    """Put and flush ``count`` keys, one per barrier round."""
    cache = ResultCache(path=path)
    barrier.wait()
    for i in range(count):
        cache.put(f"{prefix}{i}", {"v": i})
        cache.flush()
        barrier.wait()


class TestSQLiteStore:
    def test_two_writers_keep_every_entry(self, tmp_path):
        """Two processes that opened the same file put and flush
        disjoint keys in lockstep; a fresh reader sees all of them (a
        whole-file rewrite kept only the last writer's half)."""
        path = tmp_path / "shared.db"
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        writers = [ctx.Process(target=_lockstep_writer,
                               args=(path, prefix, barrier, 50))
                   for prefix in ("a", "b")]
        for proc in writers:
            proc.start()
        for proc in writers:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        reader = ResultCache(path=path)
        assert len(reader) == 100
        assert all(f"{p}{i}" in reader for p in "ab" for i in range(50))

    def test_flush_writes_only_changed_rows(self, tmp_path):
        path = tmp_path / "cache.db"
        cache = ResultCache(path=path)
        cache.put_many([("a", {"v": 1}), ("b", {"v": 2})])
        cache.flush()
        with sqlite3.connect(path) as conn:
            conn.execute("UPDATE cells SET value = '{\"v\": 0}'")
        conn.close()
        cache.put("c", {"v": 3})
        cache.flush()
        # "a" and "b" were not rewritten: the out-of-band edit survives.
        assert ResultCache(path=path).get("a") == {"v": 0}

    def test_eviction_deletes_rows(self, tmp_path):
        path = tmp_path / "cache.db"
        cache = ResultCache(capacity=2, path=path)
        for key in "abc":
            cache.put(key, {"k": key})
            cache.flush()
        with sqlite3.connect(path) as conn:
            keys = {row[0] for row in conn.execute("SELECT key FROM cells")}
        conn.close()
        assert keys == {"b", "c"}

    def test_rewrite_moves_a_row_to_the_reload_end(self, tmp_path):
        path = tmp_path / "cache.db"
        first = ResultCache(path=path)
        for key in "abc":
            first.put(key, {"k": key})
        first.flush()
        first.put("a", {"k": "a2"})
        first.flush()
        assert "a" in ResultCache(capacity=1, path=path)

    def test_old_json_cache_is_replaced(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"format": "repro.service.cache",
                                    "schema": 2, "entries": {"k": {}}}))
        cache = ResultCache(path=path)
        assert len(cache) == 0
        cache.put("k", {"v": 1})
        cache.flush()
        assert ResultCache(path=path).get("k") == {"v": 1}

    def test_schema_mismatch_drops_rows(self, tmp_path):
        path = tmp_path / "cache.db"
        cache = ResultCache(path=path)
        cache.put("k", {"v": 1})
        cache.flush()
        with sqlite3.connect(path) as conn:
            conn.execute("PRAGMA user_version=-1")
        conn.close()
        assert len(ResultCache(path=path)) == 0

    def test_sqlite_errors_surface_as_oserror(self, tmp_path):
        path = tmp_path / "cache.db"
        cache = ResultCache(path=path)
        with sqlite3.connect(path) as conn:
            conn.execute("CREATE TRIGGER reject BEFORE INSERT ON cells "
                         "BEGIN SELECT RAISE(ABORT, 'disk full'); END")
        conn.close()
        cache.put("k", {"v": 1})
        with pytest.raises(OSError, match="disk full"):
            cache.flush()
        with pytest.raises(OSError):
            ResultCache(path=tmp_path)  # a directory, not a file
