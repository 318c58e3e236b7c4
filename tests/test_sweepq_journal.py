"""Journal semantics: leases, expiry, double-lease rejection, counters.

All timestamps are injected (``now=``), so every lease-lifecycle law is
exercised without sleeping: expiry is just a claim at a later clock.
"""

import pickle

import pytest

from repro.sweepq import SweepJournal, UnknownJobError, chunk_key, chunk_tasks
from repro.sweepq.chunks import Chunk, auto_chunk_size


class _Task:
    """Minimal task double: chunking only reads ``.key``."""

    def __init__(self, key: str):
        self.key = key


def _chunks(n_cells: int, size: int) -> list[Chunk]:
    return chunk_tasks([_Task(f"k{i}") for i in range(n_cells)], size)


@pytest.fixture
def journal(tmp_path):
    return SweepJournal(tmp_path / "journal.db")


def _job(journal, n_cells=10, size=4, job_id="job") -> str:
    journal.create_job(job_id, pickle.dumps(list(range(n_cells))),
                       _chunks(n_cells, size), chunk_size=size, now=0.0)
    return job_id


class TestChunking:
    def test_contiguous_cover(self):
        chunks = _chunks(10, 4)
        assert [(c.start, c.stop) for c in chunks] == [(0, 4), (4, 8),
                                                       (8, 10)]
        assert [c.index for c in chunks] == [0, 1, 2]

    def test_content_addressed_keys_are_stable(self):
        assert _chunks(10, 4)[1].key == _chunks(10, 4)[1].key
        assert chunk_key(["a", "b"]) != chunk_key(["b", "a"])
        # Member keys, not positions, define identity.
        assert _chunks(10, 4)[0].key == chunk_key(
            ["k0", "k1", "k2", "k3"])

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            chunk_tasks([_Task("k")], 0)

    def test_auto_chunk_size(self):
        assert auto_chunk_size(0, 4) == 1
        assert auto_chunk_size(16, 4) == 1       # ~4 chunks per worker
        assert auto_chunk_size(1024, 4) == 64
        assert auto_chunk_size(100, 1) == 25
        assert auto_chunk_size(100_000, 4) == 256  # capped at the default


class TestJobs:
    def test_create_and_get(self, journal):
        job_id = _job(journal)
        job = journal.get_job(job_id)
        assert job.total_cells == 10
        assert job.chunk_size == 4
        assert job.state == "queued"
        assert pickle.loads(journal.load_tasks(job_id)) == list(range(10))

    def test_unknown_job(self, journal):
        with pytest.raises(UnknownJobError):
            journal.get_job("nope")
        with pytest.raises(UnknownJobError):
            journal.load_tasks("nope")

    def test_list_jobs(self, journal):
        _job(journal, job_id="a")
        _job(journal, job_id="b")
        assert [j.job_id for j in journal.list_jobs()] == ["a", "b"]


class TestLeases:
    def test_claims_in_index_order(self, journal):
        job_id = _job(journal)
        first = journal.claim(job_id, "w1", lease_ttl=10, now=1.0)
        second = journal.claim(job_id, "w2", lease_ttl=10, now=1.0)
        assert (first.index, second.index) == (0, 1)
        assert first.attempts == 1 and not first.requeued

    def test_no_claimable_chunk_returns_none(self, journal):
        job_id = _job(journal, n_cells=4, size=4)
        journal.claim(job_id, "w1", lease_ttl=10, now=1.0)
        assert journal.claim(job_id, "w2", lease_ttl=10, now=2.0) is None

    def test_expired_lease_is_requeued_to_next_claimer(self, journal):
        job_id = _job(journal, n_cells=4, size=4)
        stale = journal.claim(job_id, "w1", lease_ttl=10, now=0.0)
        takeover = journal.claim(job_id, "w2", lease_ttl=10, now=11.0)
        assert takeover.index == stale.index
        assert takeover.requeued
        assert takeover.attempts == 2
        assert journal.counters(job_id)["requeues"] == 1

    def test_heartbeat_extends_the_lease(self, journal):
        job_id = _job(journal, n_cells=4, size=4)
        lease = journal.claim(job_id, "w1", lease_ttl=10, now=0.0)
        assert journal.heartbeat(job_id, lease.index, lease.lease_id,
                                 lease_ttl=10, now=9.0)
        # Would have expired at t=10 without the heartbeat.
        assert journal.claim(job_id, "w2", lease_ttl=10, now=15.0) is None

    def test_double_lease_rejection_on_complete(self, journal):
        """The zombie-worker race: a worker whose lease expired and was
        reassigned must not complete the chunk under the new owner."""
        job_id = _job(journal, n_cells=4, size=4)
        stale = journal.claim(job_id, "w1", lease_ttl=10, now=0.0)
        fresh = journal.claim(job_id, "w2", lease_ttl=10, now=11.0)
        assert not journal.complete(job_id, stale.index, stale.lease_id)
        assert journal.counters(job_id)["done"] == 0
        assert journal.complete(job_id, fresh.index, fresh.lease_id)
        assert journal.counters(job_id)["done"] == 1

    def test_double_lease_rejection_on_heartbeat(self, journal):
        job_id = _job(journal, n_cells=4, size=4)
        stale = journal.claim(job_id, "w1", lease_ttl=10, now=0.0)
        journal.claim(job_id, "w2", lease_ttl=10, now=11.0)
        assert not journal.heartbeat(job_id, stale.index, stale.lease_id,
                                     lease_ttl=10, now=12.0)

    def test_max_attempts_marks_chunk_failed(self, journal):
        job_id = _job(journal, n_cells=4, size=4)
        now = 0.0
        for _ in range(3):
            lease = journal.claim(job_id, "w", lease_ttl=10,
                                  max_attempts=3, now=now)
            assert lease is not None
            now += 11.0  # let it expire every time
        assert journal.claim(job_id, "w", lease_ttl=10, max_attempts=3,
                             now=now) is None
        counters = journal.counters(job_id)
        assert counters["failed"] == 1
        rows = journal.chunk_rows(job_id)
        assert "abandoned after 3 expired leases" in rows[0].error

    def test_complete_stores_extras(self, journal):
        job_id = _job(journal, n_cells=4, size=4)
        lease = journal.claim(job_id, "w1", lease_ttl=10, now=0.0)
        journal.complete(job_id, lease.index, lease.lease_id,
                         extras={"2": {"warnings": ["w"]}})
        row = journal.chunk_rows(job_id)[0]
        assert row.state == "done"
        assert row.source == "worker"
        assert row.extras == {"2": {"warnings": ["w"]}}


class TestChunkStateOps:
    def test_mark_done_cached_only_from_queued(self, journal):
        job_id = _job(journal)
        assert journal.mark_done_cached(job_id, 0)
        assert journal.chunk_rows(job_id)[0].source == "cache"
        assert not journal.mark_done_cached(job_id, 0)  # already done
        lease = journal.claim(job_id, "w", lease_ttl=10, now=0.0)
        assert not journal.mark_done_cached(job_id, lease.index)

    def test_reset_chunk_requeues_and_clears(self, journal):
        job_id = _job(journal)
        journal.mark_done_cached(job_id, 0)
        journal.reset_chunk(job_id, 0)
        row = journal.chunk_rows(job_id)[0]
        assert row.state == "queued"
        assert row.source is None and row.extras is None

    def test_fail_chunk(self, journal):
        job_id = _job(journal)
        journal.fail_chunk(job_id, 1, "engine exploded")
        row = journal.chunk_rows(job_id)[1]
        assert row.state == "failed" and row.error == "engine exploded"


class TestCounters:
    def test_counters_track_cells_and_recoveries(self, journal):
        job_id = _job(journal, n_cells=10, size=4)  # chunks of 4,4,2
        lease = journal.claim(job_id, "w1", lease_ttl=10, now=0.0)
        takeover = journal.claim(job_id, "w2", lease_ttl=10, now=11.0)
        assert takeover.index == lease.index
        journal.complete(job_id, takeover.index, takeover.lease_id)
        journal.mark_done_cached(job_id, 1)
        counters = journal.counters(job_id)
        assert counters["chunks"] == 3
        assert counters["done"] == 2
        assert counters["queued"] == 1
        assert counters["requeues"] == 1
        assert counters["recovered"] == 1  # the taken-over chunk is done
        assert counters["cells"] == 10
        assert counters["cells_done"] == 8
        assert journal.unfinished(job_id) == 1

    def test_workers_used_counts_distinct_completing_workers(self, journal):
        """Only workers that completed a chunk count: not a holder that
        lost its lease, nor a chunk answered from the cache."""
        job_id = _job(journal, n_cells=16, size=4)  # four chunks
        assert journal.counters(job_id)["workers_used"] == 0
        stale = journal.claim(job_id, "w1", lease_ttl=10, now=0.0)
        takeover = journal.claim(job_id, "w2", lease_ttl=10, now=11.0)
        assert takeover.index == stale.index
        journal.complete(job_id, takeover.index, takeover.lease_id)
        again = journal.claim(job_id, "w2", lease_ttl=10, now=12.0)
        journal.complete(job_id, again.index, again.lease_id)
        assert journal.counters(job_id)["workers_used"] == 1
        journal.mark_done_cached(job_id, 2)
        assert journal.counters(job_id)["workers_used"] == 1
        last = journal.claim(job_id, "w3", lease_ttl=10, now=13.0)
        journal.complete(job_id, last.index, last.lease_id)
        assert journal.counters(job_id)["workers_used"] == 2
