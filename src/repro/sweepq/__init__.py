"""repro.sweepq -- resumable sharded sweep queue.

Shards a sweep into content-addressed chunks, journals them in SQLite,
leases them to worker processes (heartbeats, expiry-requeue, bounded
attempts), solves each chunk with one vectorized batch-engine call, and
transports results over a shared-memory NumPy store.  See
``docs/sweeps.md`` for the model and semantics.
"""

from repro.sweepq.chunks import (
    DEFAULT_CHUNK_SIZE,
    PACK_LANE_CAP,
    Chunk,
    auto_chunk_size,
    chunk_key,
    chunk_tasks,
    packed_chunk_size,
)
from repro.sweepq.journal import (
    ChunkRecord,
    JobRecord,
    Lease,
    SweepJournal,
    UnknownJobError,
)
from repro.sweepq.queue import QueueOutcome, SweepQueue
from repro.sweepq.store import ResultStore
from repro.sweepq.worker import drain_in_process, solve_chunk, worker_main

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "PACK_LANE_CAP",
    "Chunk",
    "ChunkRecord",
    "JobRecord",
    "Lease",
    "QueueOutcome",
    "ResultStore",
    "SweepJournal",
    "SweepQueue",
    "UnknownJobError",
    "auto_chunk_size",
    "chunk_key",
    "packed_chunk_size",
    "chunk_tasks",
    "drain_in_process",
    "solve_chunk",
    "worker_main",
]
