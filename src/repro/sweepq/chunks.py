"""Sharding a sweep into content-addressed chunks of cells.

A *chunk* is a contiguous ``[start, stop)`` slice of the sweep's task
list in canonical task order.  Chunks -- not cells -- are the unit of
work the queue leases to workers, so one IPC round-trip (and one
vectorized :func:`repro.core.batch.solve_batch` call) covers a whole
slice instead of one pickled cell.

Each chunk carries a content-addressed ``key``: the SHA-256 digest over
its members' cache keys (:func:`repro.service.keys.task_key`), in
order.  Two jobs over the same cells with the same chunk size shard to
the same chunk keys, so journals are auditable and a resumed job can
prove its chunk table still describes the same work.

Chunk layout is fixed at job-creation time and never re-derived from
cache state, so a killed-and-restarted sweep sees the identical chunk
table it started with.
"""

from __future__ import annotations

import hashlib
import itertools
from collections.abc import Sequence
from dataclasses import dataclass

#: Upper bound on the automatic chunk size: wide enough that the
#: vectorized batch solve runs at full width and amortizes the journal
#: round-trip, small enough that a lost lease never forfeits much work
#: even when the chunk holds second-per-cell simulation cells.
DEFAULT_CHUNK_SIZE = 256

#: Cap for sweeps known to be MVA-only: each cell is sub-millisecond,
#: so a lost lease forfeits little even at full batch width, and the
#: per-call fixed cost of the batch solver rewards the widest chunks.
MVA_CHUNK_CAP = 1024

#: Lane cap for chunks holding vector-DES cells: at most this many
#: lockstep lanes (cells x replications) per chunk.  A DES tick's cost
#: grows slowly with its width (E17 ``BENCH_sim.json`` ``scaling``: 314
#: us at 32 lanes, 406 us at 128, 552 us at 512), so wide packs are
#: cheap per lane; the cap bounds the pack's memory and the work a
#: lost lease forfeits.
PACK_LANE_CAP = 512


@dataclass(frozen=True)
class Chunk:
    """One leaseable slice of a sweep's task list."""

    index: int
    start: int
    stop: int
    #: SHA-256 over the member tasks' cache keys, in order.
    key: str

    @property
    def size(self) -> int:
        return self.stop - self.start


def chunk_key(task_keys: Sequence[str]) -> str:
    """Content-addressed identity of one chunk (order-sensitive)."""
    digest = hashlib.sha256()
    for key in task_keys:
        digest.update(key.encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()


def chunk_tasks(tasks: Sequence, chunk_size: int) -> list[Chunk]:
    """Shard ``tasks`` into contiguous chunks of ``chunk_size`` cells."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size!r}")
    keys = [task.key for task in tasks]
    chunks: list[Chunk] = []
    for index, start in enumerate(range(0, len(tasks), chunk_size)):
        stop = min(start + chunk_size, len(tasks))
        chunks.append(Chunk(index=index, start=start, stop=stop,
                            key=chunk_key(keys[start:stop])))
    return chunks


def auto_chunk_size(n_cells: int, workers: int,
                    cap: int = DEFAULT_CHUNK_SIZE) -> int:
    """A chunk size giving each worker ~4 chunks, capped at ``cap``.

    Small sweeps shard finely so every worker gets something to do;
    large sweeps cap at ``cap`` cells per lease so the batch engine
    amortizes the journal round-trip without a lost lease costing much
    re-work.  :meth:`repro.sweepq.SweepQueue.submit` passes
    :data:`MVA_CHUNK_CAP` for MVA-only sweeps (full batch width).
    """
    if n_cells < 1:
        return 1
    per_worker = -(-n_cells // (max(workers, 1) * 4))  # ceil division
    return max(1, min(cap, per_worker))


def packed_chunk_size(lanes: Sequence[int], workers: int) -> int:
    """A chunk size giving each worker one chunk, for sweeps with
    vector-DES cells.

    ``lanes[i]`` is the lockstep lanes cell ``i`` occupies (its
    replication count, 0 for an MVA or scalar-DES cell).  Each worker's
    chunk is then one wide pack (:func:`repro.service.executor
    .evaluate_sim_pack`) instead of ~4 narrow ones.  The size shrinks
    until no chunk holds more than :data:`PACK_LANE_CAP` lanes, and
    never exceeds :data:`DEFAULT_CHUNK_SIZE` cells.
    """
    n_cells = len(lanes)
    if n_cells < 1:
        return 1
    size = min(DEFAULT_CHUNK_SIZE, -(-n_cells // max(workers, 1)))
    prefix = [0, *itertools.accumulate(lanes)]
    while size > 1:
        widest = max(prefix[min(start + size, n_cells)] - prefix[start]
                     for start in range(0, n_cells, size))
        if widest <= PACK_LANE_CAP:
            break
        size -= 1
    return size
