"""Executable block-level coherence state machine.

This module animates the Section 2.2 protocol descriptions: for one
cache block, it tracks the state held by each of N caches plus whether
main memory is up to date, and applies processor reads/writes and
replacements under any modification combination.

The machine is the *semantic reference* for the family: it asserts the
paper's state laws (:meth:`CoherenceMachine.laws`) after every
transition, ``repro verify`` proves them over every reachable
configuration, and the simulator's snoop accounting mirrors its
:class:`SnoopResult` taxonomy.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.protocols.modifications import Modification, ProtocolSpec
from repro.protocols.states import BlockState
from repro.protocols.transactions import BusOp


class ProcessorOp(enum.Enum):
    """A processor-side access to the block."""

    READ = "read"
    WRITE = "write"


class SnoopAction(enum.Enum):
    """What a snooping cache does in response to a bus transaction."""

    NONE = "none"
    INVALIDATE = "invalidate"
    UPDATE = "update"        # modification 4: refresh the local copy
    SHARE = "share"          # raise the shared line / drop exclusivity
    FLUSH = "flush"          # Write-Once: write the block to memory mid-transaction
    SUPPLY = "supply"        # modification 2: source the block cache-to-cache


@dataclass(frozen=True)
class SnoopResult:
    """The outcome of one access: bus traffic plus per-cache actions."""

    bus_ops: tuple[BusOp, ...]
    actions: dict[int, SnoopAction] = field(default_factory=dict)
    memory_supplied: bool = False


class CoherenceMachine:
    """State of one cache block across ``n_caches`` caches.

    The machine is deliberately eager about consistency: every transition
    re-checks the protocol invariants and raises ``AssertionError`` on
    violation, so fuzzing it with random access sequences (see the
    property tests) doubles as a protocol model-checker.
    """

    def __init__(self, spec: ProtocolSpec, n_caches: int):
        if n_caches < 1:
            raise ValueError(f"n_caches must be >= 1, got {n_caches!r}")
        self.spec = spec
        self.n_caches = n_caches
        self.states: list[BlockState] = [BlockState.INVALID] * n_caches
        #: Main memory holds the current value of the block.
        self.memory_fresh: bool = True
        self._check_invariants()

    # -- helpers -----------------------------------------------------------

    def holders(self) -> list[int]:
        """Caches currently holding a valid copy."""
        return [i for i, s in enumerate(self.states) if s.valid]

    def owner(self) -> int | None:
        """The cache responsible for writing the block back, if any."""
        for i, s in enumerate(self.states):
            if s.wback:
                return i
        return None

    def _has(self, mod: Modification) -> bool:
        return mod in self.spec.mods

    # -- the access API ----------------------------------------------------

    def access(self, cache_id: int, op: ProcessorOp) -> SnoopResult:
        """Apply one processor access and return the resulting traffic."""
        if not 0 <= cache_id < self.n_caches:
            raise IndexError(f"cache_id {cache_id} out of range")
        state = self.states[cache_id]
        if op is ProcessorOp.READ:
            result = (self._read_hit(cache_id) if state.valid
                      else self._read_miss(cache_id))
        else:
            result = (self._write_hit(cache_id) if state.valid
                      else self._write_miss(cache_id))
        self._check_invariants()
        return result

    def purge(self, cache_id: int) -> SnoopResult:
        """Evict the block from ``cache_id`` (replacement)."""
        state = self.states[cache_id]
        self.states[cache_id] = BlockState.INVALID
        bus_ops: tuple[BusOp, ...] = ()
        if state.wback:
            bus_ops = (BusOp.WRITE_BLOCK,)
            self.memory_fresh = True
        self._check_invariants()
        return SnoopResult(bus_ops=bus_ops)

    # -- transitions -------------------------------------------------------

    def _read_hit(self, cache_id: int) -> SnoopResult:
        return SnoopResult(bus_ops=())

    def _read_miss(self, cache_id: int) -> SnoopResult:
        actions: dict[int, SnoopAction] = {}
        bus_ops = [BusOp.READ]
        holders = [i for i in self.holders() if i != cache_id]
        owner = self.owner()

        supplied_by_cache = False
        if owner is not None and owner != cache_id:
            if self._has(Modification.CACHE_TO_CACHE_SUPPLY):
                # The owner sources the block and keeps write-back duty.
                actions[owner] = SnoopAction.SUPPLY
                self.states[owner] = BlockState.SHARED_WBACK
                supplied_by_cache = True
            else:
                # Write-Once: the owner interrupts the transaction and
                # flushes to memory, which then supplies the data.
                actions[owner] = SnoopAction.FLUSH
                bus_ops.append(BusOp.WRITE_BLOCK)
                self.states[owner] = BlockState.SHARED_CLEAN
                self.memory_fresh = True

        for i in holders:
            if i in actions:
                continue
            actions[i] = SnoopAction.SHARE
            if self.states[i].exclusive:
                self.states[i] = (BlockState.SHARED_WBACK if self.states[i].wback
                                  else BlockState.SHARED_CLEAN)

        if holders or not self._has(Modification.EXCLUSIVE_ON_MISS):
            self.states[cache_id] = BlockState.SHARED_CLEAN
        else:
            # Modification 1: the shared line stayed low, load exclusive.
            self.states[cache_id] = BlockState.EXCLUSIVE_CLEAN
        return SnoopResult(bus_ops=tuple(bus_ops), actions=actions,
                           memory_supplied=not supplied_by_cache)

    def _write_hit(self, cache_id: int) -> SnoopResult:
        state = self.states[cache_id]
        if state.writable_without_bus:
            self.states[cache_id] = BlockState.EXCLUSIVE_WBACK
            self.memory_fresh = False
            return SnoopResult(bus_ops=())
        if self._has(Modification.WRITE_BROADCAST):
            return self._broadcast_write(cache_id)
        return self._first_write_through(cache_id)

    def _first_write_through(self, cache_id: int) -> SnoopResult:
        """Write to a non-exclusive block: write-word or invalidate."""
        # Read before invalidating: the owner may be another cache.
        owned = self.owner() is not None
        actions = {i: SnoopAction.INVALIDATE
                   for i in self.holders() if i != cache_id}
        for i in actions:
            self.states[i] = BlockState.INVALID
        if self._has(Modification.INVALIDATE_INSTEAD_OF_WRITE_WORD):
            # Memory is not updated, so the block is dirty from here on.
            self.states[cache_id] = BlockState.EXCLUSIVE_WBACK
            self.memory_fresh = False
            bus_op = BusOp.INVALIDATE
        else:
            # Write-Once: the word goes through to memory.  If any cache
            # owned the block (shared-dirty, possible only with
            # modification 2), its other words are still stale in memory,
            # so the writer takes over the write-back duty.
            self.states[cache_id] = (BlockState.EXCLUSIVE_WBACK if owned
                                     else BlockState.EXCLUSIVE_CLEAN)
            self.memory_fresh = not owned
            bus_op = BusOp.WRITE_WORD
        return SnoopResult(bus_ops=(bus_op,), actions=actions)

    def _broadcast_write(self, cache_id: int) -> SnoopResult:
        """Modification 4: update every copy, keep them valid."""
        actions = {i: SnoopAction.UPDATE
                   for i in self.holders() if i != cache_id}
        if self._has(Modification.INVALIDATE_INSTEAD_OF_WRITE_WORD):
            # Mods 3+4 together: broadcast without updating memory; the
            # broadcasting cache takes write-back responsibility
            # (Section 2.2 "Summary").
            prior_owner = self.owner()
            if prior_owner is not None and prior_owner != cache_id:
                self.states[prior_owner] = BlockState.SHARED_CLEAN
            if len(self.holders()) > 1:
                self.states[cache_id] = BlockState.SHARED_WBACK
            else:
                self.states[cache_id] = BlockState.EXCLUSIVE_WBACK
            self.memory_fresh = False
        else:
            # The broadcast word also updates memory.  Copies stay valid
            # and no-wback ("cache blocks remain in state no-wback"); a
            # pre-existing owner (shared-dirty under modification 2)
            # keeps ownership because its other words are still stale.
            self.memory_fresh = self.owner() is None
        return SnoopResult(bus_ops=(BusOp.WRITE_WORD,), actions=actions)

    def _write_miss(self, cache_id: int) -> SnoopResult:
        actions: dict[int, SnoopAction] = {}
        bus_ops = [BusOp.READ_MOD]
        owner = self.owner()
        supplied_by_cache = False
        if owner is not None and owner != cache_id:
            if self._has(Modification.CACHE_TO_CACHE_SUPPLY):
                actions[owner] = SnoopAction.SUPPLY
                supplied_by_cache = True
            else:
                actions[owner] = SnoopAction.FLUSH
                bus_ops.append(BusOp.WRITE_BLOCK)
                self.memory_fresh = True
        for i in self.holders():
            if i == cache_id:
                continue
            actions.setdefault(i, SnoopAction.INVALIDATE)
            self.states[i] = BlockState.INVALID
        # Read-mod loads the block exclusive and wback (Section 2.2).
        self.states[cache_id] = BlockState.EXCLUSIVE_WBACK
        self.memory_fresh = False
        return SnoopResult(bus_ops=tuple(bus_ops), actions=actions,
                           memory_supplied=not supplied_by_cache)

    # -- invariants ---------------------------------------------------------

    def laws(self) -> Iterator[tuple[str, bool, str]]:
        """The Section 2.1/2.2 state laws as ``(law, holds, statement)``."""
        owners = sum(s.wback for s in self.states)
        yield "single-owner", owners <= 1, "at most one write-back owner"
        yield ("exclusive-means-alone",
               not any(s.exclusive for s in self.states)
               or len(self.holders()) == 1,
               "an exclusive copy has no co-holders")
        yield ("no-shared-dirty",
               BlockState.SHARED_WBACK not in self.states
               or self._has(Modification.CACHE_TO_CACHE_SUPPLY)
               or (self._has(Modification.WRITE_BROADCAST)
                   and self._has(Modification.INVALIDATE_INSTEAD_OF_WRITE_WORD)),
               "shared-dirty ownership only under modification 2 or 3+4")
        yield ("memory-freshness", self.memory_fresh != bool(owners),
               "memory is stale exactly when some cache owns the block")

    def _check_invariants(self) -> None:
        for law, holds, statement in self.laws():
            assert holds, (f"{law}: {statement} (states "
                           f"{[s.name for s in self.states]}, "
                           f"memory_fresh={self.memory_fresh})")
