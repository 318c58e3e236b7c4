"""Protocol semantics tests: the Section 2.2 walk-throughs, plus
hypothesis-driven model checking of the coherence invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.machine import (
    CoherenceMachine,
    ProcessorOp,
    SnoopAction,
)
from repro.protocols.modifications import ProtocolSpec
from repro.protocols.states import BlockState
from repro.protocols.transactions import BusOp

READ = ProcessorOp.READ
WRITE = ProcessorOp.WRITE


def machine(*mods: int, n: int = 3) -> CoherenceMachine:
    return CoherenceMachine(ProtocolSpec.of(*mods), n_caches=n)


class TestWriteOnce:
    """The Section 2.2 Write-Once narrative, step by step."""

    def test_read_miss_loads_shared_clean(self):
        m = machine()
        result = m.access(0, READ)
        assert result.bus_ops == (BusOp.READ,)
        assert m.states[0] is BlockState.SHARED_CLEAN
        assert result.memory_supplied

    def test_write_miss_loads_exclusive_wback(self):
        """'A bus read-mod request invalidates all other copies of the
        block, and loads the block in state exclusive and wback.'"""
        m = machine()
        m.access(1, READ)
        result = m.access(0, WRITE)
        assert BusOp.READ_MOD in result.bus_ops
        assert m.states[0] is BlockState.EXCLUSIVE_WBACK
        assert m.states[1] is BlockState.INVALID
        assert result.actions[1] is SnoopAction.INVALIDATE

    def test_first_write_hits_write_through(self):
        """'the first time a processor writes a word to a non-exclusive
        block in its cache, the word is written through to main memory
        ... changes the state of the block to exclusive and no-wback.'"""
        m = machine()
        m.access(0, READ)
        m.access(1, READ)
        result = m.access(0, WRITE)
        assert result.bus_ops == (BusOp.WRITE_WORD,)
        assert m.states[0] is BlockState.EXCLUSIVE_CLEAN
        assert m.states[1] is BlockState.INVALID
        assert m.memory_fresh

    def test_second_write_is_local(self):
        """'Writes to a block in state exclusive in the cache are written
        only locally, changing the state to wback.'"""
        m = machine()
        m.access(0, READ)
        m.access(0, WRITE)
        result = m.access(0, WRITE)
        assert result.bus_ops == ()
        assert m.states[0] is BlockState.EXCLUSIVE_WBACK
        assert not m.memory_fresh

    def test_read_miss_flushes_wback_holder(self):
        """'a cache containing the block in state wback interrupts the bus
        transaction and writes the block to main memory ... The state of
        the block changes to no-wback if the bus request is of type
        read.'"""
        m = machine()
        m.access(0, READ)
        m.access(0, WRITE)
        m.access(0, WRITE)  # now EXCLUSIVE_WBACK
        result = m.access(1, READ)
        assert result.bus_ops == (BusOp.READ, BusOp.WRITE_BLOCK)
        assert result.actions[0] is SnoopAction.FLUSH
        assert result.memory_supplied
        assert m.states[0] is BlockState.SHARED_CLEAN
        assert m.states[1] is BlockState.SHARED_CLEAN
        assert m.memory_fresh

    def test_wback_implies_sole_copy(self):
        """'if a cache contains a block in state wback, it is the only
        cache containing the block.'"""
        m = machine()
        m.access(0, READ)
        m.access(0, WRITE)
        m.access(0, WRITE)
        holders = m.holders()
        assert holders == [0]
        assert m.states[0].exclusive

    def test_purge_of_dirty_block_writes_back(self):
        m = machine()
        m.access(0, WRITE)  # write miss -> EXCLUSIVE_WBACK
        result = m.purge(0)
        assert result.bus_ops == (BusOp.WRITE_BLOCK,)
        assert m.states[0] is BlockState.INVALID
        assert m.memory_fresh

    def test_purge_of_clean_block_silent(self):
        m = machine()
        m.access(0, READ)
        assert m.purge(0).bus_ops == ()

    def test_without_mod1_miss_loads_nonexclusive_even_if_alone(self):
        m = machine()
        result = m.access(0, READ)
        assert m.states[0] is BlockState.SHARED_CLEAN
        assert not m.states[0].exclusive
        assert result.memory_supplied


class TestModification1:
    def test_lone_read_miss_loads_exclusive(self):
        m = machine(1)
        m.access(0, READ)
        assert m.states[0] is BlockState.EXCLUSIVE_CLEAN

    def test_read_miss_with_holder_loads_shared(self):
        """The shared line is raised, so the block loads non-exclusive."""
        m = machine(1)
        m.access(0, READ)
        m.access(1, READ)
        assert m.states[1] is BlockState.SHARED_CLEAN
        assert m.states[0] is BlockState.SHARED_CLEAN  # lost exclusivity

    def test_write_after_exclusive_load_needs_no_bus(self):
        """The case modification 1 exists for: block not resident
        elsewhere and written after loading."""
        m = machine(1)
        m.access(0, READ)
        result = m.access(0, WRITE)
        assert result.bus_ops == ()
        assert m.states[0] is BlockState.EXCLUSIVE_WBACK


class TestModification2:
    def test_wback_holder_supplies_directly(self):
        """'a cache that has a requested block in state wback supplies the
        copy directly to the requesting cache and does not update main
        memory ... the supplying cache sets the state to non-exclusive
        and wback.'"""
        m = machine(2)
        m.access(0, WRITE)  # EXCLUSIVE_WBACK
        result = m.access(1, READ)
        assert result.bus_ops == (BusOp.READ,)  # no write-block
        assert result.actions[0] is SnoopAction.SUPPLY
        assert not result.memory_supplied
        assert m.states[0] is BlockState.SHARED_WBACK  # keeps ownership
        assert m.states[1] is BlockState.SHARED_CLEAN
        assert not m.memory_fresh  # memory not updated

    def test_owner_purge_writes_back(self):
        m = machine(2)
        m.access(0, WRITE)
        m.access(1, READ)
        result = m.purge(0)
        assert result.bus_ops == (BusOp.WRITE_BLOCK,)
        assert m.memory_fresh

    def test_read_mod_supply_transfers_dirty_data(self):
        m = machine(2)
        m.access(0, WRITE)
        result = m.access(1, WRITE)  # read-mod
        assert result.bus_ops == (BusOp.READ_MOD,)
        assert result.actions[0] is SnoopAction.SUPPLY
        assert m.states[0] is BlockState.INVALID
        assert m.states[1] is BlockState.EXCLUSIVE_WBACK


    @pytest.mark.parametrize("mods", [(2,), (1, 2)])
    def test_write_through_to_a_supplied_copy_keeps_write_back_duty(
            self, mods):
        """Cache 0 owns the block and supplies it to cache 1; cache 1's
        first write goes through as a word, but memory still misses
        cache 0's earlier write, so cache 1 must take over the
        write-back.  Otherwise purge(1) drops the only current copy and
        read(0) reads stale memory."""
        m = machine(*mods)
        m.access(0, WRITE)
        m.access(1, READ)  # cache 0 supplies and stays SHARED_WBACK
        result = m.access(1, WRITE)
        assert result.bus_ops == (BusOp.WRITE_WORD,)
        assert m.states[0] is BlockState.INVALID
        assert m.states[1] is BlockState.EXCLUSIVE_WBACK
        assert not m.memory_fresh
        assert m.purge(1).bus_ops == (BusOp.WRITE_BLOCK,)
        assert m.memory_fresh
        assert m.access(0, READ).memory_supplied


class TestModification3:
    def test_first_write_invalidates_instead_of_write_word(self):
        m = machine(3)
        m.access(0, READ)
        m.access(1, READ)
        result = m.access(0, WRITE)
        assert result.bus_ops == (BusOp.INVALIDATE,)
        assert m.states[0] is BlockState.EXCLUSIVE_WBACK  # dirty: no write-through
        assert m.states[1] is BlockState.INVALID
        assert not m.memory_fresh


class TestModification4:
    def test_broadcast_write_keeps_copies_valid(self):
        """'all caches update their copies, and main memory is updated by
        the broadcast write. Cache blocks remain in state no-wback.'"""
        m = machine(1, 4)
        m.access(0, READ)
        m.access(1, READ)
        result = m.access(0, WRITE)
        assert result.bus_ops == (BusOp.WRITE_WORD,)
        assert result.actions[1] is SnoopAction.UPDATE
        assert m.states[0] is BlockState.SHARED_CLEAN
        assert m.states[1] is BlockState.SHARED_CLEAN
        assert m.memory_fresh

    def test_mods_3_and_4_broadcast_without_memory_update(self):
        """Section 2.2 Summary: broadcasting cache takes write-back
        responsibility."""
        m = machine(1, 3, 4)
        m.access(0, READ)
        m.access(1, READ)
        result = m.access(0, WRITE)
        assert result.bus_ops == (BusOp.WRITE_WORD,)
        assert m.states[0] is BlockState.SHARED_WBACK
        assert m.states[1] is BlockState.SHARED_CLEAN
        assert not m.memory_fresh

    def test_mods_3_and_4_ownership_moves_to_latest_writer(self):
        m = machine(1, 3, 4)
        m.access(0, READ)
        m.access(1, READ)
        m.access(0, WRITE)
        m.access(1, WRITE)
        assert m.states[1] is BlockState.SHARED_WBACK
        assert m.states[0] is BlockState.SHARED_CLEAN


class TestValidation:
    def test_bad_cache_id(self):
        with pytest.raises(IndexError):
            machine().access(9, READ)

    def test_bad_n_caches(self):
        with pytest.raises(ValueError):
            CoherenceMachine(ProtocolSpec(), n_caches=0)


# --- hypothesis model checking -------------------------------------------

MOD_COMBOS = st.sets(st.integers(min_value=1, max_value=4), max_size=4)
OPS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.sampled_from([ProcessorOp.READ, ProcessorOp.WRITE, "purge"])),
    min_size=1, max_size=60)


@given(MOD_COMBOS, OPS)
@settings(max_examples=300, deadline=None)
def test_random_access_sequences_preserve_invariants(mods, ops):
    """The machine asserts its invariants after every transition, so
    surviving a random sequence *is* the property: single owner, exclusive
    implies sole holder, memory freshness consistent with ownership."""
    m = CoherenceMachine(ProtocolSpec.of(*mods), n_caches=4)
    for cache_id, op in ops:
        if op == "purge":
            m.purge(cache_id)
        else:
            m.access(cache_id, op)


@given(MOD_COMBOS, OPS)
@settings(max_examples=200, deadline=None)
def test_purge_all_restores_fresh_memory(mods, ops):
    """After every cache evicts the block, memory must hold its value."""
    m = CoherenceMachine(ProtocolSpec.of(*mods), n_caches=4)
    for cache_id, op in ops:
        if op == "purge":
            m.purge(cache_id)
        else:
            m.access(cache_id, op)
    for cache_id in range(4):
        m.purge(cache_id)
    assert m.memory_fresh
    assert m.holders() == []


@given(MOD_COMBOS, OPS)
@settings(max_examples=200, deadline=None)
def test_reader_always_ends_with_valid_copy(mods, ops):
    m = CoherenceMachine(ProtocolSpec.of(*mods), n_caches=4)
    for cache_id, op in ops:
        if op == "purge":
            m.purge(cache_id)
        else:
            m.access(cache_id, op)
            assert m.states[cache_id].valid
