"""Cache-block states (paper Section 2.1).

Block state is "defined by three bits of state information": valid /
invalid; exclusive / non-exclusive; wback / no-wback.  Not every
protocol uses every combination; :class:`BlockState` enumerates the five
reachable states and provides the predicates the protocol machine needs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


@dataclass(frozen=True)
class StateBits:
    """The raw three state bits of Section 2.1."""

    valid: bool
    exclusive: bool
    wback: bool


class BlockState(enum.Enum):
    """The reachable cache-block states.

    ``INVALID`` ignores the other two bits.  A *wback* block is modified
    relative to memory; under Write-Once a wback block is always
    exclusive, but modification 2 introduces shared-dirty ownership
    (``SHARED_WBACK``), e.g. Berkeley's "owned non-exclusively".
    """

    INVALID = StateBits(valid=False, exclusive=False, wback=False)
    SHARED_CLEAN = StateBits(valid=True, exclusive=False, wback=False)
    SHARED_WBACK = StateBits(valid=True, exclusive=False, wback=True)
    EXCLUSIVE_CLEAN = StateBits(valid=True, exclusive=True, wback=False)
    EXCLUSIVE_WBACK = StateBits(valid=True, exclusive=True, wback=True)

    def __init__(self, bits: StateBits) -> None:
        # Plain attributes, not properties: the protocol machine and the
        # reachability proof read them on every transition.
        #: The raw three bits backing this state.
        self.bits = bits
        self.valid = bits.valid
        #: The cache *knows* it holds the only copy.
        self.exclusive = bits.exclusive
        #: The block must be written back to memory when purged.
        self.wback = bits.wback
        #: A processor write can proceed with no bus operation: true
        #: exactly for the exclusive states, since writes to
        #: non-exclusive blocks must notify the other caches.
        self.writable_without_bus = bits.valid and bits.exclusive

    @classmethod
    def from_bits(cls, valid: bool, exclusive: bool, wback: bool) -> "BlockState":
        """Map raw bits to a state (invalid ignores the other bits)."""
        if not valid:
            return cls.INVALID
        for state in cls:
            if state.value == StateBits(valid, exclusive, wback):
                return state
        raise ValueError(f"unreachable state bits: valid={valid} "
                         f"exclusive={exclusive} wback={wback}")
