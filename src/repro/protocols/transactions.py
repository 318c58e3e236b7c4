"""Bus transaction types (paper Section 2.1).

"Bus transactions may be one of five types: read, read-mod (i.e.,
read-with-the-intent-to-modify), invalidate, write-word, or
write-block."  Modification 4 adds the broadcast *update* flavour of
write-word (copies are updated rather than invalidated); on the wire it
is the same one-word write, so it shares the WRITE_WORD occupancy.
"""

from __future__ import annotations

import enum


class BusOp(enum.Enum):
    """The bus transaction types and what issues them."""

    #: Processor read missed in the cache.
    READ = "read"
    #: Processor write missed in the cache (read-with-intent-to-modify).
    READ_MOD = "read-mod"
    #: First write to a clean non-exclusive block under modification 3.
    INVALIDATE = "invalidate"
    #: First write to a clean non-exclusive block (Write-Once write-through,
    #: or a broadcast update under modification 4).
    WRITE_WORD = "write-word"
    #: Write a modified block back to main memory.
    WRITE_BLOCK = "write-block"

