"""Snooping cache-consistency protocol family (paper Section 2.2).

The paper treats the five published successors of Goodman's Write-Once
protocol as combinations of four independent *modifications*.  This
package provides:

* :class:`Modification` / :class:`ProtocolSpec` -- the modification
  algebra, including the Appendix-A workload-parameter overrides each
  modification implies;
* :mod:`~repro.protocols.states` -- the 3-bit cache-block state space
  (valid, exclusive, wback) of Section 2.1;
* :mod:`~repro.protocols.transactions` -- the five bus transaction types;
* :mod:`~repro.protocols.machine` -- an executable block-level state
  machine for any modification combination (proved over its reachable
  configurations by ``repro verify`` and walked by the unit tests);
* :mod:`~repro.protocols.family` -- the named protocols (Write-Once,
  Synapse, Illinois, Berkeley, RWB, Dragon) mapped onto modification
  sets.
"""

from repro.protocols.modifications import Modification, ProtocolSpec
from repro.protocols.states import BlockState
from repro.protocols.transactions import BusOp
from repro.protocols.machine import CoherenceMachine, ProcessorOp, SnoopResult
from repro.protocols.family import (
    PROTOCOLS,
    berkeley,
    dragon,
    illinois,
    protocol_by_name,
    rwb,
    synapse,
    write_once,
)

__all__ = [
    "BlockState",
    "BusOp",
    "CoherenceMachine",
    "Modification",
    "PROTOCOLS",
    "ProcessorOp",
    "ProtocolSpec",
    "SnoopResult",
    "berkeley",
    "dragon",
    "illinois",
    "protocol_by_name",
    "rwb",
    "synapse",
    "write_once",
]
