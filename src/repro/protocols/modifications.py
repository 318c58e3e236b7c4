"""The four Write-Once modifications and their combination algebra.

Paper Section 2.2 presents the modifications as independent changes that
"can be implemented in any combination"; Section 3.3 and Appendix A give
the workload-parameter adjustments each combination implies:

* modification 1 raises the private replacement write-back rate
  (rep_p: 0.2 -> 0.3) because blocks loaded exclusive are dirtied
  without a write-through;
* modification 2 or 3 raises rep_sw: 0.5 -> 0.6 (0.7 when both are
  active) because ownership/invalidate defers the memory update to
  purge time;
* modifications 1+4 raise h_sw to 0.95 because copies are updated in
  place instead of being invalidated.
"""

from __future__ import annotations

import enum
from collections.abc import Collection, Iterator
from dataclasses import dataclass, field

from repro.workload.parameters import WorkloadParameters


class Modification(enum.IntEnum):
    """The four proposed modifications to Write-Once (Section 2.2)."""

    #: Load a block exclusive when no other cache raises the shared line.
    EXCLUSIVE_ON_MISS = 1
    #: A wback holder supplies the block directly, without updating memory.
    CACHE_TO_CACHE_SUPPLY = 2
    #: Broadcast an invalidate instead of a write-word on the first write.
    INVALIDATE_INSTEAD_OF_WRITE_WORD = 3
    #: Broadcast writes keep all copies valid (write-update).
    WRITE_BROADCAST = 4

    @property
    def short_name(self) -> str:
        """Compact name used in tables ("mod1" ... "mod4")."""
        return f"mod{int(self)}"


#: Appendix-A override values.
_REP_P_WITH_MOD1 = 0.3
_REP_SW_WITH_MOD2_OR_3 = 0.6
_REP_SW_WITH_MOD2_AND_3 = 0.7
_H_SW_WITH_MODS_1_4 = 0.95


@dataclass(frozen=True)
class ProtocolSpec:
    """A coherence protocol expressed as a set of Write-Once modifications.

    The empty set is the Write-Once protocol itself.  Instances are
    hashable and iterable over their active modifications.
    """

    mods: frozenset[Modification] = field(default_factory=frozenset)
    name: str | None = None

    def __post_init__(self) -> None:
        mods = frozenset(Modification(m) for m in self.mods)
        object.__setattr__(self, "mods", mods)

    @classmethod
    def of(cls, *mods: int | Modification, name: str | None = None) -> "ProtocolSpec":
        """Build a spec from modification numbers: ``ProtocolSpec.of(1, 4)``."""
        return cls(mods=frozenset(Modification(m) for m in mods), name=name)

    def __iter__(self) -> Iterator[Modification]:
        return iter(sorted(self.mods))

    def __contains__(self, mod: int | Modification) -> bool:
        return Modification(mod) in self.mods

    def __len__(self) -> int:
        return len(self.mods)

    @property
    def mod_numbers(self) -> frozenset[int]:
        """The active modifications as plain integers (for derive_inputs)."""
        return frozenset(int(m) for m in self.mods)

    @property
    def label(self) -> str:
        """Display name: the given name, or e.g. "WO+1+4" / "Write-Once".

        Memoized on the instance: sweep row assembly asks per cell."""
        cached = self.__dict__.get("_label")
        if cached is None:
            if self.name:
                cached = self.name
            elif not self.mods:
                cached = "Write-Once"
            else:
                cached = "WO+" + "+".join(
                    str(int(m)) for m in sorted(self.mods))
            object.__setattr__(self, "_label", cached)
        return cached

    def with_mods(self, *mods: int | Modification) -> "ProtocolSpec":
        """Return a spec with additional modifications enabled."""
        extra = frozenset(Modification(m) for m in mods)
        return ProtocolSpec(mods=self.mods | extra)

    @property
    def is_practical(self) -> bool:
        """Section 2.2: modification 4 alone degenerates to write-through,
        so it "is only practical when implemented together with
        modification 1"."""
        if Modification.WRITE_BROADCAST not in self.mods:
            return True
        return Modification.EXCLUSIVE_ON_MISS in self.mods

    def adjust_workload(self, workload: WorkloadParameters) -> WorkloadParameters:
        """Apply the Appendix-A parameter overrides for this protocol.

        Only parameters still at their Write-Once default are overridden,
        so callers who explicitly set e.g. rep_sw keep their value.
        """
        changes: dict[str, float] = {}
        if Modification.EXCLUSIVE_ON_MISS in self.mods and workload.rep_p == 0.2:
            changes["rep_p"] = _REP_P_WITH_MOD1
        has_2 = Modification.CACHE_TO_CACHE_SUPPLY in self.mods
        has_3 = Modification.INVALIDATE_INSTEAD_OF_WRITE_WORD in self.mods
        if (has_2 or has_3) and workload.rep_sw == 0.5:
            changes["rep_sw"] = (_REP_SW_WITH_MOD2_AND_3 if has_2 and has_3
                                 else _REP_SW_WITH_MOD2_OR_3)
        if (Modification.WRITE_BROADCAST in self.mods
                and Modification.EXCLUSIVE_ON_MISS in self.mods
                and workload.h_sw == 0.5):
            changes["h_sw"] = _H_SW_WITH_MODS_1_4
        return workload.replace(**changes) if changes else workload


def all_combinations() -> list[ProtocolSpec]:
    """All 16 modification combinations, Write-Once first."""
    specs = []
    for mask in range(16):
        mods = [m for m in Modification if mask & (1 << (int(m) - 1))]
        specs.append(ProtocolSpec(mods=frozenset(mods)))
    return specs


def parse_mods(text: str | Collection[int]) -> ProtocolSpec:
    """Parse a CLI-style modification list ("1,4", "wo", "" or ints)."""
    if not isinstance(text, str):
        return ProtocolSpec.of(*text)
    cleaned = text.strip().lower()
    if cleaned in {"", "wo", "write-once", "writeonce", "none"}:
        return ProtocolSpec()
    try:
        numbers = [int(part) for part in cleaned.replace("+", ",").split(",") if part]
    except ValueError as exc:
        raise ValueError(f"cannot parse modification list {text!r}") from exc
    return ProtocolSpec.of(*numbers)
