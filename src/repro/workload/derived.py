"""Derived model inputs (paper Section 2.3 and Appendix B).

The paper specifies *basic* workload parameters (Appendix A) and states
that the *model inputs* -- ``p_local``, ``p_bc``, ``p_rr``, ``t_read``,
``p_csupwb|rr`` and ``p_reqwb|rr`` -- "can be computed [VeHo86]".  That
derivation is reproduced here from first principles; see DESIGN.md
Section 5 for the decisions taken where [VeHo86] is not available.

The derivation proceeds in two steps:

1. :class:`ReferenceMix` decomposes a memory reference into twelve
   disjoint event classes (stream x read/write x hit/miss x modified),
   then assigns each class to one of the three ways a request is handled
   (locally, broadcast, or remote read) *under a given set of protocol
   modifications*.

2. :class:`DerivedInputs` computes the bus/memory timing inputs and the
   Appendix-B cache-interference quantities (p, p', t_interference) from
   the mix.

Modifications are identified by the integers 1-4 used in the paper:

1. private blocks load exclusive when no other cache holds them, so
   unmodified private write hits need no bus operation;
2. a *wback* holder supplies the block cache-to-cache without updating
   memory;
3. the first write to a non-exclusive block broadcasts an *invalidate*
   instead of a write-word;
4. writes to non-exclusive blocks broadcast updates and copies stay
   valid (distributed write / write-broadcast).
"""

from __future__ import annotations

import enum
import math
from collections.abc import Collection
from dataclasses import dataclass

from repro.workload.parameters import ArchitectureParams, WorkloadParameters


class ReplacementWeighting(enum.Enum):
    """How P(replacement write-back | miss) weighs the per-stream rates.

    ``REFERENCE_MIX`` -- the victim block is of each class with the
    class's overall reference probability:
    ``rep_p * p_private + rep_sw * p_sw``.  This is the expression that
    appears inside the paper's p' formula (Appendix B), so it is the
    default.

    ``MISS_CLASS`` -- the victim is of the same class as the missing
    reference (private miss evicts a private block, ...), an alternative
    explored in the ablation bench.
    """

    REFERENCE_MIX = "reference-mix"
    MISS_CLASS = "miss-class"


def _validate_mods(mods: Collection[int]) -> frozenset[int]:
    mset = frozenset(mods)
    if not mset <= {1, 2, 3, 4}:
        raise ValueError(f"modifications must be a subset of {{1, 2, 3, 4}}, got {sorted(mset)}")
    return mset


@dataclass(frozen=True)
class ReferenceMix:
    """Per-reference event-class probabilities and their bus routing.

    Field naming: ``p`` private / ``sr`` shared read-only / ``sw``
    shared-writable; ``r``/``w`` read/write; ``h``/``m`` hit/miss;
    trailing ``mod``/``unmod`` = block found already modified or not.
    All twelve fields sum to 1.
    """

    prh: float      # private read hit
    prm: float      # private read miss
    pwh_mod: float  # private write hit, block already modified
    pwh_unmod: float  # private write hit, block clean (Write-Once: write-through)
    pwm: float      # private write miss
    srh: float      # sro read hit
    srm: float      # sro read miss
    swrh: float     # sw read hit
    swrm: float     # sw read miss
    swh_mod: float  # sw write hit, block already modified
    swh_unmod: float  # sw write hit, block clean
    swm: float      # sw write miss

    @classmethod
    def from_workload(cls, w: WorkloadParameters) -> "ReferenceMix":
        """Decompose a reference into the twelve event classes."""
        wp = 1.0 - w.r_private  # private write probability
        ws = 1.0 - w.r_sw       # sw write probability
        return cls(
            prh=w.p_private * w.r_private * w.h_private,
            prm=w.p_private * w.r_private * (1.0 - w.h_private),
            pwh_mod=w.p_private * wp * w.h_private * w.amod_private,
            pwh_unmod=w.p_private * wp * w.h_private * (1.0 - w.amod_private),
            pwm=w.p_private * wp * (1.0 - w.h_private),
            srh=w.p_sro * w.h_sro,
            srm=w.p_sro * (1.0 - w.h_sro),
            swrh=w.p_sw * w.r_sw * w.h_sw,
            swrm=w.p_sw * w.r_sw * (1.0 - w.h_sw),
            swh_mod=w.p_sw * ws * w.h_sw * w.amod_sw,
            swh_unmod=w.p_sw * ws * w.h_sw * (1.0 - w.amod_sw),
            swm=w.p_sw * ws * (1.0 - w.h_sw),
        )

    @property
    def total(self) -> float:
        """Sum of all class probabilities (should be 1)."""
        return (self.prh + self.prm + self.pwh_mod + self.pwh_unmod + self.pwm
                + self.srh + self.srm + self.swrh + self.swrm
                + self.swh_mod + self.swh_unmod + self.swm)

    # -- routing under a modification set ---------------------------------

    def p_local(self, mods: Collection[int]) -> float:
        """P(request satisfied in the local cache without a bus operation)."""
        mset = _validate_mods(mods)
        local = self.prh + self.srh + self.swrh + self.pwh_mod
        if 4 in mset:
            # All writes to non-exclusive blocks broadcast; blocks stay
            # no-wback so a "modified" sw write hit cannot stay local.
            pass
        else:
            local += self.swh_mod
        if 1 in mset:
            # Private blocks were loaded exclusive (no other cache holds
            # private data), so the first write needs no bus operation.
            local += self.pwh_unmod
        return local

    def p_broadcast(self, mods: Collection[int]) -> float:
        """P(request needs a broadcast: write-word, invalidate, or update)."""
        mset = _validate_mods(mods)
        bc = self.swh_unmod
        if 1 not in mset:
            bc += self.pwh_unmod
        if 4 in mset:
            bc += self.swh_mod
        return bc

    def p_remote_read(self, mods: Collection[int]) -> float:
        """P(request misses and needs a bus read or read-mod)."""
        _validate_mods(mods)
        return self.prm + self.pwm + self.srm + self.swrm + self.swm

    def sw_broadcast(self, mods: Collection[int]) -> float:
        """Shared-writable part of :meth:`p_broadcast` (``SWHunmod``).

        Only broadcasts on *shared* blocks can require another cache to
        act (no other cache holds private blocks), so this is the
        numerator of the Appendix-B p_b term.
        """
        mset = _validate_mods(mods)
        bc = self.swh_unmod
        if 4 in mset:
            bc += self.swh_mod
        return bc

    # -- miss mix ----------------------------------------------------------

    @property
    def private_miss(self) -> float:
        """Unconditional private miss probability (read + write)."""
        return self.prm + self.pwm

    @property
    def sro_miss(self) -> float:
        """Unconditional sro miss probability."""
        return self.srm

    @property
    def sw_miss(self) -> float:
        """Unconditional sw miss probability (read + write)."""
        return self.swrm + self.swm


@dataclass(frozen=True)
class CacheInterference:
    """The Appendix-B cache-interference quantities for a system size N.

    ``p`` is the probability that a given other cache must take *some*
    action for a bus request; ``p_prime`` (< p) that it is tied up for
    the whole transaction (e.g. it supplies the block);
    ``t_interference`` is the mean time the cache is busy per interfering
    request; ``n_interference`` is computed by the solver (equation 13)
    because it depends on the bus queue length.
    """

    p: float
    p_prime: float
    t_interference: float

    def n_interference(self, q_bus: float) -> float:
        """Equation (13): mean number of consecutive interfering requests.

        ``q_bus`` is the mean bus queue length seen at arrival; the
        closed form p * (1 - p'^Q) / (1 - p') is used, with the limits
        p' -> 1 and Q -> 0 handled explicitly.
        """
        if q_bus <= 0.0 or self.p <= 0.0:
            return 0.0
        if math.isclose(self.p_prime, 1.0, abs_tol=1e-12):
            return self.p * q_bus
        return self.p * (1.0 - self.p_prime ** q_bus) / (1.0 - self.p_prime)


@dataclass(frozen=True)
class DerivedInputs:
    """All model inputs for one (workload, architecture, protocol) triple.

    Produced by :func:`derive_inputs`; consumed by
    :class:`repro.core.model.CacheMVAModel` and by the simulator's
    outcome sampler.  All probabilities are per memory reference unless
    suffixed ``_rr`` (per remote read).
    """

    workload: WorkloadParameters
    arch: ArchitectureParams
    mods: frozenset[int]
    mix: ReferenceMix

    p_local: float
    p_bc: float
    p_rr: float

    #: Mean bus occupancy of a remote read / read-mod (cycles), including
    #: supplier and requester write-backs where the protocol requires them.
    t_read: float
    #: Bus occupancy of a broadcast (write-word, or invalidate under mod 3).
    t_bc: float
    #: P(another cache must write the block back to memory | remote read).
    p_csupwb_rr: float
    #: P(some cache holds a copy of the missed block | remote read).
    p_csup_rr: float
    #: P(the requesting cache writes back a replaced block | remote read).
    p_reqwb_rr: float
    #: Whether broadcasts update main memory (False under modification 3).
    bc_updates_memory: bool
    #: Conditional miss mix: P(miss is to an sro / sw block | miss).
    sr_miss_frac: float
    sw_miss_frac: float
    #: P(a specific other cache holds a referenced shared block).  The
    #: paper's Appendix B hard-codes 0.5; the N-dependent sharing
    #: refinement (repro.workload.sharing) passes its residency instead.
    holder_probability: float = 0.5

    def memory_ops_per_request(self) -> float:
        """Memory-write operations per memory request (feeds equation 12).

        Broadcast writes (when they update memory) plus block write-backs
        by the supplier and by the requester on remote reads.
        """
        ops = self.p_rr * (self.p_csupwb_rr + self.p_reqwb_rr)
        if self.bc_updates_memory:
            ops += self.p_bc
        return ops

    def cache_interference(self, n_processors: int) -> CacheInterference:
        """Appendix-B p, p' and t_interference for a system of N processors.

        For N = 1 there are no other caches, so all quantities are zero.
        """
        n = n_processors
        if n <= 1:
            return CacheInterference(p=0.0, p_prime=0.0, t_interference=1.0)

        w = self.workload
        bus_ops = self.p_rr + self.p_bc
        if bus_ops <= 0.0:
            return CacheInterference(p=0.0, p_prime=0.0, t_interference=1.0)

        shared_miss = self.sr_miss_frac + self.sw_miss_frac
        sw_bc = self.mix.sw_broadcast(self.mods)
        hp = self.holder_probability

        # p_a: the bus op is a miss to a shared block and this cache holds
        # a copy (probability 0.5 in the paper's Appendix B; hp here).
        # p_b: the bus op is a broadcast on a shared block this cache holds.
        p_a = (self.p_rr / bus_ops) * shared_miss * hp
        p_b = (sw_bc / bus_ops) * hp
        p = p_a + p_b
        if p <= 0.0:
            return CacheInterference(p=0.0, p_prime=0.0, t_interference=1.0)

        # Probability that the block comes from a specific holder: the
        # expected number of holders is (N-1) hp, i.e. (N-1)/2 in the
        # paper, hence its 2/(N-1) factor.
        supply_share = min(1.0 / ((n - 1) * hp), 1.0) if hp > 0.0 else 0.0
        supplied = (w.csupply_sro * self.sr_miss_frac
                    + w.csupply_sw * self.sw_miss_frac)
        no_reqwb = 1.0 - (w.rep_p * w.p_private + w.rep_sw * w.p_sw)
        p_prime = p_b + p_a * supply_share * supplied * no_reqwb
        # p' is a sub-event of p by construction, but the printed formula
        # can exceed p for tiny N with extreme parameters; clamp.
        p_prime = min(p_prime, p)

        t_block = self.arch.block_transfer_cycles
        extra_wb = 0.0 if 2 in self.mods else w.wb_csupply
        swc_sup = w.rep_p * w.p_private + w.rep_sw * w.p_sw
        t_interference = 1.0
        if p > 0.0:
            t_interference += (p_a / p) * supply_share * supplied * (
                t_block + (extra_wb + swc_sup) * t_block
            )
        return CacheInterference(p=p, p_prime=p_prime, t_interference=t_interference)

    def cache_interference_many(
            self, sizes: "Collection[int]") -> list[CacheInterference]:
        """:meth:`cache_interference` for many system sizes at once.

        Hoists every N-independent subexpression (p_a, p_b, p, the
        supplied/write-back factors and the t_interference tail) so a
        sweep derives them once instead of once per size.  The per-N
        arithmetic keeps the exact operand grouping of the scalar
        method, so each entry is bit-equal to ``cache_interference(n)``.
        """
        trivial = CacheInterference(p=0.0, p_prime=0.0, t_interference=1.0)
        w = self.workload
        bus_ops = self.p_rr + self.p_bc
        if bus_ops <= 0.0:
            return [trivial for _ in sizes]

        shared_miss = self.sr_miss_frac + self.sw_miss_frac
        sw_bc = self.mix.sw_broadcast(self.mods)
        hp = self.holder_probability
        p_a = (self.p_rr / bus_ops) * shared_miss * hp
        p_b = (sw_bc / bus_ops) * hp
        p = p_a + p_b
        if p <= 0.0:
            return [trivial for _ in sizes]

        supplied = (w.csupply_sro * self.sr_miss_frac
                    + w.csupply_sw * self.sw_miss_frac)
        no_reqwb = 1.0 - (w.rep_p * w.p_private + w.rep_sw * w.p_sw)
        t_block = self.arch.block_transfer_cycles
        extra_wb = 0.0 if 2 in self.mods else w.wb_csupply
        swc_sup = w.rep_p * w.p_private + w.rep_sw * w.p_sw
        pa_over_p = p_a / p
        tail = t_block + (extra_wb + swc_sup) * t_block

        out: list[CacheInterference] = []
        for n in sizes:
            if n <= 1:
                out.append(trivial)
                continue
            supply_share = (min(1.0 / ((n - 1) * hp), 1.0)
                            if hp > 0.0 else 0.0)
            p_prime = min(p_b + p_a * supply_share * supplied * no_reqwb, p)
            t_interference = 1.0 + pa_over_p * supply_share * supplied * tail
            out.append(CacheInterference(p=p, p_prime=p_prime,
                                         t_interference=t_interference))
        return out


def _replacement_writeback(
    w: WorkloadParameters,
    mix: ReferenceMix,
    p_rr: float,
    weighting: ReplacementWeighting,
) -> float:
    """P(the requesting cache must write back the victim | remote read)."""
    if weighting is ReplacementWeighting.REFERENCE_MIX:
        return w.rep_p * w.p_private + w.rep_sw * w.p_sw
    if p_rr <= 0.0:
        return 0.0
    return (w.rep_p * mix.private_miss + w.rep_sw * mix.sw_miss) / p_rr


def _clamp_probability(value: float) -> float:
    """Pin a derived probability into [0, 1].

    Sums and ratios of event-class products can round past 1 (e.g.
    ``p_rr = 1.0000000000000002`` when every reference misses).
    In-range values pass through bit-for-bit."""
    return min(1.0, max(0.0, value))


def derive_inputs(
    workload: WorkloadParameters,
    arch: ArchitectureParams | None = None,
    mods: Collection[int] = (),
    replacement_weighting: ReplacementWeighting = ReplacementWeighting.REFERENCE_MIX,
    holder_probability: float = 0.5,
) -> DerivedInputs:
    """Compute all model inputs for a workload under a modification set.

    Parameters
    ----------
    workload:
        Basic workload parameters.  Callers normally pass the output of
        :meth:`repro.protocols.ProtocolSpec.adjust_workload`, which
        applies the Appendix-A per-protocol overrides (rep_p, rep_sw,
        h_sw); this function applies only the *structural* consequences
        of the modifications (routing, timing, memory traffic).
    arch:
        Timing constants; defaults to the paper's values.
    mods:
        Active protocol modifications (subset of {1, 2, 3, 4}).
    replacement_weighting:
        How to weight per-stream replacement write-back rates.
    holder_probability:
        P(a specific other cache holds a referenced shared block) used
        by the Appendix-B interference formulas; 0.5 as printed, or the
        residency of an N-dependent sharing model.
    """
    if not 0.0 <= holder_probability <= 1.0:
        raise ValueError(
            f"holder_probability must be in [0, 1], got {holder_probability!r}")
    arch = arch or ArchitectureParams()
    mset = _validate_mods(mods)
    mix = ReferenceMix.from_workload(workload)

    p_local = _clamp_probability(mix.p_local(mset))
    p_bc = _clamp_probability(mix.p_broadcast(mset))
    p_rr = _clamp_probability(mix.p_remote_read(mset))

    if p_rr > 0.0:
        sr_miss_frac = mix.sro_miss / p_rr
        sw_miss_frac = mix.sw_miss / p_rr
    else:
        sr_miss_frac = sw_miss_frac = 0.0

    p_csup_rr = _clamp_probability(workload.csupply_sro * sr_miss_frac
                                   + workload.csupply_sw * sw_miss_frac)
    p_supplier_wb = p_csup_rr * workload.wb_csupply
    p_reqwb_rr = _clamp_probability(
        _replacement_writeback(workload, mix, p_rr, replacement_weighting))

    t_block = arch.block_transfer_cycles
    if 2 in mset:
        # A wback holder supplies cache-to-cache (no memory latency, no
        # memory update); clean copies still come from memory.
        t_read = (p_supplier_wb * arch.cache_supply_cycles
                  + (1.0 - p_supplier_wb) * arch.base_read_cycles
                  + p_reqwb_rr * t_block)
        p_csupwb_rr = 0.0
    else:
        # Write-Once: the wback holder first flushes the block to memory
        # (one extra block transfer), then memory supplies the data.
        t_read = (arch.base_read_cycles
                  + p_supplier_wb * t_block
                  + p_reqwb_rr * t_block)
        p_csupwb_rr = p_supplier_wb

    t_bc = arch.invalidate_cycles if 3 in mset else arch.write_word_cycles
    bc_updates_memory = 3 not in mset

    return DerivedInputs(
        workload=workload,
        arch=arch,
        mods=mset,
        mix=mix,
        p_local=p_local,
        p_bc=p_bc,
        p_rr=p_rr,
        t_read=t_read,
        t_bc=t_bc,
        p_csupwb_rr=p_csupwb_rr,
        p_csup_rr=p_csup_rr,
        p_reqwb_rr=p_reqwb_rr,
        bc_updates_memory=bc_updates_memory,
        sr_miss_frac=sr_miss_frac,
        sw_miss_frac=sw_miss_frac,
        holder_probability=holder_probability,
    )
