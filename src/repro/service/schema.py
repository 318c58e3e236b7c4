"""Typed request schemas for the evaluation service.

:class:`SolveRequest` and :class:`GridRequest` are the single parsing
layer behind both the versioned ``/v1`` endpoints and the legacy
unversioned ones: every field is validated here, with field names
aligned to the ``repro grid`` CLI flags (``--protocols`` ->
``protocols``, ``-n`` -> ``n``, ``--simulate`` -> ``simulate``,
``--jobs`` -> ``jobs``, ...), so a request body reads like the
equivalent command line.

Parsing raises :class:`ServiceError`, which carries an HTTP status, a
stable machine-readable ``code`` (the ``/v1`` error envelope) and
optional structured ``details``.  ``from_payload(..., strict=True)``
-- the ``/v1`` behaviour -- additionally rejects unknown top-level
fields with a structured 400, so client typos fail loudly instead of
being silently ignored; the legacy endpoints keep the historical
lenient behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar

from repro.analysis.grid import GridSpec
from repro.protocols.family import PROTOCOLS
from repro.protocols.modifications import ProtocolSpec, parse_mods
from repro.workload.parameters import (
    ArchitectureParams,
    SharingLevel,
    WorkloadParameters,
    appendix_a_workload,
)

#: Values the deprecated ``engine`` request field (and the ``--engine``
#: CLI flag) still accepts.  It has no effect: the executor picks the
#: MVA engine itself (batch for two or more cells, scalar for one).
ENGINES = ("scalar", "batch")

#: RFC 8594 headers on every response to a request that sets ``engine``
#: (the field is removed after the ``Sunset`` date).
ENGINE_DEPRECATION_HEADERS = (("Deprecation", "true"),
                              ("Sunset", "Thu, 01 Apr 2027 00:00:00 GMT"))

_SHARING_BY_NAME = {
    "1": SharingLevel.ONE_PERCENT,
    "5": SharingLevel.FIVE_PERCENT,
    "20": SharingLevel.TWENTY_PERCENT,
}

#: Default error code per HTTP status for errors raised without an
#: explicit one.
_DEFAULT_CODES = {
    400: "bad-request",
    404: "not-found",
    405: "method-not-allowed",
    413: "payload-too-large",
    500: "internal-error",
}


class ServiceError(Exception):
    """A client-visible request failure with an HTTP status code.

    ``code`` is a stable machine-readable identifier (defaulted from
    the status when not given) surfaced in the ``/v1`` error envelope;
    ``details`` (optional) is structured context -- merged into the
    legacy JSON error body, and carried under ``error.detail`` on
    ``/v1`` -- so a total sweep failure can still report its per-cell
    failure records.
    """

    def __init__(self, status: int, message: str,
                 details: dict[str, Any] | None = None,
                 code: str | None = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.details = details
        self.code = code if code is not None else _DEFAULT_CODES.get(
            status, "error")


def require(condition: bool, message: str, code: str | None = None) -> None:
    """Raise a 400 :class:`ServiceError` unless ``condition`` holds."""
    if not condition:
        raise ServiceError(400, message, code=code)


def reject_unknown_fields(payload: dict[str, Any],
                          allowed: frozenset[str]) -> None:
    """The strict (``/v1``) top-level field check."""
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise ServiceError(
            400,
            "unknown field(s) " + ", ".join(repr(f) for f in unknown),
            details={"unknown": unknown, "allowed": sorted(allowed)},
            code="unknown-field")


def parse_protocol(value: Any) -> ProtocolSpec:
    require(isinstance(value, str), "'protocol' must be a string "
            "(a named protocol or a modification list like '1,4')")
    name = value.strip().lower()
    if name in PROTOCOLS:
        return PROTOCOLS[name]
    try:
        return parse_mods(value)
    except ValueError as exc:
        raise ServiceError(400, f"unknown protocol {value!r}: {exc}",
                           code="unknown-protocol") from exc


def parse_sharing(value: Any) -> SharingLevel:
    key = str(value).strip().rstrip("%")
    level = _SHARING_BY_NAME.get(key)
    require(level is not None, f"unknown sharing level {value!r} "
            f"(expected one of {sorted(_SHARING_BY_NAME)})")
    assert level is not None
    return level


def parse_sizes(value: Any, field: str) -> tuple[int, ...]:
    if isinstance(value, int) and not isinstance(value, bool):
        value = [value]
    require(isinstance(value, list) and value
            and all(isinstance(n, int) and not isinstance(n, bool)
                    and n >= 1 for n in value),
            f"{field!r} must be a positive integer or a non-empty "
            "list of positive integers")
    return tuple(value)


def parse_engine(value: Any) -> str | None:
    """The deprecated MVA backend field: validated, then ignored."""
    if value is None:
        return None
    require(isinstance(value, str) and value in ENGINES,
            f"'engine' must be one of {list(ENGINES)}, got {value!r}")
    return value


def parse_int_field(payload: dict[str, Any], field: str, default: int,
                    minimum: int = 1) -> int:
    value = payload.get(field, default)
    bound = ("a positive integer" if minimum > 0
             else f"an integer >= {minimum}")
    require(isinstance(value, int) and not isinstance(value, bool)
            and value >= minimum, f"{field!r} must be {bound}")
    return value


def parse_overrides(payload: dict[str, Any], key: str,
                    base: Any, cls: type) -> Any:
    """Apply a JSON object of field overrides to a frozen dataclass."""
    overrides = payload.get(key)
    if overrides is None:
        return base
    require(isinstance(overrides, dict),
            f"{key!r} must be an object of field overrides")
    try:
        return base.replace(**overrides)
    except (TypeError, ValueError) as exc:
        raise ServiceError(400, f"bad {key!r} overrides: {exc}",
                           code="bad-overrides") from exc


@dataclass(frozen=True)
class SolveRequest:
    """``POST /v1/solve`` (and legacy ``/solve``): one protocol, N sizes.

    JSON schema::

        {"protocol": "berkeley" | "1,4",   # required
         "n": 10 | [2, 6, 10],             # required
         "sharing": "5",                   # optional, default "5"
         "workload": {"tau": 3.0, ...},    # optional field overrides
         "arch": {"block_size": 8, ...},   # optional field overrides
         "engine": "scalar" | "batch"}     # deprecated, no effect
    """

    protocol: ProtocolSpec
    sizes: tuple[int, ...]
    sharing: SharingLevel
    workload: WorkloadParameters
    arch: ArchitectureParams
    engine: str | None = None

    FIELDS: ClassVar[frozenset[str]] = frozenset(
        {"protocol", "n", "sharing", "workload", "arch", "engine"})

    @classmethod
    def from_payload(cls, payload: Any,
                     strict: bool = False) -> "SolveRequest":
        require(isinstance(payload, dict),
                "request body must be a JSON object")
        if strict:
            reject_unknown_fields(payload, cls.FIELDS)
        require("protocol" in payload, "missing required field 'protocol'",
                code="missing-field")
        require("n" in payload, "missing required field 'n'",
                code="missing-field")
        sharing = parse_sharing(payload.get("sharing", "5"))
        return cls(
            protocol=parse_protocol(payload["protocol"]),
            sizes=parse_sizes(payload["n"], "n"),
            sharing=sharing,
            workload=parse_overrides(payload, "workload",
                                     appendix_a_workload(sharing),
                                     WorkloadParameters),
            arch=parse_overrides(payload, "arch", ArchitectureParams(),
                                 ArchitectureParams),
            engine=parse_engine(payload.get("engine")),
        )


@dataclass(frozen=True)
class VerifyRequest:
    """``POST /v1/verify``: run the verification suite in-process.

    JSON schema::

        {"tier": "quick" | "full"}   # optional, default "quick"

    ``/v1``-only -- there is no legacy unversioned predecessor to stay
    compatible with, so the endpoint is always strict.
    """

    tier: str = "quick"

    FIELDS: ClassVar[frozenset[str]] = frozenset({"tier"})

    @classmethod
    def from_payload(cls, payload: Any,
                     strict: bool = False) -> "VerifyRequest":
        require(isinstance(payload, dict),
                "request body must be a JSON object")
        if strict:
            reject_unknown_fields(payload, cls.FIELDS)
        tier = payload.get("tier", "quick")
        from repro.verify.runner import TIERS
        require(isinstance(tier, str) and tier in TIERS,
                f"'tier' must be one of {list(TIERS)}, got {tier!r}",
                code="unknown-tier")
        return cls(tier=tier)


@dataclass(frozen=True)
class GridRequest:
    """``POST /v1/grid`` (and legacy ``/grid``): a full sweep.

    JSON schema::

        {"protocols": ["write-once", "1,4"],  # required
         "n": [2, 4, 8],                      # required
         "sharing": ["1", "5"],               # optional, default all
         "simulate": false,                   # optional
         "requests": 40000,                   # optional (simulate)
         "seed": 1234,                        # optional (simulate)
         "jobs": 4,                           # optional worker count
         "engine": "scalar" | "batch"}        # deprecated, no effect
    """

    protocols: tuple[ProtocolSpec, ...]
    sizes: tuple[int, ...]
    sharing_levels: tuple[SharingLevel, ...]
    simulate: bool = False
    requests: int = 40_000
    seed: int = 1234
    jobs: int | None = None
    engine: str | None = None

    FIELDS: ClassVar[frozenset[str]] = frozenset(
        {"protocols", "n", "sharing", "simulate", "requests", "seed",
         "jobs", "engine"})

    @classmethod
    def from_payload(cls, payload: Any,
                     strict: bool = False) -> "GridRequest":
        require(isinstance(payload, dict),
                "request body must be a JSON object")
        if strict:
            reject_unknown_fields(payload, cls.FIELDS)
        require("protocols" in payload,
                "missing required field 'protocols'", code="missing-field")
        require("n" in payload, "missing required field 'n'",
                code="missing-field")
        raw_protocols = payload["protocols"]
        require(isinstance(raw_protocols, list) and bool(raw_protocols),
                "'protocols' must be a non-empty list")
        raw_sharing = payload.get("sharing")
        if raw_sharing is None:
            levels = tuple(SharingLevel)
        else:
            require(isinstance(raw_sharing, list) and bool(raw_sharing),
                    "'sharing' must be a non-empty list")
            levels = tuple(parse_sharing(item) for item in raw_sharing)
        jobs = payload.get("jobs")
        if jobs is not None:
            require(isinstance(jobs, int) and not isinstance(jobs, bool)
                    and jobs >= 1, "'jobs' must be a positive integer")
        return cls(
            protocols=tuple(parse_protocol(item) for item in raw_protocols),
            sizes=parse_sizes(payload["n"], "n"),
            sharing_levels=levels,
            simulate=bool(payload.get("simulate", False)),
            requests=parse_int_field(payload, "requests", 40_000),
            seed=parse_int_field(payload, "seed", 1234, minimum=0),
            jobs=jobs,
            engine=parse_engine(payload.get("engine")),
        )

    @property
    def cell_count(self) -> int:
        """Cells the sweep will evaluate (double when simulating)."""
        return (len(self.protocols) * len(self.sharing_levels)
                * len(self.sizes) * (2 if self.simulate else 1))

    def spec(self) -> GridSpec:
        """The executor-facing grid specification."""
        return GridSpec(
            protocols=self.protocols, sizes=self.sizes,
            sharing_levels=self.sharing_levels,
            include_simulation=self.simulate,
            sim_requests=self.requests, sim_seed=self.seed)


@dataclass(frozen=True)
class SweepRequest:
    """``POST /v1/sweep``: submit an asynchronous sharded sweep.

    JSON schema::

        {"protocols": ["write-once", "1,4"],  # required
         "n": [2, 4, 8],                      # required
         "sharing": ["1", "5"],               # optional, default all
         "simulate": false,                   # optional
         "requests": 40000,                   # optional (simulate)
         "seed": 1234,                        # optional (simulate)
         "workers": 4,                        # optional worker count
         "chunk_size": 64}                    # optional cells/chunk

    ``/v1``-only (always strict): the response is a job handle, not
    rows -- poll ``GET /v1/sweep/{job_id}`` for progress and fetch the
    rows with a ``/v1/grid`` request once done (every solved cell lands
    in the shared result cache).  There is no ``engine`` field: sweep
    workers solve MVA chunks with the vectorized batch engine
    (byte-identical to scalar).
    """

    protocols: tuple[ProtocolSpec, ...]
    sizes: tuple[int, ...]
    sharing_levels: tuple[SharingLevel, ...]
    simulate: bool = False
    requests: int = 40_000
    seed: int = 1234
    workers: int | None = None
    chunk_size: int | None = None

    FIELDS: ClassVar[frozenset[str]] = frozenset(
        {"protocols", "n", "sharing", "simulate", "requests", "seed",
         "workers", "chunk_size"})

    @classmethod
    def from_payload(cls, payload: Any,
                     strict: bool = False) -> "SweepRequest":
        require(isinstance(payload, dict),
                "request body must be a JSON object")
        if strict:
            reject_unknown_fields(payload, cls.FIELDS)
        base = GridRequest.from_payload(
            {key: value for key, value in payload.items()
             if key in GridRequest.FIELDS})
        for field in ("workers", "chunk_size"):
            value = payload.get(field)
            if value is not None:
                require(isinstance(value, int)
                        and not isinstance(value, bool) and value >= 1,
                        f"{field!r} must be a positive integer")
        return cls(
            protocols=base.protocols, sizes=base.sizes,
            sharing_levels=base.sharing_levels, simulate=base.simulate,
            requests=base.requests, seed=base.seed,
            workers=payload.get("workers"),
            chunk_size=payload.get("chunk_size"))

    @property
    def cell_count(self) -> int:
        return (len(self.protocols) * len(self.sharing_levels)
                * len(self.sizes) * (2 if self.simulate else 1))

    def spec(self) -> GridSpec:
        return GridSpec(
            protocols=self.protocols, sizes=self.sizes,
            sharing_levels=self.sharing_levels,
            include_simulation=self.simulate,
            sim_requests=self.requests, sim_seed=self.seed)
