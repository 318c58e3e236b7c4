"""repro.service -- the solver packaged as an evaluation service.

The paper's selling point is that the customized MVA is cheap enough
for *interactive* design-space exploration.  This package turns the
solver into infrastructure that can serve that exploration at scale:

* :mod:`repro.service.keys`     -- content-addressed cache keys over
  (workload, protocol, arch, N, solver settings);
* :mod:`repro.service.cache`    -- an LRU result cache with an optional
  JSON-on-disk persistent store;
* :mod:`repro.service.metrics`  -- counters and histograms (cache hit
  rate, solve latency, iterations-to-convergence) with a Prometheus
  text exposition;
* :mod:`repro.service.executor` -- the sweep executor: one engine rule
  (:func:`~repro.service.executor.solve_cells`: one in-process batch
  solve for two or more MVA cells, one lockstep pack for vector-DES
  cells, the scalar path for the rest) shared with the queue and the
  coalescer, simulation fan-out over the chunked sweep queue
  (:mod:`repro.sweepq`), deterministic ordering, per-cell retry for
  simulation cells and graceful in-process fallback;
* :mod:`repro.service.schema`   -- the typed request schemas
  (:class:`SolveRequest`, :class:`GridRequest`, :class:`SweepRequest`)
  shared by the versioned and legacy endpoints;
* :mod:`repro.service.coalesce` -- the micro-batching request
  coalescer: concurrent ``/v1/solve`` cells queue while the solver is
  busy and are solved by one vectorized batch call as soon as it is
  free, with in-flight dedup and per-cell error fan-out;
* :mod:`repro.service.app`      -- the transport-agnostic service
  facade (solve / grid / sweep / jobs / capabilities / verify /
  health / metrics);
* :mod:`repro.service.router`   -- the shared route table and ``/v1``
  error envelope both HTTP transports dispatch through (including the
  410 ``gone`` answers on the retired legacy unversioned paths);
* :mod:`repro.service.http`     -- the threaded stdlib HTTP front-end
  behind ``repro serve``;
* :mod:`repro.service.aio`      -- the asyncio front-end behind
  ``repro serve --async``: thousands of concurrent connections without
  one thread each, awaiting the shared coalescer natively on the event
  loop.
"""

from repro.service.app import ModelService, ServiceError
from repro.service.cache import CacheStats, ResultCache
from repro.service.coalesce import SolveCoalescer
from repro.service.executor import (
    CellFailedError,
    CellTask,
    ExecutorSummary,
    FailedCell,
    SweepExecutor,
    SweepResult,
    collect_sweep_result,
    evaluate_mva_batch,
    tasks_for_spec,
)
from repro.service.schema import (
    ENGINES,
    GridRequest,
    SolveRequest,
    SweepRequest,
)
from repro.service.aio import (
    AsyncServerHandle,
    AsyncServiceServer,
    serve_async,
    start_async_server,
)
from repro.service.http import ServiceHTTPServer, start_server
from repro.service.keys import canonical_key, canonicalize, task_key
from repro.service.metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "AsyncServerHandle",
    "AsyncServiceServer",
    "CacheStats",
    "CellFailedError",
    "CellTask",
    "Counter",
    "ENGINES",
    "ExecutorSummary",
    "FailedCell",
    "Gauge",
    "GridRequest",
    "Histogram",
    "MetricsRegistry",
    "ModelService",
    "ResultCache",
    "ServiceError",
    "ServiceHTTPServer",
    "SolveCoalescer",
    "SolveRequest",
    "SweepExecutor",
    "SweepRequest",
    "SweepResult",
    "canonical_key",
    "canonicalize",
    "collect_sweep_result",
    "evaluate_mva_batch",
    "serve_async",
    "start_async_server",
    "start_server",
    "task_key",
    "tasks_for_spec",
]
