"""``repro.service`` — estimation-as-a-service on the cache/checkpoint substrate.

Every estimator in this library is deterministic (seed-disciplined
shards), resumable (append-only shard journals), cached
(content-addressed shard store), observed (metrics + validated run
manifests), and configured through one validated
:class:`~repro.runconfig.RunConfig`.  That is exactly the substrate a
multi-tenant service needs — the ~7700x warm-cache speedup committed in
``BENCH_cache_reuse.json`` is the economics of serving repeated
Theorem 6.2/6.3 sweep queries from many users — so this package builds
the front half:

* :mod:`repro.service.schemas` — the JSON wire format: submission
  parsing/validation (strict: unknown fields and service-managed knobs
  are rejected loudly) and the :class:`ServiceError` HTTP error type.
* :mod:`repro.service.estimators` — the served estimator catalogue
  (name + typed param schema + runner) and :func:`job_key`, the dedup
  identity derived from the same knobs that enter the v2 ``plan_key``.
* :mod:`repro.service.jobs` — the :class:`Job` record, its lifecycle
  states, and the persistent :class:`JobRegistry` (an append-only
  ``jobs.jsonl`` journal; unfinished jobs resume on restart).
* :mod:`repro.service.queue` — the priority job queue: a shared worker
  pool draining jobs highest-priority-first, with a max-queued-jobs
  rate control (:class:`QueueFull`).
* :mod:`repro.service.server` — :class:`EstimationService` (submit,
  dedup, execute, persist, graceful shutdown) and the stdlib HTTP/JSON
  front end (``repro serve``); :data:`ROUTES` is the canonical route
  table the docs-consistency suite pins to ``docs/SERVICE.md``.
* :mod:`repro.service.client` — a tiny stdlib client
  (:class:`ServiceClient`) used by the CI smoke, the latency bench, and
  scripts.

The API reference, job lifecycle, dedup semantics, and the
resume-on-restart contract live in ``docs/SERVICE.md``.
"""

from .client import ServiceClient
from .estimators import ESTIMATORS, job_key, run_estimator, validate_params
from .jobs import JOB_STATES, Job, JobRegistry
from .queue import DEFAULT_MAX_QUEUED, JobQueue, QueueFull
from .schemas import SCHEMA_VERSION, ServiceError, SubmitRequest, parse_submit
from .server import ROUTES, EstimationService, ServiceHTTPServer, serve

__all__ = [
    "SCHEMA_VERSION",
    "ServiceError",
    "SubmitRequest",
    "parse_submit",
    "ESTIMATORS",
    "job_key",
    "run_estimator",
    "validate_params",
    "JOB_STATES",
    "Job",
    "JobRegistry",
    "DEFAULT_MAX_QUEUED",
    "JobQueue",
    "QueueFull",
    "ROUTES",
    "EstimationService",
    "ServiceHTTPServer",
    "serve",
    "ServiceClient",
]
