"""Job records and the persistent registry behind the estimation service.

A :class:`Job` is everything the service knows about one submission:
the dedup identity (:func:`~repro.service.estimators.job_key`), the
fully-defaulted params, the merged config in wire form, lifecycle state,
live progress, and — once finished — the result summary or error.  The
:class:`JobRegistry` owns every job, hands out sequential ids, and
persists itself as an append-only journal (``jobs.jsonl``) so a
restarted server can re-enqueue whatever had not finished.

The journal is a header line followed by one compact JSON record per
job state change; on load, the last record of each job id wins.  A
state change appends only the jobs it touched, so it costs O(1) however
many jobs the service has seen.  Compaction — one record per job,
written to a temp file and ``os.replace``d into place — runs on load,
on shutdown, and whenever the journal would hold more than twice as many
records as there are jobs, which keeps the file O(jobs) and appends
amortized O(1).  A hard kill mid-append can only tear the final line;
load skips it with a warning (the job falls back to its previous
record, and its shard journal still holds the finished shards).

Lifecycle is deliberately small::

    queued -> running -> done
                      -> failed

There is no separate "interrupted" state: graceful shutdown demotes
``running``/``queued`` jobs back to ``queued`` before persisting, and
the shard journal each job runs with means a resumed job re-executes
only the shards its previous life never finished.

The registry itself does no locking — the owning
:class:`~repro.service.server.EstimationService` serialises all
mutations under one lock (job execution happens *outside* that lock;
only state transitions take it).
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

__all__ = ["JOB_STATES", "Job", "JobRegistry"]

#: The complete lifecycle vocabulary, in transition order.
JOB_STATES = ("queued", "running", "done", "failed")

_JOURNAL_KIND = "repro/service-jobs"
_JOURNAL_FORMAT = 2
#: The single-document ``jobs.json`` snapshot of earlier releases, read
#: only to migrate it (:meth:`JobRegistry.from_snapshot`).
_SNAPSHOT_FORMAT = 1
_HEADER = json.dumps({"kind": _JOURNAL_KIND, "format": _JOURNAL_FORMAT}) + "\n"


@dataclass
class Job:
    """One submission's full record (mutable; wire form via ``to_wire``).

    ``key`` is the dedup identity — several submissions may share it
    (``dedup_hits`` counts the collapsed ones); ``id`` is unique per
    job.  ``config_wire`` stores the *merged client-visible* config
    (request overrides folded over the server default) — the managed
    checkpoint/cache/manifest paths are derived from the state directory
    at execution time, so a journal moved to a new state directory
    still resumes correctly.
    """

    id: str
    key: str
    estimator: str
    params: dict[str, Any]
    config_wire: dict[str, Any]
    priority: int = 0
    state: str = "queued"
    dedup_hits: int = 0
    created_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    progress: dict[str, Any] | None = None
    result: dict[str, Any] | None = None
    error: str | None = None

    def to_wire(self) -> dict[str, Any]:
        """The job as a JSON-ready dict (also the persistence format)."""
        wire = asdict(self)
        wire["params"] = dict(self.params)
        wire["config_wire"] = dict(self.config_wire)
        if self.progress is not None:
            wire["progress"] = dict(self.progress)
        return wire

    @classmethod
    def from_wire(cls, payload: dict[str, Any]) -> "Job":
        known = {spec for spec in cls.__dataclass_fields__}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown job field(s) in job record: {unknown}")
        try:
            job = cls(**payload)
        except TypeError as error:  # a required field is missing
            raise ValueError(f"malformed job record: {error}") from error
        if job.state not in JOB_STATES:
            raise ValueError(f"unknown job state {job.state!r} in job record; "
                             f"known: {JOB_STATES}")
        return job

    def mark_running(self) -> None:
        self.state = "running"
        self.started_at = time.time()

    def mark_done(self, result: dict[str, Any]) -> None:
        self.state = "done"
        self.result = result
        self.error = None
        self.finished_at = time.time()

    def mark_failed(self, error: str) -> None:
        self.state = "failed"
        self.error = error
        self.finished_at = time.time()

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed")


_FIELDS = tuple(Job.__dataclass_fields__)


def _record_line(job: Job) -> str:
    """One compact journal line: ``to_wire``'s content without its copies."""
    return json.dumps({name: getattr(job, name) for name in _FIELDS},
                      separators=(",", ":")) + "\n"


class JobRegistry:
    """Every job the service has accepted, persisted as a job journal.

    ``path=None`` keeps the registry purely in memory (unit tests).
    ``load`` + ``unfinished`` + the service's re-enqueue implement the
    resume-on-restart contract documented in ``docs/SERVICE.md``.
    ``skipped_lines`` counts the torn final line the last :meth:`load`
    dropped (0 or 1).
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._jobs: dict[str, Job] = {}
        self._by_key: dict[str, str] = {}
        self._seq = 0
        # Job records in the journal file; None until this registry has
        # written the file (the first save compacts, writing the header).
        self._records: int | None = None
        self.skipped_lines = 0

    # -- lookup --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._jobs)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._jobs

    def get(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """Every job, oldest first (ids are sequential)."""
        return [self._jobs[job_id] for job_id in sorted(self._jobs)]

    def find_dedup_target(self, key: str) -> Job | None:
        """The live job an identical submission should collapse onto.

        The newest job with this ``key`` that did not fail — a failed
        job must not absorb new submissions (the retry would never
        happen), so after a failure the next identical submission starts
        fresh (and still finds the dead job's shards in cache/journal).
        """
        job_id = self._by_key.get(key)
        if job_id is None:
            return None
        job = self._jobs[job_id]
        return None if job.state == "failed" else job

    def unfinished(self) -> list[Job]:
        """Jobs a restarted server must re-enqueue (oldest first)."""
        return [job for job in self.jobs() if not job.finished]

    # -- mutation ------------------------------------------------------

    def create(self, *, key: str, estimator: str, params: dict[str, Any],
               config_wire: dict[str, Any], priority: int = 0) -> Job:
        """Mint a new ``queued`` job with the next sequential id."""
        self._seq += 1
        job = Job(id=f"job-{self._seq:05d}", key=key, estimator=estimator,
                  params=dict(params), config_wire=dict(config_wire),
                  priority=priority)
        self._jobs[job.id] = job
        self._by_key[key] = job.id
        return job

    # -- persistence ---------------------------------------------------

    def save(self, *changed: Job) -> None:
        """Persist to ``path`` (no-op when in-memory).

        With jobs, append one record per job and flush; with none, or
        when the appends would leave more than two records per job,
        compact instead.
        """
        if self.path is None:
            return
        if (not changed or self._records is None
                or self._records + len(changed) > 2 * len(self._jobs)):
            self._compact()
            return
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write("".join(map(_record_line, changed)))
            handle.flush()
        self._records += len(changed)

    def _compact(self) -> None:
        """Atomically rewrite the journal as one record per job."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            handle.write(_HEADER)
            handle.write("".join(map(_record_line, self.jobs())))
        os.replace(tmp, self.path)
        self._records = len(self._jobs)

    def _adopt(self, jobs: list[Job]) -> None:
        """Install loaded jobs; sequence and dedup slots follow id order."""
        for job in jobs:
            self._jobs[job.id] = job
        for job in self.jobs():
            # Later jobs win the key slot, matching create() order.
            self._by_key[job.key] = job.id
            self._seq = max(self._seq, int(job.id.rpartition("-")[2]))

    @classmethod
    def load(cls, path: str | Path) -> "JobRegistry":
        """Rebuild a registry from its journal, then compact it.

        An absent file gives a fresh registry.  An undecodable *final*
        line is a torn append from a hard kill: it is skipped, counted in
        ``skipped_lines``, and reported on stderr.  A wrong or missing
        header, or a malformed line anywhere else, raises rather than
        silently starting empty: losing the job history would also
        orphan every journal and manifest under the state directory.
        """
        registry = cls(path)
        journal = registry.path
        if journal.exists():
            lines = journal.read_text(encoding="utf-8").splitlines()
            try:
                header = json.loads(lines[0]) if lines else None
            except json.JSONDecodeError:
                header = None
            kind = header.get("kind") if isinstance(header, dict) else None
            if kind != _JOURNAL_KIND:
                raise ValueError(f"{journal} is not a {_JOURNAL_KIND} journal "
                                 f"snapshot (header kind={kind!r})")
            if header.get("format") != _JOURNAL_FORMAT:
                raise ValueError(f"unsupported jobs journal format "
                                 f"{header.get('format')!r}")
            jobs: dict[str, Job] = {}
            for number, line in enumerate(lines[1:], start=2):
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError as error:
                    if number == len(lines):  # torn tail from a hard kill
                        registry.skipped_lines = 1
                        break
                    raise ValueError(f"{journal}:{number}: malformed job "
                                     f"record: {error}") from error
                if not isinstance(payload, dict):
                    raise ValueError(f"{journal}:{number}: job record is "
                                     "not a JSON object")
                job = Job.from_wire(payload)
                jobs[job.id] = job  # the last record of each job wins
            registry._adopt(list(jobs.values()))
            if registry.skipped_lines:
                print(f"[repro] warning: skipped a torn final line in job "
                      f"journal {journal}; that job change is lost, its "
                      "earlier record stands", file=sys.stderr)
        registry._compact()
        return registry

    @classmethod
    def from_snapshot(cls, snapshot: str | Path,
                      path: str | Path) -> "JobRegistry":
        """Migrate a format-1 ``jobs.json`` snapshot into a journal at
        ``path`` (compacted there; the snapshot file is left alone)."""
        snapshot_path = Path(snapshot)
        document = json.loads(snapshot_path.read_text(encoding="utf-8"))
        if document.get("kind") != _JOURNAL_KIND:
            raise ValueError(f"{snapshot_path} is not a {_JOURNAL_KIND} "
                             f"snapshot (kind={document.get('kind')!r})")
        if document.get("format") != _SNAPSHOT_FORMAT:
            raise ValueError(f"unsupported jobs snapshot format "
                             f"{document.get('format')!r}")
        registry = cls(path)
        registry._adopt([Job.from_wire(payload)
                         for payload in document.get("jobs", [])])
        registry._seq = max(registry._seq, int(document.get("seq", 0)))
        registry._compact()
        return registry
