"""The traced run's layer ledger: spans around the program's public calls.

A :class:`Ledger` rebinds a fixed list of the program's public functions
and methods to timing wrappers for the length of one traced round, then
puts the originals back.  Spans (name, start, end, parent) are kept in
memory and written out as JSONL when the benchmark ends.  The wrappers
live here, in the benchmark, so the program itself is unchanged: its own
telemetry is read, not modified.  Top-level estimator calls get a
per-call ``RunConfig(manifest=..., trace=...)`` so that the in-worker
shard seconds (``TaskTelemetry``, folded into the run manifest) and the
program's own ``merge`` spans can be attributed to the call that caused
them.

Spans are recorded only in the benchmark's own process: a forked pool
worker inherits the wrappers, but its spans could never reach the parent
and are dropped.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import statistics
import sys
import threading
import time
from pathlib import Path

#: Span names of the top-level calls whose manifests and program traces
#: are read back: one run manifest per call, so shard telemetry is
#: attributed to the call, and hence to the kernel, that produced it.
CALL_SPANS = {
    "kernels.joined.estimate_non_manifestation",
    "sim.measure_critical_windows",
    "litmus.explore.explore_exhaustive",
    "litmus.explore.explore_random",
    "service.estimators.run_estimator",
}


@dataclasses.dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Ledger:
    """Spans and per-call telemetry of the traced rounds of one run."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.spans: list[Span] = []
        self.calls: list[Span] = []  # CALL_SPANS entries, in start order
        self.telemetry: dict[int, dict] = {}  # call id -> _call_telemetry
        self.pool_starts = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pid = os.getpid()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, name: str, function, before=None, after=None):
        ledger = self

        def wrapper(*args, **kwargs):
            if os.getpid() != ledger._pid:
                return function(*args, **kwargs)
            stack = ledger._stack()
            span = Span(next(ledger._ids), name,
                        stack[-1].id if stack else None, 0.0)
            if before is not None:
                args, kwargs = before(span, args, kwargs)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                ledger.spans.append(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        wrapper.__wrapped__ = function
        return wrapper

    def _inject_telemetry(self, span, args, kwargs):
        """Give a top-level call its own manifest and program trace.

        A call nested in another top-level call (a service job's
        ``explore_random``) shares its parent's manifest and is not
        counted twice.
        """
        if any(open_span.name in CALL_SPANS for open_span in self._stack()):
            return args, kwargs
        self.calls.append(span)
        if span.name == "service.estimators.run_estimator":
            # The service already gives every job its own manifest.
            span.attrs["estimator"] = args[0]
            span.attrs["manifest"] = str(args[2].manifest)
            return args, kwargs
        stem = self.scratch / f"call-{span.id}"
        config = dataclasses.replace(kwargs["config"], manifest=f"{stem}.json",
                                     trace=f"{stem}.jsonl")
        span.attrs.update(manifest=config.manifest, trace=config.trace,
                          backend=config.backend)
        return args, dict(kwargs, config=config)

    # -- installation ----------------------------------------------------

    def _rebind_function(self, function, name: str, **hooks) -> None:
        """Replace every binding of ``function`` in the program's modules."""
        wrapper = self._timed(name, function, **hooks)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith(("repro", "perfbench")):
                continue
            namespace = getattr(module, "__dict__", {})
            for key, value in list(namespace.items()):
                if value is function:
                    self._restore.append((module, key, value))
                    setattr(module, key, wrapper)

    def _rebind_method(self, owner, attribute: str, name: str, **hooks) -> None:
        original = owner.__dict__[attribute]
        self._restore.append((owner, attribute, original))
        setattr(owner, attribute, self._timed(name, original, **hooks))

    def install(self) -> None:
        from repro.cache.store import ShardStore
        from repro.core import manifestation
        from repro.litmus import explore, generate
        from repro.runconfig import RunConfig
        from repro.service import estimators, jobs, schemas
        from repro.sim import measurement
        from repro.stats import faults, parallel, transport
        from repro.stats.checkpoint import ShardCheckpoint

        call = {"before": self._inject_telemetry}
        self._rebind_method(RunConfig, "resolve", "runconfig.resolve")
        self._rebind_method(parallel.ShardPlan, "shard_trials",
                            "stats.parallel.plan")
        self._rebind_method(parallel.ShardPlan, "shard_sources",
                            "stats.rng.shard_sources")
        for layout in (transport.BernoulliLayout, transport.CategoricalLayout,
                       transport.WindowLayout):
            self._rebind_method(layout, "unpack", "stats.transport.unpack")
        self._rebind_method(ShardStore, "get", "cache.store.get",
                            after=_record_cache_hit)
        self._rebind_method(ShardStore, "put", "cache.store.put",
                            after=_record_entry_bytes)
        self._rebind_method(ShardCheckpoint, "record", "stats.checkpoint.record")
        self._rebind_method(jobs.JobRegistry, "save", "service.jobs.save",
                            after=_record_snapshot_bytes)
        for function, name, hooks in (
            (parallel.run_sharded, "stats.parallel.run_sharded",
             {"after": _record_payload}),
            (parallel.parallel_map, "stats.parallel.parallel_map", {}),
            (faults.execute_tasks, "stats.faults.execute_tasks",
             {"before": _record_workers}),
            (manifestation.estimate_non_manifestation,
             "kernels.joined.estimate_non_manifestation", call),
            (measurement.measure_critical_windows,
             "sim.measure_critical_windows", call),
            (explore.explore_exhaustive, "litmus.explore.explore_exhaustive", call),
            (explore.explore_random, "litmus.explore.explore_random", call),
            (generate.generate_family, "litmus.generate.generate_family", {}),
            (schemas.parse_submit, "service.schemas.parse_submit", {}),
            (estimators.job_key, "service.estimators.job_key", {}),
            (estimators.run_estimator, "service.estimators.run_estimator", call),
        ):
            self._rebind_function(function, name, **hooks)

        ledger = self
        pool_class = faults.ProcessPoolExecutor

        class CountingPool(pool_class):
            def __init__(self, *args, **kwargs):
                if os.getpid() == ledger._pid:
                    ledger.pool_starts += 1
                super().__init__(*args, **kwargs)

        self._restore.append((faults, "ProcessPoolExecutor", pool_class))
        faults.ProcessPoolExecutor = CountingPool

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def harvest(self) -> None:
        """Read the round's call telemetry before its state directory goes."""
        for call in self.calls:
            if call.id not in self.telemetry:
                self.telemetry[call.id] = _call_telemetry(call)

    # -- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (seconds since the first span)."""
        origin = min((span.start for span in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda span: span.start):
                handle.write(json.dumps({
                    "id": span.id, "name": span.name, "parent": span.parent,
                    "start": span.start - origin, "end": span.end - origin,
                    "attrs": span.attrs}) + "\n")

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover.

        Children share their parent's thread and nest inside it, so the
        covered time is the plain sum of the children's durations.
        """
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] = child_time.get(span.parent, 0.0) + span.seconds
        totals: dict[str, float] = {}
        for span in self.spans:
            own = span.seconds - child_time.get(span.id, 0.0)
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals


def _record_cache_hit(span, args, kwargs, result) -> None:
    default = args[2] if len(args) > 2 else kwargs.get("default")
    span.attrs["hit"] = result is not default


def _record_entry_bytes(span, args, kwargs, result) -> None:
    store, key = args[0], args[1]
    span.attrs["bytes"] = store._entry_path(key).stat().st_size


def _record_snapshot_bytes(span, args, kwargs, result) -> None:
    registry = args[0]
    if registry.path is not None:
        span.attrs["bytes"] = registry.path.stat().st_size


def _record_workers(span, args, kwargs):
    span.attrs["workers"] = kwargs.get("workers", args[2] if len(args) > 2 else 1)
    span.attrs["tasks"] = len(args[1]) - len(kwargs.get("completed") or {})
    return args, kwargs


def _record_payload(span, args, kwargs, result) -> None:
    from repro.stats.transport import pickled_payload_bytes
    span.attrs["payload_bytes"] = [pickled_payload_bytes(part) for part in result]


def _call_telemetry(call: Span) -> dict:
    """In-worker busy seconds, executed trials, retries and merge time."""
    with open(call.attrs["manifest"], encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
    executed = [shard for run in runs for shard in run["shards"]
                if not shard["resumed"]]
    merge = 0.0
    if "trace" in call.attrs and os.path.exists(call.attrs["trace"]):
        with open(call.attrs["trace"], encoding="utf-8") as handle:
            merge = sum(json.loads(line)["duration"] for line in handle
                        if '"merge"' in line)
    return {"busy": sum(shard["seconds"] for shard in executed),
            "trials": sum(shard["trials"] for shard in executed),
            "retries": sum(len(run["retry_ledger"]) for run in runs),
            "merge": merge}


def layer_metrics(ledger: Ledger, rounds: int) -> dict[str, float]:
    """Fold the spans and the per-call telemetry into the layer metrics.

    Times and counts are per traced round; ratios are ratios of totals.
    """
    by_id = {span.id: span for span in ledger.spans}
    names: dict[str, list[Span]] = {}
    for span in ledger.spans:
        names.setdefault(span.name, []).append(span)

    def total(name: str) -> float:
        return sum(span.seconds for span in names.get(name, ()))

    def count(name: str) -> int:
        return len(names.get(name, ()))

    def enclosing_call(span: Span) -> Span | None:
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name in CALL_SPANS:
                return span
        return None

    telemetry = ledger.telemetry
    busy = {call_id: entry["busy"] for call_id, entry in telemetry.items()}
    trials = {call_id: entry["trials"] for call_id, entry in telemetry.items()}
    retries = sum(entry["retries"] for entry in telemetry.values())
    merge = {"stats.montecarlo": 0.0, "litmus.explore": 0.0}
    for call in ledger.calls:
        merge["litmus.explore" if call.name.startswith("litmus") else
              "stats.montecarlo"] += telemetry[call.id]["merge"]

    dispatch = 0.0
    capacity = 0.0
    pooled_busy = 0.0
    for span in names.get("stats.faults.execute_tasks", ()):
        call = enclosing_call(span)
        if call is None or call.id not in busy or span.attrs["tasks"] == 0:
            continue
        width = max(1, min(span.attrs["workers"] or 1, span.attrs["tasks"]))
        dispatch += span.seconds - busy[call.id] / width
        capacity += span.seconds * width
        pooled_busy += busy[call.id]

    def busy_of(predicate) -> tuple[float, int]:
        chosen = [call for call in ledger.calls if call.id in busy and predicate(call)]
        return (sum(busy[call.id] for call in chosen),
                sum(trials[call.id] for call in chosen))

    joined_busy, joined_trials = busy_of(
        lambda call: call.name.startswith("kernels.joined")
        or (call.name == "service.estimators.run_estimator"
            and call.attrs.get("estimator") == "non_manifestation"))
    sim_busy, _ = busy_of(lambda call: call.name.startswith("sim.")
                          and call.attrs["backend"] != "vectorized")
    machine_busy, _ = busy_of(lambda call: call.name.startswith("sim.")
                              and call.attrs["backend"] == "vectorized")
    sample_busy, samples = busy_of(
        lambda call: call.name == "litmus.explore.explore_random")
    gets = names.get("cache.store.get", ())
    hits = sum(1 for span in gets if span.attrs["hit"])
    payloads = [size for span in names.get("stats.parallel.run_sharded", ())
                for size in span.attrs.get("payload_bytes", ())]
    saves = names.get("service.jobs.save", ())

    per_round = 1.0 / rounds
    return {
        "runconfig.resolve_s": total("runconfig.resolve") * per_round,
        "stats.parallel.runs": (count("stats.parallel.run_sharded")
                                + count("stats.parallel.parallel_map")) * per_round,
        "stats.parallel.plan_s": (total("stats.parallel.plan")
                                  + total("stats.rng.shard_sources")) * per_round,
        "stats.faults.pool_starts": ledger.pool_starts * per_round,
        "stats.faults.dispatch_s": dispatch * per_round,
        "stats.faults.worker_busy_frac": pooled_busy / capacity if capacity else 0.0,
        "stats.faults.retries": retries * per_round,
        "kernels.joined.busy_s": joined_busy * per_round,
        "kernels.joined.trials_per_busy_s": joined_trials / joined_busy if joined_busy else 0.0,
        "sim.busy_s": sim_busy * per_round,
        "kernels.machine.busy_s": machine_busy * per_round,
        "litmus.explore.sample_busy_s": sample_busy * per_round,
        "litmus.explore.samples_per_busy_s": samples / sample_busy if sample_busy else 0.0,
        "litmus.enumerator.enumerate_s": total("litmus.explore.explore_exhaustive") * per_round,
        "litmus.generate.generate_s": total("litmus.generate.generate_family") * per_round,
        "stats.transport.payload_bytes": statistics.fmean(payloads) if payloads else 0.0,
        "stats.transport.shm_shards": count("stats.transport.unpack") * per_round,
        "stats.transport.unpack_s": total("stats.transport.unpack") * per_round,
        "stats.montecarlo.merge_s": merge["stats.montecarlo"] * per_round,
        "litmus.explore.merge_s": merge["litmus.explore"] * per_round,
        "cache.store.get_s": total("cache.store.get") * per_round,
        "cache.store.put_s": total("cache.store.put") * per_round,
        "cache.store.bytes_written": sum(span.attrs["bytes"] for span in
                                         names.get("cache.store.put", ())) * per_round,
        "cache.store.hits": hits * per_round,
        "cache.store.misses": (len(gets) - hits) * per_round,
        "cache.store.hit_ratio": hits / len(gets) if gets else 0.0,
        "stats.checkpoint.record_s": total("stats.checkpoint.record") * per_round,
        "stats.checkpoint.records": count("stats.checkpoint.record") * per_round,
        "service.schemas.parse_s": total("service.schemas.parse_submit") * per_round,
        "service.estimators.job_key_s": total("service.estimators.job_key") * per_round,
        "service.jobs.save_s": total("service.jobs.save") * per_round,
        "service.jobs.saves": len(saves) * per_round,
        "service.jobs.snapshot_bytes": (statistics.fmean(span.attrs["bytes"] for span in saves)
                                        if saves else 0.0),
    }
