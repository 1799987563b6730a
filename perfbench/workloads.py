"""The four benchmark workloads.

Every workload runs in *rounds*.  ``setup(inputs)`` builds input set
number ``inputs`` from the workload seed (and, for the service, starts a
fresh server); it is timed as a set-up sample.  ``run(state)`` is the
timed phase and returns a :class:`RoundResult`, including every output
check that failed.  ``teardown(state)`` stops and deletes what ``setup``
made.
Batch workloads run uncached, so no round can serve another; each
service round gets a fresh state directory, so cold jobs stay cold.
See ``README.md`` for why each workload exists.
"""

from __future__ import annotations

import itertools
import math
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.manifestation import estimate_non_manifestation
from repro.core.memory_models import get_model
from repro.litmus.explore import check_convergence, explore_exhaustive, explore_random
from repro.litmus.generate import FamilySpec, generate_family
from repro.runconfig import RunConfig
from repro.service import ServiceClient, ServiceError, serve
from repro.sim.measurement import measure_critical_windows

#: Host has 2 cores: every workload uses at most two worker processes.
WORKERS = 2
SHARDS = 16

#: A binomial estimate may miss its reference by at most this many σ.
SIGMAS = 5.0


@dataclass
class Job:
    """One unit of work a user waits on, and how long they waited."""

    seconds: float
    kind: str  # "cold" (computed), "warm" (served from cache), "absorbed"


@dataclass
class RoundResult:
    seconds: float
    trials: int
    jobs: list[Job]
    operations: int  # shards for batch workloads, jobs for the service
    failures: int = 0
    errors: list[str] = field(default_factory=list)
    layers: dict[str, list[float]] = field(default_factory=dict)


def _round_rng(seed: int, inputs: int) -> np.random.Generator:
    return np.random.default_rng([seed, inputs])


def _within_sigmas(successes: int, trials: int, p: float) -> bool:
    return abs(successes / trials - p) <= SIGMAS * math.sqrt(p * (1 - p) / trials)


class JoinedSweep:
    """``estimate_non_manifestation`` over {SC, TSO, PSO, WO} × n ∈ {2, 3, 4}."""

    name = "joined-sweep"
    modules = ("repro.core.manifestation",)
    MODELS = ("SC", "TSO", "PSO", "WO")
    THREADS = (2, 3, 4)
    TRIALS = 100_000
    #: Closed forms (Thm 6.2): exact at n = 2 for every model and at any n
    #: for SC and WO.
    REFERENCE = {("SC", 2): 1 / 6, ("TSO", 2): 0.134313, ("PSO", 2): 0.147854,
                 ("WO", 2): 7 / 54, ("SC", 3): 0.0044643, ("WO", 3): 0.0024802}

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.config = RunConfig(workers=WORKERS, shards=SHARDS)

    def setup(self, inputs: int):
        seeds = _round_rng(self.seed, inputs).integers(2**31, size=12)
        points = [(model, n) for model in self.MODELS for n in self.THREADS]
        return [(get_model(model), n, int(point_seed))
                for (model, n), point_seed in zip(points, seeds)]

    def run(self, points) -> RoundResult:
        errors = []
        started = time.perf_counter()
        results = [estimate_non_manifestation(model, n, self.TRIALS, seed=seed,
                                              config=self.config)
                   for model, n, seed in points]
        seconds = time.perf_counter() - started
        for (model, n, seed), result in zip(points, results):
            reference = self.REFERENCE.get((model.name, n))
            if result.trials != self.TRIALS:
                errors.append(f"{model.name} n={n}: {result.trials} trials")
            elif reference is not None and not _within_sigmas(
                    result.successes, result.trials, reference):
                errors.append(f"{model.name} n={n} seed={seed}: "
                              f"{result.estimate:.6f} vs {reference}")
        return RoundResult(seconds, self.TRIALS * len(points),
                           [Job(seconds, "cold")],
                           operations=SHARDS * len(points), errors=errors)

    def teardown(self, points) -> None:
        pass


class MachineWindows:
    """``measure_critical_windows`` at n = 2 on the simulated multiprocessor."""

    name = "machine-windows"
    modules = ("repro.sim.measurement",)
    #: (model, backend, trials): WO has only the scalar interpreter.  The
    #: budgets give the vectorized kernels and the interpreter similar
    #: shares of the round.
    POINTS = (("SC", "vectorized", 200_000), ("TSO", "vectorized", 200_000),
              ("PSO", "vectorized", 200_000), ("WO", "scalar", 4_000))

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.configs = {backend: RunConfig(workers=WORKERS, shards=SHARDS,
                                           backend=backend)
                        for backend in ("vectorized", "scalar")}

    def setup(self, inputs: int):
        seeds = _round_rng(self.seed, inputs).integers(2**31, size=len(self.POINTS))
        return [(model, backend, trials, int(point_seed))
                for (model, backend, trials), point_seed in zip(self.POINTS, seeds)]

    def run(self, points) -> RoundResult:
        errors = []
        started = time.perf_counter()
        results = [measure_critical_windows(model, 2, trials, seed=seed,
                                            config=self.configs[backend])
                   for model, backend, trials, seed in points]
        seconds = time.perf_counter() - started
        for (model, backend, trials, seed), result in zip(points, results):
            # §3.2: a manifestation implies overlapping windows, every trial.
            if result.manifest_without_overlap != 0:
                errors.append(f"{model} seed={seed}: {result.manifest_without_overlap} "
                              "manifestations without window overlap")
            if result.trials != trials or result.durations.size != 2 * trials:
                errors.append(f"{model} seed={seed}: incomplete measurement")
        return RoundResult(seconds, sum(point[2] for point in points),
                           [Job(seconds, "cold")],
                           operations=SHARDS * len(points), errors=errors)

    def teardown(self, points) -> None:
        pass


class LitmusFamily:
    """Enumerate a fixed 2-thread family exhaustively, then sample it."""

    name = "litmus-family"
    modules = ("repro.litmus.generate",)
    MODELS = ("TSO", "PSO", "PSO-WB", "WO-NMCA")
    MEMBERS = 4
    TRIALS = 5_000
    #: The programs are members 0-3 of the default family at this seed in
    #: every run; the workload seed draws the sampling seeds.  Exhaustive
    #: enumeration cost varies about 25-fold between generated members
    #: (WO-NMCA takes 0.12-3.5 s), so seed-drawn programs would make the
    #: run time measure the draw rather than the code.
    FAMILY_SEED = 0

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.spec = FamilySpec()
        self.config = RunConfig(workers=WORKERS)

    def setup(self, inputs: int):
        seeds = _round_rng(self.seed, inputs).integers(
            2**31, size=(self.MEMBERS, len(self.MODELS)))
        return [[int(seed) for seed in row] for row in seeds]

    def run(self, seeds) -> RoundResult:
        errors = []
        started = time.perf_counter()
        members = generate_family(self.spec, self.MEMBERS, self.FAMILY_SEED)
        exhaustive = explore_exhaustive(members, self.MODELS, config=self.config)
        sampled = [explore_random(member, model, self.TRIALS, seed=seed,
                                  config=self.config)
                   for member, row in zip(members, seeds)
                   for model, seed in zip(self.MODELS, row)]
        seconds = time.perf_counter() - started
        coverage = []
        for table in sampled:
            report = check_convergence(
                table, exhaustive.outcome_set(table.test, table.model))
            coverage.append(report.coverage)
            if table.trials != self.TRIALS:
                errors.append(f"{table.test}/{table.model}: {table.trials} trials")
            if not report.contained:
                errors.append(f"{table.test}/{table.model}: sampled outcomes "
                              f"{sorted(report.escaped)} escape the exhaustive set")
        return RoundResult(seconds, self.TRIALS * len(sampled),
                           [Job(seconds, "cold")],
                           operations=SHARDS * len(sampled) + len(sampled),
                           errors=errors,
                           layers={"litmus.explore.coverage_ratio": coverage})

    def teardown(self, seeds) -> None:
        pass


@dataclass
class _ServiceRound:
    root: Path
    server: object
    thread: threading.Thread
    client: ServiceClient
    twins: list[tuple[dict, dict]]  # (params, cold result) of the warm set
    schedule: list[tuple[str, str, dict, int | None]]


class ServiceMixed:
    """An in-process ``repro serve`` driven by two closed-loop clients."""

    name = "service-mixed"
    modules = ("repro.service",)
    CLIENTS = 2
    WARM_SET = 10  # cold twins submitted during set-up
    NM_TRIALS = 10_000
    LITMUS_TRIALS = 1_000
    #: A round's schedule is BLOCKS blocks of these jobs, each block in
    #: its own seed-drawn order, so every stretch of the round has the
    #: same mix.  Every state change rewrites the whole job registry, so
    #: per-job cost grows with the round's length.
    BLOCK = ("cold", "cold", "warm", "warm", "absorbed", "litmus")
    BLOCKS = 10
    JOBS = len(BLOCK) * BLOCKS
    MODELS = ("SC", "TSO", "PSO", "WO")
    LITMUS_TESTS = ("SB", "MP", "LB", "CoRR")
    POLL_SECONDS = 0.005
    #: Sent with every job: 4 shards give each job cacheable shard entries.
    CONFIG = {"shards": 4}

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.servers = itertools.count()

    def setup(self, inputs: int) -> _ServiceRound:
        rng = _round_rng(self.seed, inputs)
        seeds = iter(int(value) for value in
                     rng.choice(2**31, size=self.WARM_SET + self.JOBS, replace=False))
        warm_set = [{"model": self.MODELS[index % 4], "trials": self.NM_TRIALS,
                     "seed": next(seeds)} for index in range(self.WARM_SET)]
        # Every kind, model, test and twin appears a fixed number of
        # times; only the seeds and the order come from the workload seed.
        jobs = {}
        for kind in dict.fromkeys(self.BLOCK):
            jobs[kind] = []
            for index in range(self.BLOCK.count(kind) * self.BLOCKS):
                if kind == "cold":
                    params = {"model": self.MODELS[index % 4],
                              "trials": self.NM_TRIALS, "seed": next(seeds)}
                    jobs[kind].append((kind, "non_manifestation", params, None))
                elif kind == "litmus":
                    params = {"test": self.LITMUS_TESTS[index % 4],
                              "model": self.MODELS[(index + index // 4) % 4],
                              "mode": "random",
                              "trials": self.LITMUS_TRIALS, "seed": next(seeds)}
                    jobs[kind].append((kind, "litmus_explore", params, None))
                else:
                    twin = index % self.WARM_SET
                    jobs[kind].append((kind, "non_manifestation", warm_set[twin], twin))
            jobs[kind] = [jobs[kind][index] for index in rng.permutation(len(jobs[kind]))]
        schedule = [jobs[self.BLOCK[slot]].pop()
                    for _ in range(self.BLOCKS)
                    for slot in rng.permutation(len(self.BLOCK))]

        root = self.scratch / f"service-{next(self.servers)}"
        server = serve("127.0.0.1", 0, root, default_config=RunConfig(), job_workers=1)
        # A short poll interval lets teardown's shutdown() return quickly.
        thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
        thread.start()
        client = ServiceClient(server.url, timeout=120.0)
        twins = []
        for params in warm_set:
            job_id = client.submit("non_manifestation", params, config=self.CONFIG)["job"]["id"]
            client.wait(job_id, timeout=120.0, poll_seconds=self.POLL_SECONDS)
            twins.append((params, client.result(job_id)))
        return _ServiceRound(root, server, thread, client, twins, schedule)

    def _one_job(self, state: _ServiceRound, operation, out: dict) -> None:
        kind, estimator, params, twin = operation
        client = state.client
        started = time.perf_counter()
        try:
            submitted = client.submit(estimator, params, config=self.CONFIG,
                                      dedup=kind != "warm")
        except ServiceError as error:  # a 429 or any refusal is a failure
            out["errors"].append(f"{kind} job refused: {error}")
            out["failures"] += 1
            return
        job_id = submitted["job"]["id"]
        polls = []
        while True:
            poll_started = time.perf_counter()
            record = client.job(job_id)
            polls.append(time.perf_counter() - poll_started)
            if record["state"] in ("done", "failed"):
                break
            time.sleep(self.POLL_SECONDS)
        latency = time.perf_counter() - started
        if record["state"] == "failed":
            out["errors"].append(f"{kind} job {job_id} failed: {record['error']}")
            out["failures"] += 1
            return
        result_started = time.perf_counter()
        result = client.result(job_id)
        out["result_s"].append(time.perf_counter() - result_started)
        out["polls"].extend(polls)
        out["polls_per_job"].append(len(polls))
        out["jobs"].append(Job(latency, {"absorbed": "absorbed",
                                         "warm": "warm"}.get(kind, "cold")))
        out["deduped"].append(bool(submitted["deduped"]))
        job = result["job"]
        if not submitted["deduped"]:
            out["queue_s"].append(job["started_at"] - job["created_at"])
            out["compute_s"].append(job["finished_at"] - job["started_at"])
        if kind in ("cold", "litmus"):
            out["trials"] += params["trials"]
        if twin is not None:
            if result["result"] != state.twins[twin][1]["result"]:
                out["errors"].append(f"{kind} job {job_id} differs from its cold twin")
        if kind == "warm":
            executed = [run["execution"]["executed_shards"]
                        for run in result["manifest"]["runs"]]
            if any(executed):
                out["errors"].append(f"warm job {job_id} executed {executed} shards")
        if kind == "absorbed" and not submitted["deduped"]:
            out["errors"].append(f"dedup resubmission {job_id} was not absorbed")

    def run(self, state: _ServiceRound) -> RoundResult:
        operations = iter(state.schedule)
        lock = threading.Lock()
        # One record per client thread, merged after both have joined.
        records = [{"errors": [], "failures": 0, "jobs": [], "trials": 0,
                    "deduped": [], "result_s": [], "polls": [], "polls_per_job": [],
                    "queue_s": [], "compute_s": []} for _ in range(self.CLIENTS)]

        def client_loop(out: dict) -> None:
            while True:
                with lock:
                    operation = next(operations, None)
                if operation is None:
                    return
                try:
                    self._one_job(state, operation, out)
                except Exception as error:  # noqa: BLE001 - counted, reported
                    out["errors"].append(f"{operation[0]} job: {error!r}")
                    out["failures"] += 1

        started = time.perf_counter()
        clients = [threading.Thread(target=client_loop, args=(record,))
                   for record in records]
        for client in clients:
            client.start()
        for client in clients:
            client.join()
        seconds = time.perf_counter() - started
        out = {key: sum((record[key] for record in records),
                        [] if isinstance(value, list) else 0)
               for key, value in records[0].items()}

        def p50_ms(values: list[float]) -> list[float]:
            return [statistics.median(values) * 1e3] if values else []

        return RoundResult(
            seconds, out["trials"], out["jobs"], operations=len(state.schedule),
            failures=out["failures"], errors=out["errors"],
            layers={
                "service.dedup_ratio": [statistics.fmean(out["deduped"])],
                "service.queue.wait_ms_p50": p50_ms(out["queue_s"]),
                "service.compute_ms_p50": p50_ms(out["compute_s"]),
                "service.http.request_ms_p50": p50_ms(out["polls"]),
                "service.http.polls_per_job": [statistics.fmean(out["polls_per_job"])],
                "service.result_ms_p50": p50_ms(out["result_s"]),
            })

    def teardown(self, state: _ServiceRound) -> None:
        state.server.shutdown()
        state.server.server_close()
        state.server.service.shutdown(drain_seconds=30.0)
        state.thread.join(timeout=30.0)
        shutil.rmtree(state.root, ignore_errors=True)


WORKLOADS = {workload.name: workload
             for workload in (JoinedSweep, LitmusFamily, MachineWindows, ServiceMixed)}
