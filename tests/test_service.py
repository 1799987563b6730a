"""The estimation service (``repro.service``): queue, dedup, HTTP, resume.

The acceptance property of the whole subsystem is exercised end to end:
two *concurrent identical* submissions produce exactly one shard
computation (asserted through ``service.jobs_deduped`` and the
``run.cache_*`` metrics in the manifest) and hand both clients the same
job — hence byte-identical manifests.  Around that sit unit tests for
the strict wire schemas, the estimator catalogue, the dedup identity
(scheduling knobs must never split it; statistical knobs must), the
priority queue with its rate control, registry persistence, and the
graceful-shutdown → restart → resume contract.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro import RunConfig
from repro.service import (
    ESTIMATORS,
    EstimationService,
    Job,
    JobQueue,
    JobRegistry,
    QueueFull,
    ServiceClient,
    ServiceError,
    job_key,
    parse_submit,
    serve,
    validate_params,
)
from repro.service.server import ROUTES

SMALL = {"estimator": "non_manifestation",
         "params": {"model": "TSO", "trials": 800},
         "config": {"shards": 2}}


# ----------------------------------------------------------------------
# Wire schemas
# ----------------------------------------------------------------------

class TestParseSubmit:
    def test_minimal_submission(self):
        request = parse_submit({"estimator": "non_manifestation"})
        assert request.estimator == "non_manifestation"
        assert request.params == {}
        assert request.priority == 0
        assert request.dedup is True

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ServiceError) as excinfo:
            parse_submit({"estimator": "x", "paramz": {}})
        assert excinfo.value.status == 400
        assert excinfo.value.code == "unknown-field"

    @pytest.mark.parametrize("knob", ["checkpoint", "cache", "manifest",
                                      "trace", "progress"])
    def test_managed_knobs_rejected(self, knob):
        value = True if knob == "progress" else "/tmp/evil"
        with pytest.raises(ServiceError) as excinfo:
            parse_submit({"estimator": "x", "config": {knob: value}})
        assert excinfo.value.code == "managed-knob"

    def test_unknown_config_field_rejected(self):
        with pytest.raises(ServiceError) as excinfo:
            parse_submit({"estimator": "x", "config": {"workerz": 2}})
        assert excinfo.value.code == "bad-config"

    def test_priority_must_be_bounded_int(self):
        with pytest.raises(ServiceError):
            parse_submit({"estimator": "x", "priority": "high"})
        with pytest.raises(ServiceError):
            parse_submit({"estimator": "x", "priority": True})
        with pytest.raises(ServiceError):
            parse_submit({"estimator": "x", "priority": 1000})

    def test_dedup_must_be_bool(self):
        with pytest.raises(ServiceError):
            parse_submit({"estimator": "x", "dedup": 1})

    def test_non_object_body_rejected(self):
        with pytest.raises(ServiceError) as excinfo:
            parse_submit(["not", "an", "object"])
        assert excinfo.value.code == "bad-body"


# ----------------------------------------------------------------------
# Estimator catalogue + dedup identity
# ----------------------------------------------------------------------

class TestEstimatorCatalogue:
    def test_params_fully_defaulted(self):
        params = validate_params("non_manifestation",
                                 {"model": "TSO", "trials": 100})
        assert params["n"] == 2
        assert params["seed"] == 0
        assert params["confidence"] == 0.99

    def test_unknown_estimator_is_404(self):
        with pytest.raises(ServiceError) as excinfo:
            validate_params("frobnicate", {})
        assert excinfo.value.status == 404

    def test_unknown_param_rejected(self):
        with pytest.raises(ServiceError) as excinfo:
            validate_params("non_manifestation",
                            {"model": "TSO", "trials": 1, "sharts": 2})
        assert excinfo.value.code == "unknown-param"

    def test_missing_required_param_rejected(self):
        with pytest.raises(ServiceError) as excinfo:
            validate_params("non_manifestation", {"model": "TSO"})
        assert excinfo.value.code == "missing-param"

    def test_bool_is_not_an_int_param(self):
        with pytest.raises(ServiceError) as excinfo:
            validate_params("non_manifestation",
                            {"model": "TSO", "trials": True})
        assert excinfo.value.code == "bad-param"

    def test_every_estimator_describes_itself(self):
        for spec in ESTIMATORS.values():
            description = spec.describe()
            assert description["name"] == spec.name
            json.dumps(description)


class TestJobKey:
    PARAMS = {"model": "TSO", "trials": 1000}

    def key(self, config=RunConfig(), params=None):
        full = validate_params("non_manifestation", params or self.PARAMS)
        return job_key("non_manifestation", full, config)

    def test_scheduling_knobs_never_split_the_key(self):
        base = self.key(RunConfig(shards=4))
        same = self.key(RunConfig(shards=4, workers=2, retries=3,
                                  timeout=60.0, transport="pickle"))
        assert base == same

    def test_statistical_knobs_split_the_key(self):
        base = self.key(RunConfig(shards=4))
        assert base != self.key(RunConfig(shards=8))
        assert base != self.key(RunConfig(shards=4, rng_plan="philox"))
        assert base != self.key(RunConfig(shards=4, fingerprint="aa"))
        assert base != self.key(RunConfig(shards=4, backend="scalar"))

    def test_omitted_default_equals_explicit_default(self):
        sparse = self.key(params={"model": "TSO", "trials": 1000})
        explicit = self.key(params={"model": "TSO", "trials": 1000,
                                    "n": 2, "seed": 0})
        assert sparse == explicit

    def test_params_split_the_key(self):
        assert (self.key(params={"model": "TSO", "trials": 1000})
                != self.key(params={"model": "WO", "trials": 1000}))


# ----------------------------------------------------------------------
# Queue + registry
# ----------------------------------------------------------------------

class TestJobQueue:
    def test_priority_order_fifo_within_priority(self):
        executed: list[str] = []
        done = threading.Event()

        def execute(job_id: str) -> None:
            executed.append(job_id)
            if len(executed) == 4:
                done.set()

        queue = JobQueue(execute, workers=1, max_queued=16)
        queue.submit("low-1", priority=-1)
        queue.submit("high", priority=5)
        queue.submit("mid-a", priority=0)
        queue.submit("mid-b", priority=0)
        queue.start()
        assert done.wait(timeout=10)
        assert executed == ["high", "mid-a", "mid-b", "low-1"]

    def test_queue_full(self):
        queue = JobQueue(lambda job_id: None, workers=1, max_queued=2)
        queue.submit("a")
        queue.submit("b")
        with pytest.raises(QueueFull):
            queue.submit("c")
        queue.submit("forced", force=True)  # resume path bypasses the cap
        assert queue.depth() == 3

    def test_shutdown_returns_leftovers(self):
        queue = JobQueue(lambda job_id: None, workers=1, max_queued=8)
        queue.submit("a", priority=1)
        queue.submit("b", priority=0)
        leftovers = queue.shutdown(drain_seconds=0.1)
        assert leftovers == ["a", "b"]
        with pytest.raises(RuntimeError):
            queue.submit("c")


class TestJobRegistry:
    def test_persistence_round_trip(self, tmp_path):
        path = tmp_path / "jobs.json"
        registry = JobRegistry(path)
        job = registry.create(key="k1", estimator="non_manifestation",
                              params={"model": "TSO"}, config_wire={},
                              priority=2)
        job.mark_running()
        job.mark_done({"estimate": 0.5})
        registry.save()
        reloaded = JobRegistry.load(path)
        twin = reloaded.get(job.id)
        assert twin.to_wire() == job.to_wire()
        assert reloaded.unfinished() == []

    def test_failed_jobs_do_not_absorb_dedup(self, tmp_path):
        registry = JobRegistry()
        job = registry.create(key="k1", estimator="e", params={},
                              config_wire={})
        assert registry.find_dedup_target("k1") is job
        job.mark_failed("boom")
        assert registry.find_dedup_target("k1") is None

    def test_malformed_snapshot_raises(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text('{"kind": "something-else"}')
        with pytest.raises(ValueError, match="snapshot"):
            JobRegistry.load(path)

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError, match="state"):
            Job.from_wire({"id": "j", "key": "k", "estimator": "e",
                           "params": {}, "config_wire": {},
                           "state": "paused"})


class TestJobJournal:
    """``jobs.jsonl``: O(1) appends, bounded compaction, torn tails."""

    @staticmethod
    def _create(registry, index):
        return registry.create(key=f"k{index:04d}", estimator="e",
                               params={"seed": index}, config_wire={})

    def test_append_cost_does_not_grow_with_job_count(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        registry = JobRegistry.load(path)
        written = {}
        for index in range(1, 201):
            job = self._create(registry, index)
            before = path.stat().st_size
            registry.save(job)
            written[index] = path.stat().st_size - before
        assert 0 < written[200] <= 1.1 * written[2]
        assert len(path.read_text().splitlines()) == 201  # header + 200

    def test_compaction_bounds_the_file(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        registry = JobRegistry.load(path)
        for index in range(12):
            job = self._create(registry, index)
            registry.save(job)
            for _ in range(3):
                job.dedup_hits += 1
                registry.save(job)
                lines = path.read_text().splitlines()
                assert len(lines) <= 2 * len(registry) + 1
            job.mark_running()
            registry.save(job)
            job.mark_done({"estimate": index})
            registry.save(job)
        reloaded = JobRegistry.load(path)
        assert [j.to_wire() for j in reloaded.jobs()] == [
            j.to_wire() for j in registry.jobs()]
        assert len(path.read_text().splitlines()) == len(registry) + 1
        registry.save()  # explicit compaction: one record per job
        assert len(path.read_text().splitlines()) == len(registry) + 1

    def test_last_record_wins_and_dedup_slot_follows_ids(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        registry = JobRegistry.load(path)
        older = registry.create(key="same", estimator="e", params={},
                                config_wire={})
        registry.save(older)
        newer = registry.create(key="same", estimator="e", params={},
                                config_wire={})
        registry.save(newer)
        older.mark_running()
        registry.save(older)  # appended after the newer job's record
        reloaded = JobRegistry.load(path)
        assert reloaded.get(older.id).state == "running"
        assert reloaded.find_dedup_target("same").id == newer.id
        assert reloaded.create(key="x", estimator="e", params={},
                               config_wire={}).id == "job-00003"

    def test_torn_final_line_is_skipped_with_a_warning(self, tmp_path,
                                                       capsys):
        path = tmp_path / "jobs.jsonl"
        registry = JobRegistry.load(path)
        job = self._create(registry, 1)
        registry.save(job)
        job.mark_running()
        registry.save(job)
        text = path.read_text()
        path.write_text(text[:-20])  # a hard kill mid-append
        reloaded = JobRegistry.load(path)
        assert reloaded.skipped_lines == 1
        assert reloaded.get(job.id).state == "queued"  # the earlier record
        assert "torn" in capsys.readouterr().err
        # Load compacted the torn tail away, so appends stay decodable.
        reloaded.get(job.id).mark_failed("boom")
        reloaded.save(reloaded.get(job.id))
        again = JobRegistry.load(path)
        assert again.skipped_lines == 0
        assert again.get(job.id).state == "failed"

    def test_malformed_middle_line_raises(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        registry = JobRegistry.load(path)
        for index in range(2):
            registry.save(self._create(registry, index))
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:10]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=":2: malformed"):
            JobRegistry.load(path)

    @pytest.mark.parametrize("header", [
        '{"kind": "repro/service-jobs", "format": 1}',
        '{"kind": "something-else", "format": 2}',
        '{"id": "job-00001"}',
        "not json",
    ])
    def test_wrong_or_missing_header_raises(self, tmp_path, header):
        path = tmp_path / "jobs.jsonl"
        path.write_text(header + "\n")
        with pytest.raises(ValueError):
            JobRegistry.load(path)


# ----------------------------------------------------------------------
# The service core (in-process, no HTTP)
# ----------------------------------------------------------------------

def wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise TimeoutError("condition not reached")
        time.sleep(0.01)


class TestEstimationService:
    def test_concurrent_identical_submissions_one_computation(self, tmp_path):
        service = EstimationService(tmp_path, job_workers=2)
        responses: list[tuple[dict, int]] = [None, None]

        def submit(index: int) -> None:
            responses[index] = service.submit(dict(SMALL))

        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        ids = {response[0]["job"]["id"] for response in responses}
        assert len(ids) == 1, "identical submissions must collapse"
        assert sorted(r[0]["deduped"] for r in responses) == [False, True]
        assert sorted(r[1] for r in responses) == [200, 201]
        job_id = ids.pop()
        wait_for(lambda: service.registry.get(job_id).finished)
        result = service.result(job_id)

        metrics = service.metrics.snapshot()
        assert metrics["service.jobs_submitted"]["value"] == 1
        assert metrics["service.jobs_deduped"]["value"] == 1
        assert metrics["service.jobs_completed"]["value"] == 1
        run = result["manifest"]["runs"][0]
        # One computation: every shard executed exactly once, none cached.
        assert run["metrics"]["run.cache_hits"]["value"] == 0
        assert run["execution"]["executed_shards"] == 2
        service.shutdown(drain_seconds=1.0)

    def test_warm_resubmission_hits_the_shard_cache(self, tmp_path):
        service = EstimationService(tmp_path, job_workers=1)
        cold, _ = service.submit(dict(SMALL))
        cold_id = cold["job"]["id"]
        wait_for(lambda: service.registry.get(cold_id).finished)

        warm_payload = dict(SMALL, dedup=False)
        warm, status = service.submit(warm_payload)
        assert status == 201 and warm["deduped"] is False
        warm_id = warm["job"]["id"]
        assert warm_id != cold_id
        wait_for(lambda: service.registry.get(warm_id).finished)

        cold_result = service.result(cold_id)
        warm_result = service.result(warm_id)
        warm_run = warm_result["manifest"]["runs"][0]
        assert warm_run["metrics"]["run.cache_hits"]["value"] == 2
        assert warm_run["execution"]["executed_shards"] == 0
        assert warm_result["result"] == cold_result["result"]
        service.shutdown(drain_seconds=1.0)

    def test_failed_job_reports_and_counts(self, tmp_path):
        service = EstimationService(tmp_path, job_workers=1)
        response, _ = service.submit({
            "estimator": "non_manifestation",
            "params": {"model": "NOSUCH", "trials": 10},
        })
        job_id = response["job"]["id"]
        wait_for(lambda: service.registry.get(job_id).finished)
        assert service.registry.get(job_id).state == "failed"
        assert service.metrics.snapshot()["service.jobs_failed"]["value"] == 1
        with pytest.raises(ServiceError) as excinfo:
            service.result(job_id)
        assert excinfo.value.code == "job-failed"
        service.shutdown(drain_seconds=1.0)

    def test_result_before_finish_is_conflict(self, tmp_path):
        service = EstimationService(tmp_path, start=False)
        response, _ = service.submit(dict(SMALL))
        with pytest.raises(ServiceError) as excinfo:
            service.result(response["job"]["id"])
        assert excinfo.value.code == "not-finished"
        service.shutdown(drain_seconds=0.1)

    def test_rate_control_rejects_with_429(self, tmp_path):
        service = EstimationService(tmp_path, start=False, max_queued=1)
        service.submit(dict(SMALL))
        overflow = {"estimator": "non_manifestation",
                    "params": {"model": "WO", "trials": 50}}
        with pytest.raises(ServiceError) as excinfo:
            service.submit(overflow)
        assert excinfo.value.status == 429
        assert service.queue.max_queued == 1
        assert "(1 queued)" in excinfo.value.message
        metrics = service.metrics.snapshot()
        assert metrics["service.jobs_rejected"]["value"] == 1
        service.shutdown(drain_seconds=0.1)

    def test_server_default_config_must_not_carry_managed_knobs(self, tmp_path):
        with pytest.raises(ValueError, match="must not set"):
            EstimationService(tmp_path, start=False,
                              default_config=RunConfig(cache="auto"))

    def test_shutdown_then_restart_resumes_and_completes(self, tmp_path):
        # Accept a job but never start the worker pool: the shutdown
        # must persist it as queued, and a fresh service on the same
        # state directory must re-enqueue and finish it.
        first = EstimationService(tmp_path, start=False)
        response, _ = first.submit(dict(SMALL))
        job_id = response["job"]["id"]
        first.shutdown(drain_seconds=0.1)
        persisted = JobRegistry.load(tmp_path / "jobs.jsonl")
        assert [(j.id, j.state) for j in persisted.jobs()] == [
            (job_id, "queued")]

        second = EstimationService(tmp_path, job_workers=1)
        metrics = second.metrics.snapshot()
        assert metrics["service.jobs_resumed"]["value"] == 1
        wait_for(lambda: second.registry.get(job_id).finished)
        assert second.registry.get(job_id).state == "done"
        result = second.result(job_id)
        assert result["result"]["trials"] == SMALL["params"]["trials"]
        second.shutdown(drain_seconds=1.0)

    def test_legacy_snapshot_is_migrated_and_resumed(self, tmp_path):
        # A state directory from before the journal: one jobs.json
        # snapshot (format 1) holding a queued job.
        first = EstimationService(tmp_path, start=False)
        response, _ = first.submit(dict(SMALL))
        job_id = response["job"]["id"]
        first.shutdown(drain_seconds=0.1)
        job = first.registry.get(job_id)
        (tmp_path / "jobs.jsonl").unlink()
        (tmp_path / "jobs.json").write_text(json.dumps(
            {"kind": "repro/service-jobs", "format": 1, "seq": 1,
             "jobs": [job.to_wire()]}, sort_keys=True, indent=1))

        second = EstimationService(tmp_path, job_workers=1)
        assert not (tmp_path / "jobs.json").exists()
        assert (tmp_path / "jobs.jsonl").exists()
        assert second.metrics.snapshot()["service.jobs_resumed"]["value"] == 1
        wait_for(lambda: second.registry.get(job_id).finished)
        assert second.registry.get(job_id).state == "done"
        fresh, _ = second.submit({"estimator": "non_manifestation",
                                  "params": {"model": "SC", "trials": 50}})
        assert fresh["job"]["id"] != job_id
        second.shutdown(drain_seconds=1.0)
        assert JobRegistry.load(tmp_path / "jobs.jsonl").get(
            job_id).state == "done"

    def test_latency_histograms_record_each_job(self, tmp_path):
        service = EstimationService(tmp_path, job_workers=1)
        response, _ = service.submit(dict(SMALL))
        job_id = response["job"]["id"]
        wait_for(lambda: service.registry.get(job_id).finished)
        job = service.registry.get(job_id)
        metrics = service.metrics_snapshot()["metrics"]
        wait = metrics["service.queue_wait_seconds"]
        ran = metrics["service.job_seconds"]
        assert wait["type"] == ran["type"] == "histogram"
        assert wait["count"] == ran["count"] == 1
        assert wait["sum"] == pytest.approx(job.started_at - job.created_at)
        assert ran["sum"] == pytest.approx(job.finished_at - job.started_at)
        service.shutdown(drain_seconds=1.0)

    def test_submissions_refused_while_shutting_down(self, tmp_path):
        service = EstimationService(tmp_path, start=False)
        service.shutdown(drain_seconds=0.1)
        with pytest.raises(ServiceError) as excinfo:
            service.submit(dict(SMALL))
        assert excinfo.value.status == 503


# ----------------------------------------------------------------------
# The HTTP front end
# ----------------------------------------------------------------------

@pytest.fixture
def http_service(tmp_path):
    server = serve("127.0.0.1", 0, tmp_path, job_workers=2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield ServiceClient(server.url)
    finally:
        server.shutdown()
        server.server_close()
        server.service.shutdown(drain_seconds=1.0)


class TestHTTP:
    def test_health_and_estimators(self, http_service):
        health = http_service.health()
        assert health["status"] == "ok"
        assert health["schema_version"] == 1
        names = [spec["name"] for spec in http_service.estimators()]
        assert names == sorted(ESTIMATORS)

    def test_submit_poll_result_lifecycle(self, http_service):
        submitted = http_service.submit(
            "non_manifestation", {"model": "TSO", "trials": 800},
            config={"shards": 2})
        job_id = submitted["job"]["id"]
        final = http_service.wait(job_id)
        assert final["state"] == "done"
        result = http_service.result(job_id)
        assert result["result"]["type"] == "BernoulliResult"
        assert result["manifest"]["kind"] == "repro/run-manifest"
        jobs = http_service.jobs()
        assert [job["id"] for job in jobs] == [job_id]

    def test_error_statuses(self, http_service):
        with pytest.raises(ServiceError) as excinfo:
            http_service.job("job-99999")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            http_service._request("GET", "/v1/nope")
        assert excinfo.value.code == "unknown-route"
        with pytest.raises(ServiceError) as excinfo:
            http_service._request("POST", "/v1/health", {})
        assert excinfo.value.status == 405
        with pytest.raises(ServiceError) as excinfo:
            http_service.submit("nope", {})
        assert excinfo.value.status == 404

    def test_metrics_route_exposes_catalogue_names(self, http_service):
        http_service.submit("non_manifestation",
                            {"model": "TSO", "trials": 800},
                            config={"shards": 2})
        metrics = http_service.metrics()
        assert metrics["service.jobs_submitted"]["value"] == 1
        assert "service.queue_depth" in metrics


def test_route_table_shape():
    assert len(ROUTES) == len({(m, p) for m, p, _ in ROUTES})
    for method, path, summary in ROUTES:
        assert method in ("GET", "POST")
        assert path.startswith("/v1/")
        assert summary
