"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload joined-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones, plus the tracing overhead; the
spans are written to ``perfbench/out/``.  The metric names and units are
those of ``BENCHMARK.json``.  Every run records the host first (CPU
count, versions, start method, two fixed calibration loops), so a
uniform host slowdown can be told apart from a code regression.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from multiprocessing import resource_tracker
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def _calibrate(work) -> float:
    timings = []
    for _ in range(3):
        started = time.perf_counter()
        work()
        timings.append(time.perf_counter() - started)
    return statistics.median(timings)


def _numpy_loop() -> None:
    import numpy as np
    values = np.arange(1_000_000, dtype=np.float64)
    for _ in range(10):
        values = np.sqrt(values * values + 1.0)


def _python_loop() -> None:
    total = 0
    for index in range(1_000_000):
        total += index * index % 7


def host_record() -> dict:
    import numpy as np
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "start_method": multiprocessing.get_start_method(),
        "numpy_calib_s": _calibrate(_numpy_loop),
        "python_calib_s": _calibrate(_python_loop),
    }


#: At least this many import samples per run, one before each round.
IMPORT_SAMPLES = 5


def import_seconds(modules: tuple[str, ...]) -> float:
    """Time a fresh interpreter takes to import the workload's modules."""
    code = ("import time; started = time.perf_counter(); "
            + "; ".join(f"import {module}" for module in modules)
            + "; print(time.perf_counter() - started)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return float(subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                                check=True, capture_output=True, text=True,
                                timeout=60).stdout)


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest child, whichever is larger."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(rounds, setups: list[float], imports: list[float]) -> dict[str, float]:
    jobs = [job for result in rounds for job in result.jobs]
    latencies = [job.seconds for job in jobs]
    timed = sum(result.seconds for result in rounds)
    # Batch workloads have no cache-served jobs: every timed round runs
    # in a warmed-up process but computes from scratch, so their warm and
    # cold figures are both the median round.
    warm = [job.seconds for job in jobs if job.kind == "warm"] or latencies
    return {
        "setup_s": statistics.median(imports) + statistics.median(setups),
        "trials_per_s": sum(result.trials for result in rounds) / timed,
        "job_latency_p50_ms": statistics.median(latencies) * 1e3,
        "job_latency_p95_ms": statistics.quantiles(latencies, n=20,
                                                   method="inclusive")[18] * 1e3,
        "cold_job_p50_ms": statistics.median(
            job.seconds for job in jobs if job.kind == "cold") * 1e3,
        "warm_job_p50_ms": statistics.median(warm) * 1e3,
        "jobs_per_s": len(jobs) / timed,
        "peak_rss_mb": peak_rss_mb(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {metric["name"]: metric["unit"]
             for metric in spec["per_layer" if args.trace else "end_to_end"]}

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=out_dir))
    # Everything the program writes stays inside this run's scratch
    # directory, which is removed at exit; the user-level cache root of
    # cache="auto" is never touched.
    os.environ["TMPDIR"] = str(scratch)
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "auto-cache")
    tempfile.tempdir = None
    try:
        return _run(args, units, scratch, out_dir)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        # The shared-memory shard transport starts multiprocessing's
        # resource tracker process; stop it and wait for it to end.
        resource_tracker._resource_tracker._stop()


def _run(args, units: dict[str, str], scratch: Path, out_dir: Path) -> int:
    host = host_record()
    print(json.dumps({"host": host}), flush=True)

    from perfbench.ledger import Ledger, layer_metrics
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, scratch)
    ledger = Ledger(scratch) if args.trace else None

    # Import samples are spread over the run, so their median spans the
    # host's slow and fast spells rather than one burst.
    rounds, setups, traced, imports = [], [], [], []
    timed = 0.0
    # Round 0 warms the process up (imports, pool code paths, kernel
    # fingerprints, the first server) and is left out of the metrics; its
    # outputs are still checked.  With tracing, later rounds come in pairs
    # on the same inputs, one traced and one not, so the tracing overhead
    # is measured on equal work within the run.
    while timed < args.seconds or len(rounds) < 3:
        index = len(rounds)
        tracing = ledger is not None and index % 2 == 1
        if ledger is None:
            imports.append(import_seconds(workload.modules))
        started = time.perf_counter()
        state = workload.setup((index + 1) // 2 if ledger is not None else index)
        setups.append(time.perf_counter() - started)
        if tracing:
            ledger.install()
        try:
            result = workload.run(state)
            if tracing:
                ledger.harvest()
        finally:
            if tracing:
                ledger.uninstall()
            workload.teardown(state)
        rounds.append(result)
        traced.append(tracing)
        if index > 0:
            timed += result.seconds
        print(f"round {index}{' traced' if tracing else ''}: set-up "
              f"{setups[-1]:.3f} s, timed {result.seconds:.3f} s, "
              f"{result.trials} trials, {len(result.jobs)} jobs", file=sys.stderr)
        for error in result.errors:
            print(f"check failed: {error}", file=sys.stderr)

    attempted = sum(result.operations for result in rounds)
    failed = sum(result.failures for result in rounds)
    correct = not any(result.errors for result in rounds)
    if ledger is None:
        while len(imports) < IMPORT_SAMPLES:
            imports.append(import_seconds(workload.modules))
        metrics = end_to_end(rounds[1:], setups, imports)
    else:
        traced_rounds = [result for result, flag in zip(rounds, traced) if flag]
        plain_rounds = [result for index, (result, flag) in
                        enumerate(zip(rounds, traced)) if not flag and index > 0]
        metrics = layer_metrics(ledger, len(traced_rounds))
        for name in units:
            if name not in metrics:
                values = [value for result in traced_rounds
                          for value in result.layers.get(name, ())]
                metrics[name] = statistics.fmean(values) if values else 0.0
        metrics.update({
            "error_rate": failed / attempted,
            "host.numpy_calib_s": host["numpy_calib_s"],
            "host.python_calib_s": host["python_calib_s"],
            "obs.trace_overhead_frac": _overhead(traced_rounds, plain_rounds)})
        ledger.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")
        print(json.dumps({"self_seconds_per_round": {
            name: seconds / len(traced_rounds)
            for name, seconds in sorted(ledger.self_seconds().items())}}))
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def _overhead(traced, plain) -> float:
    """Traced ÷ untraced median job latency, minus one.

    Paired rounds run equal inputs, and a batch job is a whole round, so
    for the batch workloads this is the trials/s ratio.
    """
    def cost(rounds):
        return statistics.median(job.seconds for result in rounds for job in result.jobs)
    return cost(traced) / cost(plain) - 1.0


if __name__ == "__main__":
    sys.exit(main())
