"""Compare the pickle and shared-memory shard transports on machine-windows.

Usage, from the root of a checkout::

    python3 perfbench/transport_ab.py --seed 1 --pairs 8

Each pair runs the same machine-windows round (same inputs) once per
transport, alternating which goes first.  Prints each side's median
round time and quartiles, and how many pairs each side won.  This is the
measurement behind the transport verdict in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=8)
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import MachineWindows

    times: dict[str, list[float]] = {"pickle": [], "shm": []}
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        workload = MachineWindows(args.seed, Path(scratch))
        base = dict(workload.configs)
        workload.run(workload.setup(0))  # warm the process up
        for pair in range(args.pairs):
            order = ("pickle", "shm") if pair % 2 == 0 else ("shm", "pickle")
            for transport in order:
                workload.configs = {backend: dataclasses.replace(config, transport=transport)
                                    for backend, config in base.items()}
                result = workload.run(workload.setup(pair + 1))
                if result.errors:
                    print("\n".join(result.errors), file=sys.stderr)
                    return 1
                times[transport].append(result.seconds)
    for transport, values in times.items():
        low, median, high = statistics.quantiles(values, n=4)
        print(f"{transport:6s} median {median:.3f} s  quartiles {low:.3f}-{high:.3f} s")
    wins = sum(shm < pickle for pickle, shm in zip(times["pickle"], times["shm"]))
    print(f"shm faster in {wins} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
