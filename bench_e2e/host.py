"""Record the host the benchmark numbers were measured on.

Run from the repository root::

    python3 bench_e2e/host.py

It rewrites ``bench_e2e/host.json`` with the CPU model, the CPU count the
process may use, the Python / numpy / networkx versions, and a short
1-vs-2-process burn ratio: the throughput of a pure-Python loop in two
concurrent processes divided by its throughput in one (2.0 means two full
cores), from the medians of alternating runs.  The record is context for
reading the numbers, not a gate.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BURN_ITERATIONS = 10_000_000
BURN_PAIRS = 5


def burn(barrier, results) -> None:
    barrier.wait()
    started = time.perf_counter()
    total = 0
    for i in range(BURN_ITERATIONS):
        total += i * i
    results.put(time.perf_counter() - started)


def burn_seconds(processes: int) -> float:
    """Wall time of the slowest of ``processes`` concurrent burns."""
    context = multiprocessing.get_context("spawn")
    barrier = context.Barrier(processes)
    results = context.Queue()
    workers = [context.Process(target=burn, args=(barrier, results)) for _ in range(processes)]
    for worker in workers:
        worker.start()
    times = [results.get(timeout=120) for _ in workers]
    for worker in workers:
        worker.join(timeout=30)
    return max(times)


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main() -> int:
    import networkx
    import numpy

    # Alternate the two so that a change in host speed hits both alike.
    ones, twos = [], []
    for _ in range(BURN_PAIRS):
        ones.append(burn_seconds(1))
        twos.append(burn_seconds(2))
    one, two = statistics.median(ones), statistics.median(twos)
    record = {
        "cpu_model": cpu_model(),
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "burn_1proc_s": one,
        "burn_2proc_s": two,
        "burn_2v1_ratio": 2 * one / two,
        "recorded": time.strftime("%Y-%m-%d"),
    }
    (HERE / "host.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
