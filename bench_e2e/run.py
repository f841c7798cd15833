"""End-to-end benchmark of the broadcast simulator.

Run from the repository root::

    python3 bench_e2e/run.py --workload e1-sweep [--seed 2008] [--seconds 30] [--trace 0]

The workload's scenario spec is generated from ``--seed`` and run through
the real entry point, ``repro.spec.run_spec``, in this one process (no
worker pool).  Every sweep's outputs are checked (see ``workloads.py``);
a failed check makes the command exit 1.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s`` — median over five fresh interpreters (run between the
  first timed sweeps) of ``import repro`` plus loading and validating the
  workload spec;
* ``wall_s`` — median time from ``run_spec`` to the finished table, over
  the sweeps that fit in ``--seconds``;
* ``node_rounds_per_s`` — sum over runs of n x rounds executed, per
  second of ``wall_s``;
* ``peak_mb`` — tracemalloc peak of one sweep, measured in its own pass
  before the timed sweeps.

``--trace 1`` alternates traced and untraced sweeps for ``--seconds`` and
reports the per-layer metrics (medians over the traced sweeps), the traced
wall time and the tracing overhead.  The spans of the last traced sweep are
written to ``.bench_e2e/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer, layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS, check_run, combined_digest

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_e2e"
SETUP_SAMPLES = 5
SETUP_CODE = "import sys, repro\nfrom repro.spec import load_spec\nload_spec(sys.argv[1])\n"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "node_rounds_per_s": "1/s", "peak_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "dist.bytes":
        return "bytes"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    return env


def time_setup(spec_path: Path, env: dict) -> float:
    """Wall time of one fresh interpreter importing repro and loading the spec."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(spec_path)], env=env, check=True, cwd=ROOT
    )
    return time.perf_counter() - started


class Ledger:
    """Checks every finished sweep and counts runs attempted and failed."""

    def __init__(self, expected) -> None:
        self.expected = expected
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.node_rounds = 0

    def check(self, run) -> None:
        digests, failed, messages = check_run(run, self.expected)
        retries = int(run.provenance.get("retries", 0) or 0)
        total = run.spec.sweep.size if run.spec.sweep is not None else 1
        self.attempted += (total + retries) * run.spec.repetitions
        if self.reference is None:
            self.reference = digests
            self.node_rounds = sum(r.n * r.rounds_executed for r in run.results())
        else:
            changed = [i for i in self.reference if digests.get(i) != self.reference[i]]
            if changed:
                failed += len(changed) * run.spec.repetitions
                messages.append(f"points {changed[:10]} differ from the first sweep")
        self.failed += min(failed, total * run.spec.repetitions)
        self.messages.extend(messages)


def write_spec(workload, seed: int) -> Path:
    """Write the workload's scenario spec for ``seed`` into the scratch directory."""
    WORK.mkdir(exist_ok=True)
    spec_path = WORK / f"{workload.name}-seed{seed}.json"
    spec_path.write_text(json.dumps(workload.spec(seed), indent=1))
    return spec_path


def load_expected(workload: str, seed: int):
    """Recorded per-point digests for ``workload``, or None for other seeds."""
    if seed != DEFAULT_SEED:
        return None
    record = json.loads((HERE / "expected.json").read_text())
    points = record["workloads"].get(workload, {}).get("points")
    if points is None:
        raise SystemExit(f"no recorded digest for {workload}; run bench_e2e/record_digests.py")
    return {int(index): digest for index, digest in points.items()}


class Bench:
    def __init__(self, workload, spec_path: Path) -> None:
        import repro.spec.scenario as scenario
        from repro.spec import run_spec

        self.workload = workload
        self.spec_path = spec_path
        self.scenario = scenario
        self.run_spec = run_spec
        self.spec = scenario.load_spec(spec_path)
        self.stream_dir = WORK / f"stream-{os.getpid()}"

    def sweep(self, spec=None):
        """One sweep through ``run_spec`` to the finished table; (run, seconds)."""
        kwargs = {"stream_dir": self.stream_dir} if self.workload.streamed else {}
        started = time.perf_counter()
        run = self.run_spec(spec if spec is not None else self.spec, **kwargs)
        run.to_table()
        wall = time.perf_counter() - started
        self.close()
        return run, wall

    def close(self) -> None:
        """Remove the stream directory, so every sweep starts a fresh one."""
        shutil.rmtree(self.stream_dir, ignore_errors=True)


def measure_end_to_end(bench: Bench, ledger: Ledger, seconds: float) -> dict:
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from _memtrace import traced_peak_mb

    held = {}

    def memory_pass() -> None:
        held["run"], _ = bench.sweep()

    started = time.perf_counter()
    peak_mb = traced_peak_mb(memory_pass)
    print(f"# memory pass: {time.perf_counter() - started:.2f} s")
    ledger.check(held.pop("run"))
    gc.collect()
    # Set-up samples alternate with the first sweeps, so that a change of
    # host speed during the run reaches both metrics alike.
    env = program_env()
    walls, setup = [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        run, wall = bench.sweep()
        walls.append(wall)
        ledger.check(run)
        del run
        gc.collect()
        if len(setup) < SETUP_SAMPLES:
            setup.append(time_setup(bench.spec_path, env))
    setup += [time_setup(bench.spec_path, env) for _ in range(SETUP_SAMPLES - len(setup))]
    wall_s = statistics.median(walls)
    print(f"# {len(walls)} timed sweeps: {', '.join(f'{w:.3f}' for w in walls)} s")
    print(f"# set-up samples: {', '.join(f'{t:.3f}' for t in setup)} s")
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall_s,
        "node_rounds_per_s": ledger.node_rounds / wall_s,
        "peak_mb": peak_mb,
    }


def measure_per_layer(bench: Bench, ledger: Ledger, seconds: float, trace_path: Path) -> dict:
    run, _ = bench.sweep()
    ledger.check(run)
    del run
    traced, untraced, samples = [], [], []
    tracer = None
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        gc.collect()
        with Tracer() as tracer:
            spec = bench.scenario.load_spec(bench.spec_path)
            run, wall = bench.sweep(spec)
        traced.append(wall)
        samples.append(layer_metrics(tracer.spans, run))
        ledger.check(run)
        del run
        gc.collect()
        run, wall = bench.sweep()
        untraced.append(wall)
        ledger.check(run)
        del run
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps(tracer.to_json()))
    metrics = {name: statistics.median_low(s[name] for s in samples) for name in samples[0]}
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    print(f"# {len(traced)} traced / untraced sweep pairs; spans in {trace_path}")
    return metrics


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench_e2e: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    spec_path = write_spec(workload, args.seed)
    expected = load_expected(workload.name, args.seed)

    sys.path.insert(0, str(ROOT / "src"))

    ledger = Ledger(expected)
    bench = Bench(workload, spec_path)
    try:
        if args.trace:
            trace_path = WORK / "traces" / f"{workload.name}-seed{args.seed}.json"
            metrics = measure_per_layer(bench, ledger, args.seconds, trace_path)
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            metrics = measure_end_to_end(bench, ledger, args.seconds)
            units = END_TO_END_UNITS
    finally:
        bench.close()
        spec_path.unlink()

    for message in list(dict.fromkeys(ledger.messages))[:20]:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    print(f"# digest {combined_digest(ledger.reference)} (seed {args.seed})")
    correct = ledger.failed == 0 and not ledger.messages
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    failed_frac = ledger.failed / ledger.attempted
    print(f"failed_frac {failed_frac!r} ({ledger.failed} of {ledger.attempted} runs)")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
