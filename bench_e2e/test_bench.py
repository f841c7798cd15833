"""Self-tests of the end-to-end benchmark.

Run from the repository root (about a minute: one short run of every
workload in both modes)::

    python3 -m pytest bench_e2e -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

from run import END_TO_END_UNITS, ROOT, load_expected, per_layer_unit
from workloads import DEFAULT_SEED, WORKLOADS

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Per-layer times measured outside the timed sweep window, or not busy time.
NOT_IN_WALL = {"spec.load_s", "trace.wall_s", "trace.overhead_s"}


def bench(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench_e2e/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.fixture(scope="module")
def results():
    """One shortest possible run (a single sweep) per workload and mode."""
    cache = {}

    def get(workload: str, trace: int) -> dict:
        if (workload, trace) not in cache:
            done = bench("--workload", workload, "--seconds", "0", "--trace", str(trace))
            assert done.returncode == 0, done.stderr
            cache[workload, trace] = json.loads(done.stdout.strip().splitlines()[-1])
        return cache[workload, trace]

    return get


def test_names_are_well_formed():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_recorded_units_match_the_emitted_units():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END_UNITS
    for metric in BENCHMARK["per_layer"]:
        assert metric["unit"] == per_layer_unit(metric["name"]), metric


def test_digest_recorded_only_for_the_default_seed():
    for workload in WORKLOADS.values():
        expected = load_expected(workload.name, DEFAULT_SEED)
        sweep = workload.spec(DEFAULT_SEED)["sweep"]
        points = 1
        for axis in sweep["axes"]:
            points *= len(axis["values"])
        assert sorted(expected) == list(range(points))
        assert load_expected(workload.name, DEFAULT_SEED + 1) is None


def test_tracer_restores_every_patched_function():
    sys.path.insert(0, str(ROOT / "src"))
    import repro.experiments.runner as runner
    from repro.graphs.base import Graph
    from tracing import Tracer

    before = (runner.repeat_broadcast, runner.run_broadcast_batch, Graph.__dict__["csr"])
    with Tracer():
        assert runner.repeat_broadcast is not before[0]
        assert runner.run_broadcast_batch is not before[1]
    assert (runner.repeat_broadcast, runner.run_broadcast_batch, Graph.__dict__["csr"]) == before


def test_self_time_subtracts_child_spans():
    from tracing import _SpanIndex

    spans = [
        ["experiments.point", 0.0, 10.0, -1, None],
        ["graphs.build", 1.0, 4.0, 0, None],
        ["core.engine", 5.0, 9.0, 0, {"rows": 4, "row_rounds": 30, "max_rounds": 10}],
        ["core.engine", 6.0, 7.0, 2, None],
    ]
    index = _SpanIndex(spans)
    assert index.self_of(("experiments.point",)) == pytest.approx(3.0)
    assert index.busy("core.engine") == pytest.approx(4.0)
    assert index.outermost("core.engine") == [2]
    assert index.attr_sum("core.engine", "rows") == 4


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(results, workload, trace):
    result = results(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    recorded = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in recorded} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_no_layer_is_busier_than_the_traced_sweep(results, workload):
    metrics = {name: m["value"] for name, m in results(workload, 1)["metrics"].items()}
    wall = metrics["trace.wall_s"]
    for name, value in metrics.items():
        if name.endswith("_s") and name not in NOT_IN_WALL:
            assert 0 <= value <= wall, (name, value, wall)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "bench_e2e", tmp_path / "bench_e2e", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = bench("--workload", "e1-sweep", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
