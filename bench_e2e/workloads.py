"""The benchmark's workloads and the checks their outputs must pass.

Each workload is a :class:`repro.spec.ScenarioSpec` grid built from the
workload seed (the seed becomes the spec's ``master_seed``, so it decides
every graph and every broadcast run).  The grids are scaled so one sweep
takes one to three seconds on a 2-vCPU host; each keeps the property it was
chosen to stress:

* ``e1-sweep`` — the paper's round-complexity sweep on the batched engine
  (R=16 rows per point); graph build and the networkx connectivity check
  are a large share of it.
* ``e8-churn`` — the robustness regime on the dynamic-membership engine,
  with every finished point appended to the durable streaming sink (one
  fsync per record): the only workload that runs the ``failures`` and
  ``dist`` layers.
* ``million-push`` — n=10^6 on the pairing model with one run per point:
  the single-run engine path and memory show, graph build is one pairing.

The checks hold for every seed (paper-shaped properties), and for the
recorded default seed the per-point digests must also match
``expected.json`` bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

#: The seed whose per-point digests are recorded in ``expected.json``.
DEFAULT_SEED = 2008

#: Push completes in about log2(n) + ln(n) ~ 1.7 log2(n) rounds on a random
#: regular graph (ROADMAP scaling table: 23.2 rounds at n=2^12, 38.8 at
#: n=2^20); 3 log2(n) leaves room for seed noise and still fails a protocol
#: that loses its logarithmic round complexity.
PUSH_ROUNDS_FACTOR = 3.0

#: Algorithm 1's transmissions per node are flat at large n (ROADMAP: 11.97
#: on the pairing model from n=2^16 to 2^20).  On this sweep's simple graphs
#: the 16-seed mean at n=2^14 measured 7.97-9.97 over master seeds 1-30
#: (push: 10.37-11.77), so the band is a sanity check on the cost measure
#: (a double-counted or lost phase leaves it), not a test of the asymptotic
#: claim.
ALG1_TX_PER_NODE = (7.0, 13.0)
ALG1_CHECK_MIN_N = 2**14


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: Callable[[int], dict]
    streamed: bool = False


def _e1_sweep(seed: int) -> dict:
    return {
        "name": "e1-sweep",
        "graph": {"family": "connected-random-regular", "params": {"n": 1024, "d": 8}},
        "protocol": {"name": "push"},
        "sweep": {
            "axes": [
                {
                    "path": "protocol.name",
                    "values": ["push", "push-pull", "algorithm1", "algorithm2"],
                    "key": "protocol",
                },
                {"path": "graph.params.n", "values": [2**10, 2**12, 2**14]},
            ]
        },
        "repetitions": 16,
        "master_seed": seed,
        "label": "e1-{protocol}",
    }


def _e8_churn(seed: int) -> dict:
    return {
        "name": "e8-churn",
        "graph": {"family": "connected-random-regular", "params": {"n": 2**13, "d": 8}},
        "protocol": {"name": "algorithm1"},
        "churn": {
            "model": "uniform",
            "params": {"leave_rate": 0.0, "join_rate": 0.01, "target_degree": 8},
        },
        "sweep": {
            "axes": [
                {
                    "path": "protocol.name",
                    "values": ["algorithm1", "push-pull"],
                    "key": "protocol",
                },
                {
                    "path": "churn.params.leave_rate",
                    "values": [0.0, 0.01, 0.02],
                    "key": "leave_rate",
                },
            ]
        },
        "repetitions": 2,
        "master_seed": seed,
        "label": "e8-{protocol}-{leave_rate}",
    }


def _million_push(seed: int) -> dict:
    return {
        "name": "million-push",
        "graph": {"family": "pairing-multigraph", "params": {"n": 10**6, "d": 8}},
        "protocol": {"name": "push"},
        "sweep": {
            "axes": [
                {
                    "path": "protocol.name",
                    "values": ["push", "quasirandom-push", "algorithm2"],
                    "key": "protocol",
                }
            ]
        },
        "repetitions": 1,
        "master_seed": seed,
        "label": "million-{protocol}",
    }


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "e1-sweep",
            "paper round-complexity sweep, 4 protocols x n=2^10..2^14 x 16 batched "
            "seeds; graph build and connectivity check show",
            _e1_sweep,
        ),
        Workload(
            "e8-churn",
            "uniform churn at n=2^13 on the per-seed dynamic-membership engine, results "
            "through the fsync'd streaming sink; the only workload for failures and dist",
            _e8_churn,
            streamed=True,
        ),
        Workload(
            "million-push",
            "n=10^6 pairing multigraph, one run per protocol: single-run engine "
            "path, round kernels and memory dominate",
            _million_push,
        ),
    )
}


# -- output checks ------------------------------------------------------------------


def run_record(result) -> list:
    """The fields of one run that the digest covers."""
    churn = result.metadata.get("churn") or {}
    return [
        int(result.n),
        str(result.protocol),
        bool(result.success),
        int(result.rounds_executed),
        None if result.rounds_to_completion is None else int(result.rounds_to_completion),
        int(result.total_push_transmissions),
        int(result.total_pull_transmissions),
        int(result.total_lost_transmissions),
        int(result.total_channels_opened),
        int(result.final_informed),
        int(churn.get("departures", 0)),
        int(churn.get("arrivals", 0)),
        int(churn.get("node_compactions", 0)),
    ]


def point_digest(point) -> str:
    """A short digest of every run of one grid point, in seed order."""
    payload = json.dumps([run_record(result) for result in point.results])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def combined_digest(point_digests: Dict[int, str]) -> str:
    """One digest over all point digests in grid order."""
    payload = json.dumps(sorted(point_digests.items()))
    return hashlib.sha256(payload.encode()).hexdigest()


def _is_static_reliable(spec) -> bool:
    return spec.churn.model == "none" and spec.failure.model == "reliable"


def shape_problems(point) -> List[str]:
    """Seed-independent checks on one grid point; an empty list means it passed."""
    spec = point.spec
    problems: List[str] = []
    if len(point.results) != spec.repetitions:
        problems.append(f"{len(point.results)} runs, expected {spec.repetitions}")
    if not point.results:
        return problems
    for result in point.results:
        transmissions = result.total_push_transmissions + result.total_pull_transmissions
        if result.total_lost_transmissions > transmissions:
            problems.append("more transmissions lost than sent")
        if result.final_informed < 1:
            problems.append("source not informed at the end")
        if result.success != (result.rounds_to_completion is not None):
            problems.append("success flag disagrees with rounds_to_completion")
    if not _is_static_reliable(spec):
        return problems
    for result in point.results:
        if not result.success or result.final_informed != result.n:
            problems.append(
                f"static reliable run informed {result.final_informed} of {result.n}"
            )
    n = point.results[0].n
    if spec.protocol.name == "push":
        limit = PUSH_ROUNDS_FACTOR * math.log2(n)
        slowest = max(result.rounds_executed for result in point.results)
        if slowest > limit:
            problems.append(f"push took {slowest} rounds > {limit:.1f}")
    if spec.protocol.name == "algorithm1" and n >= ALG1_CHECK_MIN_N:
        per_node = sum(
            (r.total_push_transmissions + r.total_pull_transmissions) / r.n
            for r in point.results
        ) / len(point.results)
        low, high = ALG1_TX_PER_NODE
        if not low <= per_node <= high:
            problems.append(
                f"algorithm1 sent {per_node:.2f} transmissions per node at n={n}, "
                f"outside [{low}, {high}]"
            )
    return problems


def check_run(run, expected: Dict[int, str] = None) -> Tuple[Dict[int, str], int, List[str]]:
    """Check every point of a finished sweep.

    Returns ``(point digests, failed runs, messages)``.  A point fails when a
    shape check fails, when it is missing (quarantined), or when
    ``expected`` (per-point digests by grid index) is given and differs;
    all of a failed point's runs count as failed.
    """
    repetitions = run.spec.repetitions
    total = run.spec.sweep.size if run.spec.sweep is not None else 1
    digests = {point.index: point_digest(point) for point in run.points}
    failed = 0
    messages: List[str] = []
    for index in range(total):
        if index not in digests:
            failed += repetitions
            messages.append(f"point {index}: missing from the results")
    for point in run.points:
        problems = shape_problems(point)
        if expected is not None and expected.get(point.index) != digests[point.index]:
            problems.append(
                f"digest {digests[point.index]} != recorded {expected.get(point.index)}"
            )
        if problems:
            failed += len(point.results) or repetitions
            messages.append(f"point {point.index} ({point.label}): {'; '.join(problems)}")
    retries = int(run.provenance.get("retries", 0) or 0)
    if retries:
        failed += retries * repetitions
        messages.append(f"{retries} point retries")
    return digests, failed, messages
