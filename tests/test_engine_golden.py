"""Golden digests of single-seed bulk-engine runs.

Each case runs one seed through :func:`run_broadcast` on the bulk engine and
compares a digest of the complete :class:`RunResult` — totals, per-round
history, phase transmissions and metadata — against a value recorded from
the reference implementation.  The cases cover the static fast paths on a
pairing multigraph with self-loops and parallel edges — push, quasirandom
push (also with channel failures), Algorithm 2, a lossy push, Algorithm 1
over its full schedule (Phase 4 pushes from the active-node pool), pull and
four-choice push-pull (pull and mixed rounds with fanout above one) — plus
two-choice push on a ``gnp`` graph (non-uniform degrees, so both the
saturated and the random-key subset sampler run), a push broadcast large
enough to take the in-place scratch sampling pipeline, and dynamic
membership (Algorithm 1 and push-pull under uniform churn, with node
compaction firing).

A digest mismatch means a single run no longer draws or counts exactly as
before; the batched parity suites cannot catch that, because they compare
the engine with itself.  To re-record after a deliberate change, run this
file as a script and paste its output over ``GOLDEN``::

    PYTHONPATH=src python tests/test_engine_golden.py
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.config import SimulationConfig
from repro.core.engine import run_broadcast
from repro.core.engine_vectorized import BatchedVectorizedRoundEngine
from repro.core.rng import RandomSource
from repro.failures.churn import UniformChurn
from repro.failures.message_loss import IndependentLoss
from repro.graphs.configuration_model import pairing_multigraph
from repro.graphs.registry import build_graph
from repro.protocols.algorithm1 import Algorithm1
from repro.protocols.algorithm2 import Algorithm2
from repro.protocols.pull import PullProtocol
from repro.protocols.push import PushProtocol
from repro.protocols.push_pull import PushPullProtocol
from repro.protocols.quasirandom import QuasirandomPushProtocol

PAIRING_N = 2048
CHURN_N = 512
GNP_N = 2048
#: Large enough that the informed set outgrows the engine's scratch-pipeline
#: threshold during the push broadcast.
SCRATCH_N = 1 << 16


def _pairing_graph():
    return pairing_multigraph(PAIRING_N, 8, RandomSource(seed=11, name="graph"))


def _gnp_graph():
    return build_graph(
        "gnp", rng=RandomSource(seed=7, name="graph"), n=GNP_N, p=8 / (GNP_N - 1)
    )


def _scratch_graph():
    return pairing_multigraph(SCRATCH_N, 8, RandomSource(seed=11, name="graph"))


def _churn_graph():
    return build_graph(
        "random-regular", rng=RandomSource(seed=5, name="graph"), n=CHURN_N, d=8
    )


def _churn():
    return UniformChurn(leave_rate=0.05, join_rate=0.02, target_degree=8)


#: name -> (graph builder, protocol builder, run keyword arguments)
CASES = {
    "push": (_pairing_graph, lambda: PushProtocol(n_estimate=PAIRING_N), {}),
    "quasirandom-push": (
        _pairing_graph, lambda: QuasirandomPushProtocol(n_estimate=PAIRING_N), {}
    ),
    "algorithm2": (_pairing_graph, lambda: Algorithm2(n_estimate=PAIRING_N), {}),
    "push-lossy": (
        _pairing_graph,
        lambda: PushProtocol(n_estimate=PAIRING_N),
        {
            "failure_model": IndependentLoss(
                transmission_loss_probability=0.1, channel_failure_probability=0.05
            )
        },
    ),
    "algorithm1-phase4": (
        _pairing_graph,
        lambda: Algorithm1(n_estimate=PAIRING_N, alpha=0.4),
        {"config": SimulationConfig(stop_when_informed=False)},
    ),
    "pull": (_pairing_graph, lambda: PullProtocol(n_estimate=PAIRING_N), {}),
    "push-pull-4": (
        _pairing_graph, lambda: PushPullProtocol(n_estimate=PAIRING_N, fanout=4), {}
    ),
    "push-2-gnp": (_gnp_graph, lambda: PushProtocol(n_estimate=GNP_N, fanout=2), {}),
    "quasirandom-push-channel-failure": (
        _pairing_graph,
        lambda: QuasirandomPushProtocol(n_estimate=PAIRING_N),
        {"failure_model": IndependentLoss(channel_failure_probability=0.1)},
    ),
    "push-scratch": (_scratch_graph, lambda: PushProtocol(n_estimate=SCRATCH_N), {}),
    "algorithm1-churn": (
        _churn_graph,
        lambda: Algorithm1(n_estimate=CHURN_N),
        {"churn": True, "config": SimulationConfig(stop_when_informed=False)},
    ),
    "push-pull-churn": (
        _churn_graph,
        lambda: PushPullProtocol(n_estimate=CHURN_N),
        {"churn": True, "config": SimulationConfig(stop_when_informed=False)},
    ),
}

GOLDEN = {
    "algorithm1-churn": "052f9b4b5e16bced3a0959e3eaaa067f1132bfb61ac7809d07779fa981d8dbbc",
    "algorithm1-phase4": "7eec8c7da91fda170ad1b3501c1f743f0d2298749c61e0726f7e30870b09ad45",
    "algorithm2": "fe4b80066974deb92057dc79e429646b0bb78252099f7ecd97ee273df44b59da",
    "pull": "0356f4902cd59c3a44301ab0c076437675a2f792a817892bf9d6b4f108bb3966",
    "push": "3e6b5b76719cba55c805a8c010d4a69150fe8b8b9f13b806dddc96a988278726",
    "push-2-gnp": "41027b46e5cf85337f6871f39ddd0a2f95b62747fc78eae85c79818c85698458",
    "push-lossy": "899254e8b4af677cda773c223f69b633bf3c7e15c4bbf751695053f5644140be",
    "push-pull-4": "db6b2c842231dad7b200740f98caa7864fc3a24891c077fd7dfc7c9fe06c9229",
    "push-pull-churn": "4f8df904e4e6a21acfbbfd2c46e1bb731df42eb082d43f6dc413788ef1db2681",
    "push-scratch": "0f1caa9f8a479d58a39e52b69afd3b1bf370d8e22dfce8892dc5c3bef1665bf5",
    "quasirandom-push": "32478648c0037102b26e3930e51a5b774b4169c1fcb54ebb4b2e1394af5f1c6c",
    "quasirandom-push-channel-failure": "98b0dd1161f319fa76ca3a62fd338e8dfa9d5ece00f7b584d5cc68b1913bc092",
}


def run_case(name: str):
    graph_builder, protocol_builder, kwargs = CASES[name]
    kwargs = dict(kwargs)
    if kwargs.pop("churn", False):
        kwargs["churn_model"] = _churn()
    config = kwargs.pop("config", SimulationConfig())
    return run_broadcast(
        graph_builder(),
        protocol_builder(),
        seed=2008,
        config=config.with_overrides(engine="vectorized"),
        **kwargs,
    )


def result_digest(result) -> str:
    payload = result.to_dict()
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_single_seed_run_matches_golden_digest(name):
    result = run_case(name)
    assert result.metadata["engine"] == "vectorized"
    if name.endswith("-churn"):
        assert result.metadata["churn"]["node_compactions"] >= 1
    if name == "algorithm1-phase4":
        assert result.phase_transmissions["phase4"] > 0
    if name == "push-scratch":
        assert result.n >= 2 * BatchedVectorizedRoundEngine._SCRATCH_MIN_SAMPLERS
    assert result_digest(result) == GOLDEN[name]


if __name__ == "__main__":  # pragma: no cover - re-recording helper
    for case in sorted(CASES):
        print(f'    "{case}": "{result_digest(run_case(case))}",')
