"""The bulk protocol contract, checked against the scalar decision rules.

The bulk engine asks every protocol the same questions as the scalar engine
— who pushes, who answers calls, who opens channels — but in bulk form, and
only in the rounds that need each answer:

* push-only rounds sample exactly ``vector_push_samplers`` (a sorted flat
  index pool);
* pull rounds gather ``vector_wants_pull``, and mixed push + pull rounds
  also ``vector_wants_push`` (``bool[R, n]`` masks);
* every round charges channels to ``vector_caller_pool`` (``None``: every
  node) at ``vector_fanout`` channels per caller.

This suite drives a :class:`VectorState` (``commit_delivered`` +
``vector_on_round_committed``) and one :class:`StateTable` per replication
(``deliver`` / ``commit_round`` + ``on_round_committed``) in lock-step over
the same random per-round delivery sets, for every bulk protocol over its
whole schedule, and checks each round that the hooks consulted in that round
describe exactly the sets the scalar rules ``wants_push`` / ``wants_pull`` /
``fanout`` give node by node.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.node import StateTable, VectorState
from repro.protocols.algorithm1 import Algorithm1
from repro.protocols.algorithm2 import Algorithm2
from repro.protocols.pull import PullProtocol
from repro.protocols.push import PushProtocol
from repro.protocols.push_pull import PushPullProtocol
from repro.protocols.quasirandom import QuasirandomPushProtocol
from repro.protocols.schedule import PhaseSchedule

N = 96
ROWS = 3
SOURCE = 5
#: Deliveries per row and round: small enough that uninformed nodes remain
#: through every schedule (so Algorithm 1's Phase-4 active set keeps
#: growing), large enough that every phase sees commits.
DELIVERIES = N // 16

PROTOCOLS = {
    "push": lambda: PushProtocol(n_estimate=N),
    "push-2": lambda: PushProtocol(n_estimate=N, fanout=2),
    "pull": lambda: PullProtocol(n_estimate=N),
    "push-pull": lambda: PushPullProtocol(n_estimate=N),
    "push-pull-4": lambda: PushPullProtocol(n_estimate=N, fanout=4),
    "quasirandom-push": lambda: QuasirandomPushProtocol(n_estimate=N),
    "algorithm1": lambda: Algorithm1(n_estimate=N),
    # A custom schedule whose Phase 4 follows Phase 2 directly.
    "algorithm1-empty-phase3": lambda: Algorithm1(
        n_estimate=N,
        schedule_override=PhaseSchedule(
            phase1_end=3, phase2_end=5, phase3_end=5, phase4_end=9
        ),
    ),
    "algorithm2": lambda: Algorithm2(n_estimate=N),
}


def _flat(per_row_sets) -> list:
    """Ascending flat ``row * N + node`` ids of per-row node-id sets."""
    return sorted(row * N + node for row, nodes in enumerate(per_row_sets) for node in nodes)


def _scalar_set(tables, rule, round_index) -> list:
    return _flat(
        [{state.node_id for state in table if rule(state, round_index)} for table in tables]
    )


def _mask_set(mask: np.ndarray) -> list:
    assert mask.shape == (ROWS, N)
    return np.flatnonzero(mask.reshape(-1)).tolist()


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_bulk_hooks_match_scalar_rules_every_round(name):
    bulk = PROTOCOLS[name]()
    scalar = PROTOCOLS[name]()
    bulk.reset()
    scalar.reset()
    state = VectorState(n=N, source=SOURCE, batch=ROWS)
    tables = [StateTable(n=N, source=SOURCE) for _ in range(ROWS)]
    rng = np.random.default_rng(2008)
    round_types = set()

    for round_index in range(1, bulk.horizon() + 1):
        push = bulk.push_round(round_index)
        pull = bulk.pull_round(round_index)
        assert (push, pull) == (
            scalar.push_round(round_index),
            scalar.pull_round(round_index),
        )
        if push and not pull:
            round_types.add("push-only")
            pool = bulk.vector_push_samplers(round_index, state)
            assert pool.tolist() == _scalar_set(tables, scalar.wants_push, round_index)
        if pull:
            round_types.add("mixed" if push else "pull")
            pull_mask = bulk.vector_wants_pull(round_index, state)
            assert _mask_set(pull_mask) == _scalar_set(
                tables, scalar.wants_pull, round_index
            )
        if push and pull:
            push_mask = bulk.vector_wants_push(round_index, state)
            assert _mask_set(push_mask) == _scalar_set(
                tables, scalar.wants_push, round_index
            )

        fanout = bulk.vector_fanout(round_index)
        callers = bulk.vector_caller_pool(round_index, state)
        expected_callers = _scalar_set(
            tables, lambda s, r: scalar.fanout(s, r) > 0, round_index
        )
        if callers is None:
            assert expected_callers == list(range(ROWS * N))
        else:
            assert callers.tolist() == expected_callers
        for table in tables:
            assert all(
                scalar.fanout(s, round_index) in (0, fanout) for s in table
            )

        # The same deliveries land in both representations.
        per_row = [
            rng.choice(N, size=DELIVERIES, replace=False).tolist() for _ in range(ROWS)
        ]
        newly = state.commit_delivered(
            np.asarray(_flat(per_row), dtype=np.int64), round_index
        )
        bulk.vector_on_round_committed(round_index, state, newly)
        scalar_newly = []
        for table, nodes in zip(tables, per_row):
            for node in nodes:
                table[node].deliver(round_index)
            committed = table.commit_round()
            scalar.on_round_committed(round_index, table, committed)
            scalar_newly.append(committed)
        assert newly.tolist() == _flat(scalar_newly)
        assert state.informed_flat.tolist() == _scalar_set(
            tables, lambda s, r: s.informed, round_index
        )

    # Every round type the protocol's schedule has was exercised.
    if name in ("algorithm1", "algorithm2"):
        assert round_types == {"push-only", "pull"}
    if name.startswith("algorithm1"):
        phase4 = [
            r for r in range(1, bulk.horizon() + 1) if bulk.schedule.phase_of(r) == 4
        ]
        assert phase4
        assert bulk._active_flat is not None and bulk._active_flat.size > 0
