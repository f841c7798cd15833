"""Unit and integration tests for the median-counter protocol."""

from __future__ import annotations

import pytest

from repro.core.config import SimulationConfig
from repro.core.engine import run_broadcast, run_broadcast_batch
from repro.core.errors import ConfigurationError
from repro.core.node import NodeState, StateTable
from repro.core.rng import RandomSource
from repro.graphs.configuration_model import random_regular_graph
from repro.protocols.median_counter import MedianCounterProtocol
from repro.protocols.push_pull import PushPullProtocol


def informed_state(node_id: int) -> NodeState:
    state = NodeState(node_id=node_id)
    state.informed = True
    state.informed_round = 0
    return state


class TestStateMachine:
    def test_new_nodes_start_in_state_b_with_counter_one(self):
        protocol = MedianCounterProtocol(n_estimate=256)
        assert protocol.wants_push(informed_state(3), 1)
        assert protocol.state_of(3) == "B"
        assert protocol.counter_of(3) == 1

    def test_uninformed_nodes_never_transmit(self):
        protocol = MedianCounterProtocol(n_estimate=256)
        assert not protocol.wants_push(NodeState(node_id=1), 1)
        assert not protocol.wants_pull(NodeState(node_id=1), 1)

    def test_counter_increments_when_median_is_not_smaller(self):
        protocol = MedianCounterProtocol(n_estimate=256)
        states = StateTable(n=4, source=0)
        states[1].deliver(0)
        states.commit_round()
        caller, callee = states[0], states[1]
        protocol.wants_push(caller, 1)
        protocol.wants_push(callee, 1)
        protocol.on_channel_exchange(caller, callee, 1)
        protocol.on_round_committed(1, states, set())
        assert protocol.counter_of(0) == 2
        assert protocol.counter_of(1) == 2

    def test_counter_does_not_increment_without_exchanges(self):
        protocol = MedianCounterProtocol(n_estimate=256)
        states = StateTable(n=4, source=0)
        protocol.wants_push(informed_state(0), 1)
        protocol.on_round_committed(1, states, set())
        assert protocol.counter_of(0) == 1

    def test_node_reaches_state_c_then_d(self):
        protocol = MedianCounterProtocol(n_estimate=256)
        states = StateTable(n=2, source=0)
        states[1].deliver(0)
        states.commit_round()
        caller, callee = states[0], states[1]
        protocol.wants_push(caller, 1)
        protocol.wants_push(callee, 1)
        # Drive enough high-median exchanges to exhaust ctr_max, then state C.
        for round_index in range(1, protocol.ctr_max + 1):
            protocol.on_channel_exchange(caller, callee, round_index)
            protocol.on_round_committed(round_index, states, set())
        assert protocol.state_of(0) == "C"
        # After state_c_rounds further rounds the node goes quiet.
        first_d_round = protocol.ctr_max + protocol.state_c_rounds + 1
        for round_index in range(protocol.ctr_max + 1, first_d_round):
            protocol.on_round_committed(round_index, states, set())
        assert protocol.state_of(0) == "D"
        assert not protocol.wants_push(caller, 99)

    def test_finished_when_all_informed_nodes_are_quiet(self):
        protocol = MedianCounterProtocol(n_estimate=256)
        states = StateTable(n=2, source=0)
        protocol._ensure_tracked(0)
        protocol._state[0] = "D"
        assert protocol.finished(5, states)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            MedianCounterProtocol(n_estimate=1)
        with pytest.raises(ConfigurationError):
            MedianCounterProtocol(n_estimate=256, fanout=0)
        with pytest.raises(ConfigurationError):
            MedianCounterProtocol(n_estimate=256, counter_rounds_factor=0)

    def test_describe_reports_counters(self):
        description = MedianCounterProtocol(n_estimate=1024).describe()
        assert description["ctr_max"] >= 1
        assert description["state_c_rounds"] >= 1


class TestEndToEnd:
    def test_self_termination_informs_everyone(self):
        graph = random_regular_graph(256, 8, RandomSource(seed=11))
        result = run_broadcast(
            graph,
            MedianCounterProtocol(n_estimate=256),
            seed=11,
            config=SimulationConfig(stop_when_informed=False),
        )
        assert result.success
        # The state machine stops the protocol before its hard horizon.
        assert result.rounds_executed < MedianCounterProtocol(n_estimate=256).horizon()

    def test_cheaper_than_naive_age_termination(self):
        graph = random_regular_graph(256, 8, RandomSource(seed=12))
        config = SimulationConfig(stop_when_informed=False)
        median = run_broadcast(
            graph, MedianCounterProtocol(n_estimate=256), seed=3, config=config
        )
        naive = run_broadcast(
            graph, PushPullProtocol(n_estimate=256), seed=3, config=config
        )
        assert median.success and naive.success
        assert median.total_transmissions < naive.total_transmissions

    def test_four_choice_variant_runs(self):
        graph = random_regular_graph(128, 8, RandomSource(seed=13))
        protocol = MedianCounterProtocol(n_estimate=128, fanout=4)
        assert protocol.name == "median-counter-4"
        result = run_broadcast(graph, protocol, seed=13)
        assert result.success

    def test_reused_instance_matches_fresh_instances(self):
        # Multi-seed calls drive every seed through one protocol instance,
        # so reset() must clear the per-node counters between runs.
        graph = random_regular_graph(128, 8, RandomSource(seed=14))
        config = SimulationConfig(stop_when_informed=False)
        seeds = [1, 2, 3]
        shared = run_broadcast_batch(
            graph, MedianCounterProtocol(n_estimate=128), seeds, config=config
        )
        fresh = [
            run_broadcast(graph, MedianCounterProtocol(n_estimate=128), seed=seed, config=config)
            for seed in seeds
        ]
        assert shared == fresh
