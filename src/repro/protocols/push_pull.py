"""The combined push & pull protocol of Karp, Schindelhauer, Shenker, Vöcking.

In every round each node calls one random neighbour; informed nodes both push
(to the neighbour they called) and pull (answer every caller).  With the
age-based termination rule — stop transmitting a message once its age exceeds
``log₃ n + O(log log n)`` rounds — Karp et al. show that on complete graphs
this broadcasts with high probability using only ``O(n·log log n)``
transmissions.  On sparse random regular graphs with one call per round the
paper's lower bound (Theorem 1) shows this economy is unattainable, which is
exactly the contrast the experiments highlight.

The optional fanout parameter turns this into the "four distinct choices"
variant, i.e. the model of the paper without the phase structure of
Algorithm 1 — a useful ablation of how much the phases themselves matter.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..core.errors import ConfigurationError
from ..core.node import NodeState, VectorState
from .base import BroadcastProtocol, OptionalHorizonMixin

__all__ = ["PushPullProtocol"]


class PushPullProtocol(BroadcastProtocol, OptionalHorizonMixin):
    """Push & pull with age-based termination.

    Parameters
    ----------
    n_estimate:
        Shared network-size estimate used for the termination age.
    fanout:
        Distinct neighbours called per round (1 = standard model).
    extra_loglog_rounds:
        The termination age is ``ceil(log₃ n) + ceil(extra_loglog_rounds ·
        log₂ log₂ n)``; Karp et al. use a constant multiple of ``log log n``
        beyond the exponential-growth phase.
    horizon_override:
        Exact round budget, overriding the age-based computation.
    """

    name = "push-pull"
    supports_vectorized = True
    # Per-node decisions read only the engine-owned informed plane, which the
    # dynamic-membership engine keeps consistent across departures and joins.
    supports_dynamic_membership = True

    def __init__(
        self,
        n_estimate: int,
        fanout: int = 1,
        extra_loglog_rounds: float = 4.0,
        horizon_override: Optional[int] = None,
    ) -> None:
        if n_estimate < 2:
            raise ConfigurationError(f"n_estimate must be >= 2, got {n_estimate}")
        if fanout < 1:
            raise ConfigurationError(f"fanout must be >= 1, got {fanout}")
        if extra_loglog_rounds < 0:
            raise ConfigurationError(
                f"extra_loglog_rounds must be non-negative, got {extra_loglog_rounds}"
            )
        self.n_estimate = n_estimate
        self._fanout = fanout
        log_n = math.log2(n_estimate)
        loglog_n = max(1.0, math.log2(max(2.0, log_n)))
        default = math.ceil(math.log(n_estimate, 3)) + math.ceil(
            extra_loglog_rounds * loglog_n
        ) + math.ceil(log_n)
        self._horizon = self.resolve_horizon(default, horizon_override)
        if fanout > 1:
            self.name = f"push-pull-{fanout}"

    def horizon(self) -> int:
        return self._horizon

    def push_round(self, round_index: int) -> bool:
        return True

    def pull_round(self, round_index: int) -> bool:
        return True

    def fanout(self, state: NodeState, round_index: int) -> int:
        return self._fanout

    def wants_push(self, state: NodeState, round_index: int) -> bool:
        return state.informed

    def wants_pull(self, state: NodeState, round_index: int) -> bool:
        return state.informed

    # -- bulk hooks (every round is a mixed push + pull round) ----------------

    # Every round is also a pull round, so the engine samples every node with
    # a neighbour regardless of the push set; the push subset is selected by
    # one mask gather over the sampled channels.

    def vector_fanout(self, round_index: int) -> int:
        return self._fanout

    def vector_wants_push(self, round_index: int, state: VectorState) -> np.ndarray:
        return state.informed

    def vector_wants_pull(self, round_index: int, state: VectorState) -> np.ndarray:
        return state.informed

    def describe(self) -> dict:
        description = super().describe()
        description.update({"fanout": self._fanout, "n_estimate": self.n_estimate})
        return description
