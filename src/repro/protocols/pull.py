"""The classical pull protocol in the random phone call model.

Every node calls one random neighbour per round; informed nodes answer every
incoming call with the message.  Pull is slow while few nodes are informed
(the source has to wait to be called) but extremely fast in the endgame: once
half the nodes are informed the uninformed count drops doubly exponentially,
which is the effect the paper's Phase 3/4 exploits.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..core.errors import ConfigurationError
from ..core.node import NodeState, VectorState
from .base import BroadcastProtocol, OptionalHorizonMixin

__all__ = ["PullProtocol"]


class PullProtocol(BroadcastProtocol, OptionalHorizonMixin):
    """Pull-only broadcasting with a configurable fanout."""

    name = "pull"
    supports_vectorized = True
    supports_dynamic_membership = True

    def __init__(
        self,
        n_estimate: int,
        fanout: int = 1,
        horizon_factor: float = 6.0,
        horizon_override: Optional[int] = None,
    ) -> None:
        if n_estimate < 2:
            raise ConfigurationError(f"n_estimate must be >= 2, got {n_estimate}")
        if fanout < 1:
            raise ConfigurationError(f"fanout must be >= 1, got {fanout}")
        if horizon_factor <= 0:
            raise ConfigurationError(f"horizon_factor must be positive, got {horizon_factor}")
        self.n_estimate = n_estimate
        self._fanout = fanout
        default = math.ceil(horizon_factor * math.log2(n_estimate))
        self._horizon = self.resolve_horizon(default, horizon_override)
        if fanout > 1:
            self.name = f"pull-{fanout}"

    def horizon(self) -> int:
        return self._horizon

    def push_round(self, round_index: int) -> bool:
        return False

    def pull_round(self, round_index: int) -> bool:
        return True

    def fanout(self, state: NodeState, round_index: int) -> int:
        return self._fanout

    def wants_push(self, state: NodeState, round_index: int) -> bool:
        return False

    def wants_pull(self, state: NodeState, round_index: int) -> bool:
        return state.informed

    # -- bulk hooks (every round is a pull round) -------------------------------

    # Pull rounds sample every node with a neighbour (any caller may
    # receive); the engine's delivery path still commits only the uninformed
    # hits sparsely.

    def vector_fanout(self, round_index: int) -> int:
        return self._fanout

    def vector_wants_pull(self, round_index: int, state: VectorState) -> np.ndarray:
        return state.informed

    def describe(self) -> dict:
        description = super().describe()
        description.update({"fanout": self._fanout, "n_estimate": self.n_estimate})
        return description
