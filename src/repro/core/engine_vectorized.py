"""The bulk NumPy round engine — the simulator's fast path.

This engine executes the same synchronous random phone call model as
:class:`repro.core.engine.RoundEngine`, but represents the whole round state
as arrays (:class:`repro.core.node.VectorState`) and executes each round with
bulk operations over the graph's CSR adjacency view:

1. the protocol reports who pushes and who answers calls this round — in
   push-only rounds as a sorted *index pool* (``vector_push_samplers``,
   usually a pool the state maintains incrementally), in pull and mixed
   rounds as boolean masks gathered per channel (``vector_wants_pull`` /
   ``vector_wants_push``);
2. every node that needs to sample does so in one batch — one
   ``Generator.random`` draw mapped to stub offsets for fanout 1, a chunked
   random-key top-``k`` selection for larger fanouts — yielding flat
   ``callers`` / ``callees`` channel arrays;
3. failure injection is a Bernoulli array over the channels and transmissions;
4. deliveries commit sparsely (:meth:`VectorState.commit_delivered`): only the
   uninformed hits are sorted and promoted, so "received in round ``t``,
   effective in ``t + 1``" holds exactly as in the scalar engine while the
   commit cost tracks the shrinking uninformed set.

Index pools and scratch buffers
-------------------------------
Push-only rounds never trigger an O(n) flag scan: the state maintains the
sorted informed-index vector by merge at each commit, the protocol hands back
the relevant pool (informed, last round's newly informed, Algorithm 1's
active list), and sampling cost is proportional to the number of *pushers*,
which is what makes the exponential growth phase cost O(n) in aggregate
rather than O(n · rounds).  Channel charging works the same way: the
protocol's ``vector_caller_pool`` (``None`` for "every node with a
neighbour") is summed per row.  Above ``_SCRATCH_MIN_SAMPLERS`` samplers
the fanout-1 sampling pipeline reuses preallocated scratch buffers
(uniforms, stub offsets, gather positions, callees) instead of allocating
fresh full-size arrays every round, and all index arrays follow the CSR
index dtype (int32 for every graph below two billion stubs).
``Generator.random(out=...)`` fills a scratch slice with the same stream a
fresh allocation would get, so the scratch path draws exactly what the
allocating path draws.

Replications: one engine for one run or many
--------------------------------------------
:class:`BatchedVectorizedRoundEngine` is the only bulk round loop and round
kernel.  It runs ``R`` independent replications of the same configuration
(one seed per replication) over a shared graph in one NumPy program, holding
the whole ensemble as ``(R, n)`` state arrays.  A single run is a batch of
one: :class:`VectorizedRoundEngine` merely passes ``[seed]`` and returns the
one row.  Each replication draws from its own generator pair, spawned from
its seed alone (``RandomSource(seed).spawn("protocol")`` /
``spawn("failures")``), and its draw *sequence* never depends on the other
rows, so every row of a batch is bit-identical to the batch of one with
that seed.  What the batch amortises is everything *around* the draws:
state commits, channel bookkeeping, delivery scatter, and per-run setup all
happen once per round for the whole ensemble instead of once per round per
seed.  A batch of one skips the row machinery outright — no ``row * n``
offsets, no per-row counting, and its fanout-1 draw runs through the
scratch buffers — so a single run pays nothing for the batched layout.

Row compaction
~~~~~~~~~~~~~~
When ``stop_when_informed`` holds (the default) and
``SimulationConfig.batch_row_compaction`` is on, completed replications are
*remapped out* of the ``(R, n)`` state the moment they finish: the state
planes, the informed-index vectors, the per-replication generator lists, and
any protocol-held per-row tables (via the
:meth:`BroadcastProtocol.vector_compact_rows` hook) are all sliced down to
the surviving rows, and each retired row's result lands at its seed's
position.  Long-tail sweeps therefore shrink their arrays as rows finish
instead of carrying dead rows to the last straggler's round.  Compaction
never touches a generator stream, so the results are bit-identical with
compaction on or off (asserted in ``tests/test_engine_compaction.py``).

Dispatch rules
--------------
The fast path reproduces the scalar engine's *aggregate* semantics (success,
rounds-to-completion distribution, transmission and channel accounting
identities) but not its per-call draw order, so runs with the same seed agree
statistically, not bit-for-bit.  ``run_broadcast`` therefore selects it only
when nothing the scalar engine offers beyond aggregates is requested:

* the protocol opts in (``supports_vectorized``) and needs neither the
  per-channel exchange hook nor the contact-memory mechanism;
* no tracer is attached (tracing is inherently per-event);
* churn, when present, is a model that opted into the bulk membership hook
  (``ChurnModel.supports_vectorized`` / ``vector_apply``) driving a protocol
  that opted into dynamic membership
  (``BroadcastProtocol.supports_dynamic_membership``);
* the failure model is ``ReliableDelivery`` or ``IndependentLoss`` (arbitrary
  strategy objects cannot be batched);
* the graph's node ids are contiguous ``0..n-1``.

:func:`vectorization_unsupported_reason` centralises these checks and returns
a human-readable reason (or ``None``) so the dispatcher and error messages
stay in sync.  One rule sits in the engine instead: a churn run takes exactly
one seed, because replications' graphs diverge under churn and there is no
shared CSR to batch over (``repro.core.engine.run_broadcast_batch`` runs a
churned multi-seed call one seed at a time).

Dynamic membership (vectorized churn)
-------------------------------------
With an opted-in churn model the engine runs its single replication in
*dynamic mode*: it copies the graph's CSR into private mutable arrays (the
caller's graph object is never touched), enables tombstone masks on the
``(1, n)`` state (:meth:`VectorState.enable_membership`), and applies the
churn model's ``vector_apply`` at the top of every round through a narrow
mutation surface (:class:`VectorChurnOps`):

* **departures** clear a node's flags, evict its id from every sorted index
  pool (engine- and protocol-held), and mark it dead.  Its CSR row stays as
  a *tombstone* — survivors' stubs that point at it are filtered out at call
  time together with self-loops and failed channels, so survivors keep their
  stub-count degree (the draw arithmetic never changes shape mid-round);
* **joins** splice each joiner into ``max(1, target_degree // 2)`` uniformly
  chosen live stubs by batched CSR edits — replace stub ``(u, v)`` with
  ``(u, J)``/``(v, J)`` in place and append ``[u, v, …]`` as ``J``'s tail
  row — so existing nodes keep their degree and id growth is append-only;
* when a quarter of the id space is dead, **node compaction** renumbers it
  away (the node-axis mirror of batch row compaction): the state planes are
  sliced via :meth:`VectorState.compact_nodes`, the CSR is rebuilt through
  the returned id-remap table (dead targets become ``-1`` sentinels), and
  protocol-held pools remap through
  :meth:`BroadcastProtocol.vector_compact_nodes`.

Every random decision on this path — the churn models' draws and the
engine's sampling — depends only on live-node *positions* (rank in ascending
id order), live counts, and per-row stub counts, all invariant under the
monotone compaction remap.  Vectorized churn is therefore draw-for-draw
deterministic and bit-identical across compaction on/off
(``SimulationConfig.churn_node_compaction``) and across every execution path
that replays the same seeds (asserted in ``tests/test_churn_vectorized.py``).
Scalar and vectorized churn agree *statistically*, not bit-for-bit: the
scalar engine deletes departed nodes' edges outright (survivor degrees
shrink) where this engine tombstones them (survivor stub-counts persist
until their calls are filtered).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..failures.churn import ChurnModel, NoChurn
from ..failures.message_loss import FailureModel, IndependentLoss, ReliableDelivery
from ..graphs.base import Graph
from ..protocols.base import BroadcastProtocol
from .config import SimulationConfig
from .errors import SimulationError
from .metrics import RoundRecord, RunResult
from .node import VectorState
from .rng import RandomSource
from .trace import NullTracer, Tracer

__all__ = [
    "VectorizedRoundEngine",
    "BatchedVectorizedRoundEngine",
    "VectorChurnOps",
    "vectorization_unsupported_reason",
]

#: Upper bound on random keys materialised per sampling chunk (rows × max
#: degree); keeps the k-distinct path's peak memory flat on dense graphs.
_CHUNK_ENTRIES = 1 << 22


def _overrides(protocol: BroadcastProtocol, hook: str) -> bool:
    """Whether ``protocol``'s class overrides the base class's ``hook``."""
    return getattr(type(protocol), hook) is not getattr(BroadcastProtocol, hook)


def vectorization_unsupported_reason(
    graph: Graph,
    protocol: BroadcastProtocol,
    config: SimulationConfig,
    failure_model: Optional[FailureModel] = None,
    churn_model: Optional[ChurnModel] = None,
    tracer: Optional[Tracer] = None,
) -> Optional[str]:
    """Why this run cannot use the bulk engine, or ``None`` if it can.

    Churn is admissible for models and protocols that opted into the
    dynamic-membership hooks; the engine itself additionally requires a
    churn run to have a single seed.
    """
    if not protocol.supports_vectorized:
        return f"protocol {protocol.name!r} does not implement the bulk hooks"
    if protocol.needs_exchange_hook:
        return f"protocol {protocol.name!r} needs the per-channel exchange hook"
    if protocol.memory_window > 0:
        return f"protocol {protocol.name!r} uses the contact-memory mechanism"
    # The bulk engine never builds a StateTable, so protocols that override
    # the StateTable-based lifecycle hooks cannot run on it even if they
    # opted in — guard against a future protocol combining both.
    if _overrides(protocol, "on_round_start"):
        return f"protocol {protocol.name!r} overrides the on_round_start hook"
    if _overrides(protocol, "finished"):
        return f"protocol {protocol.name!r} overrides the finished() rule"
    for scalar_hook, bulk_hook in (
        ("on_round_committed", "vector_on_round_committed"),
        ("select_call_targets", "vector_call_targets"),
    ):
        if _overrides(protocol, scalar_hook) and not _overrides(protocol, bulk_hook):
            return (
                f"protocol {protocol.name!r} overrides {scalar_hook} without "
                "a bulk counterpart"
            )
    if tracer is not None and not isinstance(tracer, NullTracer):
        return "a tracer is attached (tracing is per-event)"
    if churn_model is not None and not isinstance(churn_model, NoChurn):
        if not getattr(churn_model, "supports_vectorized", False):
            return (
                f"churn model {type(churn_model).__name__} does not implement "
                "the bulk membership hook (vector_apply)"
            )
        if not protocol.supports_dynamic_membership:
            return (
                f"protocol {protocol.name!r} does not support dynamic "
                "membership (departures/joins mid-broadcast)"
            )
    if failure_model is not None and not isinstance(
        failure_model, (ReliableDelivery, IndependentLoss)
    ):
        return (
            f"failure model {type(failure_model).__name__} cannot be batched "
            "(only ReliableDelivery / IndependentLoss are vectorizable)"
        )
    if not graph.has_contiguous_ids():
        return "graph node ids are not contiguous 0..n-1 (CSR export impossible)"
    return None


def _sample_stub_targets(
    generator: np.random.Generator,
    samplers: np.ndarray,
    fanout: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    degrees: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Every sampler calls ``min(fanout, degree)`` distinct adjacency stubs.

    Returns flat ``(callers, callees)`` arrays, one entry per channel.
    Sampling is over adjacency *positions*, so parallel edges weight the
    draw exactly as the scalar ``select_call_targets`` does.  Parameterised
    by the generator, so each replication draws from its own stream.
    Requires ``fanout >= 2`` and a non-empty ``samplers``; fanout 1 goes
    through the engine's ``_stub_callees`` instead.
    """
    sampler_degrees = degrees[samplers]
    saturated = sampler_degrees <= fanout

    # Saturated nodes (degree <= fanout) call every neighbour.
    callers_parts = []
    callees_parts = []
    full_nodes = samplers[saturated]
    if full_nodes.size:
        lengths = sampler_degrees[saturated]
        total = int(lengths.sum())
        starts = np.repeat(indptr[full_nodes], lengths)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(lengths) - lengths, lengths
        )
        callers_parts.append(np.repeat(full_nodes, lengths))
        callees_parts.append(indices[starts + within])

    # Remaining nodes draw a uniform k-subset of stubs via random keys:
    # the k smallest of d iid uniforms index a uniformly random distinct
    # sample.  Chunked so rows × max-degree stays within a flat budget.
    deep_nodes = samplers[~saturated]
    if deep_nodes.size:
        deep_degrees = sampler_degrees[~saturated]
        max_degree = int(deep_degrees.max())
        rows_per_chunk = max(1, _CHUNK_ENTRIES // max_degree)
        column = np.arange(max_degree, dtype=np.int64)
        for start in range(0, deep_nodes.size, rows_per_chunk):
            nodes = deep_nodes[start : start + rows_per_chunk]
            node_degrees = deep_degrees[start : start + rows_per_chunk]
            keys = generator.random((nodes.size, max_degree))
            keys[column[None, :] >= node_degrees[:, None]] = np.inf
            chosen = np.argpartition(keys, fanout - 1, axis=1)[:, :fanout]
            positions = indptr[nodes][:, None] + chosen
            callers_parts.append(np.repeat(nodes, fanout))
            callees_parts.append(indices[positions.ravel()])

    return np.concatenate(callers_parts), np.concatenate(callees_parts)


def _resolve_failure_model(
    config: SimulationConfig, failure_model: Optional[FailureModel]
) -> FailureModel:
    """The failure model a run uses: explicit object, config-derived, or none."""
    if failure_model is not None:
        return failure_model
    if config.message_loss_probability > 0 or config.channel_failure_probability > 0:
        return IndependentLoss(
            transmission_loss_probability=config.message_loss_probability,
            channel_failure_probability=config.channel_failure_probability,
        )
    return ReliableDelivery()


class VectorChurnOps:
    """The membership-mutation surface handed to ``ChurnModel.vector_apply``.

    A thin, per-round view over the engine's dynamic-membership machinery:
    ascending live-id queries plus the two mutators (bulk departures and
    stub-stealing joins).  Churn models draw their own randomness from the
    engine's dedicated ``"churn"`` stream and must keep every draw a function
    of live *positions*, counts, and degrees only (renumbering invariance —
    see :mod:`repro.failures.churn`).
    """

    __slots__ = ("_engine", "_state", "_round_index")

    def __init__(
        self,
        engine: "BatchedVectorizedRoundEngine",
        state: VectorState,
        round_index: int,
    ) -> None:
        self._engine = engine
        self._state = state
        self._round_index = round_index

    # -- queries ---------------------------------------------------------------

    @property
    def live_count(self) -> int:
        """Number of live nodes right now."""
        return self._state.alive_count

    @property
    def source(self) -> int:
        """Current id of the broadcast source (``-1`` if it departed)."""
        return self._state.source

    def live_nodes(self) -> np.ndarray:
        """Ascending ids of all live nodes."""
        return np.flatnonzero(self._state.alive)

    def informed_nodes(self) -> np.ndarray:
        """Ascending ids of live informed nodes (dead nodes never count)."""
        return np.flatnonzero(self._state.informed)

    def newly_informed_nodes(self) -> np.ndarray:
        """Ascending ids of nodes informed exactly last round (the frontier)."""
        state = self._state
        return np.flatnonzero(
            state.informed & (state.informed_round == self._round_index - 1)
        )

    # -- mutators --------------------------------------------------------------

    def depart(self, ids: np.ndarray) -> None:
        """Remove the (live, ascending) node ids in ``ids`` from the network."""
        self._engine._depart_nodes(ids, self._state)

    def join(
        self, count: int, target_degree: int, generator: np.random.Generator
    ) -> List[int]:
        """Add ``count`` fresh nodes by stub-stealing splices; return their ids.

        Draws exactly one ``generator.random(count · splices)`` batch for the
        stub choices (splices = ``max(1, target_degree // 2)``), positions
        taken uniformly over the live stub space snapshot at call time.
        """
        return self._engine._join_nodes(count, target_degree, generator, self._state)


class _RowLedger:
    """Running totals of one replication while its row is in the state."""

    __slots__ = (
        "seed_index",
        "push",
        "pull",
        "channels",
        "lost",
        "rounds",
        "completed_at",
        "history",
        "phases",
    )

    def __init__(self, seed_index: int) -> None:
        self.seed_index = seed_index
        self.push = self.pull = self.channels = self.lost = self.rounds = 0
        self.completed_at: Optional[int] = None
        self.history: List[RoundRecord] = []
        self.phases: dict = {}

    def add(
        self, round_index: int, push: int, pull: int, channels: int, lost: int, phase: str
    ) -> None:
        self.rounds = round_index
        self.push += push
        self.pull += pull
        self.channels += channels
        self.lost += lost
        if phase:
            self.phases[phase] = self.phases.get(phase, 0) + push + pull


class BatchedVectorizedRoundEngine:
    """Runs R independent replications of one configuration in lock-step.

    Every replication uses its own seed from ``seeds`` and generator streams
    spawned from it alone, so each row of the batch is bit-identical to the
    batch of one with that seed (:class:`VectorizedRoundEngine`).  The whole
    ensemble's state lives in one ``(R, n)`` :class:`VectorState`; delivery
    scatter, commits, and channel accounting are performed once per round
    for all replications together, and completed replications are compacted
    out of the state as they finish (see the module docstring).  A churn
    model is accepted only with a single seed.

    One protocol instance drives all replications; it is :meth:`reset` once at
    the start of the batch, and protocols with per-node state (e.g. the
    quasirandom pointer table) keep it per replication via the ``row``
    argument of the bulk hooks (and remap it on compaction via
    ``vector_compact_rows``).
    """

    def __init__(
        self,
        graph: Graph,
        protocol: BroadcastProtocol,
        seeds: Sequence[int],
        config: Optional[SimulationConfig] = None,
        failure_model: Optional[FailureModel] = None,
        churn_model: Optional[ChurnModel] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if len(seeds) == 0:
            raise SimulationError("batched run requires at least one seed")
        self.graph = graph
        self.protocol = protocol
        self.config = config if config is not None else SimulationConfig()
        self.failure_model = _resolve_failure_model(self.config, failure_model)
        self.churn_model = churn_model if churn_model is not None else NoChurn()
        self.seeds = [int(seed) for seed in seeds]

        reason = vectorization_unsupported_reason(
            graph, protocol, self.config, self.failure_model, self.churn_model, tracer
        )
        if reason is not None:
            raise SimulationError(f"run cannot be vectorized: {reason}")
        self._custom_targets = _overrides(protocol, "vector_call_targets")
        self._dynamic = not isinstance(self.churn_model, NoChurn)
        if self._dynamic and len(self.seeds) != 1:
            raise SimulationError(
                "a churn run takes exactly one seed (membership diverges per "
                "replication); run the seeds one at a time"
            )

        # Per-replication streams, spawned with the scalar engine's labels.
        self._protocol_gens = []
        self._failure_gens = []
        for seed in self.seeds:
            rng = RandomSource(seed=seed, name="engine")
            self._protocol_gens.append(rng.spawn("protocol").generator)
            self._failure_gens.append(rng.spawn("failures").generator)
        if self._dynamic:
            self._churn_rng = rng.spawn("churn")
        self._state: Optional[VectorState] = None

        if isinstance(self.failure_model, IndependentLoss):
            self._loss_p = self.failure_model.transmission_loss_probability
            self._channel_fail_p = self.failure_model.channel_failure_probability
        else:
            self._loss_p = 0.0
            self._channel_fail_p = 0.0

        self._indptr, self._indices = graph.csr()
        # Cached on the graph next to the CSR view, so per-seed loops over
        # the same graph do not re-derive these O(m) facts per run.
        self._has_self_loops, self._uniform_degree = graph.csr_stats()
        self._n = self._indptr.size - 1
        # Every O(n) derived array is materialised lazily: a push broadcast
        # over a regular graph touches none of them, which keeps the engine's
        # own footprint out of the peak.
        self._invalidate_topology_caches()
        # Fanout-1 scratch buffers (allocated lazily at first use, reused
        # every round): uniforms, stub offsets, gather positions, callees.
        self._scratch_uniform: Optional[np.ndarray] = None
        self._scratch_offset: Optional[np.ndarray] = None
        self._scratch_position: Optional[np.ndarray] = None
        self._scratch_callee: Optional[np.ndarray] = None
        # Row compaction only applies when completed rows actually leave the
        # round loop (early stopping); it is bit-transparent either way.
        self._compaction = bool(
            self.config.batch_row_compaction and self.config.stop_when_informed
        )

    # -- public API ---------------------------------------------------------------

    def run(self, source: int = 0) -> List[RunResult]:
        """Run all replications; returns one :class:`RunResult` per seed."""
        if source not in self.graph:
            raise SimulationError(f"source node {source} is not in the graph")

        n = self.graph.node_count
        batch = len(self.seeds)
        self.protocol.reset()
        self.churn_model.reset()
        state = VectorState(n=n, source=source, batch=batch)
        if self._dynamic:
            state.enable_membership()
            self._state = state
            self._reset_dynamic_topology()
        horizon = self.protocol.horizon()
        if self.config.max_rounds is not None:
            horizon = min(horizon, self.config.max_rounds)
        stop_when_informed = self.config.stop_when_informed
        collect = self.config.collect_round_history

        # The live generator lists and the per-row ledgers shrink together
        # with the state when rows are compacted away; each ledger carries
        # its seed's position, where the row's result lands once it retires
        # (compacted away, or still in the state at the end).
        self._live_protocol_gens = list(self._protocol_gens)
        self._live_failure_gens = list(self._failure_gens)
        ledgers = [_RowLedger(index) for index in range(batch)]
        results: List[Optional[RunResult]] = [None] * batch
        active = list(range(batch))
        active_rows = np.arange(batch)

        def retire(rows: List[int]) -> None:
            metadata = {
                "protocol": self.protocol.describe(),
                "failure_model": self.failure_model.describe(),
                "churn_model": self.churn_model.describe(),
                "final_node_count": state.alive_count if self._dynamic else n,
                "engine": "vectorized",
            }
            if self._dynamic:
                metadata["churn"] = {
                    "departures": self._departures_total,
                    "arrivals": self._arrivals_total,
                    "node_compactions": self._node_compactions,
                }
            informed = state.informed_count.tolist()
            for row in rows:
                ledger = ledgers[row]
                results[ledger.seed_index] = RunResult(
                    n=n,
                    protocol=self.protocol.name,
                    source=source,
                    success=informed[row] == state.alive_count,
                    rounds_executed=ledger.rounds,
                    rounds_to_completion=ledger.completed_at,
                    total_push_transmissions=ledger.push,
                    total_pull_transmissions=ledger.pull,
                    total_channels_opened=ledger.channels,
                    total_lost_transmissions=ledger.lost,
                    final_informed=informed[row],
                    history=ledger.history,
                    phase_transmissions=ledger.phases,
                    metadata=dict(metadata),
                )

        for round_index in range(1, horizon + 1):
            if self._dynamic:
                self._apply_churn(round_index, state)
            before = state.informed_count.tolist() if collect else None
            counters = self._run_round(round_index, state, active_rows).T.tolist()
            after = state.informed_count.tolist()
            alive = state.alive_count
            phase = self.protocol.phase_label(round_index)
            finished = False
            for row in active:
                ledger = ledgers[row]
                push, pull, channels, lost = counters[row]
                ledger.add(round_index, push, pull, channels, lost, phase)
                if collect:
                    ledger.history.append(
                        RoundRecord(
                            round_index=round_index,
                            informed_before=before[row],
                            informed_after=after[row],
                            push_transmissions=push,
                            pull_transmissions=pull,
                            channels_opened=channels,
                            lost_transmissions=lost,
                            phase=phase,
                        )
                    )
                if ledger.completed_at is None and after[row] == alive:
                    ledger.completed_at = round_index
                    finished = True
            if not (finished and stop_when_informed):
                continue
            active = [row for row in active if ledgers[row].completed_at is None]
            dead = state.batch - len(active)
            # Compact once a quarter of the state rows are dead: each event
            # costs one O(live·n) copy, so the threshold keeps the total copy
            # volume linear in R·n while the per-round O(rows·n) terms (dense
            # commits, informed-index merges) track the live ensemble instead
            # of the original batch.
            if self._compaction and dead * 4 >= state.batch:
                retire(
                    [row for row, ledger in enumerate(ledgers) if ledger.completed_at is not None]
                )
                if not active:
                    ledgers = []
                    break
                # Protocol first (it may need the old row count), then the
                # engine-owned state, generator lists, and ledgers.
                keep = np.asarray(active)
                self.protocol.vector_compact_rows(keep, n, state.batch)
                state.compact_rows(keep)
                self._live_protocol_gens = [self._live_protocol_gens[row] for row in active]
                self._live_failure_gens = [self._live_failure_gens[row] for row in active]
                ledgers = [ledgers[row] for row in active]
                active = list(range(len(active)))
            if not active:
                break
            active_rows = np.asarray(active)

        retire(list(range(len(ledgers))))
        self._state = None
        return results

    # -- lazy CSR-derived caches ---------------------------------------------------

    def _invalidate_topology_caches(self) -> None:
        self._degrees_array: Optional[np.ndarray] = None
        self._degree_positive_array: Optional[np.ndarray] = None
        self._nz_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._channel_cost_cache: dict = {}
        self._channel_info_cache: dict = {}
        if self._uniform_degree is not None:
            self._all_degrees_positive: Optional[bool] = self._uniform_degree > 0
        else:
            self._all_degrees_positive = None

    @property
    def _degrees(self) -> np.ndarray:
        if self._degrees_array is None:
            self._degrees_array = np.diff(self._indptr)
        return self._degrees_array

    @property
    def _degree_positive(self) -> np.ndarray:
        if self._degree_positive_array is None:
            self._degree_positive_array = self._degrees > 0
        return self._degree_positive_array

    def _all_positive(self) -> bool:
        if self._all_degrees_positive is None:
            self._all_degrees_positive = bool(self._degree_positive.all())
        return self._all_degrees_positive

    def _nz(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(nodes with a neighbour, their degrees)`` in CSR index dtype.

        Under churn "every node with a neighbour" additionally means *live*:
        dead rows are tombstones that must never sample.
        """
        if self._nz_cache is None:
            if self._dynamic:
                mask = self._state.alive[0]
                if not self._all_positive():
                    mask = mask & self._degree_positive
                nodes = np.flatnonzero(mask)
            elif self._all_positive():
                nodes = np.arange(self._n)
            else:
                nodes = np.flatnonzero(self._degree_positive)
            nodes = nodes.astype(self._indices.dtype, copy=False)
            self._nz_cache = (nodes, self._degrees[nodes])
        return self._nz_cache

    def _channel_info(self, fanout: int) -> Tuple[int, Optional[int]]:
        """``(total channels over all live nodes, uniform per-node cost or None)``.

        The uniform cost applies when every node pays the same
        ``min(degree, fanout)`` — regular graphs, or fanout 1 without
        isolated nodes — and turns caller-pool channel accounting into a
        multiplication instead of a gather over a cost array.
        """
        cached = self._channel_info_cache.get(fanout)
        if cached is None:
            if self._dynamic:
                cost = self._channel_cost_array(fanout)
                cached = (int(cost[self._state.alive[0]].sum()), None)
            elif self._uniform_degree is not None:
                cost = min(self._uniform_degree, fanout)
                cached = (self._n * cost, cost)
            elif fanout == 1 and self._all_positive():
                cached = (self._n, 1)
            else:
                cached = (int(self._channel_cost_array(fanout).sum()), None)
            self._channel_info_cache[fanout] = cached
        return cached

    def _channel_cost_array(self, fanout: int) -> np.ndarray:
        """``min(degree, fanout)`` per node, cached per fanout."""
        cached = self._channel_cost_cache.get(fanout)
        if cached is None:
            cached = np.minimum(self._degrees, fanout)
            self._channel_cost_cache[fanout] = cached
        return cached

    # -- fanout-1 sampling ---------------------------------------------------------

    def _stub_callees(self, uniforms: np.ndarray, samplers: np.ndarray) -> np.ndarray:
        """Callees of one uniform stub per sampler from pre-drawn uniforms.

        The stub offset is ``floor(U · d)``: a batch of uniforms is ~2×
        faster to generate than per-element bounded integers, and the offset
        is uniform over ``[0, d)`` up to an O(2⁻⁵³) float bias; the clip
        guards the half-ulp rounding edge where ``U · d`` could land exactly
        on ``d``.  The engine draws exactly one ``generator.random(k)`` per
        (replication, round) and maps it through here, which is what keeps a
        batch row's stream independent of the other rows.
        """
        if self._uniform_degree is not None:
            degrees = self._uniform_degree
            starts = samplers * degrees
        else:
            degrees = self._degrees[samplers]
            starts = self._indptr[samplers]
        offsets = (uniforms * degrees).astype(np.int64)
        np.minimum(offsets, degrees - 1, out=offsets)
        return self._indices[starts + offsets]

    def _ensure_scratch(self, capacity: int) -> None:
        current = self._scratch_uniform
        if current is not None and current.size >= capacity:
            return
        # Free before reallocating so the old and new generation of buffers
        # never coexist (the growth pattern is geometric anyway — sampler
        # counts roughly double per round during the growth phase).
        self._scratch_uniform = None
        self._scratch_offset = None
        self._scratch_position = None
        self._scratch_callee = None
        idx_dtype = self._indices.dtype
        self._scratch_uniform = np.empty(capacity, dtype=np.float64)
        self._scratch_offset = np.empty(capacity, dtype=idx_dtype)
        self._scratch_position = np.empty(capacity, dtype=idx_dtype)
        self._scratch_callee = np.empty(capacity, dtype=idx_dtype)

    #: Below this sampler count the plain allocation path beats the scratch
    #: pipeline (whose extra view/out bookkeeping costs ~10 µs per round,
    #: which dominates when the arrays themselves are only a few KB).
    _SCRATCH_MIN_SAMPLERS = 1 << 15

    def _fanout1_callees(
        self, generator: np.random.Generator, samplers: np.ndarray
    ) -> np.ndarray:
        """Callees of one uniform stub draw per sampler, via scratch buffers.

        Returns a view into the callee scratch buffer (valid until the next
        call); draws bit-identically to the allocation-based path —
        ``generator.random(out=...)`` consumes the same stream, and the
        in-place ``floor(U · d)`` arithmetic produces the same offsets.
        """
        k = samplers.size
        if k < self._SCRATCH_MIN_SAMPLERS:
            return self._stub_callees(generator.random(k), samplers)
        self._ensure_scratch(k)
        uniforms = self._scratch_uniform[:k]
        generator.random(out=uniforms)
        offsets = self._scratch_offset[:k]
        positions = self._scratch_position[:k]
        if self._uniform_degree is not None:
            degree = self._uniform_degree
            np.multiply(uniforms, degree, out=uniforms)
            np.copyto(offsets, uniforms, casting="unsafe")  # trunc == floor ≥ 0
            np.minimum(offsets, degree - 1, out=offsets)
            np.multiply(samplers, degree, out=positions, casting="unsafe")
            np.add(positions, offsets, out=positions)
        else:
            sampler_degrees = self._degrees[samplers]
            np.multiply(uniforms, sampler_degrees, out=uniforms)
            np.copyto(offsets, uniforms, casting="unsafe")
            np.subtract(sampler_degrees, 1, out=sampler_degrees)
            np.minimum(offsets, sampler_degrees, out=offsets)
            np.take(self._indptr, samplers, out=positions)
            np.add(positions, offsets, out=positions)
        callees = self._scratch_callee[:k]
        np.take(self._indices, positions, out=callees)
        return callees

    # -- dynamic membership (vectorized churn, single replication) -----------------

    def _reset_dynamic_topology(self) -> None:
        """Private mutable CSR copies for a fresh churn run.

        The caller's graph is never mutated on this path — departures
        tombstone rows, joins append — so re-running the engine (or running
        many seeds over one graph) needs no ``graph.copy()``; each run
        restarts from the graph's pristine CSR here.
        """
        indptr, indices = self.graph.csr()
        self._indptr = np.array(indptr, copy=True)
        self._indices = np.array(indices, copy=True)
        self._n = self._indptr.size - 1
        # Joiner degrees differ from the seed graph's, so the regular-graph
        # shortcuts no longer hold; everything runs off per-row stub counts.
        self._uniform_degree = None
        self._invalidate_topology_caches()
        self._departures_total = 0
        self._arrivals_total = 0
        self._node_compactions = 0

    def _apply_churn(self, round_index: int, state: VectorState) -> None:
        """Run the churn model's bulk hook, then compact if enough ids died."""
        ops = VectorChurnOps(self, state, round_index)
        event = self.churn_model.vector_apply(round_index, ops, self._churn_rng)
        self._departures_total += event.departures
        self._arrivals_total += event.arrivals
        if self.config.churn_node_compaction:
            dead = state.n - state.alive_count
            # Same threshold as batch row compaction: each compaction costs
            # one O(live + stubs) rebuild, so waiting for a quarter of the id
            # space keeps total copy volume linear while the per-round scans
            # track the live network instead of the tombstones.
            if dead and dead * 4 >= state.n:
                self._compact_nodes(state)

    def _depart_nodes(self, ids: np.ndarray, state: VectorState) -> None:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return
        state.remove_nodes(ids)
        self.protocol.vector_remove_nodes(ids, state)
        # Degrees and cost arrays are untouched (tombstone rows keep their
        # stubs); only the live-node aggregates change.
        self._nz_cache = None
        self._channel_info_cache = {}

    def _join_nodes(
        self,
        count: int,
        target_degree: int,
        generator: np.random.Generator,
        state: VectorState,
    ) -> List[int]:
        count = int(count)
        if count <= 0:
            return []
        splices = max(1, int(target_degree) // 2)
        # Snapshot the live stub space *before* growing: stub positions are
        # (live-rank, offset) pairs, invariant under compaction renumbering.
        alive_nodes = np.flatnonzero(state.alive)
        base_n = state.n
        degrees = self._degrees
        live_degrees = degrees[alive_nodes].astype(np.int64, copy=False)
        cum = np.cumsum(live_degrees)
        total_stubs = int(cum[-1]) if cum.size else 0

        new_ids = state.grow_nodes(count)
        indptr = self._indptr
        indices = self._indices
        rows: List[List[int]] = [[] for _ in range(count)]
        if total_stubs > 0:
            uniforms = generator.random(count * splices)
            positions = (uniforms * total_stubs).astype(np.int64)
            np.minimum(positions, total_stubs - 1, out=positions)
            owner_rank = np.searchsorted(cum, positions, side="right")
            owners = alive_nodes[owner_rank]
            offsets = positions - (cum[owner_rank] - live_degrees[owner_rank])
            stub_pos = indptr[owners].astype(np.int64) + offsets
            alive = state.alive[0]
            draw = 0
            for j in range(count):
                joiner = int(new_ids[j])
                row = rows[j]
                for _ in range(splices):
                    u = int(owners[draw])
                    pos = int(stub_pos[draw])
                    draw += 1
                    v = int(indices[pos])
                    # Skip tombstones (dead or -1 targets), self-loop stubs,
                    # and targets without a CSR row yet (same-round joiners)
                    # — the bulk analog of the scalar path's has_edge check.
                    if v < 0 or v >= base_n or v == u or not alive[v]:
                        continue
                    back = np.flatnonzero(
                        indices[indptr[v] : indptr[v + 1]] == u
                    )
                    if back.size == 0:
                        continue
                    indices[pos] = joiner
                    indices[int(indptr[v]) + int(back[0])] = joiner
                    row.append(u)
                    row.append(v)

        lengths = np.fromiter(
            (len(row) for row in rows), count=count, dtype=indptr.dtype
        )
        new_indptr = np.empty(indptr.size + count, dtype=indptr.dtype)
        new_indptr[: indptr.size] = indptr
        np.cumsum(lengths, out=new_indptr[indptr.size :])
        new_indptr[indptr.size :] += indptr[-1]
        tail_parts = [
            np.asarray(row, dtype=indices.dtype) for row in rows if row
        ]
        if tail_parts:
            self._indices = np.concatenate([indices] + tail_parts)
        self._indptr = new_indptr
        self._n = new_indptr.size - 1
        self._invalidate_topology_caches()
        return [int(node) for node in new_ids]

    def _compact_nodes(self, state: VectorState) -> None:
        """Renumber dead ids away: state planes, CSR, and protocol pools.

        The remap is monotone on survivors (``remap[keep[i]] = i``), so every
        position/degree-based draw downstream is unchanged — compaction
        on/off is bit-transparent, mirroring batch row compaction.
        """
        keep = np.flatnonzero(state.alive)
        indptr = self._indptr
        indices = self._indices
        remap = state.compact_nodes(keep)
        lengths = np.diff(indptr)[keep]
        total = int(lengths.sum())
        new_indptr = np.zeros(keep.size + 1, dtype=indptr.dtype)
        np.cumsum(lengths, out=new_indptr[1:])
        if total:
            starts = np.repeat(indptr[keep], lengths)
            within = np.arange(total, dtype=np.int64) - np.repeat(
                np.cumsum(lengths) - lengths, lengths
            )
            values = indices[starts + within]
            # Dead targets (stale ids and prior -1 sentinels) all map to -1:
            # remap already carries -1 for dropped ids, so only the -1
            # entries themselves need the index guard.
            sentinel = values < 0
            safe = np.where(sentinel, 0, values)
            mapped = remap[safe].astype(indices.dtype, copy=False)
            mapped[sentinel] = -1
            self._indices = mapped
        else:
            self._indices = np.empty(0, dtype=indices.dtype)
        self._indptr = new_indptr
        self._n = keep.size
        self.protocol.vector_compact_nodes(remap, state)
        self._invalidate_topology_caches()
        self._node_compactions += 1

    # -- round mechanics -------------------------------------------------------------

    def _run_round(
        self,
        round_index: int,
        state: VectorState,
        active_rows: np.ndarray,
    ) -> np.ndarray:
        """One lock-step round; returns ``int64[4, R]`` per-state-row counters
        (push transmissions, pull transmissions, channels, lost)."""
        protocol = self.protocol
        n = state.n
        batch = state.batch
        counters = np.zeros((4, batch), dtype=np.int64)
        push_tx, pull_tx, channels, lost = counters

        push_active = protocol.push_round(round_index)
        pull_active = protocol.pull_round(round_index)
        fanout = protocol.vector_fanout(round_index)
        pull_mask = protocol.vector_wants_pull(round_index, state) if pull_active else None
        push_mask: Optional[np.ndarray] = None
        if push_active and pull_active:
            push_mask = protocol.vector_wants_push(round_index, state)

        self._charge_channels(round_index, state, fanout, active_rows, channels)

        custom = self._custom_targets
        if custom and fanout != 1:
            raise SimulationError(
                "custom bulk target selection requires uniform fanout 1"
            )

        # Stage A — per-replication sampling.  Generator draws cannot be
        # merged across replications (each row owns its stream, and parity
        # with a batch of one pins the exact call sequence), so the per-row
        # work is exactly one draw on the fast path; sampler construction,
        # offset arithmetic, gathers, filtering, and commit are all batched
        # over the concatenated channel arrays.  ``cols`` holds caller node
        # ids and ``callees`` the callee node ids, with ``part_rows`` /
        # ``part_lengths`` giving the replication of each consecutive run of
        # channels, in ascending-row order throughout (the per-replication
        # counting and loss draws rely on it).
        empty = np.empty(0, dtype=np.int64)
        cols = callees = empty
        part_rows: List[int] = []
        part_lengths: List[int] = []
        if (push_active or pull_active) and fanout > 0:
            if fanout == 1 and not custom:
                cols, callees, part_rows, part_lengths = self._fanout1_targets(
                    round_index, state, active_rows, pull_active
                )
            else:
                cols, callees, part_rows, part_lengths = self._per_row_targets(
                    round_index, state, active_rows, fanout, custom
                )

        if cols.size == 0:
            delivered = empty
        else:
            # Flat ``row * n + node`` channel ends; a single row needs no
            # offsets (its flat ids are its node ids).
            if batch == 1:
                callers_flat, callees_flat = cols, callees
            else:
                row_array = np.asarray(part_rows, dtype=np.int64)
                length_array = np.asarray(part_lengths, dtype=np.int64)
                bases = np.repeat(row_array * n, length_array)
                callers_flat = cols + bases
                callees_flat = callees + bases

            # Self-calls (self-loop stubs) count as opened channels but never
            # connect; failed channels are unusable for both directions;
            # under churn, stubs pointing at departed nodes (or compaction's
            # -1 sentinels) are tombstones that connect nowhere.  On a static
            # self-loop-free graph with reliable channels nothing can be
            # filtered, so the pass is skipped outright.
            filtered = False
            usable: Optional[np.ndarray] = None
            if self._dynamic or self._has_self_loops or self._channel_fail_p > 0.0:
                usable = cols != callees
                if self._dynamic:
                    valid = callees >= 0
                    usable &= valid
                    usable &= state.alive[0][np.where(valid, callees, 0)]
                if self._channel_fail_p > 0.0:
                    position = 0
                    for row, size in zip(part_rows, part_lengths):
                        usable[position : position + size] &= (
                            self._live_failure_gens[row].random(size)
                            >= self._channel_fail_p
                        )
                        position += size
                if not usable.all():
                    filtered = True
                    callees_flat = callees_flat[usable]
                    # Push-only deliveries never read the callers again, so
                    # the caller compress (a full-size copy in the endgame)
                    # is only paid when a pull can use it.
                    if pull_active:
                        callers_flat = callers_flat[usable]
            # The replication of each remaining channel, for the per-row
            # counts and loss draws (``None``: a single row, or nothing needs
            # it).
            row_of: Optional[np.ndarray] = None
            if batch > 1 and (filtered or pull_active or self._loss_p > 0.0):
                row_of = np.repeat(row_array, length_array)
                if filtered:
                    row_of = row_of[usable]

            delivered_parts: List[np.ndarray] = []
            if push_active and callees_flat.size:
                if pull_active:
                    # In mixed rounds everyone samples, so the pushers are
                    # the subset flagged by the push mask …
                    sending = push_mask.reshape(-1)[callers_flat]
                    receivers = callees_flat[sending]
                    receiver_rows = None if row_of is None else row_of[sending]
                else:
                    # … while push-only rounds sample exactly the pushers'
                    # pool, so every channel carries a push.
                    receivers = callees_flat
                    receiver_rows = row_of
                if filtered or pull_active:
                    self._count_rows(push_tx, receivers, receiver_rows)
                else:
                    push_tx[part_rows] = part_lengths
                delivered_parts.append(
                    self._drop_lost(receivers, receiver_rows, lost)
                )

            if pull_active and callers_flat.size:
                answering = pull_mask.reshape(-1)[callees_flat]
                receivers = callers_flat[answering]
                receiver_rows = None if row_of is None else row_of[answering]
                self._count_rows(pull_tx, receivers, receiver_rows)
                delivered_parts.append(
                    self._drop_lost(receivers, receiver_rows, lost)
                )

            if len(delivered_parts) == 1:
                delivered = delivered_parts[0]
            elif delivered_parts:
                delivered = np.concatenate(delivered_parts)
            else:
                delivered = empty

        newly_informed = state.commit_delivered(delivered, round_index)
        protocol.vector_on_round_committed(round_index, state, newly_informed)
        return counters

    def _charge_channels(
        self,
        round_index: int,
        state: VectorState,
        fanout: int,
        active_rows: np.ndarray,
        channels: np.ndarray,
    ) -> None:
        """Write this round's per-state-row channel charge into ``channels``.

        Every calling node opens ``min(fanout, degree)`` channels per round,
        whether or not its calls can carry information — identical to the
        scalar engine's accounting.  The callers are the protocol's
        ``vector_caller_pool``, or every node with a neighbour when it
        returns ``None``; protocols whose uninformed nodes stay silent report
        their callers so the charge matches the scalar per-node fanout of 0.
        """
        n = state.n
        channel_total, uniform_cost = self._channel_info(fanout)
        pool = self.protocol.vector_caller_pool(round_index, state)
        if pool is None:
            channels[active_rows] = channel_total
        elif state.batch == 1:
            if uniform_cost is not None:
                channels[0] = pool.size * uniform_cost
            else:
                channels[0] = self._channel_cost_array(fanout)[pool].sum()
        else:
            bounds = self._pool_bounds(pool, n, state.batch)
            if uniform_cost is not None:
                per_row = np.diff(bounds) * uniform_cost
            else:
                cost = self._channel_cost_array(fanout)
                sums = np.concatenate(([0], np.cumsum(cost[pool % n])))
                per_row = sums[bounds[1:]] - sums[bounds[:-1]]
            channels[active_rows] = per_row[active_rows]

    def _count_rows(
        self, out: np.ndarray, items: np.ndarray, item_rows: Optional[np.ndarray]
    ) -> None:
        """Count row-grouped flat ``items`` per replication into ``out``."""
        if item_rows is None:
            out[0] = items.size
        else:
            out += np.bincount(item_rows, minlength=out.size)

    def _pool_bounds(self, pool: np.ndarray, n: int, batch: int) -> np.ndarray:
        """Row-boundary positions of a sorted flat index pool."""
        return np.searchsorted(pool, np.arange(batch + 1, dtype=np.int64) * n)

    def _pool_row_samplers(
        self, pool: np.ndarray, bounds: Optional[np.ndarray], row: int, n: int
    ) -> np.ndarray:
        """One row's pool segment as node ids, neighbourless nodes removed.

        The single place that turns flat ``row * n + node`` pool entries back
        into per-row sampler ids — shared by the fanout-1 segment builder and
        the per-row (custom-target / fanout > 1) loop so the two sampling
        paths cannot drift.  With ``bounds=None`` the pool belongs to a
        single-row state and is already in node ids.
        """
        if bounds is None:
            segment = pool
        else:
            segment = pool[int(bounds[row]) : int(bounds[row + 1])]
            if row and segment.size:
                segment = segment - pool.dtype.type(row * n)
        if segment.size and not self._all_positive():
            segment = segment[self._degree_positive[segment]]
        return segment

    def _pool_segments(
        self,
        pool: np.ndarray,
        active_rows: np.ndarray,
        n: int,
        batch: int,
    ) -> Tuple[np.ndarray, List[int], List[int]]:
        """Split a sorted flat index pool into per-active-row node-id segments.

        Returns ``(cols, part_rows, part_lengths)`` in ascending-row order:
        ``cols`` holds node ids (row offsets removed), ``part_rows`` the state
        row of each non-empty segment.  Dead rows' entries are skipped without
        being touched.
        """
        bounds = None if batch == 1 else self._pool_bounds(pool, n, batch)
        part_rows: List[int] = []
        part_lengths: List[int] = []
        pieces: List[np.ndarray] = []
        for row in active_rows.tolist():
            segment = self._pool_row_samplers(pool, bounds, row, n)
            if segment.size == 0:
                continue
            part_rows.append(row)
            part_lengths.append(int(segment.size))
            pieces.append(segment)
        if not pieces:
            return np.empty(0, dtype=pool.dtype), part_rows, part_lengths
        cols = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        return cols, part_rows, part_lengths

    def _fanout1_targets(
        self,
        round_index: int,
        state: VectorState,
        active_rows: np.ndarray,
        pull_active: bool,
    ) -> Tuple[np.ndarray, np.ndarray, List[int], List[int]]:
        """One uniform stub call per sampler, one draw per replication."""
        if pull_active:
            # Every node with a neighbour samples, in every active
            # replication: the sampler set is one tiled constant.
            nz_nodes = self._nz()[0]
            part_rows = active_rows.tolist() if nz_nodes.size else []
            part_lengths = [int(nz_nodes.size)] * len(part_rows)
            cols = nz_nodes if len(part_rows) <= 1 else np.tile(nz_nodes, len(part_rows))
        else:
            cols, part_rows, part_lengths = self._pool_segments(
                self.protocol.vector_push_samplers(round_index, state),
                active_rows,
                state.n,
                state.batch,
            )
        if len(part_rows) <= 1:
            # One replication's draw goes straight through the scratch
            # buffers (the same stream as the concatenated path below).
            if not part_rows:
                return cols, cols, part_rows, part_lengths
            generator = self._live_protocol_gens[part_rows[0]]
            return cols, self._fanout1_callees(generator, cols), part_rows, part_lengths
        draws = [
            self._live_protocol_gens[row].random(size)
            for row, size in zip(part_rows, part_lengths)
        ]
        callees = self._stub_callees(np.concatenate(draws), cols)
        return cols, callees, part_rows, part_lengths

    def _per_row_targets(
        self,
        round_index: int,
        state: VectorState,
        active_rows: np.ndarray,
        fanout: int,
        custom: bool,
    ) -> Tuple[np.ndarray, np.ndarray, List[int], List[int]]:
        """Sampling paths that must loop rows: custom targets and fanout > 1."""
        protocol = self.protocol
        n = state.n
        batch = state.batch
        pull_active = protocol.pull_round(round_index)

        pool: Optional[np.ndarray] = None
        pool_bounds: Optional[np.ndarray] = None
        if not pull_active:
            pool = protocol.vector_push_samplers(round_index, state)
            if batch > 1:
                pool_bounds = self._pool_bounds(pool, n, batch)

        caller_parts: List[np.ndarray] = []
        callee_parts: List[np.ndarray] = []
        part_rows: List[int] = []
        part_lengths: List[int] = []
        for row in active_rows.tolist():
            if pull_active:
                samplers = self._nz()[0]
            else:
                samplers = self._pool_row_samplers(pool, pool_bounds, row, n)
            if samplers.size == 0:
                continue
            generator = self._live_protocol_gens[row]
            if custom:
                row_callees = protocol.vector_call_targets(
                    round_index, state, samplers, generator,
                    self._indptr, self._indices, self._degrees, row=row,
                )
                row_callers = samplers
            else:
                row_callers, row_callees = _sample_stub_targets(
                    generator, samplers, fanout,
                    self._indptr, self._indices, self._degrees,
                )
            caller_parts.append(row_callers)
            callee_parts.append(row_callees)
            part_rows.append(row)
            part_lengths.append(int(row_callers.size))
        if not caller_parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, part_rows, part_lengths
        if len(caller_parts) == 1:
            return caller_parts[0], callee_parts[0], part_rows, part_lengths
        cols = np.concatenate(caller_parts)
        callees = np.concatenate(callee_parts)
        return cols, callees, part_rows, part_lengths

    def _drop_lost(
        self,
        receivers: np.ndarray,
        receiver_rows: Optional[np.ndarray],
        lost: np.ndarray,
    ) -> np.ndarray:
        """Per-replication transmission loss over row-grouped flat receivers.

        Adds each replication's losses into ``lost`` and returns the
        delivered receivers.  ``receiver_rows`` (the replication of each
        receiver, ``None`` for a single-row state) must be non-decreasing —
        which the row-ordered sampling stage guarantees — so each
        replication draws one ``random(k)`` batch over exactly its own
        receivers, as a batch of one would.
        """
        if self._loss_p <= 0.0 or receivers.size == 0:
            return receivers
        if receiver_rows is None:
            bounds = [0, receivers.size]
        else:
            bounds = np.searchsorted(
                receiver_rows, np.arange(lost.size + 1)
            ).tolist()
        kept_parts: List[np.ndarray] = []
        for row in range(len(bounds) - 1):
            start, end = bounds[row], bounds[row + 1]
            if end == start:
                continue
            lost_mask = self._live_failure_gens[row].random(end - start) < self._loss_p
            dropped = int(np.count_nonzero(lost_mask))
            part = receivers[start:end]
            if dropped:
                lost[row] += dropped
                part = part[~lost_mask]
            kept_parts.append(part)
        if len(kept_parts) == 1:
            return kept_parts[0]
        if kept_parts:
            return np.concatenate(kept_parts)
        return np.empty(0, dtype=np.int64)


class VectorizedRoundEngine(BatchedVectorizedRoundEngine):
    """A single run: the batched engine with one seed, returning its row.

    Takes the parameters of :class:`repro.core.engine.RoundEngine` and
    returns one :class:`RunResult`; every round runs through the batched
    engine's loop and kernel.
    """

    def __init__(
        self,
        graph: Graph,
        protocol: BroadcastProtocol,
        config: Optional[SimulationConfig] = None,
        seed: int = 0,
        failure_model: Optional[FailureModel] = None,
        churn_model: Optional[ChurnModel] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        super().__init__(
            graph, protocol, [seed], config, failure_model, churn_model, tracer
        )

    def run(self, source: int = 0) -> RunResult:  # type: ignore[override]
        """Broadcast a single message created at ``source`` in round 0."""
        return super().run(source)[0]
