"""E12 — Small-degree vs large-degree regimes (Algorithm 1 vs Algorithm 2).

The paper gives two algorithms: Algorithm 1 for ``δ ≤ d ≤ δ·log log n`` and
Algorithm 2 for ``δ·log log n ≤ d ≤ δ·log n``.  The experiment sweeps the
degree at a fixed network size and runs both algorithms, reporting rounds,
transmissions and success rate, so the hand-over between the regimes (and the
fact that both behave well near the boundary) is visible in one table.

Like E2, each algorithm is reported in two accountings:

* ``algorithm1`` / ``algorithm2`` — stop early, once every node is informed.
  On these graphs that happens inside Phases 1–2, which the two algorithms
  share, so these rows differ only through their seeds;
* ``algorithm1-full`` / ``algorithm2-full`` — the complete schedule, which is
  what the distributed algorithms send since no node knows when everyone is
  informed: Algorithm 1's pull round and Phase-4 pushes against Algorithm 2's
  pull tail.  Each full row replays the seeds of its stop-early row.
"""

from __future__ import annotations

import math
from typing import List, Optional

from ..core.config import SimulationConfig
from ..core.metrics import aggregate_runs
from ..protocols.algorithm1 import Algorithm1
from ..protocols.algorithm2 import Algorithm2
from .runner import ExperimentRunner
from .tables import Table

__all__ = ["run_experiment"]

EXPERIMENT_ID = "E12"
TITLE = "E12 — degree sweep: Algorithm 1 vs Algorithm 2"


def run_experiment(
    quick: bool = True,
    master_seed: int = 2008,
    n: Optional[int] = None,
    degrees: Optional[List[int]] = None,
) -> Table:
    """Run the degree sweep with both algorithms."""
    size = n if n is not None else (1024 if quick else 4096)
    log_n = math.log2(size)
    degree_list = degrees if degrees is not None else [4, 6, 8, int(log_n), int(2 * log_n)]
    runner = ExperimentRunner(master_seed=master_seed, repetitions=3 if quick else 5)

    table = Table(
        title=f"{TITLE} (n = {size}, log2 n = {log_n:.1f})",
        columns=[
            "protocol",
            "d",
            "regime",
            "rounds_mean",
            "rounds_executed",
            "tx_per_node",
            "success_rate",
        ],
    )

    full_schedule = SimulationConfig(stop_when_informed=False)
    configurations = (
        ("algorithm1", lambda n_est: Algorithm1(n_estimate=n_est), None),
        ("algorithm2", lambda n_est: Algorithm2(n_estimate=n_est), None),
        ("algorithm1", lambda n_est: Algorithm1(n_estimate=n_est), full_schedule),
        ("algorithm2", lambda n_est: Algorithm2(n_estimate=n_est), full_schedule),
    )
    full_tx: dict = {}
    loglog_n = math.log2(max(2.0, log_n))
    for d in degree_list:
        if d <= 2 * loglog_n:
            regime = "small (Alg.1)"
        elif d >= log_n:
            regime = "large (Alg.2)"
        else:
            regime = "intermediate"
        for name, factory, config in configurations:
            results = runner.broadcast(
                size, d, factory, label=f"e12-{name}-{d}", config=config
            )
            aggregate = aggregate_runs(results)
            tx_per_node = aggregate.transmissions_per_node.mean
            if config is not None:
                full_tx[name, d] = tx_per_node
            table.add_row(
                protocol=name if config is None else f"{name}-full",
                d=d,
                regime=regime,
                rounds_mean=aggregate.rounds.mean,
                rounds_executed=sum(r.rounds_executed for r in results) / len(results),
                tx_per_node=tx_per_node,
                success_rate=aggregate.success_rate,
            )

    cheaper = {
        name: [d for d in degree_list if full_tx[name, d] < full_tx[other, d]]
        for name, other in (("algorithm1", "algorithm2"), ("algorithm2", "algorithm1"))
    }
    table.add_note(
        "rounds_mean counts rounds until every node is informed; stop-early "
        "rows end there, -full rows run the whole schedule (rounds_executed), "
        "as the distributed algorithms must."
    )
    table.add_note(
        "Full schedule, fewer transmissions per node: "
        + "; ".join(
            f"{name} at " + (f"d = {', '.join(map(str, ds))}" if ds else "no d")
            for name, ds in cheaper.items()
        )
        + "."
    )
    return table
