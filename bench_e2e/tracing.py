"""Layer spans recorded from outside the program.

:class:`Tracer` wraps public functions and methods of each ``repro`` layer
for the duration of a ``with`` block and records one span per call: name,
start, end, parent span and a few attributes taken from the call's result.
Nothing under ``src/`` changes: module-level functions are replaced in
every ``repro`` module that imported them by name, and methods are replaced
on their class (and, for hooks that subclasses override, on every subclass
that defines them).  Everything is restored on exit.

:func:`layer_metrics` turns the spans of one traced sweep, plus the sweep's
results, into the per-layer metrics named in ``BENCHMARK.json``.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple


def _engine_rows(args, kwargs, result) -> dict:
    results = result if isinstance(result, list) else [result]
    rounds = [r.rounds_executed for r in results]
    return {"rows": len(results), "row_rounds": sum(rounds), "max_rounds": max(rounds, default=0)}


def _append_bytes(args, kwargs, result) -> dict:
    _, start, end = result
    return {"bytes": end - start}


#: (span name, "module:qualified.name", attribute hook, patch subclasses too).
#: The span name's first segment is the layer.
TARGETS: Tuple[Tuple[str, str, Optional[Callable], bool], ...] = (
    ("spec.load", "repro.spec.scenario:load_spec", None, False),
    ("spec.expand", "repro.dist.partition:expand_points", None, False),
    ("spec.validate", "repro.spec.scenario:ScenarioSpec.from_dict", None, False),
    (
        "graphs.build",
        "repro.graphs.configuration_model:connected_random_regular_graph",
        None,
        False,
    ),
    ("graphs.build", "repro.graphs.registry:build_graph", None, False),
    ("graphs.generate", "repro.graphs.configuration_model:random_regular_graph", None, False),
    ("graphs.generate", "repro.graphs.configuration_model:pairing_multigraph", None, False),
    ("graphs.connectivity", "repro.graphs.base:Graph.to_networkx", None, False),
    ("graphs.connectivity", "networkx:is_connected", None, False),
    ("graphs.csr", "repro.graphs.base:Graph.csr", None, False),
    ("core.engine", "repro.core.engine:run_broadcast", _engine_rows, False),
    ("core.engine", "repro.core.engine:run_broadcast_batch", _engine_rows, False),
    ("core.engine_setup", "repro.core.engine:RoundEngine.__init__", None, False),
    (
        "core.engine_setup",
        "repro.core.engine_vectorized:VectorizedRoundEngine.__init__",
        None,
        False,
    ),
    (
        "core.engine_setup",
        "repro.core.engine_vectorized:BatchedVectorizedRoundEngine.__init__",
        None,
        False,
    ),
    ("failures.churn", "repro.failures.churn:ChurnModel.vector_apply", None, True),
    ("failures.churn", "repro.failures.churn:ChurnModel.apply", None, True),
    ("experiments.point", "repro.experiments.runner:ExperimentRunner.run_point", None, False),
    ("experiments.repeat", "repro.experiments.runner:repeat_broadcast", None, False),
    ("experiments.aggregate", "repro.spec.run:build_scenario_table", None, False),
    ("dist.executor", "repro.dist.executor:ParallelScenarioExecutor.run", None, False),
    ("dist.sink_append", "repro.dist.sink:StreamingResultSink.append", _append_bytes, False),
    ("dist.decode", "repro.dist.sink:point_run_from_payload", None, False),
    ("dist.fsync", "os:fsync", None, False),
)


class Tracer:
    """Records spans of the wrapped layer boundaries while active.

    ``spans`` holds ``[name, start, end, parent index, attributes]`` lists
    in call order; ``parent`` is -1 for spans with no enclosing span.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                span[4] = hook(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner: object, attribute: str, value: object) -> None:
        self._restore.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def _patch_method(self, cls: type, attribute: str, name: str, hook) -> None:
        raw = cls.__dict__[attribute]
        if isinstance(raw, classmethod):
            self._patch(cls, attribute, classmethod(self._wrap(name, raw.__func__, hook)))
        elif isinstance(raw, staticmethod):
            self._patch(cls, attribute, staticmethod(self._wrap(name, raw.__func__, hook)))
        else:
            self._patch(cls, attribute, self._wrap(name, raw, hook))

    def _patch_function(self, module, attribute: str, name: str, hook) -> None:
        original = getattr(module, attribute)
        wrapper = self._wrap(name, original, hook)
        holders = [module] + [
            loaded
            for module_name, loaded in list(sys.modules.items())
            if module_name.startswith("repro") and loaded is not module
        ]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._patch(holder, key, wrapper)

    def __enter__(self) -> "Tracer":
        for name, target, hook, subclasses in TARGETS:
            module_name, qualified = target.split(":")
            owner = importlib.import_module(module_name)
            *path, attribute = qualified.split(".")
            for part in path:
                owner = getattr(owner, part)
            if not isinstance(owner, type):
                self._patch_function(owner, attribute, name, hook)
                continue
            classes = [owner]
            if subclasses:
                for cls in classes:
                    classes.extend(c for c in cls.__subclasses__() if c not in classes)
            for cls in classes:
                if attribute in cls.__dict__:
                    self._patch_method(cls, attribute, name, hook)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attribute, value in reversed(self._restore):
            setattr(owner, attribute, value)
        self._restore.clear()

    def to_json(self) -> List[dict]:
        """The spans as JSON-ready dicts (``id`` is the position in the list)."""
        return [
            {"id": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3], "attrs": s[4]}
            for i, s in enumerate(self.spans)
        ]


# -- metrics from spans --------------------------------------------------------------


class _SpanIndex:
    def __init__(self, spans: List[list]) -> None:
        self.spans = spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        self.self_time = [s[2] - s[1] - child_time[i] for i, s in enumerate(spans)]

    def _has_ancestor(self, index: int, names) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def outermost(self, name: str) -> List[int]:
        """Spans called ``name`` not nested inside another ``name`` span."""
        return [
            i for i, s in enumerate(self.spans)
            if s[0] == name and not self._has_ancestor(i, (name,))
        ]

    def busy(self, name: str) -> float:
        """Wall time during which at least one ``name`` span was open."""
        return sum(self.spans[i][2] - self.spans[i][1] for i in self.outermost(name))

    def attr_sum(self, name: str, key: str) -> float:
        return sum((self.spans[i][4] or {}).get(key, 0) for i in self.outermost(name))

    def self_of(self, names, under: Tuple[str, ...] = ()) -> float:
        """Self time of spans in ``names``, optionally only below an ``under`` span."""
        return sum(
            self.self_time[i]
            for i, s in enumerate(self.spans)
            if s[0] in names
            and (not under or s[0] in under or self._has_ancestor(i, under))
        )


def layer_metrics(spans: List[list], run) -> Dict[str, float]:
    """Per-layer metrics of one traced sweep: span times, span counts, result counts."""
    index = _SpanIndex(spans)
    results = run.results()
    transmissions = sum(
        r.total_push_transmissions + r.total_pull_transmissions for r in results
    )
    churn = [r.metadata.get("churn") or {} for r in results]
    engine_spans = index.outermost("core.engine")
    row_rounds = index.attr_sum("core.engine", "row_rounds")
    row_capacity = sum(
        (spans[i][4] or {}).get("rows", 0) * (spans[i][4] or {}).get("max_rounds", 0)
        for i in engine_spans
    )
    generate_calls = len(index.outermost("graphs.generate"))
    builds = len(index.outermost("graphs.build"))
    return {
        "spec.load_s": index.busy("spec.load"),
        "spec.expand_s": index.busy("spec.expand"),
        "spec.validate_s": index.busy("spec.validate"),
        "spec.validate_calls": len(index.outermost("spec.validate")),
        "spec.points": run.spec.sweep.size if run.spec.sweep is not None else 1,
        "graphs.build_s": index.busy("graphs.build"),
        "graphs.builds": builds,
        "graphs.generate_s": index.busy("graphs.generate"),
        "graphs.generate_calls": generate_calls,
        "graphs.connectivity_s": index.busy("graphs.connectivity"),
        "graphs.csr_s": index.busy("graphs.csr"),
        "graphs.connected_ratio": builds / generate_calls if generate_calls else 1.0,
        "core.engine_s": index.busy("core.engine"),
        "core.engine_setup_s": index.busy("core.engine_setup"),
        "core.engine_calls": len(engine_spans),
        "core.batch_rows": index.attr_sum("core.engine", "rows"),
        "core.rounds": sum(r.rounds_executed for r in results),
        "core.node_rounds": sum(r.n * r.rounds_executed for r in results),
        "core.live_row_ratio": row_rounds / row_capacity if row_capacity else 1.0,
        "protocols.transmissions": transmissions,
        "protocols.useful_tx_ratio": (
            sum(r.final_informed - 1 for r in results) / transmissions
            if transmissions
            else 0.0
        ),
        "failures.churn_s": index.busy("failures.churn"),
        "failures.churn_calls": len(index.outermost("failures.churn")),
        "failures.departures": sum(c.get("departures", 0) for c in churn),
        "failures.arrivals": sum(c.get("arrivals", 0) for c in churn),
        "failures.node_compactions": sum(c.get("node_compactions", 0) for c in churn),
        "experiments.point_s": index.busy("experiments.point"),
        "experiments.point_self_s": index.self_of(
            ("experiments.point", "experiments.repeat"), under=("experiments.point",)
        ),
        "experiments.aggregate_s": index.busy("experiments.aggregate"),
        "dist.executor_self_s": index.self_of(("dist.executor",)),
        "dist.sink_append_s": index.busy("dist.sink_append"),
        "dist.records": len(index.outermost("dist.sink_append")),
        "dist.bytes": index.attr_sum("dist.sink_append", "bytes"),
        "dist.fsync_calls": len(index.outermost("dist.fsync")),
        "dist.decode_s": index.busy("dist.decode"),
        "dist.retries": int(run.provenance.get("retries", 0) or 0),
    }
