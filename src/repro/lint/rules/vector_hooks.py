"""VEC001 — capability flags must come with their ``vector_*`` hook methods.

Invariant: the vectorized engine trusts the opt-in class flag.
``supports_vectorized = True`` on a protocol promises ``vector_fanout`` plus
the decision hook of at least one round type: ``vector_push_samplers`` (the
index pool push-only rounds sample) or ``vector_wants_pull`` (the mask pull
rounds gather).  The *same flag name* on a churn model (any class descending
from ``ChurnModel``) promises the bulk membership hook ``vector_apply``
instead — the rule selects the contract variant by ancestry.  A flag without
its hooks crashes mid-sweep (the base class stubs raise).  Which hooks a
protocol's schedule needs is a runtime fact the rule cannot see; the
contract test in ``tests/test_vector_contract.py`` checks each hook against
the scalar rules round by round.  The check is structural, at class
definition level, resolving base classes *by name across the whole linted
file set* so hooks provided by an intermediate base in another module count.

Raising stubs do not count as implementations, and neither does anything
defined on the class that *declares* the flag with a ``False`` default (the
abstract interface, i.e. ``BroadcastProtocol`` or ``ChurnModel``): the
contract must be discharged below its root.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..diagnostics import Diagnostic
from ..rule import ZONE_PACKAGE, LintContext, Rule, register_rule

__all__ = ["VectorHookContractRule"]

#: flag -> required hook groups; every group needs at least one of its
#: method names concretely defined.
_CONTRACTS = {
    "supports_vectorized": (
        ("vector_fanout",),
        ("vector_push_samplers", "vector_wants_pull"),
    ),
}

#: Contract variants keyed by the ancestor class that re-scopes the flag.
#: ``supports_vectorized`` on a churn model opts into the vectorized
#: engine's *membership* surface, whose only hook is ``vector_apply``.
_SCOPED_CONTRACTS = {
    "ChurnModel": {
        "supports_vectorized": (("vector_apply",),),
    },
}


def _descends_from(ctx: LintContext, record, root_name: str) -> bool:
    """True if ``record`` (or any name-resolvable ancestor) is ``root_name``."""
    seen = set()
    queue = [record]
    while queue:
        current = queue.pop(0)
        key = (current.relpath, current.name, current.lineno)
        if key in seen:
            continue
        seen.add(key)
        if current.name == root_name:
            return True
        for base in current.bases:
            if base == root_name:
                return True
            queue.extend(ctx.classes.definitions(base))
    return False


@register_rule
class VectorHookContractRule(Rule):
    id = "VEC001"
    slug = "vector-hook-contract"
    summary = (
        "a class setting supports_vectorized must concretely define the "
        "matching vector_* hooks (in itself or a non-abstract base)"
    )
    hint = (
        "implement the missing vector_* hook(s) so the bulk engines run the "
        "same draw sequence as the scalar path, or drop the capability flag"
    )
    zones = frozenset({ZONE_PACKAGE})

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            records = [
                rec
                for rec in ctx.classes.definitions(node.name)
                if rec.relpath == ctx.relpath and rec.lineno == node.lineno
            ]
            if not records:
                continue
            record = records[0]
            contracts = dict(_CONTRACTS)
            for root_name, overrides in _SCOPED_CONTRACTS.items():
                if _descends_from(ctx, record, root_name):
                    contracts.update(overrides)
            for flag, groups in contracts.items():
                declared = record.flags.get(flag)
                if declared is None or declared[0] is not True:
                    continue
                provided = set()
                for ancestor in ctx.classes.ancestry(record, stop_flag=flag):
                    provided.update(
                        name
                        for name, concrete in ancestor.methods.items()
                        if concrete
                    )
                missing = [
                    group
                    for group in groups
                    if not any(name in provided for name in group)
                ]
                if not missing:
                    continue
                wanted = " and ".join(" or ".join(group) for group in missing)
                _, lineno, col = declared
                yield self.diagnostic(
                    ctx,
                    node,
                    f"class {node.name} sets {flag} = True but defines no "
                    f"concrete {wanted}",
                    line=lineno,
                    col=col,
                )
