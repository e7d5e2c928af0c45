"""Pre-LLM function filtering: nine textual/structural directive kinds.

All text matching is case-insensitive plain substring over the
comment-stripped function body (FCE family) or the function name (FNK);
fragment payloads like "total"/"supply" are meant to catch identifiers
such as ``totalSupply``, so no word boundaries are applied.
"""

from __future__ import annotations

import re

from .callgraph import DEFAULT_ACL_MODIFIERS
from .frontend import FunctionRecord
from .rules import VulnRule


def _canonical_param_types(fn: FunctionRecord) -> set:
    return {re.sub(r"\s+", "", t).lower() for t, _ in fn.params}


def directive_passes(fn: FunctionRecord, kind: str, payload, acl_modifiers) -> bool:
    """One directive; ``payload`` is normalized as ``rules`` loads it.

    Text payloads are lower-case and ``FPT`` types are lower-case
    without spaces.
    """
    if kind == "FNK":
        name = fn.name.lower()
        return any(k in name for k in payload)
    if kind == "FCE":
        body = fn.body_lower
        return any(e in body for e in payload)
    if kind == "FCNE":
        body = fn.body_lower
        return not any(e in body for e in payload)
    if kind == "FCCE":
        body = fn.body_lower
        return any(all(m in body for m in combo) for combo in payload)
    if kind == "FCNCE":
        body = fn.body_lower
        return not any(all(m in body for m in combo) for combo in payload)
    if kind == "FPT":
        have = _canonical_param_types(fn)
        return all(t in have for t in payload)
    if kind == "FPNC":
        return fn.visibility == "public"
    if kind == "FNM":
        return not any(m in acl_modifiers for m in fn.modifiers)
    if kind == "CFN":
        return True  # context-policy side effect only
    raise ValueError(f"unknown filter kind {kind!r}")


def apply_filters(fn: FunctionRecord, rule: VulnRule,
                  acl_modifiers=DEFAULT_ACL_MODIFIERS) -> tuple | None:
    """Evaluate the rule's directives in order with AND semantics.

    Returns the first failing directive as ``(kind, payload)``, or None
    when the function passes them all.
    """
    for directive in rule.filters:
        if not directive_passes(fn, directive.kind, directive.payload, acl_modifiers):
            return directive.kind, directive.payload
    return None


def candidates_for_rule(functions: list, rule: VulnRule,
                        acl_modifiers=DEFAULT_ACL_MODIFIERS) -> list:
    """Functions passing every directive, in input order."""
    return [fn for fn in functions if apply_filters(fn, rule, acl_modifiers) is None]
