"""Solidity frontend: lexer, parser, AST nodes, and small AST helpers."""

from __future__ import annotations

import re
import string
from typing import Optional

from .lexer import strip_comments
from .nodes import (
    ContractDef,
    Expression,
    FunctionRecord,
    LineIndex,
    SourceFile,
    SourceUnit,
    Statement,
)
from .parser import enumerate_functions, parse_source, parse_text

__all__ = [
    "ContractDef",
    "Expression",
    "FunctionRecord",
    "LineIndex",
    "SourceFile",
    "SourceUnit",
    "Statement",
    "parse_source",
    "parse_text",
    "enumerate_functions",
    "index_contracts",
    "strip_comments",
    "iter_calls",
    "call_name",
    "base_identifier",
    "used_names",
    "target_names",
]


def index_contracts(units) -> dict[str, list[ContractDef]]:
    """Every parsed contract by name, each list in declaration order.

    A name with more than one definition is ambiguous; functions that
    are not in a contract share the name "" (one entry per file).
    """
    index: dict[str, list[ContractDef]] = {}
    for unit in units:
        for contract in unit.contracts:
            index.setdefault(contract.name, []).append(contract)
    return index


def iter_calls(expr: Expression) -> list[Expression]:
    """Every call in ``expr`` in pre-order: a call before its callee and arguments."""
    calls = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if node.kind == "call":
            calls.append(node)
        if node.args:
            for arg in reversed(node.args):
                if arg is not None:
                    stack.append(arg)
        if node.callee is not None:
            stack.append(node.callee)
    return calls


def call_name(call: Expression) -> str:
    """Simple callee name: last member segment, or the identifier itself."""
    callee = call.callee
    if callee is None:
        return ""
    if callee.kind == "identifier":
        return callee.name
    if callee.kind == "member-access":
        return callee.name
    return ""


def base_identifier(expr: Expression) -> Optional[str]:
    """Root identifier of a member/index chain; None for anything else."""
    node = expr
    while node is not None and node.kind in ("member-access", "index"):
        node = node.callee
    if node is not None and node.kind == "identifier":
        return node.name
    return None


def used_names(expr: Expression) -> list[str]:
    """Names an expression reads: identifiers, chain roots, callee names.

    Call expressions contribute their simple callee name too, so value
    sources like ``totalSupply()`` participate in dataflow.
    """
    names: list[str] = []
    _visit_used(expr, names, set())
    return names


def _add_name(name: str, names: list, seen: set) -> None:
    if name and name not in seen:
        seen.add(name)
        names.append(name)


def _visit_used(node: Optional[Expression], names: list, seen: set) -> None:
    # module-level, not a self-referencing closure: that would leave a
    # reference cycle behind for the collector on every call
    if node is None:
        return
    if node.kind == "identifier":
        _add_name(node.name, names, seen)
        return
    if node.kind == "call":
        _add_name(call_name(node), names, seen)
        root = base_identifier(node.callee) if node.callee else None
        if root:
            _add_name(root, names, seen)
        for a in node.args:
            _visit_used(a, names, seen)
        return
    if node.kind in ("member-access", "index"):
        root = base_identifier(node)
        if root:
            _add_name(root, names, seen)
        if node.kind == "index":
            for a in node.args:
                _visit_used(a, names, seen)
        return
    if node.callee is not None:
        _visit_used(node.callee, names, seen)
    for a in node.args:
        _visit_used(a, names, seen)


def target_names(expr: Expression) -> list[str]:
    """Assignment-target base names: x, a.b -> a, m[k] -> m, tuples flatten."""
    if expr is None:
        return []
    if expr.kind == "tuple":
        out = []
        for a in expr.args:
            if a is not None:
                out.extend(target_names(a))
        return out
    root = base_identifier(expr)
    return [root] if root else []


_IDENTIFIER_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")
# The characters that may continue an identifier; any other character,
# a non-ASCII letter included, ends one.
_NAME_CHARS = frozenset(string.ascii_letters + string.digits + "_$")


def contains_identifier(text: str, name: str) -> bool:
    """Case-sensitive identifier-token match; substring for non-identifiers.

    An identifier ``name`` matches where neither the character before it
    nor the one after it can continue an identifier.
    """
    if not _IDENTIFIER_RE.fullmatch(name):
        return name in text
    at = text.find(name)
    while at >= 0:
        after = at + len(name)
        if text[at - 1 : at] not in _NAME_CHARS and text[after : after + 1] not in _NAME_CHARS:
            return True
        at = text.find(name, at + 1)
    return False
