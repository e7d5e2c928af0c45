"""Static confirmation of LLM-recognized candidates.

Four checks run over the candidate's code context using the variables
and statements the model named: dataflow dependency (DF), value
comparison in conditions (VC), statement execution order (OC), and
user-controlled call arguments (FA). Everything is path-insensitive: a
dependency or ordering on any syntactic path counts.

``build_def_use`` is the one walk over a context's statements; the
checks read its call sites and conditions. A check reports only whether
its relation is present; ``confirm_candidate`` applies the directive's
expectation and builds every ``CheckVerdict``.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from .callgraph import CodeContext, ReachabilitySet
from .frontend import (
    Statement,
    call_name,
    contains_identifier,
    iter_calls,
    target_names,
    used_names,
)
from .report import Finding
from .rules import VulnRule

_IDENT_RE = re.compile(r"^[A-Za-z_$][A-Za-z0-9_$]*$")
_CONDITION_KINDS = ("if", "require", "assert")
_CONTAINER_KINDS = ("block", "if", "for", "while")


@dataclass
class CheckVerdict:
    kind: str
    slots: list
    expectation: str
    result: str  # confirmed|rejected
    evidence: list = field(default_factory=list)  # (start line, end line) spans
    detail: str = ""


class Presence(NamedTuple):
    """What one check found: whether its relation holds, and why."""

    present: bool
    evidence: list  # (start line, end line) spans
    detail: str = ""


# ----------------------------------------------------------------------
# def-use graph


class DefUseGraph:
    """Name-level def/use dependency graph over one code context.

    Nodes are (function id, name); an edge u -> v means v's value was
    derived from u (assignment, declaration, or argument-to-parameter
    binding of a context-internal call). No alias analysis. Call sites,
    conditions and statements are kept in context order.
    """

    def __init__(self):
        self.occurrences: dict[tuple, tuple] = {}  # node -> first line span
        self.edges_out: dict[tuple, dict] = {}  # node -> {node: span of its first edge}
        self.edges_in: dict[tuple, dict] = {}
        self._by_name: dict[str, list] = {}
        self.calls: list = []  # (fid, fn, stmt, call, (callee fid, callee) or None)
        self.conditions: list = []  # (fn, condition) of each if/require/assert
        self.statements: list = []  # each non-container statement

    def add_occurrence(self, node: tuple, span: tuple) -> None:
        if node not in self.occurrences:
            self.occurrences[node] = span
            self._by_name.setdefault(node[1], []).append(node)

    def add_edge(self, src: tuple, dst: tuple, span: tuple) -> None:
        self.add_occurrence(src, span)
        self.add_occurrence(dst, span)
        out = self.edges_out.setdefault(src, {})
        if dst not in out:
            out[dst] = span
            self.edges_in.setdefault(dst, {})[src] = span

    def nodes_for(self, name: str) -> list:
        return list(self._by_name.get(name, []))

    def forward_names(self, sources: list) -> set:
        """Names of every node reachable forward from the given nodes."""
        seen = set(sources)
        queue = deque(sources)
        while queue:
            node = queue.popleft()
            for nxt in self.edges_out.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return {name for _fid, name in seen}

    def edge_set(self) -> set:
        return {(src, dst) for src, outs in self.edges_out.items() for dst in outs}

    def reach_path(self, sources: list, targets: list, reverse: bool = False):
        """Deterministic BFS; returns (target, edge spans, nodes) of one path."""
        target_set = set(targets)
        adjacency = self.edges_in if reverse else self.edges_out
        queue = deque(sources)
        parent: dict[tuple, tuple] = {n: None for n in sources}
        while queue:
            node = queue.popleft()
            if node in target_set:
                spans = []
                nodes = [node]
                cur = node
                while parent[cur] is not None:
                    prev, span = parent[cur]
                    spans.append(span)
                    nodes.append(prev)
                    cur = prev
                spans.reverse()
                nodes.reverse()
                return node, spans, nodes
            for nxt, span in adjacency.get(node, {}).items():
                if nxt not in parent:
                    parent[nxt] = (node, span)
                    queue.append(nxt)
        return None


def build_def_use(context: CodeContext) -> DefUseGraph:
    """One walk of the context; a call resolves to its unique (name, arity) match."""
    graph = DefUseGraph()
    call_index: dict[tuple, list] = {}
    for fid, fn in context.records:
        call_index.setdefault((fn.name, fn.arity), []).append((fid, fn))
    for fid, fn in context.records:
        header_span = (fn.span[0], fn.span[0])
        for _ptype, pname in fn.params:
            if pname:
                graph.add_occurrence((fid, pname), header_span)
        for stmt in fn.statements():
            span = stmt.span
            calls = []
            for expr in stmt.expressions():
                for name in used_names(expr):
                    graph.add_occurrence((fid, name), span)
                calls += iter_calls(expr)
            if stmt.kind in _CONDITION_KINDS and stmt.condition is not None:
                graph.conditions.append((fn, stmt.condition))
            if stmt.kind not in _CONTAINER_KINDS:
                graph.statements.append(stmt)
            if stmt.kind == "assignment" and len(stmt.exprs) == 2:
                lhs, rhs = stmt.exprs
                targets = target_names(lhs)
                sources = used_names(rhs)
                # index keys select the written slot, so they flow in too
                sources += [n for n in used_names(lhs) if n not in targets]
                for tgt in targets:
                    graph.add_occurrence((fid, tgt), span)
                    for src in sources:
                        graph.add_edge((fid, src), (fid, tgt), span)
            elif stmt.kind == "local-decl":
                sources = []
                for expr in stmt.exprs:
                    sources += used_names(expr)
                for tgt in stmt.decl_names:
                    graph.add_occurrence((fid, tgt), span)
                    for src in sources:
                        graph.add_edge((fid, src), (fid, tgt), span)
            # argument -> parameter binding for context-internal calls
            for call in calls:
                hits = call_index.get((call_name(call), len(call.args)), ())
                resolved = hits[0] if len(hits) == 1 else None
                graph.calls.append((fid, fn, stmt, call, resolved))
                if resolved is None:
                    continue
                callee_fid, callee = resolved
                for (_ptype, pname), arg in zip(callee.params, call.args):
                    if pname:
                        for src in used_names(arg):
                            graph.add_edge((fid, src), (callee_fid, pname), span)
    return graph


# ----------------------------------------------------------------------
# checks: each reports whether its relation is present in the context


def check_dataflow(a: str, b: str, graph: DefUseGraph) -> Presence:
    """Present iff a reaches b or b reaches a in the dependency closure."""
    a_nodes = graph.nodes_for(a)
    b_nodes = graph.nodes_for(b)
    if not a_nodes or not b_nodes:
        missing = a if not a_nodes else b
        return Presence(False, [], f"unknown name {missing!r}")
    if a == b:
        return Presence(True, [graph.occurrences[a_nodes[0]]], "reflexive")
    hit = graph.reach_path(a_nodes, b_nodes)
    if hit is None:
        hit = graph.reach_path(b_nodes, a_nodes)
    if hit is None:
        return Presence(False, [], "no dependency path")
    _node, spans, _nodes = hit
    return Presence(True, spans or [graph.occurrences[a_nodes[0]]])


def check_value_comparison(names: list, graph: DefUseGraph) -> Presence:
    """Present iff one condition expression contains every given name."""
    for fn, cond in graph.conditions:
        if all(contains_identifier(cond.raw, n) for n in names):
            idx = fn.file.line_index
            return Presence(True, [(idx.line_of(cond.start),
                                    idx.line_of(max(cond.start, cond.end - 1)))])
    return Presence(False, [], "no condition compares " + ", ".join(names))


def _collapse(text: str) -> str:
    return re.sub(r"\s+", " ", text).strip()


def _ordered_statements(context: CodeContext, graph: DefUseGraph) -> list:
    """Focus statements with one level of context-internal call inlining.

    Inlined callee statements inherit an order key just after their call
    site, so order checks see through local helper functions.
    """
    focus_id = context.focus_id
    inlined: dict[int, list] = {}  # focus statement seq -> callees, call order
    for fid, _fn, stmt, _call, resolved in graph.calls:
        if fid == focus_id and resolved is not None and resolved[0] != focus_id:
            inlined.setdefault(stmt.seq, []).append(resolved[1])
    out = []
    for stmt in context.focus.statements():
        out.append(((stmt.seq, 0, 0), stmt))
        for rank, callee in enumerate(inlined.get(stmt.seq, ()), 1):
            out += [((stmt.seq, rank, inner.seq), inner) for inner in callee.statements()]
    return out


def _statement_matches(stmt: Statement, descriptor: str) -> bool:
    if stmt.kind in _CONTAINER_KINDS:
        return False
    desc = descriptor.strip().rstrip(";").strip()
    if not desc:
        return False
    if _IDENT_RE.match(desc):
        for expr in stmt.expressions():
            for call in iter_calls(expr):
                if call_name(call) == desc:
                    return True
        return contains_identifier(stmt.raw, desc)
    return _collapse(desc) in _collapse(stmt.raw)


def check_order(first: str, second: str, context: CodeContext,
                graph: DefUseGraph) -> Presence:
    """Present iff the first descriptor's statement executes earlier.

    Each descriptor resolves to its earliest matching statement; call
    names match statements containing a call to that name.
    """
    ordered = _ordered_statements(context, graph)

    def resolve(descriptor: str):
        return next(((key, stmt) for key, stmt in ordered
                     if _statement_matches(stmt, descriptor)), None)

    first_hit = resolve(first)
    second_hit = resolve(second)
    if first_hit is None or second_hit is None:
        missing = first if first_hit is None else second
        return Presence(False, [], f"no statement matches {missing!r}")
    (first_key, first_stmt), (second_key, second_stmt) = first_hit, second_hit
    evidence = [first_stmt.span, second_stmt.span]
    if first_key < second_key:
        return Presence(True, evidence)
    return Presence(False, evidence, "order is reversed")


def _call_descriptor_name(descriptor: str) -> str:
    desc = descriptor.strip().rstrip(";").strip()
    m = re.match(r"^([A-Za-z_$][A-Za-z0-9_$]*)\s*\(", desc)
    if m:
        return m.group(1)
    # qualified calls: keep the member name (token.transfer -> transfer)
    m = re.match(r"^[A-Za-z_$][\w$.]*\.([A-Za-z_$][\w$]*)\s*\(?", desc)
    if m:
        return m.group(1)
    return desc


def check_fn_arg(call: str, context: CodeContext, graph: DefUseGraph,
                 reach: ReachabilitySet, arg_index: int | None = None,
                 arg_name: str | None = None) -> Presence:
    """Present iff an argument of the named call is user-controlled.

    The argument is picked by index when pinned, by the recognized
    argument variable when one is named, and any argument otherwise.
    User-controlled means: data-dependent on a parameter of a reachable
    public/external function in the context, with no condition comparing
    msg.sender against a value on that dependency chain.
    """
    name = _call_descriptor_name(call)
    sites = [site for site in graph.calls if call_name(site[3]) == name]
    if not sites:
        return Presence(False, [], f"no call to {name!r} in context")

    entry_params = {
        (fid, pname): fn
        for fid, fn in context.records
        if fn.visibility in ("public", "external") and fid in reach.reachable
        for _ptype, pname in fn.params
        if pname
    }

    guards = [cond for _fn, cond in graph.conditions if "msg.sender" in cond.raw]

    out_of_range = True
    for fid, _fn, stmt, call_expr, _resolved in sites:
        if arg_index is not None:
            indices = [arg_index]
        elif arg_name is not None:
            indices = [
                i for i, arg in enumerate(call_expr.args)
                if contains_identifier(arg.raw, arg_name)
            ]
        else:
            indices = range(len(call_expr.args))
        for idx in indices:
            if idx >= len(call_expr.args):
                continue
            out_of_range = False
            arg = call_expr.args[idx]
            sources = [(fid, n) for n in used_names(arg) if (fid, n) in graph.occurrences]
            if not sources:
                continue
            hit = graph.reach_path(sources, list(entry_params), reverse=True)
            if hit is None:
                continue
            param_node, spans, path_nodes = hit
            # the guard may compare msg.sender against the value anywhere it
            # flows, including a callee parameter the argument was bound to
            chain = {n for _f, n in sources} | {n for _f, n in path_nodes}
            chain |= graph.forward_names(sources)
            if any(contains_identifier(cond.raw, n) for cond in guards for n in chain):
                continue
            entry_fn = entry_params[param_node]
            evidence = [(entry_fn.span[0], entry_fn.span[0])] + spans + [stmt.span]
            return Presence(True, evidence,
                            f"arg {idx} depends on parameter "
                            f"{param_node[1]!r} of {param_node[0]}")
    if out_of_range and arg_index is not None:
        return Presence(False, [], f"argument index {arg_index} out of range")
    return Presence(False, [], "no user-controlled argument")


# ----------------------------------------------------------------------
# directive evaluation


def _occurrence_evidence(context: CodeContext, graph: DefUseGraph, names: list) -> list:
    """Per name, the first statement citing it, else the focus function."""
    return [
        next((stmt.span for stmt in graph.statements if contains_identifier(stmt.raw, name)),
             context.focus.span)
        for name in names
    ]


def confirm_candidate(finding: Finding, rule: VulnRule, context: CodeContext,
                      reach: ReachabilitySet) -> Finding:
    """Run the rule's checks in order; all must meet their expectation.

    The recorded verdicts are directive-level: ``confirmed`` means the
    directive supports the vulnerability (for an ``absent`` expectation
    that is the absence of the checked relation).
    """
    graph = build_def_use(context)
    names = {slot: info["name"] for slot, info in finding.recognized.items()}
    verdicts = []
    for directive in rule.checks:
        bound = [names[slot] for slot in directive.between]
        if directive.kind == "DF":
            found = check_dataflow(bound[0], bound[1], graph)
        elif directive.kind == "VC":
            found = check_value_comparison(bound, graph)
        elif directive.kind == "OC":
            first, second = bound
            if directive.expectation == "after":
                first, second = second, first
            found = check_order(first, second, context, graph)
        elif directive.kind == "FA":
            arg_name = bound[1] if len(bound) > 1 else None
            found = check_fn_arg(bound[0], context, graph, reach, directive.arg, arg_name)
        else:
            raise ValueError(f"unknown check kind {directive.kind!r}")

        evidence, detail = found.evidence, found.detail
        met = found.present
        if directive.expectation == "absent":
            met = not met
            if met:
                evidence = _occurrence_evidence(context, graph, bound)
                detail = "required absence holds"
        verdicts.append(CheckVerdict(
            kind=directive.kind,
            slots=list(directive.between),
            expectation=directive.expectation,
            result="confirmed" if met else "rejected",
            evidence=evidence,
            detail=detail,
        ))

    finding.check_verdicts = verdicts
    finding.verdict = "confirmed" if all(v.result == "confirmed" for v in verdicts) else "rejected"
    return finding
