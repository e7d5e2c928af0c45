"""Static confirmation of LLM-recognized candidates.

Four checks run over the candidate's code context using the variables
and statements the model named: dataflow dependency (DF), value
comparison in conditions (VC), statement execution order (OC), and
user-controlled call arguments (FA). Everything is path-insensitive: a
dependency or ordering on any syntactic path counts. Before they run,
``validate_recognition`` drops an answer whose names do not occur in
the context.

Calls are resolved once, by the call graph: a context carries each
record's call sites with the function each resolved to, one entry per
statement of the record's table, and a call counts as context-internal
when that function is a record of the context. The checks read the
statements and their sites in place (``_context_statements``);
``build_def_use`` adds the name graph, which only DF and FA read, and
is built only for a rule with one of them. A check reports only
whether its relation is present;
``confirm_candidate`` applies the directive's expectation and builds
every ``CheckVerdict``.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from .callgraph import CodeContext, ReachabilitySet
from .frontend import (
    FunctionRecord,
    Statement,
    call_name,
    contains_identifier,
    is_identifier,
    target_names,
    used_names,
)
from .frontend.lexer import _IDENTIFIER
from .report import Finding
from .rules import VulnRule

_CONDITION_KINDS = ("if", "require", "assert")
_CONTAINER_KINDS = ("block", "if", "for", "while")


@dataclass(slots=True)
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
    binding of a context-internal call). No alias analysis.
    """

    def __init__(self):
        self.occurrences: dict[tuple, tuple] = {}  # node -> first line span
        self.edges_out: dict[tuple, dict] = {}  # node -> {node: span of its first edge}
        self.edges_in: dict[tuple, dict] = {}
        self._by_name: dict[str, list] = {}

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
    """The name graph of the context, over the call graph's resolved call sites.

    Confirmation resolves no call itself: each call keeps the target
    ``callgraph.build_call_graph`` resolved it to, and binds its
    arguments to that target's parameters when the target is a record
    of the context.
    """
    graph = DefUseGraph()
    in_context = {fn: fid for fid, fn in context.records}
    for fid, fn in context.records:
        header_span = (fn.span[0], fn.span[0])
        for _ptype, pname in fn.params:
            if pname:
                graph.add_occurrence((fid, pname), header_span)
        for stmt, calls in _record_statements(context, fid, fn):
            span = stmt.span
            _add_statement_flow(graph, fid, stmt, span)
            for call, target in calls:
                callee_fid = in_context.get(target)
                if callee_fid is None:
                    continue
                # argument -> parameter binding for context-internal calls
                for (_ptype, pname), arg in zip(target.params, call.args):
                    if pname:
                        for src in used_names(arg):
                            graph.add_edge((fid, src), (callee_fid, pname), span)
    return graph


def _record_statements(context: CodeContext, fid: str, fn: FunctionRecord):
    """Each statement of the record ``fn`` in table order, with its
    ``(call, target)`` sites from the call graph."""
    return zip(fn.body or (), context.sites[fid])


def _context_statements(context: CodeContext):
    """``(fid, record, statement, calls)`` for each statement of the context,
    records in context order, as ``_record_statements`` gives them."""
    for fid, fn in context.records:
        for stmt, calls in _record_statements(context, fid, fn):
            yield fid, fn, stmt, calls


def _conditions(context: CodeContext):
    """``(record, condition)`` of each if/require/assert of the context, in context order."""
    for _fid, fn, stmt, _calls in _context_statements(context):
        if stmt.kind in _CONDITION_KINDS and stmt.condition is not None:
            yield fn, stmt.condition


def _add_statement_flow(graph: DefUseGraph, fid: str, stmt: Statement, span: tuple) -> None:
    """The names ``stmt`` reads, and the edges its assignment or declaration makes.

    An assignment's or declaration's expressions are its ``exprs``, so
    the names each reads are walked once and reused for its edges.
    """
    read = [used_names(expr) for expr in stmt.expressions()]
    for found in read:
        for name in found:
            graph.add_occurrence((fid, name), span)
    if stmt.kind == "assignment" and len(stmt.exprs) == 2:
        targets = target_names(stmt.exprs[0])
        lhs_names, rhs_names = read
        # index keys select the written slot, so they flow in too
        sources = rhs_names + [n for n in lhs_names if n not in targets]
    elif stmt.kind == "local-decl":
        targets = stmt.decl_names
        sources = [n for found in read for n in found]
    else:
        return
    for tgt in targets:
        graph.add_occurrence((fid, tgt), span)
        for src in sources:
            graph.add_edge((fid, src), (fid, tgt), span)


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


def check_value_comparison(names: list, context: CodeContext) -> Presence:
    """Present iff one condition expression contains every given name."""
    for fn, cond in _conditions(context):
        if all(contains_identifier(cond.raw, n) for n in names):
            idx = fn.file.line_index
            return Presence(True, [(idx.line_of(cond.start),
                                    idx.line_of(max(cond.start, cond.end - 1)))])
    return Presence(False, [], "no condition compares " + ", ".join(names))


def _collapse(text: str) -> str:
    return re.sub(r"\s+", " ", text).strip()


def _ordered_statements(context: CodeContext) -> list:
    """Focus statements with one level of context-internal call inlining.

    A statement's order key is its index in its record's table. Inlined
    callee statements inherit an order key just after their call site, so
    order checks see through local helper functions. Each statement comes
    with its call sites from the graph.
    """
    focus_id = context.focus_id
    in_context = {fn: fid for fid, fn in context.records}
    out = []
    for index, (stmt, calls) in enumerate(_record_statements(context, focus_id, context.focus)):
        out.append(((index, 0, 0), stmt, calls))
        # each call to another record of the context, in call order
        callees = [target for _call, target in calls
                   if in_context.get(target, focus_id) != focus_id]
        for rank, callee in enumerate(callees, 1):
            callee_fid = in_context[callee]
            out += [((index, rank, inner), inner_stmt, inner_calls)
                    for inner, (inner_stmt, inner_calls)
                    in enumerate(_record_statements(context, callee_fid, callee))]
    return out


def _statement_matches(stmt: Statement, calls: tuple, descriptor: str) -> bool:
    """Whether ``stmt``, with its ``calls``, matches ``descriptor``."""
    if stmt.kind in _CONTAINER_KINDS:
        return False
    desc = descriptor.strip().rstrip(";").strip()
    if not desc:
        return False
    if is_identifier(desc):
        return (any(call_name(call) == desc for call, _target in calls)
                or contains_identifier(stmt.raw, desc))
    return _collapse(desc) in _collapse(stmt.raw)


def check_order(first: str, second: str, context: CodeContext) -> Presence:
    """Present iff the first descriptor's statement executes earlier.

    Each descriptor resolves to its earliest matching statement; call
    names match statements containing a call to that name.
    """
    ordered = _ordered_statements(context)

    def resolve(descriptor: str):
        return next(((key, stmt) for key, stmt, calls in ordered
                     if _statement_matches(stmt, calls, descriptor)), None)

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


_CALLED_NAME_RE = re.compile(rf"({_IDENTIFIER})\s*\(")
# qualified calls: keep the member name (token.transfer -> transfer), never
# the first part of a word holding a letter no identifier can hold
_MEMBER_NAME_RE = re.compile(rf"(?:{_IDENTIFIER}\.)+({_IDENTIFIER})(?!\w)")


def _call_descriptor_name(descriptor: str) -> str:
    desc = descriptor.strip().rstrip(";").strip()
    m = _CALLED_NAME_RE.match(desc) or _MEMBER_NAME_RE.match(desc)
    return m.group(1) if m else desc


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
    sites = [(fid, stmt, call_expr) for fid, _fn, stmt, calls in _context_statements(context)
             for call_expr, _target in calls if call_name(call_expr) == name]
    if not sites:
        return Presence(False, [], f"no call to {name!r} in context")

    entry_params = {
        (fid, pname): fn
        for fid, fn in context.records
        if fn.visibility in ("public", "external") and fid in reach.reachable
        for _ptype, pname in fn.params
        if pname
    }

    guards = [cond for _fn, cond in _conditions(context) if "msg.sender" in cond.raw]

    out_of_range = True
    for fid, stmt, call_expr in sites:
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
# recognition validation, before any check runs


def validate_recognition(answer: dict, context: CodeContext, slots: list) -> str | None:
    """Why the recognized ``answer`` is ungrounded, as ``"slot: reason"``, or None.

    Each slot needs a name that occurs verbatim in the context, and a description.
    """
    for slot in slots:
        if slot not in answer:
            return f"{slot}: missing from answer"
        name, desc = answer[slot]
        if not name:
            return f"{slot}: empty name"
        if not desc:
            return f"{slot}: empty description"
        if not contains_identifier(context.text, name):
            return f"{slot}: {name!r} does not occur in the context"
    return None


# ----------------------------------------------------------------------
# directive evaluation


def _occurrence_evidence(context: CodeContext, names: list) -> list:
    """Per name, the first statement citing it, else the focus function."""
    return [
        next((stmt.span for _fid, _fn, stmt, _calls in _context_statements(context)
              if stmt.kind not in _CONTAINER_KINDS and contains_identifier(stmt.raw, name)),
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
    kinds = rule.check_kinds
    graph = build_def_use(context) if "DF" in kinds or "FA" in kinds else None
    names = {slot: info["name"] for slot, info in finding.recognized.items()}
    verdicts = []
    for directive in rule.checks:
        bound = [names[slot] for slot in directive.between]
        if directive.kind == "DF":
            found = check_dataflow(bound[0], bound[1], graph)
        elif directive.kind == "VC":
            found = check_value_comparison(bound, context)
        elif directive.kind == "OC":
            first, second = bound
            if directive.expectation == "after":
                first, second = second, first
            found = check_order(first, second, context)
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
                evidence = _occurrence_evidence(context, bound)
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
