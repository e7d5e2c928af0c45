"""Static confirmation of LLM-recognized candidates.

Four checks run over the candidate's code context using the variables
and statements the model named: dataflow dependency (DF), value
comparison in conditions (VC), statement execution order (OC), and
user-controlled call arguments (FA). Everything is path-insensitive: a
dependency or ordering on any syntactic path counts.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field

from .callgraph import CodeContext, ReachabilitySet
from .frontend import (
    FunctionRecord,
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


def _expr_lines(fn: FunctionRecord, expr) -> tuple:
    idx = fn.file.line_index
    return (idx.line_of(expr.start), idx.line_of(max(expr.start, expr.end - 1)))


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
        self.edges_out: dict[tuple, list] = {}  # node -> [(node, span)]
        self.edges_in: dict[tuple, list] = {}
        self._by_name: dict[str, list] = {}

    def add_occurrence(self, node: tuple, span: tuple) -> None:
        if node not in self.occurrences:
            self.occurrences[node] = span
            self._by_name.setdefault(node[1], []).append(node)

    def add_edge(self, src: tuple, dst: tuple, span: tuple) -> None:
        self.add_occurrence(src, span)
        self.add_occurrence(dst, span)
        out = self.edges_out.setdefault(src, [])
        if not any(n == dst for n, _ in out):
            out.append((dst, span))
            self.edges_in.setdefault(dst, []).append((src, span))

    def nodes_for(self, name: str) -> list:
        return list(self._by_name.get(name, []))

    def forward_names(self, sources: list) -> set:
        """Names of every node reachable forward from the given nodes."""
        seen = set(sources)
        queue = deque(sources)
        while queue:
            node = queue.popleft()
            for nxt, _span in self.edges_out.get(node, []):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return {name for _fid, name in seen}

    def edge_set(self) -> set:
        return {(src, dst) for src, outs in self.edges_out.items() for dst, _ in outs}

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
            for nxt, span in adjacency.get(node, []):
                if nxt not in parent:
                    parent[nxt] = (node, span)
                    queue.append(nxt)
        return None


def _context_call_index(context: CodeContext) -> dict:
    index: dict[tuple, list] = {}
    for fid, fn in context.records:
        index.setdefault((fn.name, fn.arity), []).append((fid, fn))
    return index


def _resolve_in_context(index: dict, name: str, arity: int):
    hits = index.get((name, arity), [])
    return hits[0] if len(hits) == 1 else None


def build_def_use(context: CodeContext) -> DefUseGraph:
    graph = DefUseGraph()
    call_index = _context_call_index(context)
    for fid, fn in context.records:
        header_span = (fn.span[0], fn.span[0])
        for _ptype, pname in fn.params:
            if pname:
                graph.add_occurrence((fid, pname), header_span)
        for stmt in fn.statements():
            span = stmt.span
            for expr in stmt.expressions():
                for name in used_names(expr):
                    graph.add_occurrence((fid, name), span)
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
            for expr in stmt.expressions():
                for call in iter_calls(expr):
                    resolved = _resolve_in_context(
                        call_index, call_name(call), len(call.args)
                    )
                    if resolved is None:
                        continue
                    callee_fid, callee = resolved
                    for i, arg in enumerate(call.args):
                        if i >= len(callee.params):
                            break
                        pname = callee.params[i][1]
                        if not pname:
                            continue
                        for src in used_names(arg):
                            graph.add_edge((fid, src), (callee_fid, pname), span)
    return graph


# ----------------------------------------------------------------------
# checks (presence semantics; directive expectations are applied on top)


def check_dataflow(a: str, b: str, graph: DefUseGraph) -> CheckVerdict:
    """Confirmed iff a reaches b or b reaches a in the dependency closure."""
    a_nodes = graph.nodes_for(a)
    b_nodes = graph.nodes_for(b)
    if not a_nodes or not b_nodes:
        missing = a if not a_nodes else b
        return CheckVerdict("DF", [a, b], "present", "rejected",
                            detail=f"unknown name {missing!r}")
    if a == b:
        return CheckVerdict("DF", [a, b], "present", "confirmed",
                            evidence=[graph.occurrences[a_nodes[0]]],
                            detail="reflexive")
    hit = graph.reach_path(a_nodes, b_nodes)
    if hit is None:
        hit = graph.reach_path(b_nodes, a_nodes)
    if hit is None:
        return CheckVerdict("DF", [a, b], "present", "rejected",
                            detail="no dependency path")
    _node, spans, _nodes = hit
    return CheckVerdict("DF", [a, b], "present", "confirmed",
                        evidence=spans or [graph.occurrences[a_nodes[0]]])


def iter_conditions(context: CodeContext):
    """All if/require/assert conditions in the context, context order."""
    for fid, fn in context.records:
        for stmt in fn.statements():
            if stmt.kind in _CONDITION_KINDS and stmt.condition is not None:
                yield fid, fn, stmt, stmt.condition


def check_value_comparison(names: list, context: CodeContext) -> CheckVerdict:
    """Confirmed iff one condition expression contains every given name."""
    for _fid, fn, _stmt, cond in iter_conditions(context):
        if all(contains_identifier(cond.raw, n) for n in names):
            return CheckVerdict("VC", list(names), "present", "confirmed",
                                evidence=[_expr_lines(fn, cond)])
    return CheckVerdict("VC", list(names), "present", "rejected",
                        detail="no condition compares " + ", ".join(names))


def _collapse(text: str) -> str:
    return re.sub(r"\s+", " ", text).strip()


def _ordered_statements(context: CodeContext):
    """Focus statements with one level of context-internal call inlining.

    Inlined callee statements inherit an order key just after their call
    site, so order checks see through local helper functions.
    """
    call_index = _context_call_index(context)
    focus_id = context.focus_id
    out = []
    for stmt in context.focus.statements():
        out.append(((stmt.seq, 0, 0), stmt, focus_id))
        inline_rank = 0
        for expr in stmt.expressions():
            for call in iter_calls(expr):
                resolved = _resolve_in_context(call_index, call_name(call), len(call.args))
                if resolved is None:
                    continue
                callee_fid, callee = resolved
                if callee_fid == focus_id:
                    continue
                inline_rank += 1
                for inner in callee.statements():
                    out.append(((stmt.seq, inline_rank, inner.seq), inner, callee_fid))
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


def check_order(first: str, second: str, context: CodeContext) -> CheckVerdict:
    """Confirmed iff the first descriptor's statement executes earlier.

    Each descriptor resolves to its earliest matching statement; call
    names match statements containing a call to that name.
    """
    ordered = _ordered_statements(context)

    def resolve(descriptor: str):
        for key, stmt, fid in ordered:
            if _statement_matches(stmt, descriptor):
                return key, stmt
        return None

    first_hit = resolve(first)
    second_hit = resolve(second)
    if first_hit is None or second_hit is None:
        missing = first if first_hit is None else second
        return CheckVerdict("OC", [first, second], "before", "rejected",
                            detail=f"no statement matches {missing!r}")
    (first_key, first_stmt), (second_key, second_stmt) = first_hit, second_hit
    evidence = [first_stmt.span, second_stmt.span]
    if first_key < second_key:
        return CheckVerdict("OC", [first, second], "before", "confirmed",
                            evidence=evidence)
    return CheckVerdict("OC", [first, second], "before", "rejected",
                        evidence=evidence, detail="order is reversed")


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
                 arg_name: str | None = None) -> CheckVerdict:
    """Confirmed iff an argument of the named call is user-controlled.

    The argument is picked by index when pinned, by the recognized
    argument variable when one is named, and any argument otherwise.
    User-controlled means: data-dependent on a parameter of a reachable
    public/external function in the context, with no condition comparing
    msg.sender against a value on that dependency chain.
    """
    name = _call_descriptor_name(call)
    slots = [call]
    if arg_name is not None:
        slots.append(arg_name)
    if arg_index is not None:
        slots.append(f"arg:{arg_index}")
    sites = []
    for fid, fn in context.records:
        for stmt in fn.statements():
            for expr in stmt.expressions():
                for c in iter_calls(expr):
                    if call_name(c) == name:
                        sites.append((fid, fn, stmt, c))
    if not sites:
        return CheckVerdict("FA", slots, "user-controlled", "rejected",
                            detail=f"no call to {name!r} in context")

    entry_params = {}
    for fid, fn in context.records:
        if fn.visibility not in ("public", "external"):
            continue
        if fid not in reach.reachable:
            continue
        for _ptype, pname in fn.params:
            if pname:
                entry_params[(fid, pname)] = fn

    guards = [
        (fn, cond) for _fid, fn, _stmt, cond in iter_conditions(context)
        if "msg.sender" in cond.raw
    ]

    out_of_range = True
    for fid, fn, stmt, call_expr in sites:
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
            sources = [(fid, n) for n in used_names(arg)]
            sources = [n for n in sources if n in graph.occurrences]
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
            guarded = any(
                any(contains_identifier(cond.raw, n) for n in chain)
                for _fn, cond in guards
            )
            if guarded:
                continue
            entry_fn = entry_params[param_node]
            evidence = [(entry_fn.span[0], entry_fn.span[0])] + spans + [stmt.span]
            return CheckVerdict("FA", slots, "user-controlled", "confirmed",
                                evidence=evidence,
                                detail=f"arg {idx} depends on parameter "
                                       f"{param_node[1]!r} of {param_node[0]}")
    if out_of_range and arg_index is not None:
        return CheckVerdict("FA", slots, "user-controlled", "rejected",
                            detail=f"argument index {arg_index} out of range")
    return CheckVerdict("FA", slots, "user-controlled", "rejected",
                        detail="no user-controlled argument")


# ----------------------------------------------------------------------
# directive evaluation


def _occurrence_evidence(context: CodeContext, names: list) -> list:
    spans = []
    for name in names:
        found = None
        for _fid, fn in context.records:
            for stmt in fn.statements():
                if stmt.kind in _CONTAINER_KINDS:
                    continue
                if contains_identifier(stmt.raw, name):
                    found = stmt.span
                    break
            if found:
                break
        spans.append(found or (context.focus.span[0], context.focus.span[1]))
    return spans


def confirm_candidate(finding: Finding, rule: VulnRule, context: CodeContext,
                      reach: ReachabilitySet) -> Finding:
    """Run the rule's checks in order; all must meet their expectation.

    The recorded verdicts are directive-level: ``confirmed`` means the
    directive supports the vulnerability (for an ``absent`` expectation
    that is the rejection of the underlying presence check).
    """
    graph = build_def_use(context)
    names = {slot: info["name"] for slot, info in finding.recognized.items()}
    verdicts = []
    all_met = True
    for directive in rule.checks:
        bound = [names[slot] for slot in directive.between]
        if directive.kind == "DF":
            raw = check_dataflow(bound[0], bound[1], graph)
        elif directive.kind == "VC":
            raw = check_value_comparison(bound, context)
        elif directive.kind == "OC":
            first, second = bound
            if directive.expectation == "after":
                first, second = second, first
            raw = check_order(first, second, context)
        elif directive.kind == "FA":
            arg_name = bound[1] if len(bound) > 1 else None
            raw = check_fn_arg(bound[0], context, graph, reach, directive.arg, arg_name)
        else:
            raise ValueError(f"unknown check kind {directive.kind!r}")

        if directive.expectation == "absent":
            met = raw.result == "rejected"
            evidence = _occurrence_evidence(context, bound) if met else raw.evidence
            detail = raw.detail if not met else "required absence holds"
        else:
            met = raw.result == "confirmed"
            evidence = raw.evidence
            detail = raw.detail
        verdicts.append(CheckVerdict(
            kind=directive.kind,
            slots=list(directive.between),
            expectation=directive.expectation,
            result="confirmed" if met else "rejected",
            evidence=evidence,
            detail=detail,
        ))
        all_met = all_met and met

    finding.check_verdicts = verdicts
    finding.verdict = "confirmed" if all_met else "rejected"
    return finding
