"""Project call graph, attacker reachability, and LLM context assembly."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import ContextOverflow
from .frontend import FunctionRecord, call_name, iter_calls

DEFAULT_ACL_MODIFIERS = frozenset({"onlyOwner", "onlyAdmin", "onlyGovernance", "onlyRole"})


def build_function_ids(functions: list) -> dict:
    """Stable, human-readable ids: Contract.name, disambiguated as needed."""
    ids: dict[int, str] = {}
    base_of = {}
    for fn in functions:
        contract = fn.contract or (fn.file.path if fn.file else "<file>")
        base_of[id(fn)] = f"{contract}.{fn.display_name}"

    def group(keyfn):
        groups: dict[str, list] = {}
        for fn in functions:
            groups.setdefault(keyfn(fn), []).append(fn)
        return groups

    current = dict(base_of)
    for keyed in (
        lambda fn: f"{current[id(fn)]}#{fn.arity}",
        lambda fn: f"{fn.file.path if fn.file else '?'}:{current[id(fn)]}",
    ):
        groups = group(lambda fn: current[id(fn)])
        done = True
        for name, members in groups.items():
            if len(members) > 1:
                done = False
                for fn in members:
                    current[id(fn)] = keyed(fn)
        if done:
            break
    # last resort: positional suffix
    groups = group(lambda fn: current[id(fn)])
    for name, members in groups.items():
        if len(members) > 1:
            for i, fn in enumerate(members):
                current[id(fn)] = f"{name}~{i}"
    for fn in functions:
        ids[id(fn)] = current[id(fn)]
    return ids


@dataclass
class CallGraph:
    """Resolved calls between project functions.

    Edges are added through ``add_edge`` only, which also keeps the
    callee and caller indexes: each neighbour listed once, in the order
    of its first edge. ``sites`` keeps every named call of each walked
    body, in body order, with the function it resolved to: the one
    resolution that the edges and static confirmation both read.
    """

    nodes: list = field(default_factory=list)  # function ids
    edges: list = field(default_factory=list)  # (caller id, callee id, seq)
    unresolved: list = field(default_factory=list)  # (caller id, name, arity)
    sites: dict = field(default_factory=dict)  # id -> [(stmt, call, FunctionRecord or None)]
    functions: dict = field(default_factory=dict)  # id -> FunctionRecord
    _ids: dict = field(default_factory=dict)  # id(record) -> id
    _callees: dict = field(default_factory=dict)  # id -> {callee id: None}
    _callers: dict = field(default_factory=dict)  # id -> {caller id: None}

    def id_of(self, fn: FunctionRecord) -> str:
        return self._ids[id(fn)]

    def add_edge(self, caller: str, callee: str, seq: int) -> None:
        self.edges.append((caller, callee, seq))
        self._callees.setdefault(caller, {})[callee] = None
        self._callers.setdefault(callee, {})[caller] = None

    def callees_of(self, fid: str) -> list:
        return list(self._callees.get(fid, ()))

    def callers_of(self, fid: str) -> list:
        return list(self._callers.get(fid, ()))

    def to_dot(self) -> str:
        lines = ["digraph callgraph {"]
        for node in self.nodes:
            lines.append(f'  "{node}";')
        for caller, callee in sorted({(c, e) for c, e, _ in self.edges}):
            lines.append(f'  "{caller}" -> "{callee}";')
        lines.append("}")
        return "\n".join(lines)


def _linearized_contracts(fn: FunctionRecord, contracts_by_name: dict) -> list:
    """Own contract, then bases depth-first in reversed declaration order."""
    order = []
    seen = set()
    stack = [fn.contract]
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        defs = contracts_by_name.get(name)
        if defs is None or len(defs) > 1:
            continue  # unknown, or ambiguous: do not resolve through it
        order.append(defs[0])
        stack.extend(defs[0].bases)  # popped last-declared first
    return order


def build_call_graph(functions: list, contracts_by_name: dict,
                     every_body: bool = True) -> CallGraph:
    """Resolve calls by (name, arity): own contract, bases, then global unique.

    A ``super.f(...)`` call resolves through the bases only: never to the
    caller's own contract, nor to a function found only globally.

    ``contracts_by_name`` is ``frontend.index_contracts``'s index of every
    parsed contract, so inheritance also passes through contracts that
    declare no function.

    ``every_body`` False walks only the bodies a scan reads, so the parser
    never parses the others: the callee closure of the entry points, then
    every other body that names a function in that closure, as it may call
    it. Edges are added in function order either way, so the reachable set
    and each reachable function's callers and callees do not depend on it;
    ``unresolved`` then covers the walked bodies only.
    """
    ids = build_function_ids(functions)
    graph = CallGraph(_ids=ids)
    graph.nodes = [ids[id(fn)] for fn in functions]
    graph.functions = {ids[id(fn)]: fn for fn in functions}

    by_contract: dict[int, dict] = {}  # id(contract) -> {(name, arity): [fn]}
    global_index: dict[tuple, list] = {}
    for fn in functions:
        key = (fn.name, fn.arity)
        if fn.contract_def is not None:
            by_contract.setdefault(id(fn.contract_def), {}).setdefault(key, []).append(fn)
        global_index.setdefault(key, []).append(fn)

    def calls_of(fn: FunctionRecord) -> list:
        """(statement, call, resolved target or None) per named call, in body order."""
        chain = _linearized_contracts(fn, contracts_by_name)
        own_first = (chain, global_index)
        bases_only = ([c for c in chain if c is not fn.contract_def], {})
        return [
            (stmt, call,
             _resolve(name, len(call.args), by_contract,
                      *(bases_only if _calls_super(call) else own_first)))
            for stmt in fn.statements()
            for expr in stmt.expressions()
            for call in iter_calls(expr)
            if (name := call_name(call))
        ]

    sites = graph.sites
    if every_body:
        for fn in functions:
            sites[ids[id(fn)]] = calls_of(fn)
    else:
        reached = [fn for fn in functions if fn.is_entry_point]
        seen = {id(fn) for fn in reached}
        for fn in reached:  # grows while it is walked
            sites[ids[id(fn)]] = found = calls_of(fn)
            for _stmt, _call, target in found:
                if target is not None and id(target) not in seen:
                    seen.add(id(target))
                    reached.append(target)
        names = {fn.name for fn in reached}
        for fn in functions:
            if ids[id(fn)] not in sites and fn.has_body and (
                    fn.body_names is None or not names.isdisjoint(fn.body_names)):
                sites[ids[id(fn)]] = calls_of(fn)

    seen_edges = set()
    for caller_id in graph.nodes:  # function order
        for stmt, call, target in sites.get(caller_id, ()):
            if target is None:
                graph.unresolved.append((caller_id, call_name(call), len(call.args)))
                continue
            edge = (caller_id, ids[id(target)], stmt.seq)
            if edge not in seen_edges:
                seen_edges.add(edge)
                graph.add_edge(*edge)
    return graph


def _calls_super(call) -> bool:
    """Whether ``call`` is ``super.name(...)``."""
    member = call.callee
    return (member is not None and member.kind == "member-access"
            and member.callee.kind == "identifier" and member.callee.name == "super")


def _resolve(name, arity, by_contract, chain, global_index):
    key = (name, arity)
    for contract in chain:
        hits = by_contract.get(id(contract), {}).get(key, [])
        if len(hits) == 1:
            return hits[0]
        if len(hits) > 1:
            return None
    hits = global_index.get(key, [])
    if len(hits) == 1:
        return hits[0]
    return None


@dataclass
class ReachabilitySet:
    reachable: set = field(default_factory=set)
    roots: set = field(default_factory=set)
    blocked: dict = field(default_factory=dict)  # id -> blocking modifier


def compute_reachability(graph: CallGraph, functions: list,
                         acl_modifiers=DEFAULT_ACL_MODIFIERS) -> ReachabilitySet:
    """Entry points are public/external functions without an ACL modifier.

    Blocked functions neither join the reachable set nor forward
    reachability to their callees; constructors are never entry points.
    """
    acl = set(acl_modifiers)
    result = ReachabilitySet()
    for fn in functions:
        fid = graph.id_of(fn)
        hit = next((m for m in fn.modifiers if m in acl), None)
        if hit is not None:
            result.blocked[fid] = hit
            continue
        if fn.is_entry_point:
            result.roots.add(fid)

    queue = deque(sorted(result.roots))
    result.reachable = set(result.roots)
    while queue:
        fid = queue.popleft()
        for nxt in graph.callees_of(fid):
            if nxt in result.reachable or nxt in result.blocked:
                continue
            result.reachable.add(nxt)
            queue.append(nxt)
    return result


@dataclass
class CodeContext:
    focus: FunctionRecord
    focus_id: str
    callers: list = field(default_factory=list)  # included caller ids
    callees: list = field(default_factory=list)  # included callee ids
    records: list = field(default_factory=list)  # (fid, FunctionRecord), focus first
    sites: dict = field(default_factory=dict)  # fid -> the graph's call sites of that record
    text: str = ""
    token_estimate: int = 0


def assemble_context(focus: FunctionRecord, graph: CallGraph, policy,
                     token_budget: int, estimator) -> CodeContext:
    """Focus + direct callees + direct callers, as the ``ContextPolicy`` permits.

    Neighbors are appended greedily until the budget would be exceeded;
    the focus function itself is never truncated. Each record brings its
    call sites from the graph: the focus is reachable, so its body and
    its callees' were walked, and a caller was walked to find its edge.
    """
    fid = graph.id_of(focus)
    focus_text = focus.source()
    total = estimator(focus_text)
    if total > token_budget:
        raise ContextOverflow(fid, total, token_budget)

    ctx = CodeContext(focus=focus, focus_id=fid)
    ctx.records.append((fid, focus))
    ctx.sites[fid] = graph.sites[fid]
    parts = [focus_text]

    neighbor_ids = []
    if policy.include_callees:
        neighbor_ids += [("callee", nid) for nid in graph.callees_of(fid)]
    if policy.include_callers:
        neighbor_ids += [("caller", nid) for nid in graph.callers_of(fid)]

    included = {fid}
    for role, nid in neighbor_ids:
        if nid in included:
            continue
        record = graph.functions.get(nid)
        if record is None:
            continue
        text = record.source()
        add = estimator("\n\n" + text)
        if total + add > token_budget:
            break
        total += add
        included.add(nid)
        parts.append(text)
        ctx.records.append((nid, record))
        ctx.sites[nid] = graph.sites[nid]
        (ctx.callees if role == "callee" else ctx.callers).append(nid)

    ctx.text = "\n\n".join(parts)
    ctx.token_estimate = total
    return ctx
