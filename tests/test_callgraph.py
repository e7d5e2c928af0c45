import itertools

import pytest

from solscout import callgraph
from solscout.callgraph import (
    assemble_context,
    build_call_graph,
    compute_reachability,
)
from solscout.errors import ContextOverflow
from solscout.frontend import call_name, index_contracts
from solscout.frontend.lexer import may_name
from solscout.gateway import estimate_tokens
from solscout.pipeline import prepare_scan
from solscout.rules import ContextPolicy

from conftest import fixture_path
from corpus import build_corpus, write_corpus
from helpers import parse_text, replay_config


def graph_from(src):
    unit = parse_text(src)
    fns = unit.functions
    return build_call_graph(fns, index_contracts([unit])), fns


def test_same_contract_resolution():
    graph, _ = graph_from("""
        contract A {
            function f() public { g(); }
            function g() internal {}
        }
    """)
    assert ("A.f", "A.g") in {(c, e) for c, e, _ in graph.edges}


def test_a_do_while_loop_is_a_while_statement_whose_body_calls_are_edges():
    unit = parse_text("""
        contract A {
            uint256 x;
            function f() public { do { g(); } while (x < 3); }
            function g() internal { x += 1; }
        }
    """)
    fns = unit.functions
    graph = build_call_graph(fns, index_contracts([unit]), every_body=False)
    loop = fns[0].body[0]
    assert loop.kind == "while" and loop.raw == "do { g(); } while (x < 3);"
    assert (loop.condition.kind, loop.condition.op) == ("binary", "<")
    [body] = loop.children
    assert body.kind == "block" and [stmt.raw for stmt in body.children] == ["g();"]
    assert fns[0].body == (loop, body, *body.children)
    assert ("A.f", "A.g") in {(c, e) for c, e, _ in graph.edges}
    assert graph.unresolved == []


def test_external_call_unresolved():
    graph, _ = graph_from("""
        contract A {
            function f() public { token.transfer(x, y); }
        }
    """)
    assert ("A.f", "transfer", 2) in graph.unresolved
    assert not graph.edges


def test_an_emitted_event_is_no_call_but_the_calls_in_its_arguments_are():
    graph, fns = graph_from("""
        contract A {
            event Paid(uint256 amount);
            function f() public { emit Paid(fee(1)); emit Paid(2); emit Log.Paid(y.z()); }
            function fee(uint256 x) internal returns (uint256) { return x; }
            function Paid(uint256 x) internal {}
        }
    """)
    assert [[call.raw for call, _target in calls] for calls in graph.sites["A.f"]] == [
        ["fee(1)"], [], ["y.z()"]]
    assert graph.edges == [("A.f", "A.fee", 0)]
    assert graph.unresolved == [("A.f", "z", 0)]
    assert [stmt.kind for stmt in fns[0].body] == ["emit"] * 3


def test_global_unique_resolution_across_contracts():
    graph, _ = graph_from("""
        contract A { function f() public { helper(1); } }
        contract B { function helper(uint256 x) public {} }
    """)
    assert ("A.f", "B.helper") in {(c, e) for c, e, _ in graph.edges}


def test_super_call_resolves_through_the_bases_not_to_the_caller():
    graph, _ = graph_from("""
        contract A { function f() public virtual { } }
        contract B is A { function f() public virtual override { super.f(); } }
        contract C is B { function f() public override { super.f(); this.f(); } }
        contract D { function f() public { super.f(); } }
        contract E { function g() public { } }
        contract F is E { function h() public { super.g(); super.f(); } }
        contract G { function m() public { super.k(); } }
        contract H { function k() public { } }
    """)
    assert sorted({(c, e) for c, e, _ in graph.edges}) == [
        ("B.f", "A.f"), ("C.f", "B.f"), ("C.f", "C.f"), ("F.h", "E.g")]
    # no base defines it: unresolved, even where one contract elsewhere does
    assert graph.unresolved == [("D.f", "f", 0), ("F.h", "f", 0), ("G.m", "k", 0)]


def test_diamond_resolution_prefers_reversed_base_order():
    """Oracle: brute-force candidate enumeration on the 4-contract fixture."""
    src = """
        contract Base { }
        contract B is Base { function h() public { } }
        contract C is Base { function h() public { } }
        contract D is B, C { function f() public { h(); } }
    """
    graph, fns = graph_from(src)
    by_contract = {}
    for fn in fns:
        by_contract.setdefault(fn.contract, []).append(fn)
    # brute force: candidates for h/0 visible from D
    candidates = [
        fn for fn in fns if fn.name == "h" and fn.arity == 0
        and fn.contract in ("D", "B", "C")
    ]
    assert len(candidates) == 2
    # Solidity C3 reversal: the base listed last (C) shadows earlier ones
    edges = {(c, e) for c, e, _ in graph.edges}
    assert ("D.f", "C.h") in edges
    assert ("D.f", "B.h") not in edges


def test_duplicate_contract_names_across_files_do_not_resolve():
    # same contract name in two files: inheritance through it is ambiguous,
    # also when one of the two declares no function
    for sources in (
        ["contract A { function f() public { } }",
         "contract A { function f() public { } }"],
        ["contract A { uint256 x; }",
         "contract A { function f() public { } }",
         "contract Other { function f() public { } }"],
    ):
        sources = sources + ["contract B is A { function g() public { f(); } }"]
        units = [parse_text(text, f"f{i}.sol") for i, text in enumerate(sources)]
        fns = [fn for unit in units for fn in unit.functions]
        graph = build_call_graph(fns, index_contracts(units))
        assert ("B.g", "f", 0) in graph.unresolved, sources
        assert not graph.edges, sources


FUNCTIONLESS_BASE = {
    "Base.sol": "contract Base { function helper(uint256 x) internal { } }",
    "Mid.sol": "contract Mid is Base { uint256 x; }",
    "Top.sol": "contract Top is Mid { function f() public { helper(1); } }",
    "Other.sol": "contract Other { function helper(uint256 y) public { } }",
}


def test_call_resolves_through_a_base_without_functions(tmp_path):
    # Mid declares no function; Other.helper rules out a project-unique match
    for name, text in FUNCTIONLESS_BASE.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    prepared = prepare_scan(replay_config(str(tmp_path), str(tmp_path / "t.jsonl")))
    graph = prepared.graph
    assert ("Top.f", "Base.helper") in {(c, e) for c, e, _ in graph.edges}
    assert not graph.unresolved
    top_f = graph.functions["Top.f"]
    ctx = assemble_context(top_f, graph, ContextPolicy(), 10_000, estimate_tokens)
    assert [fid for fid, _ in ctx.records] == ["Top.f", "Base.helper"]


def test_edges_deduplicated_per_call_site():
    graph, _ = graph_from("""
        contract A {
            function f() public { g(); g(); }
            function g() internal {}
        }
    """)
    # two statements, so two statement indexes
    assert len(graph.edges) == 2
    assert len({(c, e, s) for c, e, s in graph.edges}) == 2


def test_reachability_acl_blocked():
    src = """
        contract A {
            function f() public onlyOwner { g(); }
            function g() internal {}
        }
    """
    graph, fns = graph_from(src)
    reach = compute_reachability(graph, fns)
    assert "A.f" in reach.blocked
    assert reach.blocked["A.f"] == "onlyOwner"
    assert "A.f" not in reach.reachable
    assert "A.g" not in reach.reachable


def test_reachability_chain_from_root():
    src = """
        contract A {
            function f() external { g(); }
            function g() internal { h(); }
            function h() private {}
        }
    """
    graph, fns = graph_from(src)
    reach = compute_reachability(graph, fns)
    assert reach.reachable == {"A.f", "A.g", "A.h"}
    assert reach.roots == {"A.f"}


def test_uncalled_internal_unreachable_vs_bruteforce():
    """Oracle: exhaustive path enumeration from every root."""
    src = """
        contract A {
            function f() external { g(); }
            function g() internal {}
            function lonely() internal {}
            function admin() public onlyOwner { lonely(); }
        }
    """
    graph, fns = graph_from(src)
    reach = compute_reachability(graph, fns)

    edges = {(c, e) for c, e, _ in graph.edges}
    nodes = list(graph.nodes)
    blocked = set(reach.blocked)
    expected = set(reach.roots)
    # brute force: try all node sequences as candidate paths from roots
    for length in range(1, len(nodes) + 1):
        for path in itertools.permutations(nodes, length):
            if path[0] not in reach.roots:
                continue
            if any(n in blocked for n in path):
                continue
            if all((path[i], path[i + 1]) in edges for i in range(len(path) - 1)):
                expected.update(path)
    assert reach.reachable == expected
    assert "A.lonely" not in reach.reachable


def test_constructors_are_never_roots():
    src = "contract A { constructor() public { } function f() public {} }"
    graph, fns = graph_from(src)
    reach = compute_reachability(graph, fns)
    assert reach.roots == {"A.f"}


def test_reachability_monotone_under_added_edge():
    src = """
        contract A {
            function f() external { }
            function g() internal { }
        }
    """
    graph, fns = graph_from(src)
    before = compute_reachability(graph, fns).reachable
    graph.add_edge("A.f", "A.g", 0)
    after = compute_reachability(graph, fns).reachable
    assert "A.g" not in before
    assert "A.g" in after
    assert before <= after


def _scan_callees(graph, fid):
    """Reference: one pass over every edge, first occurrence wins."""
    out = []
    for caller, callee, _seq in graph.edges:
        if caller == fid and callee not in out:
            out.append(callee)
    return out


def _scan_callers(graph, fid):
    out = []
    for caller, callee, _seq in graph.edges:
        if callee == fid and caller not in out:
            out.append(caller)
    return out


def _indexed_graphs(tmp_path):
    corpus_root = str(tmp_path / "corpus")
    write_corpus(corpus_root, build_corpus(variants=3), filler_files=2)
    roots = [corpus_root] + [fixture_path(name) for name in (
        "first_deposit", "first_deposit_patched", "checkpoint_order", "checkpoint_order_patched",
    )]
    for root in roots:
        yield root, prepare_scan(replay_config(root, str(tmp_path / "t.jsonl"))).graph
    # repeated and out-of-order calls, so first-occurrence order is visible
    yield "inline", graph_from("""
        contract A {
            function f() public { c(); b(); c(); a(); b(); }
            function g() public { a(); f(); a(); }
            function a() internal { c(); }
            function b() internal { a(); }
            function c() internal {}
        }
    """)[0]


def test_neighbour_index_matches_edge_scan(tmp_path):
    for root, graph in _indexed_graphs(tmp_path):
        assert graph.edges, root
        for fid in graph.nodes:
            assert graph.callees_of(fid) == _scan_callees(graph, fid), (root, fid)
            assert graph.callers_of(fid) == _scan_callers(graph, fid), (root, fid)


CTX_SRC = """
contract A {
    function focus() public { helper(); }
    function helper() internal {}
    function caller1() public { focus(); }
    function caller2() public { focus(); }
}
"""


def test_context_includes_callees_and_callers():
    graph, fns = graph_from(CTX_SRC)
    focus = next(f for f in fns if f.name == "focus")
    ctx = assemble_context(focus, graph, ContextPolicy(), 10_000, estimate_tokens)
    ids = [fid for fid, _ in ctx.records]
    assert ids[:2] == ["A.focus", "A.helper"]  # callees first
    assert set(ids[2:]) == {"A.caller1", "A.caller2"}
    assert graph.callees_of("A.focus") == ["A.helper"]
    assert set(graph.callers_of("A.focus")) == {"A.caller1", "A.caller2"}
    assert focus.source() in ctx.text


def test_context_policy_suppresses_callers():
    """Each flag drops its own neighbours and keeps the other's."""
    graph, fns = graph_from(CTX_SRC)
    focus = next(f for f in fns if f.name == "focus")
    for policy, callers, callees in (
        (ContextPolicy(include_callers=False), [], ["A.helper"]),
        (ContextPolicy(include_callees=False), ["A.caller1", "A.caller2"], []),
    ):
        ctx = assemble_context(focus, graph, policy, 10_000, estimate_tokens)
        assert [fid for fid, _ in ctx.records] == [ctx.focus_id] + callees + callers


def test_context_isolated_function():
    graph, fns = graph_from("contract A { function f() public { x = 1; } }")
    focus = fns[0]
    ctx = assemble_context(focus, graph, ContextPolicy(), 10_000, estimate_tokens)
    assert [fid for fid, _ in ctx.records] == [ctx.focus_id]
    assert ctx.text == focus.source()


def test_context_budget_greedy_truncation():
    """Oracle: compute each part's estimate with the gateway estimator."""
    big_body = "x = 1;\n        " * 400  # ~2k tokens per callee
    src = f"""
contract A {{
    function focus() public {{ c1(); c2(); c3(); }}
    function c1() internal {{ {big_body} }}
    function c2() internal {{ {big_body} }}
    function c3() internal {{ {big_body} }}
}}
"""
    graph, fns = graph_from(src)
    focus = next(f for f in fns if f.name == "focus")
    parts = {f.name: estimate_tokens("\n\n" + f.source()) for f in fns}
    budget = estimate_tokens(focus.source()) + parts["c1"] + 10  # room for exactly one
    ctx = assemble_context(focus, graph, ContextPolicy(), budget, estimate_tokens)
    assert [fid for fid, _ in ctx.records] == ["A.focus", "A.c1"]
    assert estimate_tokens(ctx.text) <= budget


def test_context_overflow_when_focus_too_large():
    graph, fns = graph_from("contract A { function f() public { xxxxx = 1; } }")
    with pytest.raises(ContextOverflow):
        assemble_context(fns[0], graph, ContextPolicy(), 2, estimate_tokens)


def test_dot_dump_contains_nodes_and_edges():
    graph, _ = graph_from("contract A { function f() public { g(); } function g() internal {} }")
    dot = graph.to_dot()
    assert '"A.f" -> "A.g";' in dot
    assert dot.startswith("digraph")


def test_hex_and_unicode_literals_are_one_argument():
    graph, _ = graph_from("""
        contract C {
            function f() public { g(hex"00ff"); g(unicode'hi'); }
            function g(bytes memory b) internal {}
        }
    """)
    assert [(c, e) for c, e, _ in graph.edges] == [("C.f", "C.g"), ("C.f", "C.g")]
    assert graph.unresolved == []


def test_free_functions_are_internal_not_roots():
    free = """
        function f() { h(); }
        contract C { function h() internal {} }
    """
    graph, fns = graph_from(free)
    f = next(fn for fn in fns if fn.name == "f")
    reach = compute_reachability(graph, fns)
    assert f.visibility == "internal"
    assert reach.roots == set()
    assert "C.h" not in reach.reachable

    graph, fns = graph_from(free + "contract D { function r() public { f(); } }")
    reach = compute_reachability(graph, fns)
    assert reach.roots == {"D.r"}
    assert {graph.id_of(next(fn for fn in fns if fn.name == "f")), "C.h"} <= reach.reachable


def test_call_with_an_escaped_newline_in_a_string_argument_resolves():
    graph, _ = graph_from('contract C { function f() public { g("a\\\nb"); } '
                          'function g(string memory s) internal {} }')
    assert ("C.f", "C.g") in {(c, e) for c, e, _ in graph.edges}


def test_stray_bracket_in_a_parameter_list_costs_only_that_parameter():
    graph, fns = graph_from("contract C { function f(uint]256 a) public { g(); } "
                            "function g() internal {} }")
    assert [fn.name for fn in fns] == ["f", "g"]
    assert ("C.f", "C.g") in {(c, e) for c, e, _ in graph.edges}


def test_unresolved_call_in_a_require_is_recorded_once():
    graph, _ = graph_from("contract C { function f(uint x) public { require(ext(x) > 0); } }")
    assert graph.unresolved == [("C.f", "ext", 1)]


WALKED = """
    contract A {
        function pub() public { helper(); }
        function admin() public onlyOwner { secret(); helper(); }
        function helper() internal { leaf(); }
        function leaf() private {}
        function secret() internal { leaf(); }
        function dead() internal { helper(); missing(); }
        function orphan() internal { other(); }
        function other() internal {}
    }
"""


def test_a_scans_graph_walks_the_entry_points_closure_and_bodies_naming_it():
    unit = parse_text(WALKED)
    fns = unit.functions
    graph = build_call_graph(fns, index_contracts([unit]), every_body=False)
    parsed = [fn.name for fn in fns if fn.parsed_body is not None]
    assert parsed == ["pub", "admin", "helper", "leaf", "secret", "dead"]
    assert graph.callers_of("A.helper") == ["A.pub", "A.admin", "A.dead"]
    assert graph.callers_of("A.leaf") == ["A.helper", "A.secret"]
    assert graph.unresolved == [("A.dead", "missing", 0)]
    assert "A.other" not in {callee for _caller, callee, _seq in graph.edges}
    full_unit = parse_text(WALKED)
    full = build_call_graph(full_unit.functions, index_contracts([full_unit]))
    assert ("A.orphan", "A.other", 0) in full.edges
    assert [e for e in full.edges if e[0] != "A.orphan"] == graph.edges


def test_the_scans_graph_matches_the_full_graph_on_what_it_reaches(sample_projects):
    unparsed = 0
    for root in sample_projects:
        config = replay_config(root, "")
        full, scan_side = prepare_scan(config, every_body=True), prepare_scan(config)
        reachable = full.reach.reachable
        assert scan_side.reach.reachable == reachable, root
        for fid in reachable:
            assert scan_side.graph.callees_of(fid) == full.graph.callees_of(fid), fid
            assert scan_side.graph.callers_of(fid) == full.graph.callers_of(fid), fid
        assert ([scan_side.graph.id_of(fn) for fn in scan_side.scannable]
                == [full.graph.id_of(fn) for fn in full.scannable])
        unparsed += sum(fn.has_body and fn.parsed_body is None for fn in scan_side.functions)
    assert unparsed >= 80  # the four filler files


def test_call_sites_are_the_edges_and_unresolved_calls_of_each_walked_body(sample_projects):
    """Each site's target is an edge, or the call is unresolved; nothing else is."""
    for root in sample_projects:
        config = replay_config(root, "")
        for prepared in (prepare_scan(config, every_body=True), prepare_scan(config)):
            graph = prepared.graph
            edges, unresolved = set(), []
            for fid in graph.nodes:
                if fid not in graph.sites:
                    continue
                body = graph.functions[fid].body or ()
                assert len(graph.sites[fid]) == len(body), fid
                for index, (stmt, calls) in enumerate(zip(body, graph.sites[fid])):
                    for call, target in calls:
                        assert stmt.start <= call.start < call.end <= stmt.end
                        if target is None:
                            unresolved.append((fid, call_name(call), len(call.args)))
                        else:
                            edges.add((fid, graph.id_of(target), index))
            assert sorted(edges) == sorted(graph.edges), root
            assert unresolved == graph.unresolved, root


def _preorder(stmts):
    for stmt in stmts:
        yield stmt
        yield from _preorder(stmt.children)


def test_each_body_is_the_walk_of_its_top_level_statements_with_one_site_entry_each(tmp_path):
    """The statement table is the pre-order walk of the statements that are
    no statement's child, and the graph keeps one site entry per statement."""
    corpus = str(tmp_path / "corpus")
    write_corpus(corpus, build_corpus(variants=3))
    fixtures = ("first_deposit", "first_deposit_patched", "checkpoint_order",
                "checkpoint_order_patched", "real_shapes")
    statements = 0
    for root in [*map(fixture_path, fixtures), corpus]:
        for every_body in (True, False):
            graph = prepare_scan(replay_config(root, ""), every_body).graph
            for fid, sites in graph.sites.items():
                body = graph.functions[fid].body or ()
                nested = {id(child) for stmt in body for child in stmt.children}
                tops = [stmt for stmt in body if id(stmt) not in nested]
                assert body == tuple(_preorder(tops)), fid
                assert len(sites) == len(body), fid
                statements += len(body)
    assert statements > 500


# Files whose names may fool a test of a file's runs: the entry point
# ``run`` reaches ``deposit`` and ``posit``; nothing else is reachable.
GATE_HAZARDS = {
    "Main.sol": """contract Main {
    function run(uint a) public returns (uint) { return deposit(a) + posit(a); }
    function deposit(uint a) internal returns (uint) { return a; }
    function posit(uint a) internal returns (uint) { return a + 1; }
}
""",
    # a reached name only in a string literal or a comment
    "Quoted.sol": """contract Quoted {
    // deposit(1)
    function say() internal returns (string memory) { return "deposit(1)"; }
    function quiet() internal { /* posit(2) */ }
}
""",
    # a reached name glued to a number: 0xdeposit lexes as 0xde then posit
    "Glued.sol": """contract Glued {
    function hexGlued() internal returns (uint) { return 0xdeposit; }
    function decimalGlued() internal returns (uint) { return 1deposit; }
    function exponentGlued() internal returns (uint) { return 1e18deposit + 1e-5posit; }
    function inside() internal returns (uint) { return x1deposit + 0xdead + 1_000; }
}
""",
    "Numbers.sol": """contract Numbers {
    uint constant WAD = 1e18;
    address constant OWNER = 0x00000000219ab540356cBB839Cbe05303d7705Fa;
    function scale(uint a) internal pure returns (uint) {
        return a * 1e18 / 1_000 + 0xff + 2**255 + 1.5e3 + 0x1f_ff;
    }
    function pay(uint a) internal returns (uint) { return deposit(a * 1e18 / 1_000); }
}
""",
    # a non-ASCII letter next to a reached name, in code and in a string
    "Accents.sol": """contract Accents {
    function before(uint a) internal returns (uint) { return \u00e9deposit(a); }
    function after() internal returns (string memory) { return "posit\u00e9"; }
    function plain(uint a) internal returns (uint) { return a; }
}
""",
    "CrLf.sol": "contract CrLf {\r\n    function pay(uint a) internal returns (uint) {\r\n"
                "        return posit(a);\r\n    }\r\n"
                "    function keep(uint a) internal returns (uint) {\r\n        return a;\r\n    }\r\n}\r\n",
    # free functions whose header holds a brace
    "Free.sol": """struct S { uint a; }
function freeCall(uint a) m(S({a: 1})) returns (uint) { return deposit(a); }
function freeQuiet(uint a) m(S({a: 1})) returns (uint) { if (a > 0) { return a; } return 0; }
""",
    # a file whose runs name nothing reached
    "Unrelated.sol": """contract Unrelated {
    function shuffle(uint a) internal returns (uint) { return a * 31; }
}
""",
}


def _write_gate_hazards(root) -> str:
    contracts = root / "contracts"
    contracts.mkdir(parents=True)
    for name, text in GATE_HAZARDS.items():
        (contracts / name).write_bytes(text.encode())
    return str(root)


def _scan_side_graph(root: str) -> tuple:
    """The scan-side graph of ``root``: its call sites, edges and unresolved calls, as values."""
    graph = prepare_scan(replay_config(root, "")).graph
    sites = [(fid, [(index, call.start, call.end, target and graph.id_of(target))
                    for index, calls in enumerate(found) for call, target in calls])
             for fid, found in graph.sites.items()]
    return sites, graph.edges, graph.unresolved


def _callee_closure(root: str) -> set:
    """The entry points of ``root`` and every function they call, directly or not."""
    graph = prepare_scan(replay_config(root, "")).graph
    closure = [fid for fid, fn in graph.functions.items() if fn.is_entry_point]
    seen = set(closure)
    for fid in closure:  # grows while it is walked
        for callee in graph.callees_of(fid):
            if callee not in seen:
                seen.add(callee)
                closure.append(callee)
    return seen


def test_the_runs_gate_loses_no_edge_into_the_closure(sample_projects, tmp_path, monkeypatch):
    """The oracle walks every body outside the callee closure, with no gate.

    The gated graph walks a subset of those bodies, with the same sites,
    and finds every edge the oracle finds into the closure: a body it
    skips may call only functions outside it.
    """
    corpus = str(tmp_path / "corpus")
    write_corpus(corpus, build_corpus(variants=3), filler_files=60)
    hazards = _write_gate_hazards(tmp_path / "hazards")
    for root in [*sample_projects, corpus, hazards]:
        gated_sites, gated_edges, _ = _scan_side_graph(root)
        with monkeypatch.context() as patch:
            patch.setattr(callgraph, "may_name", lambda stripped, names: True)
            all_sites, all_edges, _ = _scan_side_graph(root)
        assert gated_sites == [site for site in all_sites if site in gated_sites], root
        closure = _callee_closure(root)
        assert ([edge for edge in all_edges if edge[1] in closure]
                == [edge for edge in gated_edges if edge[1] in closure]), root
    walked = [fid for fid, _sites in _scan_side_graph(hazards)[0]]
    assert walked == ["Main.run", "Main.deposit", "Main.posit",  # the closure, then file order
                      "Accents.before", "Accents.after", "CrLf.pay",
                      "contracts/Free.sol.freeCall", "Glued.hexGlued", "Glued.decimalGlued",
                      "Glued.exponentGlued", "Numbers.pay", "Quoted.say"]


def test_a_scan_tests_no_body_in_files_that_name_nothing_reached(tmp_path, monkeypatch):
    """The acceptance corpus with 60 fillers: 1,200 skipped bodies, none tested alone."""
    root = str(tmp_path / "corpus")
    write_corpus(root, build_corpus(variants=3), filler_files=60)
    gated = _scan_side_graph(root)
    bodies = []

    def body_test(whole_files: bool):
        def test(stripped, names):
            if stripped.startswith("{"):  # a body's range, not a file
                bodies.append(stripped)
                return may_name(stripped, names)
            return whole_files or may_name(stripped, names)
        return test

    monkeypatch.setattr(callgraph, "may_name", body_test(False))
    assert _scan_side_graph(root) == gated
    assert bodies == []
    monkeypatch.setattr(callgraph, "may_name", body_test(True))
    assert _scan_side_graph(root) == gated
    assert len(bodies) == 1200
