import itertools

import pytest

from solscout.callgraph import (
    assemble_context,
    build_call_graph,
    compute_reachability,
)
from solscout.errors import ContextOverflow
from solscout.frontend import enumerate_functions, index_contracts, parse_text
from solscout.gateway import estimate_tokens
from solscout.pipeline import prepare_scan
from solscout.rules import ContextPolicy

from conftest import fixture_path
from corpus import build_corpus, write_corpus
from helpers import replay_config


def graph_from(src):
    unit = parse_text(src)
    fns = enumerate_functions(unit)
    return build_call_graph(fns, index_contracts([unit])), fns


def test_same_contract_resolution():
    graph, _ = graph_from("""
        contract A {
            function f() public { g(); }
            function g() internal {}
        }
    """)
    assert ("A.f", "A.g") in {(c, e) for c, e, _ in graph.edges}


def test_external_call_unresolved():
    graph, _ = graph_from("""
        contract A {
            function f() public { token.transfer(x, y); }
        }
    """)
    assert ("A.f", "transfer", 2) in graph.unresolved
    assert not graph.edges


def test_global_unique_resolution_across_contracts():
    graph, _ = graph_from("""
        contract A { function f() public { helper(1); } }
        contract B { function helper(uint256 x) public {} }
    """)
    assert ("A.f", "B.helper") in {(c, e) for c, e, _ in graph.edges}


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
        fns = [fn for unit in units for fn in enumerate_functions(unit)]
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
    assert ctx.callees == ["Base.helper"]


def test_edges_deduplicated_per_call_site():
    graph, _ = graph_from("""
        contract A {
            function f() public { g(); g(); }
            function g() internal {}
        }
    """)
    # two distinct call sites = same statement? no: two statements, two seqs
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
    assert ctx.callees == ["A.helper"]
    assert set(ctx.callers) == {"A.caller1", "A.caller2"}
    assert [fid for fid, _ in ctx.records][:2] == ["A.focus", "A.helper"]  # callees first
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
        assert ctx.callers == callers
        assert ctx.callees == callees
        assert [fid for fid, _ in ctx.records] == [ctx.focus_id] + callees + callers


def test_context_isolated_function():
    graph, fns = graph_from("contract A { function f() public { x = 1; } }")
    focus = fns[0]
    ctx = assemble_context(focus, graph, ContextPolicy(), 10_000, estimate_tokens)
    assert ctx.callers == [] and ctx.callees == []
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
    assert ctx.callees == ["A.c1"]
    assert ctx.token_estimate <= budget
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


def test_unresolved_call_in_a_require_is_recorded_once():
    graph, _ = graph_from("contract C { function f(uint x) public { require(ext(x) > 0); } }")
    assert graph.unresolved == [("C.f", "ext", 1)]
