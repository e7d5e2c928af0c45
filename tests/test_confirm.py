import itertools
import random

import pytest

from solscout.callgraph import assemble_context, build_call_graph, compute_reachability
from solscout.confirm import (
    DefUseGraph,
    build_def_use,
    check_dataflow,
    check_fn_arg,
    check_order,
    check_value_comparison,
    confirm_candidate,
)
from solscout.frontend import enumerate_functions, index_contracts, parse_text
from solscout.gateway import estimate_tokens
from solscout.report import Finding
from solscout.rules import ContextPolicy, load_rules, rule_for_id, shipped_rules_dir

from conftest import fixture_path


def make_context(src, focus_name, include_callers=True, path="mem.sol"):
    unit = parse_text(src, path)
    fns = enumerate_functions(unit)
    graph = build_call_graph(fns, index_contracts([unit]))
    reach = compute_reachability(graph, fns)
    focus = next(f for f in fns if f.name == focus_name)
    policy = ContextPolicy(include_callers=include_callers, include_callees=True)
    ctx = assemble_context(focus, graph, policy, 1_000_000, estimate_tokens)
    return ctx, graph, reach


def fixture_context(*parts, focus="deposit", include_callers=True):
    with open(fixture_path(*parts), encoding="utf-8") as fh:
        return make_context(fh.read(), focus, include_callers, path=parts[-1])


def finding_for(ctx, rule_id, recognized):
    return Finding(
        rule_id=rule_id,
        project="p",
        file="mem.sol",
        function_id=ctx.focus_id,
        contract=ctx.focus.contract,
        function=ctx.focus.display_name,
        span=ctx.focus.span,
        verdict="rejected",
        recognized={k: {"name": n, "description": d} for k, (n, d) in recognized.items()},
    )


# ----------------------------------------------------------------------
# def-use construction


def test_def_use_two_step_chain():
    ctx, _, _ = make_context(
        "contract C { function f(uint _amount) public { uint s = _amount; shares = s; } }",
        "f",
    )
    graph = build_def_use(ctx)
    fid = ctx.focus_id
    assert ((fid, "_amount"), (fid, "s")) in graph.edge_set()
    assert ((fid, "s"), (fid, "shares")) in graph.edge_set()
    verdict = check_dataflow("_amount", "shares", graph)
    assert verdict.present


def test_def_use_first_deposit_zero_supply_branch():
    ctx, _, _ = fixture_context("first_deposit", "contracts", "Vault.sol")
    graph = build_def_use(ctx)
    assert check_dataflow("_amount", "_shares", graph).present


def test_def_use_free_variables_and_edge_set_oracle():
    """Oracle: brute-force def-site enumeration over the fixture."""
    src = """contract C {
        function f(uint p) public {
            x = y;
            uint z = p + x;
            m[k] = z;
        }
    }"""
    ctx, _, _ = make_context(src, "f")
    graph = build_def_use(ctx)
    fid = ctx.focus_id
    # brute-forced expectation: assignments/declarations only
    expected = {
        ((fid, "y"), (fid, "x")),
        ((fid, "p"), (fid, "z")),
        ((fid, "x"), (fid, "z")),
        ((fid, "z"), (fid, "m")),
        ((fid, "k"), (fid, "m")),
    }
    assert graph.edge_set() == expected
    assert (fid, "y") in graph.occurrences  # free occurrence is still a node


def test_def_use_call_argument_binding():
    src = """contract C {
        function f(uint amount) public { _mint(msg.sender, amount); }
        function _mint(address account, uint value) internal { balances[account] += value; }
    }"""
    ctx, _, _ = make_context(src, "f")
    graph = build_def_use(ctx)
    fid = ctx.focus_id
    mint_fid = next(fid2 for fid2, fn in ctx.records if fn.name == "_mint")
    assert ((fid, "amount"), (mint_fid, "value")) in graph.edge_set()
    assert check_dataflow("amount", "balances", graph).present


# ----------------------------------------------------------------------
# DF


def test_df_reflexive_and_unknown():
    ctx, _, _ = make_context("contract C { function f() public { x = 1; } }", "f")
    graph = build_def_use(ctx)
    assert check_dataflow("x", "x", graph).present
    assert check_dataflow("x", "x", graph).evidence
    assert not check_dataflow("ghost", "x", graph).present


def test_df_disjoint_statements_rejected():
    ctx, _, _ = make_context(
        "contract C { function f() public { a = b; c = d; } }", "f"
    )
    graph = build_def_use(ctx)
    assert not check_dataflow("a", "c", graph).present
    assert not check_dataflow("b", "c", graph).present
    assert check_dataflow("a", "b", graph).present  # b -> a


def _closure_bruteforce(n, edges):
    reach = [[i == j for j in range(n)] for i in range(n)]
    for a, b in edges:
        reach[a][b] = True
    for k, i, j in itertools.product(range(n), repeat=3):
        if reach[i][k] and reach[k][j]:
            reach[i][j] = True
    return reach


def test_df_matches_bruteforce_closure_random_graphs():
    """check_dataflow == independent Floyd-Warshall closure, <=10 nodes."""
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randrange(2, 11)
        edges = {
            (rng.randrange(n), rng.randrange(n))
            for _ in range(rng.randrange(0, 2 * n))
        }
        edges = {(a, b) for a, b in edges if a != b}
        graph = DefUseGraph()
        for i in range(n):
            graph.add_occurrence(("f", f"v{i}"), (i + 1, i + 1))
        for a, b in sorted(edges):
            graph.add_edge(("f", f"v{a}"), ("f", f"v{b}"), (a + 1, a + 1))
        closure = _closure_bruteforce(n, edges)
        for a, b in itertools.product(range(n), repeat=2):
            expected = closure[a][b] or closure[b][a]
            got = check_dataflow(f"v{a}", f"v{b}", graph).present
            assert got == expected, (n, sorted(edges), a, b)


# ----------------------------------------------------------------------
# VC


def test_vc_first_deposit_zero_supply_condition():
    ctx, _, _ = fixture_context("first_deposit", "contracts", "Vault.sol")
    verdict = check_value_comparison(["totalSupply"], build_def_use(ctx))
    assert verdict.present
    assert verdict.evidence == [(8, 8)]  # the zero-supply branch condition


def test_vc_assignment_only_name_rejected():
    ctx, _, _ = make_context(
        "contract C { function f() public { total = 5; if (x > 0) { y = total; } } }",
        "f",
    )
    assert not check_value_comparison(["total"], build_def_use(ctx)).present


def test_vc_two_names_in_require_with_oracle():
    """Oracle: enumerate condition expressions and intersect identifiers."""
    src = """contract C {
        function f(uint a, uint b) public {
            require(a >= b, "nope");
            if (a > 0) { x = 1; }
        }
    }"""
    ctx, _, _ = make_context(src, "f")
    conditions = [
        stmt.condition.raw
        for fn in [ctx.focus]
        for stmt in fn.statements()
        if stmt.kind in ("if", "require", "assert") and stmt.condition
    ]
    oracle = [c for c in conditions if "a" in c.split() or "a" in c]
    both = [c for c in oracle if "b" in c]
    assert both == ["a >= b"]
    verdict = check_value_comparison(["a", "b"], build_def_use(ctx))
    assert verdict.present
    assert verdict.evidence == [(3, 3)]


def test_vc_while_conditions_do_not_count():
    ctx, _, _ = make_context(
        "contract C { function f() public { while (supply > 0) { supply -= 1; } } }",
        "f",
    )
    assert not check_value_comparison(["supply"], build_def_use(ctx)).present


# ----------------------------------------------------------------------
# OC


def test_oc_checkpoint_order_vulnerable_order_confirmed():
    ctx, _, _ = fixture_context(
        "checkpoint_order", "contracts", "StakerVault.sol", focus="transfer", include_callers=False
    )
    verdict = check_order("balances[msg.sender] -= amount;", "userCheckpoint", ctx,
                          build_def_use(ctx))
    assert verdict.present
    assert verdict.evidence[0] == (6, 6)
    assert verdict.evidence[1] == (10, 10)


def test_oc_checkpoint_order_patched_order_rejected():
    ctx, _, _ = fixture_context(
        "checkpoint_order_patched", "contracts", "StakerVault.sol", focus="transfer",
        include_callers=False,
    )
    verdict = check_order("balances[msg.sender] -= amount;", "userCheckpoint", ctx,
                          build_def_use(ctx))
    assert not verdict.present


def test_oc_unknown_descriptor_rejected():
    ctx, _, _ = fixture_context(
        "checkpoint_order", "contracts", "StakerVault.sol", focus="transfer", include_callers=False
    )
    assert not check_order("nothingHere", "userCheckpoint", ctx, build_def_use(ctx)).present


def test_oc_sees_through_one_level_of_inlining():
    src = """contract C {
        function f() public {
            rewards[msg.sender] += 1;
            sync();
        }
        function sync() internal {
            lastCheckpoint = block.timestamp;
        }
    }"""
    ctx, _, _ = make_context(src, "f")
    graph = build_def_use(ctx)
    verdict = check_order("rewards[msg.sender] += 1;", "lastCheckpoint = block.timestamp;", ctx,
                          graph)
    assert verdict.present
    reverse = check_order("lastCheckpoint = block.timestamp;", "rewards[msg.sender] += 1;", ctx,
                          graph)
    assert not reverse.present


def test_oc_antisymmetry_over_fixture_pairs():
    """order(a,b) == before iff order(b,a) == after, for all pairs."""
    ctx, _, _ = fixture_context(
        "checkpoint_order", "contracts", "StakerVault.sol", focus="transfer", include_callers=False
    )
    descriptors = [
        "balances[msg.sender] -= amount;",
        "balances[account] += amount;",
        "userCheckpoint",
        "emit Transfer(msg.sender, account, amount);",
    ]
    graph = build_def_use(ctx)
    for a, b in itertools.permutations(descriptors, 2):
        ab = check_order(a, b, ctx, graph).present
        ba = check_order(b, a, ctx, graph).present
        assert ab != ba, (a, b)


@pytest.mark.parametrize("caller, resolved", [("pay", False), ("relay", True)])
def test_a_call_resolves_only_to_a_context_unique_name_and_arity(caller, resolved):
    """A caller named like the callee makes ``pay(x)`` ambiguous in the context."""
    src = f"""contract A {{
        uint sink;
        function pay(uint v) internal {{ sink = v; }}
        function run(uint x) public {{ pay(x); }}
    }}
    contract B {{
        A a;
        function {caller}(uint v) public {{ a.run(v); }}
    }}"""
    ctx, _, _ = make_context(src, "run")
    assert [fid for fid, _fn in ctx.records] == ["A.run", "A.pay", f"B.{caller}"]
    graph = build_def_use(ctx)
    assert check_dataflow("x", "sink", graph).present == resolved
    order = check_order("pay", "sink = v;", ctx, graph)
    assert order.present == resolved
    if not resolved:
        assert order.detail == "no statement matches 'sink = v;'"


# ----------------------------------------------------------------------
# FA


FA_SRC = """contract C {
    function claim(address to, uint amt) public {
        mint(to, amt);
    }
    function fixedClaim() public {
        mint(address(this), 7);
    }
    function guardedClaim(address to, uint amt) public {
        require(to == msg.sender, "only self");
        mint(to, amt);
    }
    function mint(address account, uint value) internal { }
}"""


def test_fa_user_controlled_argument_confirmed():
    ctx, graph, reach = make_context(FA_SRC, "claim")
    defuse = build_def_use(ctx)
    verdict = check_fn_arg("mint", ctx, defuse, reach)
    assert verdict.present
    assert "to" in verdict.detail or "amt" in verdict.detail


def test_fa_literal_argument_rejected():
    ctx, graph, reach = make_context(FA_SRC, "fixedClaim")
    defuse = build_def_use(ctx)
    verdict = check_fn_arg("mint", ctx, defuse, reach, arg_index=1)
    assert not verdict.present
    assert verdict.detail == "no user-controlled argument"


def test_fa_sender_guard_rejected_with_oracle():
    """Oracle: enumerate msg.sender conditions intersecting the arg chain."""
    ctx, graph, reach = make_context(FA_SRC, "guardedClaim")
    defuse = build_def_use(ctx)
    sender_conditions = [
        stmt.condition.raw
        for stmt in ctx.focus.statements()
        if stmt.kind in ("if", "require", "assert") and stmt.condition
        and "msg.sender" in stmt.condition.raw
    ]
    assert any("to" in cond for cond in sender_conditions)  # guard exists
    verdict = check_fn_arg("mint", ctx, defuse, reach, arg_index=0)
    assert not verdict.present


def test_fa_out_of_range_index_rejected():
    ctx, graph, reach = make_context(FA_SRC, "claim")
    defuse = build_def_use(ctx)
    verdict = check_fn_arg("mint", ctx, defuse, reach, arg_index=5)
    assert not verdict.present
    assert verdict.detail == "argument index 5 out of range"


def test_fa_unknown_call_rejected():
    ctx, graph, reach = make_context(FA_SRC, "claim")
    defuse = build_def_use(ctx)
    assert not check_fn_arg("burn", ctx, defuse, reach).present


def test_fa_unreachable_entry_not_a_source():
    src = """contract C {
        function admin(address to) public onlyOwner { mint(to, 1); }
        function mint(address account, uint value) internal { }
    }"""
    ctx, graph, reach = make_context(src, "admin")
    defuse = build_def_use(ctx)
    assert not check_fn_arg("mint", ctx, defuse, reach).present


# ----------------------------------------------------------------------
# confirm_candidate


def rfd_recognition():
    return {
        "VariableA": ("_shares", "total minted share"),
        "VariableB": ("totalSupply", "supply checked for zero"),
        "VariableC": ("_amount", "deposit amount"),
    }


def test_confirm_first_deposit_candidate_confirmed():
    rules = load_rules(shipped_rules_dir())
    rule = rule_for_id(rules, "risky-first-deposit")
    ctx, _, reach = fixture_context("first_deposit", "contracts", "Vault.sol")
    finding = finding_for(ctx, rule.id, rfd_recognition())
    confirm_candidate(finding, rule, ctx, reach)
    assert finding.verdict == "confirmed"
    spans = finding.evidence_spans()
    assert (8, 8) in spans and (9, 9) in spans


def test_confirm_first_deposit_patched_rejected():
    rules = load_rules(shipped_rules_dir())
    rule = rule_for_id(rules, "risky-first-deposit")
    ctx, _, reach = fixture_context("first_deposit_patched", "contracts", "Vault.sol")
    finding = finding_for(ctx, rule.id, rfd_recognition())
    confirm_candidate(finding, rule, ctx, reach)
    assert finding.verdict == "rejected"
    vc = next(v for v in finding.check_verdicts if v.kind == "VC")
    assert vc.result == "rejected"


def wco_recognition():
    return {
        "CheckpointStatement": ("userCheckpoint", "invokes the user checkpoint"),
        "UpdateStatement": ("balances[msg.sender] -= amount;", "sender balance update"),
    }


def test_confirm_checkpoint_order_candidate_confirmed():
    rules = load_rules(shipped_rules_dir())
    rule = rule_for_id(rules, "wrong-checkpoint-order")
    ctx, _, reach = fixture_context(
        "checkpoint_order", "contracts", "StakerVault.sol", focus="transfer", include_callers=False
    )
    finding = finding_for(ctx, rule.id, wco_recognition())
    confirm_candidate(finding, rule, ctx, reach)
    assert finding.verdict == "confirmed"


def test_confirm_checkpoint_order_patched_rejected_even_with_yes_answers():
    rules = load_rules(shipped_rules_dir())
    rule = rule_for_id(rules, "wrong-checkpoint-order")
    ctx, _, reach = fixture_context(
        "checkpoint_order_patched", "contracts", "StakerVault.sol", focus="transfer",
        include_callers=False,
    )
    finding = finding_for(ctx, rule.id, wco_recognition())
    confirm_candidate(finding, rule, ctx, reach)
    assert finding.verdict == "rejected"
    oc = finding.check_verdicts[0]
    assert oc.kind == "OC" and oc.result == "rejected"


def test_absent_expectation_inverts_check():
    rules = load_rules(shipped_rules_dir())
    rule = rule_for_id(rules, "slippage")
    vulnerable = """contract C {
        function swapAll(uint amountIn) public {
            uint received = router.swap(amountIn);
            payout = received;
        }
    }"""
    ctx, _, reach = make_context(vulnerable, "swapAll")
    finding = finding_for(ctx, rule.id, {"ReceivedAmount": ("received", "swap output")})
    confirm_candidate(finding, rule, ctx, reach)
    assert finding.verdict == "confirmed"
    assert finding.check_verdicts[0].evidence  # absence still carries evidence

    guarded = vulnerable.replace(
        "payout = received;", 'require(received >= floor, "slip"); payout = received;'
    )
    ctx2, _, reach2 = make_context(guarded, "swapAll")
    finding2 = finding_for(ctx2, rule.id, {"ReceivedAmount": ("received", "swap output")})
    confirm_candidate(finding2, rule, ctx2, reach2)
    assert finding2.verdict == "rejected"


def test_evidence_soundness_on_first_deposit():
    """Every confirmed evidence span, sliced from source, cites its names."""
    rules = load_rules(shipped_rules_dir())
    rule = rule_for_id(rules, "risky-first-deposit")
    with open(fixture_path("first_deposit", "contracts", "Vault.sol"), encoding="utf-8") as fh:
        source_lines = fh.read().splitlines()
    ctx, _, reach = fixture_context("first_deposit", "contracts", "Vault.sol")
    finding = finding_for(ctx, rule.id, rfd_recognition())
    confirm_candidate(finding, rule, ctx, reach)
    for verdict in finding.check_verdicts:
        if verdict.result != "confirmed":
            continue
        for start, end in verdict.evidence:
            snippet = "\n".join(source_lines[start - 1 : end])
            assert any(
                finding.recognized[slot]["name"] in snippet
                for slot in verdict.slots
            ), (verdict.kind, snippet)
