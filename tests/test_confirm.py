import copy
import dataclasses
import itertools
import os
import random
import sys

import pytest

from solscout import confirm as confirm_module
from solscout import pipeline
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
from solscout.frontend import call_name, index_contracts, iter_calls, used_names
from solscout.gateway import estimate_tokens
from solscout.pipeline import scan
from solscout.report import Finding
from solscout.rules import ContextPolicy, load_rules, shipped_rules_dir

from conftest import ROOT, fixture_path
from corpus import build_corpus, write_corpus
from helpers import (build_transcript, corpus_answers, edge_set, evidence_spans, parse_text,
                     replay_config, rule_for_id)
from test_pipeline import checkpoint_order_answers, first_deposit_answers


def make_context(src, focus_name, include_callers=True, path="mem.sol",
                 include_callees=True, contract=None):
    unit = parse_text(src, path)
    fns = unit.functions
    graph = build_call_graph(fns, index_contracts([unit]))
    reach = compute_reachability(graph, fns)
    focus = next(f for f in fns
                 if f.name == focus_name and contract in (None, f.contract))
    policy = ContextPolicy(include_callers=include_callers, include_callees=include_callees)
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
    assert ((fid, "_amount"), (fid, "s")) in edge_set(graph)
    assert ((fid, "s"), (fid, "shares")) in edge_set(graph)
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
    assert edge_set(graph) == expected
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
    assert ((fid, "amount"), (mint_fid, "value")) in edge_set(graph)
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
    verdict = check_value_comparison(["totalSupply"], ctx)
    assert verdict.present
    assert verdict.evidence == [(8, 8)]  # the zero-supply branch condition


def test_vc_assignment_only_name_rejected():
    ctx, _, _ = make_context(
        "contract C { function f() public { total = 5; if (x > 0) { y = total; } } }",
        "f",
    )
    assert not check_value_comparison(["total"], ctx).present


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
        for stmt in fn.body
        if stmt.kind in ("if", "require", "assert") and stmt.condition
    ]
    oracle = [c for c in conditions if "a" in c.split() or "a" in c]
    both = [c for c in oracle if "b" in c]
    assert both == ["a >= b"]
    verdict = check_value_comparison(["a", "b"], ctx)
    assert verdict.present
    assert verdict.evidence == [(3, 3)]


def test_vc_while_conditions_do_not_count():
    ctx, _, _ = make_context(
        "contract C { function f() public { while (supply > 0) { supply -= 1; } } }",
        "f",
    )
    assert not check_value_comparison(["supply"], ctx).present


# ----------------------------------------------------------------------
# OC


def test_oc_checkpoint_order_vulnerable_order_confirmed():
    ctx, _, _ = fixture_context(
        "checkpoint_order", "contracts", "StakerVault.sol", focus="transfer", include_callers=False
    )
    verdict = check_order("balances[msg.sender] -= amount;", "userCheckpoint", ctx)
    assert verdict.present
    assert verdict.evidence[0] == (6, 6)
    assert verdict.evidence[1] == (10, 10)


def test_oc_checkpoint_order_patched_order_rejected():
    ctx, _, _ = fixture_context(
        "checkpoint_order_patched", "contracts", "StakerVault.sol", focus="transfer",
        include_callers=False,
    )
    verdict = check_order("balances[msg.sender] -= amount;", "userCheckpoint", ctx)
    assert not verdict.present


def test_oc_unknown_descriptor_rejected():
    ctx, _, _ = fixture_context(
        "checkpoint_order", "contracts", "StakerVault.sol", focus="transfer", include_callers=False
    )
    assert not check_order("nothingHere", "userCheckpoint", ctx).present


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
    verdict = check_order("rewards[msg.sender] += 1;", "lastCheckpoint = block.timestamp;", ctx)
    assert verdict.present
    reverse = check_order("lastCheckpoint = block.timestamp;", "rewards[msg.sender] += 1;", ctx)
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
    for a, b in itertools.permutations(descriptors, 2):
        ab = check_order(a, b, ctx).present
        ba = check_order(b, a, ctx).present
        assert ab != ba, (a, b)


@pytest.mark.parametrize("caller", ["pay", "relay"])
def test_a_call_resolves_to_its_call_graph_target(caller):
    """A caller named like the callee does not make ``pay(x)`` ambiguous."""
    src = f"""contract A {{
        uint sink;
        function pay(uint v) internal {{ sink = v; }}
        function run(uint x) public {{ pay(x); }}
    }}
    contract B {{
        A a;
        function {caller}(uint v) public {{ a.run(v); }}
    }}"""
    ctx, call_graph, _ = make_context(src, "run")
    assert [fid for fid, _fn in ctx.records] == ["A.run", "A.pay", f"B.{caller}"]
    assert ("A.run", "A.pay", 0) in call_graph.edges
    graph = build_def_use(ctx)
    assert check_dataflow("x", "sink", graph).present
    assert check_order("pay", "sink = v;", ctx).present


def test_super_call_in_an_override_inlines_the_base_function():
    """``super.f()`` is Base.f, though the context also holds D.f."""
    src = """contract Base {
        uint x;
        function f() public virtual { x = 1; }
    }
    contract D is Base {
        uint y;
        function f() public override { super.f(); y = 2; }
    }"""
    ctx, _, _ = make_context(src, "f", contract="D")
    assert [fid for fid, _fn in ctx.records] == ["D.f", "Base.f"]
    assert check_order("x = 1;", "y = 2;", ctx).present
    assert not check_order("y = 2;", "x = 1;", ctx).present


def test_a_call_never_binds_to_a_caller_the_graph_did_not_resolve_it_to():
    """With callees off, ``pay(x)``'s target A.pay is not in the context."""
    src = """contract A {
        uint sink;
        function pay(uint v) internal { sink = v; }
        function run(uint x) public { pay(x); }
    }
    contract B {
        A a;
        uint other;
        function pay(uint v) public { other = v; a.run(v); }
    }"""
    ctx, _, _ = make_context(src, "run", contract="A", include_callees=False)
    assert [fid for fid, _fn in ctx.records] == ["A.run", "B.pay"]
    graph = build_def_use(ctx)
    assert check_dataflow("v", "other", graph).present
    assert not check_dataflow("x", "other", graph).present
    in_context = {fn: fid for fid, fn in ctx.records}
    assert [(fid, call_name(call), in_context.get(target))
            for fid, _fn in ctx.records for calls in ctx.sites[fid]
            for call, target in calls] == [("A.run", "pay", None), ("B.pay", "run", "A.run")]


def test_a_call_with_no_name_binds_to_no_function():
    """``hs[0](x)`` is not a call of the context's one-parameter constructor."""
    src = """contract C {
        function(uint) external[] hs;
        uint s;
        uint t;
        constructor(uint a) { t = a; f(a); }
        function f(uint x) public { hs[0](x); s = x; }
    }"""
    ctx, _, _ = make_context(src, "f")
    assert [fn.kind for _fid, fn in ctx.records] == ["function", "constructor"]
    graph = build_def_use(ctx)
    assert check_order("s = x;", "t = a;", ctx).detail == "no statement matches 't = a;'"
    assert not check_dataflow("x", "t", graph).present


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
        for stmt in ctx.focus.body
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
    spans = evidence_spans(finding)
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


# ----------------------------------------------------------------------
# the def-use graph, built only for a rule that reads it


def _confirmations(monkeypatch, run) -> list:
    """(finding, rule, context, reach) of every confirmation ``run()`` makes."""
    seen = []
    original = pipeline.confirm_candidate

    def recording(finding, rule, context, reach):
        seen.append((copy.copy(finding), rule, context, reach))
        return original(finding, rule, context, reach)

    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "confirm_candidate", recording)
        run()
    return seen


def _outcome(finding, rule, context, reach) -> tuple:
    done = confirm_candidate(copy.copy(finding), rule, context, reach)
    return done.verdict, done.check_verdicts


GUARDED_HELPERS = """contract K {
    mapping(address => uint) stakes;
    uint rate;
    function update(address user) internal { require(user != address(0), "zero"); rate = rate + 1; }
    function move(address from, uint amount) internal { stakes[from] -= amount; update(from); }
    function withdraw(uint amount) public { require(amount > 0, "amount"); move(msg.sender, amount); }
    function sweep(address from) external { if (stakes[from] > rate) { move(from, stakes[from]); } }
}"""


def _renamed(finding, context, reach, rules, rng) -> list:
    """Confirmations of ``rules`` on one context, each slot naming a random
    statement, used name or call name of any function in the context."""
    stmts = [stmt for _fid, fn in context.records for stmt in fn.body]
    exprs = [expr for stmt in stmts for expr in stmt.expressions()]
    pool = sorted({stmt.raw for stmt in stmts}
                  | {name for expr in exprs for name in used_names(expr)}
                  | {call_name(call) for expr in exprs for call in iter_calls(expr)})
    out = []
    for rule in rules:
        for _ in range(4):
            named = {slot: {"name": rng.choice(pool), "description": ""}
                     for slot in rule.recognition.slots}
            out.append((dataclasses.replace(finding, recognized=named), rule, context, reach))
    return out


def test_a_rule_with_no_df_or_fa_check_never_builds_the_def_use_graph(monkeypatch, tmp_path):
    """``build_def_use`` runs once for each confirmation by a rule with a DF
    or FA check, on its context, and never for another rule: on every
    confirmation of the fixtures, the demo, the acceptance corpus and the
    seed-7 ``dense-graph`` corpus, and on those contexts with other names
    in the slots of the rules without DF or FA (inlined callees,
    conditions in callers and callees)."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import generate

    def fixtures():
        for fixture, answers in (("first_deposit", first_deposit_answers()),
                                 ("first_deposit_patched", first_deposit_answers()),
                                 ("checkpoint_order", checkpoint_order_answers()),
                                 ("checkpoint_order_patched", checkpoint_order_answers())):
            build_transcript(replay_config(fixture_path(fixture), ""), answers)

    def demo():
        demo_root = os.path.join(ROOT, "demo")
        scan(replay_config(os.path.join(demo_root, "project"),
                           os.path.join(demo_root, "transcript.jsonl")))

    def acceptance():
        cases = build_corpus(variants=3)
        write_corpus(str(tmp_path / "corpus"), cases)
        build_transcript(replay_config(str(tmp_path / "corpus"), ""), corpus_answers(cases))

    seen = []
    for run in (fixtures, demo, acceptance):
        found = _confirmations(monkeypatch, run)
        assert found, run
        seen += found
    dense = _confirmations(
        monkeypatch, lambda: generate.generate("dense-graph", 7, str(tmp_path / "dense")))
    assert sum(1 for _f, rule, _c, _r in dense if rule.id == "wrong-checkpoint-order") == 960
    kinds = {kind for _f, rule, _c, _r in seen + dense for kind in rule.check_kinds}
    assert kinds == {"DF", "VC", "OC", "FA"}

    rng = random.Random(7)
    lean_rules = [rule for rule in load_rules(shipped_rules_dir())
                  if not {"DF", "FA"} & set(rule.check_kinds)]
    contexts = [(finding, context, reach)
                for finding, _rule, context, reach in seen + rng.sample(dense, 60)]
    for focus in ("update", "move", "withdraw"):
        context, _graph, reach = make_context(GUARDED_HELPERS, focus)
        contexts.append((finding_for(context, "", {}), context, reach))
    renamed = [args for finding, context, reach in contexts
               for args in _renamed(finding, context, reach, lean_rules, rng)]
    seen += dense + renamed

    built = []
    full = confirm_module.build_def_use

    def recording(context):
        built.append(context)
        return full(context)

    with monkeypatch.context() as patch:
        patch.setattr(confirm_module, "build_def_use", recording)
        outcomes = [_outcome(*args) for args in seen]
    assert {verdict for verdict, _checks in outcomes[-len(renamed):]} == {"confirmed", "rejected"}
    reads_names = [context for _f, rule, context, _r in seen
                   if {"DF", "FA"} & set(rule.check_kinds)]
    assert 0 < len(reads_names) < len(seen)
    assert list(map(id, built)) == list(map(id, reads_names))


@pytest.mark.parametrize("descriptor, name", [
    ("token.transfer(to, amount);", "transfer"),
    ("checkpoint(msg.sender)", "checkpoint"),
    ("pool.router.swap", "swap"),
    ("a$.b_1(x)", "b_1"),
    # no Solidity identifier holds a non-ASCII letter: the descriptor names no call
    ("token.trånsfer(to, amount)", "token.trånsfer(to, amount)"),
    ("tökén.transfer(to, amount)", "tökén.transfer(to, amount)"),
    ("payé(x)", "payé(x)"),
])
def test_call_descriptor_names_follow_the_lexers_identifier_grammar(descriptor, name):
    assert confirm_module._call_descriptor_name(descriptor) == name
