"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one
ACCEPTANCE line per criterion in addition to pytest's own pass/fail.
"""

import itertools
import json
import os
import random
import time

import pytest

from solscout.confirm import DefUseGraph, check_dataflow, check_order
from solscout.callgraph import assemble_context, build_call_graph
from solscout.filters import directive_passes
from solscout.frontend import index_contracts
from solscout.gateway import estimate_tokens
from solscout.pipeline import scan
from solscout.report import ConfusionCounts,derive_rates, score
from solscout.rules import ContextPolicy, load_rules, shipped_rules_dir

from conftest import fixture_path
from corpus import build_corpus, write_corpus
from helpers import (ScriptedAnswers, corpus_answers, evidence_spans, filter_kinds, parse_text,
                     replay_config, write_transcript)
from test_pipeline import first_deposit_answers, checkpoint_order_answers
from test_report import make_finding, truth_from


def _passed(n: int, detail: str) -> None:
    print(f"\nACCEPTANCE {n}: PASS — {detail}")


def _run_fixture(fixture: str, answers: ScriptedAnswers, tmp_path) -> tuple:
    root = fixture_path(fixture)
    transcript_path = str(tmp_path / f"{fixture}.jsonl")
    config = replay_config(root, transcript_path, project_name=fixture)
    write_transcript(config, answers, transcript_path)
    config.validate()
    started = time.perf_counter()
    result = scan(config)
    return result, time.perf_counter() - started


# ----------------------------------------------------------------------


def test_criterion_1_first_deposit_detection(tmp_path):
    """First-deposit fixture: one finding citing lines 8-9; patched: none."""
    result, elapsed = _run_fixture("first_deposit", first_deposit_answers(), tmp_path)
    confirmed = result.confirmed
    assert len(confirmed) == 1
    finding = confirmed[0]
    assert finding.rule_id == "risky-first-deposit"
    assert finding.function == "deposit"
    spans = evidence_spans(finding)
    assert (8, 8) in spans and (9, 9) in spans  # the zero-supply branch
    assert elapsed < 5.0

    patched, _ = _run_fixture("first_deposit_patched", first_deposit_answers(), tmp_path)
    assert patched.confirmed == []
    _passed(1, f"one risky-first-deposit finding citing lines 8-9 in {elapsed:.2f}s; "
               "branch-deleted variant yields zero findings")


def test_criterion_2_order_check_discrimination(tmp_path):
    """Wrong order confirmed; patched order rejected despite Yes answers."""
    result, _ = _run_fixture("checkpoint_order", checkpoint_order_answers(), tmp_path)
    assert len(result.confirmed) == 1
    assert result.confirmed[0].rule_id == "wrong-checkpoint-order"

    patched, _ = _run_fixture("checkpoint_order_patched", checkpoint_order_answers(), tmp_path)
    assert patched.confirmed == []
    rejected = [f for f in patched.findings if f.rule_id == "wrong-checkpoint-order"]
    assert rejected, "the patched candidate must reach (and fail) static confirmation"
    assert rejected[0].verdict == "rejected"
    oc = rejected[0].check_verdicts[0]
    assert oc.kind == "OC" and oc.result == "rejected"
    _passed(2, "OC confirms the wrong order and rejects the patched order "
               "despite Yes answers in the transcript")


def test_criterion_3_metric_arithmetic_reproduction():
    """Derived rates match hand-computed percentages within 0.1%."""
    tol = 0.1  # percentage points

    web3bugs = derive_rates(ConfusionCounts(tp=40, tn=154, fp=30, fn=8))
    assert abs(web3bugs.precision * 100 - 57.14) <= tol
    assert abs(web3bugs.recall * 100 - 83.33) <= tol
    assert abs(web3bugs.f1 * 100 - 67.8) <= tol

    defihacks = derive_rates(ConfusionCounts(tp=10, tn=19, fp=1, fn=4))
    assert abs(defihacks.precision * 100 - 90.91) <= tol
    assert abs(defihacks.recall * 100 - 71.43) <= tol
    assert abs(defihacks.f1 * 100 - 80.0) <= tol

    top200 = derive_rates(ConfusionCounts(tp=0, tn=283, fp=13, fn=0))
    assert abs(top200.fp_rate * 100 - 4.39) <= tol
    _passed(3, "precision 57.14/90.91, recall 83.33/71.43, F1 67.8/80, "
               "FP-rate 4.39 all within ±0.1%")


def test_criterion_4_counting_semantics_conformance():
    """Partition invariant on a 3-project truth; 5-type project sums to 5."""
    truth = truth_from(
        {
            "alpha": ["r1", "r2", "r3", "r4", "r5"],
            "beta": ["r1", "r2"],
            "gamma": ["r1", "r2", "r3"],
        },
        [
            ("alpha", "r1", "a.sol:A.f"),
            ("beta", "r2", "b.sol:B.g"),
            ("gamma", "r3", "c.sol:C.h"),
        ],
    )
    findings = [
        make_finding(project="alpha", rule_id="r1", file="a.sol", contract="A", function="f"),
        make_finding(project="alpha", rule_id="r4", file="x.sol", contract="X", function="x"),
        make_finding(project="beta", rule_id="r1", file="y.sol", contract="Y", function="y"),
        make_finding(project="gamma", rule_id="r3", file="wrong.sol", contract="W", function="w"),
    ]
    counts = score(findings, truth)
    expected_total = sum(len(types) for types in truth.tested_types.values())
    assert counts.total == expected_total == 10

    five_type = truth_from(
        {"alpha": ["r1", "r2", "r3", "r4", "r5"]},
        [("alpha", "r1", "a.sol:A.f")],
    )
    five_counts = score([findings[0]], five_type)
    assert five_counts.total == 5
    assert (five_counts.tp, five_counts.tn, five_counts.fp, five_counts.fn) == (1, 4, 0, 0)
    _passed(4, "tp+tn+fp+fn equals tested types per project; worked example sums to 5")


@pytest.fixture(scope="module")
def corpus_run(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("corpus"))
    cases = build_corpus(variants=3)
    write_corpus(root, cases, filler_files=60, filler_functions=20)
    transcript_path = os.path.join(root, "transcript.jsonl")
    config = replay_config(root, transcript_path, project_name="corpus")

    answers = corpus_answers(cases)
    write_transcript(config, answers, transcript_path)
    config.validate()
    started = time.perf_counter()
    result = scan(config)
    elapsed = time.perf_counter() - started
    return cases, result, elapsed, config, answers


def test_criterion_5_static_confirmation_reduction(corpus_run):
    """>=30 seeded candidates: vulnerable half accepted, correct half rejected."""
    cases, result, _elapsed, _config, _answers = corpus_run
    assert len(cases) >= 30

    confirmed = {(f.rule_id, f.function_id) for f in result.confirmed}
    vulnerable = {(c.rule_id, c.fid) for c in cases if c.vulnerable}
    correct = {(c.rule_id, c.fid) for c in cases if not c.vulnerable}

    assert confirmed == vulnerable  # zero crossover, both directions
    assert confirmed.isdisjoint(correct)
    rejected = {(f.rule_id, f.function_id) for f in result.findings
                if f.verdict == "rejected"}
    assert correct <= rejected
    _passed(5, f"{len(vulnerable)} vulnerable accepted, {len(correct)} correct "
               "rejected, zero crossover")


def _closure_bruteforce(n, edges):
    reach = [[i == j for j in range(n)] for i in range(n)]
    for a, b in edges:
        reach[a][b] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row_k = reach[k]
                row_i = reach[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return reach


def _df_graph(n, edges):
    graph = DefUseGraph()
    for i in range(n):
        graph.add_occurrence(("f", f"v{i}"), (i + 1, i + 1))
    for a, b in sorted(edges):
        graph.add_edge(("f", f"v{a}"), ("f", f"v{b}"), (a + 1, a + 1))
    return graph


def test_criterion_6_oracle_equivalence():
    """DF vs brute-force closure; OC antisymmetry; FCCE/FCNCE De Morgan."""
    # (a) exhaustive: every digraph on 3 nodes, plus >=1000 random up to 12
    checked = 0
    all_pairs3 = [(a, b) for a in range(3) for b in range(3) if a != b]
    for bits in range(2 ** len(all_pairs3)):
        edges = {p for i, p in enumerate(all_pairs3) if bits >> i & 1}
        graph = _df_graph(3, edges)
        closure = _closure_bruteforce(3, edges)
        for a, b in itertools.product(range(3), repeat=2):
            expected = closure[a][b] or closure[b][a]
            got = check_dataflow(f"v{a}", f"v{b}", graph).present
            assert got == expected, (sorted(edges), a, b)
            checked += 1
    rng = random.Random(4242)
    for _ in range(1000):
        n = rng.randrange(2, 13)
        edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(0, 3 * n))}
        edges = {(a, b) for a, b in edges if a != b}
        graph = _df_graph(n, edges)
        closure = _closure_bruteforce(n, edges)
        a, b = rng.randrange(n), rng.randrange(n)
        expected = closure[a][b] or closure[b][a]
        got = check_dataflow(f"v{a}", f"v{b}", graph).present
        assert got == expected

    # (b) OC antisymmetry over every leaf-statement pair in the fixtures
    pairs_checked = 0
    for fixture, focus_name in (
        ("first_deposit", "deposit"), ("checkpoint_order", "transfer"), ("checkpoint_order_patched", "transfer"),
    ):
        with open(fixture_path(fixture, "contracts",
                               os.listdir(fixture_path(fixture, "contracts"))[0]),
                  encoding="utf-8") as fh:
            unit = parse_text(fh.read())
        fns = unit.functions
        graph = build_call_graph(fns, index_contracts([unit]))
        focus = next(f for f in fns if f.name == focus_name)
        ctx = assemble_context(focus, graph, ContextPolicy(False, True),
                               1_000_000, estimate_tokens)
        container = ("block", "if", "for", "while")
        descriptors = []
        seen = set()
        for stmt in focus.body:
            if stmt.kind in container or stmt.raw in seen:
                continue
            seen.add(stmt.raw)
            descriptors.append(stmt.raw)
        for a, b in itertools.permutations(descriptors, 2):
            before_ab = check_order(a, b, ctx)
            before_ba = check_order(b, a, ctx)
            if before_ab.detail.startswith("no statement"):
                continue
            if before_ab.evidence and before_ab.evidence[0] == before_ab.evidence[1]:
                continue  # both descriptors resolved to the same statement
            assert before_ab.present != before_ba.present
            pairs_checked += 1
    assert pairs_checked > 10

    # (c) De Morgan pair under randomized bodies and combinations
    rng = random.Random(77)
    words = ["total", "supply", "liquidity", "swap", "alpha", "zz", "min", "tot"]
    demorgan = 0
    for _ in range(1000):
        body = " ".join(f"{rng.choice(words)} = {k};" for k in range(rng.randrange(0, 6)))
        fn = parse_text("contract C { function f() public { %s } }" % body).functions[0]
        combos = [[rng.choice(words) for _ in range(rng.randrange(1, 3))]
                  for _ in range(rng.randrange(1, 4))]
        assert directive_passes(fn, "FCCE", combos, set()) != \
            directive_passes(fn, "FCNCE", combos, set())
        demorgan += 1
    _passed(6, f"DF closure matched on {checked}+1000 graphs, OC antisymmetry on "
               f"{pairs_checked} pairs, De Morgan on {demorgan} random cases")


def test_criterion_7_replay_determinism(tmp_path, corpus_run):
    """Two replay scans of the full fixture corpus: byte-identical reports."""
    compared = 0
    for fixture, answers in (
        ("first_deposit", first_deposit_answers()),
        ("first_deposit_patched", first_deposit_answers()),
        ("checkpoint_order", checkpoint_order_answers()),
        ("checkpoint_order_patched", checkpoint_order_answers()),
    ):
        first, _ = _run_fixture(fixture, answers, tmp_path)
        second, _ = _run_fixture(fixture, answers, tmp_path)
        assert first.report("json") == second.report("json")
        compared += 1

    _cases, first_result, _elapsed, config, _answers = corpus_run
    again = scan(config)
    assert first_result.report("json") == again.report("json")
    compared += 1
    _passed(7, f"{compared} project reports byte-identical across replays")


@pytest.mark.skipif(
    not os.environ.get("SOLSCOUT_LIVE_TEST"),
    reason="live record/replay check needs SOLSCOUT_LIVE_TEST=1 and an API key",
)
def test_criterion_7b_live_record_then_replay(tmp_path):
    root = fixture_path("first_deposit")
    transcript_path = str(tmp_path / "live.jsonl")
    record = replay_config(root, transcript_path, project_name="first_deposit")
    record.mode = "record"
    record.validate()
    recorded = scan(record)
    replay = replay_config(root, transcript_path, project_name="first_deposit")
    replay.validate()
    replayed = scan(replay)
    rec = json.loads(recorded.report("json"))["findings"]
    rep = json.loads(replayed.report("json"))["findings"]
    assert rec == rep


def test_criterion_8_throughput_budget(corpus_run):
    """A whole replay scan runs at >= 10 KLoC/s."""
    _cases, result, elapsed, _config, _answers = corpus_run
    kloc = result.ledger.kloc
    assert kloc >= 5.0, "corpus must be big enough for a meaningful measurement"
    throughput = kloc / elapsed
    assert throughput >= 10.0, f"{throughput:.1f} KLoC/s below the 10 KLoC/s budget"
    _passed(8, f"{throughput:.1f} KLoC/s over {kloc:.1f} KLoC "
               f"({elapsed:.2f}s whole replay scan)")


TABLE_EXPECTED = {
    "approval-not-cleared": (["FNK", "FCCE"], ["VC"]),
    "risky-first-deposit": (["FCCE"], ["DF", "VC"]),
    "price-manipulation-by-amm": (["FNK", "FCCE"], ["DF"]),
    "price-manipulation-by-buying-tokens": (["FNK", "FCE"], ["FA"]),
    "vote-manipulation-by-flashloan": (["FCCE"], ["DF"]),
    "front-running": (["FNK", "FPNC", "FPT", "FCNE", "FNM"], ["FA"]),
    "wrong-interest-rate-order": (["FCE", "CFN"], ["OC"]),
    "wrong-checkpoint-order": (["FCE", "CFN"], ["OC"]),
    "slippage": (["FCCE", "FCNCE"], ["VC"]),
    "unauthorized-transfer": (["FNK", "FCNE", "FCE", "FCNCE", "FPNC"], ["VC"]),
}


def test_criterion_9_rule_conformance():
    """The ten shipped rules keep their documented decomposition row-for-row."""
    rules = load_rules(shipped_rules_dir())
    assert len(rules) == 10
    by_id = {rule.id: rule for rule in rules}
    assert set(by_id) == set(TABLE_EXPECTED)
    for rule_id, (filters, checks) in TABLE_EXPECTED.items():
        rule = by_id[rule_id]
        assert filter_kinds(rule) == filters, rule_id
        assert rule.check_kinds == checks, rule_id
        assert rule.scenarios and rule.property
    _passed(9, "all ten rules load; (filters, checks) match row-for-row")
