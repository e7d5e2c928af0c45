import itertools
import json
from dataclasses import asdict

import pytest

from solscout.confirm import CheckVerdict
from solscout.errors import TruthMismatch
from solscout.frontend import SourceFile
from solscout.gateway import LlmExchange
from solscout.report import (
    ConfusionCounts,
    CostLedger,
    Finding,
    GroundTruth,
    count_kloc,
    derive_rates,
    emit_report,
    json_text,
    score,
    summarize_cost,
)


def make_finding(project="p1", rule_id="risky-first-deposit", file="contracts/V.sol",
                 contract="V", function="deposit", verdict="confirmed", span=(4, 14)):
    return Finding(
        rule_id=rule_id,
        project=project,
        file=file,
        function_id=f"{contract}.{function}",
        contract=contract,
        function=function,
        span=span,
        verdict=verdict,
        check_verdicts=[CheckVerdict(kind="VC", slots=["VariableB"],
                                     expectation="present", result="confirmed",
                                     evidence=[(8, 8)])],
    )


def truth_from(tested, entries):
    truth = GroundTruth()
    truth.tested_types = {p: set(types) for p, types in tested.items()}
    truth.entries = set(entries)
    return truth


def test_score_worked_example_sum_is_five():
    truth = truth_from(
        {"p1": ["a", "b", "c", "d", "risky-first-deposit"]},
        [("p1", "risky-first-deposit", "contracts/V.sol:V.deposit")],
    )
    counts = score([make_finding()], truth)
    assert (counts.tp, counts.tn, counts.fp, counts.fn) == (1, 4, 0, 0)
    assert counts.total == 5


def test_score_all_negative():
    truth = truth_from({"p1": ["a", "b", "c"]}, [])
    counts = score([], truth)
    assert (counts.tp, counts.tn, counts.fp, counts.fn) == (0, 3, 0, 0)


def test_score_pair_level_fp_counting():
    truth = truth_from({"p1": ["risky-first-deposit"]}, [])
    findings = [
        make_finding(function="deposit"),
        make_finding(function="otherDeposit"),
    ]
    counts = score(findings, truth)
    assert counts.fp == 1  # one pair, one FP, regardless of finding count


def test_score_wrong_function_is_fn_not_fp():
    truth = truth_from(
        {"p1": ["risky-first-deposit"]},
        [("p1", "risky-first-deposit", "contracts/V.sol:V.deposit")],
    )
    counts = score([make_finding(function="unrelated")], truth)
    assert (counts.tp, counts.fn, counts.fp) == (0, 1, 0)


def test_score_requires_known_projects():
    truth = truth_from({"p1": ["a"]}, [])
    with pytest.raises(TruthMismatch):
        score([make_finding(project="ghost", rule_id="a")], truth)


def test_score_ignores_unconfirmed_findings():
    truth = truth_from({"p1": ["risky-first-deposit"]}, [])
    counts = score([make_finding(verdict="rejected")], truth)
    assert counts.tn == 1 and counts.fp == 0


def test_score_two_project_pair_table_bruteforce():
    """Oracle: hand-enumerated pair table over a 2-project fixture."""
    truth = truth_from(
        {"p1": ["r1", "r2", "r3"], "p2": ["r1", "r2"]},
        [("p1", "r1", "f.sol:C.a"), ("p2", "r2", "g.sol:D.b")],
    )
    findings = [
        make_finding(project="p1", rule_id="r1", file="f.sol", contract="C", function="a"),
        make_finding(project="p1", rule_id="r2", file="x.sol", contract="X", function="x"),
        make_finding(project="p2", rule_id="r2", file="other.sol", contract="D", function="c"),
    ]
    expected = {}
    for project, rule in itertools.chain(
        (("p1", r) for r in ("r1", "r2", "r3")), (("p2", r) for r in ("r1", "r2"))
    ):
        has_truth = any(p == project and r == rule for p, r, _ in truth.entries)
        hits = [f for f in findings if f.project == project and f.rule_id == rule]
        matched = any(
            f.file == loc.rsplit(":", 1)[0] and f"{f.contract}.{f.function}" == loc.rsplit(":", 1)[1]
            for f in hits for p, r, loc in truth.entries if p == project and r == rule
        )
        if has_truth:
            expected[(project, rule)] = "tp" if matched else "fn"
        else:
            expected[(project, rule)] = "fp" if hits else "tn"
    tally = {"tp": 0, "tn": 0, "fp": 0, "fn": 0}
    for outcome in expected.values():
        tally[outcome] += 1
    counts = score(findings, truth)
    assert (counts.tp, counts.tn, counts.fp, counts.fn) == (
        tally["tp"], tally["tn"], tally["fp"], tally["fn"]
    )
    assert counts.total == 5


def test_score_insensitive_to_order_and_duplicates():
    truth = truth_from(
        {"p1": ["r1", "r2"]}, [("p1", "r1", "f.sol:C.a")]
    )
    base = [
        make_finding(project="p1", rule_id="r1", file="f.sol", contract="C", function="a"),
        make_finding(project="p1", rule_id="r2", file="f.sol", contract="C", function="z"),
    ]
    c1 = score(base, truth)
    c2 = score(list(reversed(base)) + [base[0]], truth)
    assert (c1.tp, c1.tn, c1.fp, c1.fn) == (c2.tp, c2.tn, c2.fp, c2.fn)


def test_derive_rates_table_values():
    web3bugs = derive_rates(ConfusionCounts(tp=40, tn=154, fp=30, fn=8))
    assert abs(web3bugs.precision - 0.5714) < 0.001
    assert abs(web3bugs.recall - 0.8333) < 0.001
    assert abs(web3bugs.f1 - 0.678) < 0.001
    defihacks = derive_rates(ConfusionCounts(tp=10, tn=19, fp=1, fn=4))
    assert abs(defihacks.precision - 0.9091) < 0.001
    assert abs(defihacks.recall - 0.7143) < 0.001
    assert abs(defihacks.f1 - 0.80) < 0.001
    top200 = derive_rates(ConfusionCounts(tp=0, tn=283, fp=13, fn=0))
    assert abs(top200.fp_rate - 0.0439) < 0.001


def test_derive_rates_undefined_markers():
    rates = derive_rates(ConfusionCounts())
    assert rates.precision is None
    assert rates.recall is None
    assert rates.f1 is None
    assert rates.fp_rate is None


def test_summarize_cost_zero_and_arithmetic():
    zero = summarize_cost([], 0.0, 0.0)
    assert zero.total_usd == 0.0 and zero.tokens_in == 0

    exchanges = [
        LlmExchange("scenario", "r", "f", "resp", 1000, 500),
        LlmExchange("property", "r", "f", "resp", 1000, 500),
    ]
    ledger = summarize_cost(exchanges, 10.0, 2.0, 0.0015, 0.002)
    assert ledger.total_usd == pytest.approx(0.005)
    assert ledger.tokens_in == 2000 and ledger.tokens_out == 1000
    assert ledger.seconds_per_kloc == pytest.approx(5.0)
    assert ledger.usd_per_kloc == pytest.approx(0.0025)


def test_count_kloc_skips_blank_and_comment_lines():
    src = SourceFile(path="a.sol", text="")
    src.text = "uint x;\n\n// comment only\nuint y; // tail\n"
    src.stripped = "uint x;\n\n                \nuint y;        \n"
    assert count_kloc([src]) == pytest.approx(2 / 1000)


@pytest.mark.parametrize("text", [
    "",
    "\n\n\n",
    "a\n\nb\n   \n\t\n\x0b\n\x0c\nc",  # spaces, a tab, a vertical tab, a form feed
    "a\r\n\r\n  \r\nb\r\n",
    "a\rb\r\r c\r",
    "a\u2028\u2028 \u2028b\x1c\x1d \x1e\x85c",  # line and record separators break lines
    "\u3000\n\u200bx",  # an ideographic space is whitespace, a zero-width space is not
    "no final newline",
])
def test_count_kloc_counts_the_lines_that_are_not_all_whitespace(text):
    """A line is one of ``str.splitlines``, blank if ``str.strip`` leaves nothing of it."""
    src = SourceFile(path="a.sol", text="", stripped=text)
    assert count_kloc([src]) == sum(1 for line in text.splitlines() if line.strip()) / 1000


def test_ground_truth_yaml_loading(tmp_path):
    path = tmp_path / "truth.yaml"
    path.write_text(
        """
projects:
  - name: demo
    tested: [risky-first-deposit, slippage]
    vulnerabilities:
      - rule: risky-first-deposit
        function: "contracts/Vault.sol:YaxisVault.deposit"
""",
        encoding="utf-8",
    )
    truth = GroundTruth.load(str(path))
    assert truth.tested_types == {"demo": {"risky-first-deposit", "slippage"}}
    assert ("demo", "risky-first-deposit",
            "contracts/Vault.sol:YaxisVault.deposit") in truth.entries


def test_ground_truth_rejects_untested_entry(tmp_path):
    path = tmp_path / "truth.yaml"
    path.write_text(
        """
projects:
  - name: demo
    tested: [slippage]
    vulnerabilities:
      - rule: risky-first-deposit
        function: "a.sol:C.f"
""",
        encoding="utf-8",
    )
    with pytest.raises(TruthMismatch):
        GroundTruth.load(str(path))


def test_emit_empty_report_is_valid():
    doc = emit_report([], CostLedger(), "json", {"project_root": "x"})
    parsed = json.loads(doc)
    assert parsed["findings"] == []
    assert parsed["ledger"]["total_usd"] == 0.0
    assert parsed["schema_version"] == 1


def test_emit_json_markdown_lossless_for_verdicts_and_spans():
    """Oracle: round-trip field comparison between the two renderings."""
    findings = [
        make_finding(),
        make_finding(rule_id="slippage", function="swap", verdict="rejected", span=(3, 9)),
        make_finding(rule_id="slippage", function="big", verdict="skipped", span=(1, 2)),
    ]
    ledger = CostLedger(total_seconds=1.5, tokens_in=10, tokens_out=5)
    parsed = json.loads(emit_report(findings, ledger, "json", {}))
    markdown = emit_report(findings, ledger, "markdown", {})
    for raw in parsed["findings"]:
        assert f"verdict: {raw['verdict']}" in markdown
        assert f"lines {raw['span'][0]}-{raw['span'][1]}" in markdown


def test_emit_json_is_deterministic_and_sorted():
    findings = [
        make_finding(rule_id="zz", function="b"),
        make_finding(rule_id="aa", function="a"),
    ]
    ledger = CostLedger()
    doc1 = emit_report(findings, ledger, "json", {"k": 1})
    doc2 = emit_report(list(reversed(findings)), ledger, "json", {"k": 1})
    assert doc1 == doc2
    parsed = json.loads(doc1)
    assert [f["rule_id"] for f in parsed["findings"]] == ["aa", "zz"]


JSON_ODD_DOC = {
    "text": ["plain", "héllo wörld ☃ 😀  ", "\x00\x01\x1f\x7f", "\"quoted\" back\\slash /",
             "tab\tnew\nline\rcr\b\f", ""],
    "empty": [[], {}, [[]], {"inner": {}}, ([],), ()],
    "tuples": (1, (2, (3, "x")), []),
    "floats": [0.1, 1e-07, 1e16, -0.0, 0.0, 2.5, 1e308, 5e-324, float("nan"), float("inf"),
               -float("inf")],
    "ints": [0, -1, 10**30, -(10**40), 2**63],
    "constants": [True, False, None],
    "keys": {"b": 1, "a": 2, "": 3, "ä": 4, "A": 5, "\n": 6},
    "nested": {"z": [{"y": [1, {"x": None}]}], "a": {"b": {"c": {"d": []}}}},
    "deep": [[[[[[[[[[{"x": [1, {"y": "z"}]}]]]]]]]]]],
}


def test_the_json_writer_matches_json_dumps_byte_for_byte():
    """``json_text`` is ``json.dumps(..., indent=2, sort_keys=True)`` and a newline for every
    report value."""
    for doc in (JSON_ODD_DOC, JSON_ODD_DOC["text"], {}, [], "s", 1, 1.5, None, True,
                float("nan")):
        assert json_text(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n", doc
    findings = [make_finding(), make_finding(rule_id="slippage", verdict="rejected")]
    findings[1].excerpt = "function f() { emit E(\"é\\n\"); }\n\t// ☃"
    ledger = CostLedger(total_seconds=0.1, tokens_in=3, total_usd=1e-07, kloc=1e16)
    meta = {"project_root": "/p/é", "stats": {"confirmed": 1}, "parse_failures": []}
    text = emit_report(findings, ledger, "json", meta)
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    for bad in (object(), {"a": {2, 3}}, {1: "int key"}, {None: "null key"}):
        with pytest.raises(TypeError):
            json_text(bad)


def test_a_dataclass_is_written_as_the_object_of_its_fields():
    finding = make_finding()
    finding.reason = "check OC failed"
    finding.recognized = {"VariableB": {"name": "shares", "description": "minted \"shares\""},
                          "FunctionA": {"name": "deposit", "description": "é"}}
    finding.check_verdicts.append(CheckVerdict(kind="OC", slots=("FunctionA", "VariableB"),
                                               expectation="absent", result="rejected",
                                               evidence=[(5, 6), (9, 9)], detail="why"))
    finding.transcript_keys = ["scenario|r|V.deposit|ab", "property|r|V.deposit|cd|retry1"]
    finding.excerpt = "function deposit() {\n\t// ☃\n}"
    ledger = CostLedger(1.5, 10, 2, 1e-07, 0.25, 6.0, 4e-07)
    for value in (finding, ledger):
        assert json_text(value) == json.dumps(asdict(value), indent=2, sort_keys=True) + "\n"
