import gc
import json
import os
import sys
import time
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace

import pytest

from solscout.errors import (
    ConfigError,
    ProviderError,
    ProviderUnavailable,
    ReplayMiss,
    RuleParseError,
    TranscriptError,
)
from solscout.filters import candidates_for_rule
from solscout.frontend import parser as parser_module
from solscout.gateway import LlmGateway, Transcript, prompt_sha256, scripted
from solscout import pipeline
from solscout.pipeline import prepare_scan, scan
from solscout.report import count_kloc
from solscout.rules import load_rules
from solscout.transport import HttpProvider

from chatserver import by_prompt, in_order
from conftest import fixture_path
from corpus import build_corpus, write_corpus
from helpers import (
    ScriptedAnswers,
    corpus_answers,
    build_transcript,
    evidence_spans,
    replay_config,
    scripted_answerer,
    write_transcript,
)

RFD_RECOGNITION = {
    "VariableA": ("_shares", "the total minted share"),
    "VariableB": ("totalSupply", "total supply checked against zero"),
    "VariableC": ("_amount", "the deposit amount"),
}

WCO_RECOGNITION = {
    "CheckpointStatement": ("userCheckpoint", "invokes the user checkpoint"),
    "UpdateStatement": ("balances[msg.sender] -= amount;", "updates the sender balance"),
}


def first_deposit_answers():
    answers = ScriptedAnswers(default_scenario=False)
    key = ("risky-first-deposit", "YaxisVault.deposit")
    answers.scenario[key] = True
    answers.property[key] = True
    answers.recognition[key] = RFD_RECOGNITION
    return answers


def checkpoint_order_answers():
    answers = ScriptedAnswers(default_scenario=False)
    key = ("wrong-checkpoint-order", "StakerVault.transfer")
    answers.scenario[key] = True
    answers.property[key] = True
    answers.recognition[key] = WCO_RECOGNITION
    return answers


def run_replay(fixture, answers, tmp_path, name="t.jsonl"):
    root = fixture_path(fixture)
    transcript_path = str(tmp_path / name)
    config = replay_config(root, transcript_path, project_name=fixture)
    write_transcript(config, answers, transcript_path)
    config.validate()
    return scan(config)


def test_first_deposit_replay_confirms_exactly_one_finding(tmp_path):
    result = run_replay("first_deposit", first_deposit_answers(), tmp_path)
    confirmed = result.confirmed
    assert len(confirmed) == 1
    finding = confirmed[0]
    assert finding.rule_id == "risky-first-deposit"
    assert finding.contract == "YaxisVault" and finding.function == "deposit"
    spans = evidence_spans(finding)
    assert (8, 8) in spans and (9, 9) in spans


def test_first_deposit_patched_replay_yields_no_findings(tmp_path):
    """Same yes-answers; deleting the zero-supply branch kills the finding."""
    answers = first_deposit_answers()
    result = run_replay("first_deposit_patched", answers, tmp_path)
    assert result.confirmed == []
    rejected = [f for f in result.findings if f.verdict == "rejected"]
    assert any(f.rule_id == "risky-first-deposit" for f in rejected)


def test_checkpoint_order_replay_confirms_wrong_checkpoint_order(tmp_path):
    result = run_replay("checkpoint_order", checkpoint_order_answers(), tmp_path)
    confirmed = result.confirmed
    assert len(confirmed) == 1
    assert confirmed[0].rule_id == "wrong-checkpoint-order"
    assert confirmed[0].function == "transfer"


def test_checkpoint_order_patched_rejected_despite_yes_answers(tmp_path):
    result = run_replay("checkpoint_order_patched", checkpoint_order_answers(), tmp_path)
    assert result.confirmed == []
    rejected = [f for f in result.findings if f.rule_id == "wrong-checkpoint-order"]
    assert rejected and rejected[0].verdict == "rejected"
    assert rejected[0].check_verdicts[0].kind == "OC"


def test_scenario_no_means_no_finding(tmp_path):
    answers = ScriptedAnswers(default_scenario=False)
    result = run_replay("first_deposit", answers, tmp_path)
    assert result.findings == []
    assert result.stats["scenario_matched"] == 0
    assert result.stats["candidates_filtered"] > 0


def test_property_no_stops_candidate(tmp_path):
    answers = first_deposit_answers()
    answers.property[("risky-first-deposit", "YaxisVault.deposit")] = False
    result = run_replay("first_deposit", answers, tmp_path)
    assert result.findings == []
    assert result.stats["scenario_matched"] == 1
    assert result.stats["property_matched"] == 0


def test_unparseable_scenario_skips_candidate(tmp_path):
    answers = first_deposit_answers()
    answers.scenario[("risky-first-deposit", "YaxisVault.deposit")] = "I think so"
    result = run_replay("first_deposit", answers, tmp_path)
    skipped = [f for f in result.findings if f.verdict == "skipped"]
    assert len(skipped) == 1
    assert skipped[0].reason == "llm-format"
    assert result.confirmed == []
    # the authored transcript holds only what the replay reads
    transcript = Transcript.load(str(tmp_path / "t.jsonl"))
    assert set(transcript.entries) == {e.key for e in result.exchanges}


def test_recognition_ghost_variable_aborts(tmp_path):
    answers = first_deposit_answers()
    answers.recognition[("risky-first-deposit", "YaxisVault.deposit")] = {
        "VariableA": ("ghostVar", "not in the code"),
        "VariableB": ("totalSupply", "d"),
        "VariableC": ("_amount", "d"),
    }
    result = run_replay("first_deposit", answers, tmp_path)
    assert result.confirmed == []
    rejected = [f for f in result.findings if f.verdict == "rejected"]
    assert rejected and rejected[0].reason.startswith("recognition abort")


RFD_KEY = ("risky-first-deposit", "YaxisVault.deposit")


def _answers(fixture="first_deposit", **stage):
    """first_deposit_answers with ``stage`` values for YaxisVault.deposit."""
    answers = first_deposit_answers()
    for name, value in stage.items():
        getattr(answers, name)[RFD_KEY] = value
    return fixture, answers


# exit -> (fixture and answers, scan options, verdict or None for no
# finding, reason prefix, transcript keys, scenario_matched, property_matched);
# a garbled answer is asked twice, and both attempts are cited
CANDIDATE_EXITS = {
    "too-large": (_answers(), {"token_budget": 10}, "skipped", "too large: ", 0, 0, 0),
    "scenario-no": (_answers(scenario=False), {}, None, None, 0, 0, 0),
    "property-no": (_answers(property=False), {}, None, None, 0, 1, 0),
    "scenario-garbage": (_answers(scenario="I think so"), {}, "skipped", "llm-format", 2, 0, 0),
    "property-garbage": (_answers(property="maybe"), {}, "skipped", "llm-format", 3, 1, 0),
    "recognition-garbage": (_answers(recognition="{not json"), {},
                            "skipped", "llm-format", 4, 1, 1),
    "recognition-abort": (
        _answers(recognition={**RFD_RECOGNITION, "VariableA": ("ghostVar", "not in the code")}),
        {}, "rejected", "recognition abort: VariableA: ", 3, 1, 1),
    "check-rejected": (_answers("first_deposit_patched"), {}, "rejected", "", 3, 1, 1),
    "confirmed": (_answers(), {}, "confirmed", "", 3, 1, 1),
}


@pytest.mark.parametrize("exit_name", list(CANDIDATE_EXITS))
def test_every_candidate_exit(tmp_path, exit_name):
    """One (rule, function) pair through each way out of the candidate path.

    Every other candidate of the fixture answers scenario No, so the
    stage counters are the pair's own.
    """
    (fixture, answers), options, verdict, reason, keys, scenario, prop = \
        CANDIDATE_EXITS[exit_name]
    transcript_path = str(tmp_path / "t.jsonl")
    config = replay_config(fixture_path(fixture), transcript_path,
                           project_name=fixture, **options)
    write_transcript(config, answers, transcript_path)
    result = scan(config)
    found = [f for f in result.findings if (f.rule_id, f.function_id) == RFD_KEY]
    if verdict is None:
        assert found == []
    else:
        [finding] = found
        assert finding.verdict == verdict
        assert finding.reason.startswith(reason)
        assert (finding.reason == "") == (reason == "")
        assert len(finding.transcript_keys) == keys
        assert bool(finding.check_verdicts) == (exit_name in ("check-rejected", "confirmed"))
    assert result.stats["scenario_matched"] == scenario
    assert result.stats["property_matched"] == prop


def test_replay_miss_fails_loudly(tmp_path):
    root = fixture_path("first_deposit")
    transcript_path = str(tmp_path / "empty.jsonl")
    with open(transcript_path, "w", encoding="utf-8"):
        pass
    config = replay_config(root, transcript_path)
    with pytest.raises(ReplayMiss):
        scan(config)


@pytest.mark.parametrize("field, value, message", [
    ("transcript_path", "missing.jsonl", "transcript not found"),
    ("mode", "bogus", "mode must be one of"),
    ("whitelist_path", "missing.txt", "whitelist not found"),
    ("token_budget", -5, "token_budget must not be negative"),
])
def test_scan_validates_its_config_before_parsing(tmp_path, monkeypatch, field, value, message):
    def parse(src):
        raise AssertionError(f"{src.path} parsed before the config was validated")

    monkeypatch.setattr(pipeline, "parse_source", parse)
    transcript_path = tmp_path / "t.jsonl"
    transcript_path.write_text("", encoding="utf-8")
    config = replay_config(fixture_path("first_deposit"), str(transcript_path))
    setattr(config, field, str(tmp_path / value) if field.endswith("_path") else value)
    with pytest.raises(ConfigError, match=message):
        scan(config)


def test_a_broken_transcript_is_reported_before_parsing(tmp_path, monkeypatch):
    def parse(src):
        raise AssertionError(f"{src.path} parsed before the transcript was loaded")

    transcript_path = tmp_path / "t.jsonl"
    config = replay_config(fixture_path("first_deposit"), str(transcript_path),
                           project_name="first_deposit")
    write_transcript(config, first_deposit_answers(), str(transcript_path))
    lines = transcript_path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(lines) > 3
    transcript_path.write_text("".join(lines[:2]) + lines[2][:40], encoding="utf-8")
    monkeypatch.setattr(pipeline, "parse_source", parse)
    with pytest.raises(TranscriptError) as raised:
        scan(config)
    assert str(raised.value).startswith(f"{transcript_path}:3: not a transcript entry")


def test_a_scan_handed_a_gateway_needs_no_api_key_or_transcript(monkeypatch):
    monkeypatch.delenv("SOLSCOUT_API_KEY", raising=False)
    config = replay_config(fixture_path("first_deposit"), "")
    config.mode = "record"
    with pytest.raises(ConfigError, match="transcript path"):
        scan(config)
    gateway = LlmGateway(scripted(scripted_answerer(first_deposit_answers(),
                                                    load_rules(config.rules_dir))))
    assert [f.function_id for f in scan(config, gateway).confirmed] == ["YaxisVault.deposit"]


def test_too_deep_file_is_a_parse_failure_and_the_scan_goes_on(tmp_path):
    contracts = tmp_path / "project" / "contracts"
    contracts.mkdir(parents=True)
    with open(fixture_path("first_deposit", "contracts", "Vault.sol"), encoding="utf-8") as fh:
        (contracts / "Vault.sol").write_text(fh.read(), encoding="utf-8")
    deep = "(" * 2000 + "a" + ")" * 2000
    (contracts / "Deep.sol").write_text(
        "contract Deep {\n    function g() internal {}\n    function f() public { x = %s; }\n}\n"
        % deep, encoding="utf-8")
    transcript_path = str(tmp_path / "t.jsonl")
    config = replay_config(str(tmp_path / "project"), transcript_path)
    write_transcript(config, first_deposit_answers(), transcript_path)
    result = scan(config)
    [[path, message]] = result.meta["parse_failures"]
    assert path == "contracts/Deep.sol"
    assert message == "contracts/Deep.sol:3:5: nesting too deep"  # where f starts
    assert [f.function_id for f in result.confirmed] == ["YaxisVault.deposit"]


def test_a_too_deep_deferred_body_is_one_opaque_statement(tmp_path):
    """Only an entry point's parse failure drops its file; see the test above."""
    contracts = tmp_path / "contracts"
    contracts.mkdir()
    deep = "x = %s + 1;" % ("(" * 2000 + "a" + ")" * 2000)
    (contracts / "Deep.sol").write_text(
        "contract Deep {\n"
        "    function f() public { g(); }\n"
        "    function g() internal {\n"
        "        %s\n"
        "    }\n"
        "}\n" % deep, encoding="utf-8")
    prepared = prepare_scan(replay_config(str(tmp_path), ""))
    assert prepared.parse_failures == []
    assert [prepared.graph.id_of(fn) for fn in prepared.scannable] == ["Deep.f", "Deep.g"]
    [stmt] = prepared.functions[1].body
    assert (stmt.kind, stmt.raw, stmt.span) == ("opaque", deep, (4, 4))


def test_rejection_monotonicity_stage_counts(tmp_path):
    """confirmed <= recognized <= property <= scenario <= filtered."""
    result = run_replay("first_deposit", first_deposit_answers(), tmp_path)
    s = result.stats
    assert s["confirmed"] <= s["recognized"] <= s["property_matched"] \
        <= s["scenario_matched"] <= s["candidates_filtered"]


def test_replay_reports_are_byte_identical(tmp_path):
    answers = first_deposit_answers()
    first = run_replay("first_deposit", answers, tmp_path, "a.jsonl")
    second = run_replay("first_deposit", answers, tmp_path, "a.jsonl")
    assert first.report("json") == second.report("json")
    assert first.report("markdown") == second.report("markdown")


def test_record_then_replay_identical_findings(tmp_path, monkeypatch, serve):
    """Record through a scripted provider, then replay the written file."""
    monkeypatch.setenv("SOLSCOUT_API_KEY", "fake")
    root = fixture_path("first_deposit")
    transcript_path = str(tmp_path / "recorded.jsonl")

    seed_config = replay_config(root, transcript_path, project_name="first_deposit")
    oracle_transcript = build_transcript(seed_config, first_deposit_answers())
    server = serve(by_prompt(oracle_transcript))

    record_config = replay_config(root, transcript_path, project_name="first_deposit")
    record_config.mode = "record"
    record_config.provider.endpoint = server.url
    recorded = scan(record_config)
    # the provider knew every prompt the scan sent
    assert recorded.provider_failures == []
    assert len(server.requests) == len(recorded.exchanges)

    replay = replay_config(root, transcript_path, project_name="first_deposit")
    replay.validate()
    replayed = scan(replay)

    rec_doc = json.loads(recorded.report("json"))["findings"]
    rep_doc = json.loads(replayed.report("json"))["findings"]
    assert rec_doc == rep_doc
    assert len(replayed.confirmed) == 1


def _record_small_corpus(tmp_path, spoil):
    """Record a scan of ``build_corpus(1)``, then replay its transcript.

    ``spoil(purpose, rule_id, function_id)`` may raise, or return a reply
    to give instead of the honest one; None keeps the honest reply.
    """
    root = str(tmp_path / "corpus")
    cases = build_corpus(variants=1)
    write_corpus(root, cases)
    config = replay_config(root, str(tmp_path / "t.jsonl"), project_name="corpus")
    honest = scripted_answerer(corpus_answers(cases), load_rules(config.rules_dir))

    def answer(purpose, rule_id, function_id, user):
        reply = spoil(purpose, rule_id, function_id)
        return honest(purpose, rule_id, function_id, user) if reply is None else reply

    recorded = scan(config, LlmGateway(scripted(answer), config.transcript_path))
    return config, recorded, scan(config)


def _assert_replays_the_record(recorded, replayed):
    assert len(replayed.exchanges) == len(recorded.exchanges)
    assert replayed.ledger.tokens_in == recorded.ledger.tokens_in
    assert replayed.ledger.tokens_out == recorded.ledger.tokens_out
    rec_doc = json.loads(recorded.report("json"))["findings"]
    assert json.loads(replayed.report("json"))["findings"] == rec_doc


def test_a_retried_answer_replays_with_the_recorded_ledger(tmp_path):
    """The first property answer is garbled once; its retry is answered.

    The garbled attempt is charged, so the pair's finding cites it too.
    """
    garbled = []

    def spoil(purpose, rule_id, function_id):
        if purpose == "property" and not garbled:
            garbled.append((rule_id, function_id))
            return "mumble"
        return None

    _config, recorded, replayed = _record_small_corpus(tmp_path, spoil)
    assert recorded.provider_failures == []
    assert len({e.key for e in recorded.exchanges}) == len(recorded.exchanges)
    _assert_replays_the_record(recorded, replayed)
    [pair] = garbled
    made = ["|".join(e.key) for e in recorded.exchanges if (e.rule_id, e.function_id) == pair]
    assert [key.split("|")[0] for key in made] == \
        ["scenario", "property", "property", "recognition"]
    assert made[2].endswith("|retry1")
    for result in (recorded, replayed):
        [finding] = [f for f in result.findings if (f.rule_id, f.function_id) == pair]
        assert finding.transcript_keys == made


def test_a_provider_rejected_query_replays_as_the_same_skip(tmp_path):
    """The provider rejects the 3rd query; the transcript records it and replays the skip."""
    calls = []

    def spoil(purpose, rule_id, function_id):
        calls.append((rule_id, function_id))
        if len(calls) == 3:
            raise ProviderError("provider returned 400: overloaded")
        return None

    config, recorded, replayed = _record_small_corpus(tmp_path, spoil)
    [skip] = recorded.provider_failures
    assert (skip.rule_id, skip.function_id) == calls[2]
    assert skip.reason == "provider-error: provider returned 400: overloaded"
    _assert_replays_the_record(recorded, replayed)
    # the rejected query is an entry of its own, not an exchange: nothing charged
    entries = Transcript.load(config.transcript_path).entries.values()
    assert [(e.rule_id, e.function_id, e.error) for e in entries if e.error] == \
        [(*calls[2], "provider returned 400: overloaded")]
    assert len(entries) == len(recorded.exchanges) + 1


def test_an_unavailable_provider_is_not_recorded(tmp_path):
    """A failure every query would meet stops the scan and leaves no entry to replay."""
    calls = []

    def spoil(purpose, rule_id, function_id):
        calls.append(purpose)
        if len(calls) == 3:
            raise ProviderUnavailable("provider returned 401: bad key")
        return None

    with pytest.raises(ProviderUnavailable):
        _record_small_corpus(tmp_path, spoil)
    entries = Transcript.load(str(tmp_path / "t.jsonl")).entries.values()
    assert len(entries) == 2 and not any(e.error for e in entries)


def test_answerers_compose_a_transcript_then_the_provider_on_a_miss(tmp_path, monkeypatch,
                                                                     serve):
    """A record scan that replays half of a transcript asks the provider only for the rest."""
    monkeypatch.setenv("SOLSCOUT_API_KEY", "fake")
    root = fixture_path("first_deposit")
    oracle_path = tmp_path / "oracle.jsonl"
    oracle = replay_config(root, str(oracle_path), project_name="first_deposit")
    write_transcript(oracle, first_deposit_answers(), str(oracle_path))
    half_path = tmp_path / "half.jsonl"
    half_path.write_text("".join(oracle_path.read_text(encoding="utf-8")
                                 .splitlines(keepends=True)[::2]), encoding="utf-8")
    full, half = Transcript.load(str(oracle_path)), Transcript.load(str(half_path))
    server = serve(by_prompt(full))
    record = replay_config(root, str(tmp_path / "resumed.jsonl"), project_name="first_deposit")
    record.mode = "record"
    record.provider.endpoint = server.url
    provider = HttpProvider(record.provider)

    def resume(asked, system, user):
        try:
            return half.answer(asked, system, user)
        except ReplayMiss:
            return provider(asked, system, user)

    scan(record, LlmGateway(resume, record.transcript_path))
    asked = sorted(prompt_sha256(*(m["content"] for m in request.json()["messages"]))
                   for request in server.requests)
    missing = sorted(e.prompt_sha256 for key, e in full.entries.items() if key not in half.entries)
    assert 0 < len(asked) < len(full) and asked == missing
    resumed = replay_config(root, record.transcript_path, project_name="first_deposit")
    assert scan(resumed).report("json") == scan(oracle).report("json")


def test_a_provider_rejected_http_query_replays_as_the_same_skip(tmp_path, monkeypatch, serve):
    """The provider answers 400 to every property query; replay skips the same pairs."""
    monkeypatch.setenv("SOLSCOUT_API_KEY", "fake")
    root = fixture_path("first_deposit")
    transcript_path = str(tmp_path / "recorded.jsonl")
    oracle = build_transcript(replay_config(root, transcript_path), first_deposit_answers())
    honest = by_prompt(oracle)

    def respond(request):
        if request.json()["messages"][1]["content"].startswith("Does the following"):
            return 400, "no property queries today"
        return honest(request)

    server = serve(respond)
    record = replay_config(root, transcript_path, project_name="first_deposit")
    record.mode = "record"
    record.provider.endpoint = server.url
    recorded = scan(record)
    assert recorded.provider_failures
    assert all(f.reason == "provider-error: provider returned 400: no property queries today"
               for f in recorded.provider_failures)
    replayed = scan(replay_config(root, transcript_path, project_name="first_deposit"))
    _assert_replays_the_record(recorded, replayed)


def test_a_failing_provider_costs_one_candidate(corpus_config, tmp_path):
    """The provider fails the 3rd query; only that query's pair changes."""
    clean = scan(corpus_config)
    honest = scripted_answerer(corpus_answers(build_corpus(variants=3)),
                               load_rules(corpus_config.rules_dir))
    calls = []

    def answer(purpose, rule_id, function_id, user):
        calls.append((rule_id, function_id))
        if len(calls) == 3:
            raise ProviderError("provider returned 400: overloaded")
        return honest(purpose, rule_id, function_id, user)

    config = replay_config(corpus_config.project_root, str(tmp_path / "t.jsonl"),
                           project_name="corpus")
    config.mode = "record"
    config.provider.max_in_flight = 1
    faulty = scan(config, LlmGateway(scripted(answer)))

    failed = calls[2]
    expected = _verdicts(clean)
    expected[failed] = ("skipped", "provider-error: provider returned 400: overloaded")
    assert _verdicts(faulty) == expected
    assert [(f.rule_id, f.function_id) for f in faulty.provider_failures] == [failed]
    assert clean.provider_failures == []


@pytest.mark.parametrize("status, attempts", [(401, 1), (503, HttpProvider.RETRIES)])
def test_a_provider_that_fails_every_query_stops_the_scan(corpus_config, tmp_path, monkeypatch,
                                                          serve, status, attempts):
    monkeypatch.setenv("SOLSCOUT_API_KEY", "secret")

    def refuse(request):
        time.sleep(0.05)  # the pool stops before a worker can start a third query
        return status, ""

    server = serve(refuse)
    config = replay_config(corpus_config.project_root, str(tmp_path / "t.jsonl"),
                           project_name="corpus")
    config.mode = "record"
    config.provider.endpoint = server.url
    config.provider.max_in_flight = 2
    gateway = LlmGateway(HttpProvider(config.provider, sleeper=lambda _s: None),
                         config.transcript_path)
    with pytest.raises(ProviderUnavailable, match=f"provider returned {status}"):
        scan(config, gateway)
    assert gateway._record_fh is None  # the stopped scan closed its transcript
    # the query that failed, the other worker's, and one more each may have started
    assert len(server.requests) <= 4 * attempts
    assert scan(corpus_config).stats["candidates_filtered"] > 4


def _verdicts(result) -> dict:
    return {(f.rule_id, f.function_id): (f.verdict, f.reason) for f in result.findings}


# ``deposit`` has a caller, ``depositTwice`` has none; both pass both rules' filter
POOL = """pragma solidity ^0.8.0;

contract Pool {
    uint256 total;

    function deposit(uint256 amount) public {
        total += amount;
    }

    function depositTwice(uint256 amount) public {
        deposit(amount);
        deposit(amount);
    }
}
"""


def _caller_rules_config(tmp_path):
    """``Pool`` under two rules that differ only in whether a context holds callers."""
    rules_dir = tmp_path / "rules"
    rules_dir.mkdir()
    for rule_id, callers in (("narrow", "false"), ("wide", "true")):
        (rules_dir / f"{rule_id}.yaml").write_text(
            f'schema: 1\nid: {rule_id}\nscenarios: ["{rule_id} scenario"]\n'
            f'property: "{rule_id} property"\n'
            'filters:\n  - kind: FNK\n    keywords: ["deposit"]\n'
            f"context: {{ callers: {callers}, callees: true }}\n", encoding="utf-8")
    contracts = tmp_path / "project" / "contracts"
    contracts.mkdir(parents=True)
    (contracts / "Pool.sol").write_text(POOL, encoding="utf-8")
    return replay_config(str(tmp_path / "project"), str(tmp_path / "t.jsonl"),
                         project_name="pool", rules_dir=str(rules_dir))


def test_rules_share_a_scenario_query_only_where_their_contexts_are_the_same(tmp_path):
    config = _caller_rules_config(tmp_path)
    write_transcript(config, ScriptedAnswers(default_scenario=True), config.transcript_path)
    result = scan(config)
    assert sorted((e.rule_id, e.function_id) for e in result.exchanges
                  if e.purpose == "scenario") == [
        ("narrow", "Pool.deposit"), ("narrow,wide", "Pool.depositTwice"), ("wide", "Pool.deposit")]
    assert result.stats["candidates_filtered"] == result.stats["scenario_matched"] == 4
    with open(config.transcript_path, encoding="utf-8") as fh:
        [shared] = [entry["user"] for entry in map(json.loads, fh) if "," in entry["rule_id"]]
    assert '"1": narrow scenario?\n"2": wide scenario?' in shared
    assert "function deposit(" in shared and "function depositTwice(" in shared
    [shared_key] = [k for k in _keys(result, "narrow", "Pool.depositTwice") if "," in k]
    assert _keys(result, "wide", "Pool.depositTwice")[0] == shared_key
    assert not any("," in k for k in _keys(result, "wide", "Pool.deposit"))


def _keys(result, rule_id, function_id) -> list:
    [finding] = [f for f in result.findings if (f.rule_id, f.function_id) == (rule_id, function_id)]
    return finding.transcript_keys


@pytest.mark.parametrize("failure, reason, cited", [
    ("garbage", "llm-format", 2),
    ("rejected", "provider-error: provider returned 400: overloaded", 0),
])
def test_a_failed_shared_scenario_query_skips_exactly_its_pairs(tmp_path, failure, reason, cited):
    """Garbage (twice, so both attempts are cited) or a rejection on the shared query."""
    config = _caller_rules_config(tmp_path)
    honest = scripted_answerer(ScriptedAnswers(default_scenario=True),
                               load_rules(config.rules_dir))

    def answer(purpose, rule_id, function_id, user):
        if "," not in rule_id:
            return honest(purpose, rule_id, function_id, user)
        if failure == "rejected":
            raise ProviderError("provider returned 400: overloaded")
        return "I think so"

    recorded = scan(config, LlmGateway(scripted(answer), config.transcript_path))
    assert _verdicts(recorded) == {
        ("narrow", "Pool.deposit"): ("confirmed", ""),
        ("narrow", "Pool.depositTwice"): ("skipped", reason),
        ("wide", "Pool.deposit"): ("confirmed", ""),
        ("wide", "Pool.depositTwice"): ("skipped", reason),
    }
    for rule_id in ("narrow", "wide"):
        keys = _keys(recorded, rule_id, "Pool.depositTwice")
        assert len(keys) == cited and all(k.startswith("scenario|narrow,wide|") for k in keys)
    _assert_replays_the_record(recorded, scan(config))


def test_the_acceptance_corpus_asks_one_scenario_query_per_function_and_context(corpus_config):
    result = scan(corpus_config)
    scenario = [e for e in result.exchanges if e.purpose == "scenario"]
    assert result.stats["candidates_filtered"] == 48
    assert (len(result.exchanges), len(scenario)) == (114, 42)
    shared = {"|".join(e.key): e.function_id for e in scenario if "," in e.rule_id}
    assert len(shared) == 6
    assert {key.split("|")[1] for key in shared} == {"price-manipulation-by-buying-tokens,slippage"}
    cited = [f for f in result.findings if f.function_id in shared.values()]
    assert cited and all(f.transcript_keys[0] in shared for f in cited)


def test_a_function_assembles_one_context_per_distinct_policy(corpus_config, monkeypatch):
    """The 6 ``swapTokens`` functions pass two rules with the same policy."""
    assembled = Counter()
    assemble = pipeline.assemble_context

    def counting(fn, graph, policy, *args):
        assembled[graph.id_of(fn), policy] += 1
        return assemble(fn, graph, policy, *args)

    monkeypatch.setattr(pipeline, "assemble_context", counting)
    result = scan(corpus_config)
    assert result.stats["candidates_filtered"] == 48
    assert (sum(assembled.values()), len(assembled)) == (42, 42)


def test_findings_keep_the_rule_major_order_of_their_pairs(corpus_config):
    """Every pair is answered Yes, so every pair is a finding."""
    prepared = prepare_scan(corpus_config)
    acl = set(corpus_config.acl_modifiers)
    pairs = [(rule.id, prepared.graph.id_of(fn)) for rule in prepared.rules
             for fn in candidates_for_rule(prepared.scannable, rule, acl)]
    first_seen = {}
    for index, (_rule_id, fid) in enumerate(pairs):
        first_seen.setdefault(fid, index)
    assert sorted(pairs, key=lambda pair: first_seen[pair[1]]) != pairs  # not function-major
    answer = scripted(scripted_answerer(ScriptedAnswers(default_scenario=True), prepared.rules))
    result = scan(corpus_config, LlmGateway(answer))
    assert [(f.rule_id, f.function_id) for f in result.findings] == pairs


def test_a_record_scan_with_two_in_flight_replays_to_the_same_findings(corpus_config, tmp_path):
    config = replay_config(corpus_config.project_root, str(tmp_path / "t.jsonl"),
                           project_name="corpus")
    record = replace(config, mode="record", provider=replace(config.provider, max_in_flight=2))
    answer = scripted(scripted_answerer(corpus_answers(build_corpus(variants=3)),
                                        load_rules(config.rules_dir)))
    recorded = scan(record, LlmGateway(answer, config.transcript_path))
    assert any("," in e.rule_id for e in recorded.exchanges)
    _assert_replays_the_record(recorded, scan(config))
    assert _verdicts(recorded) == _verdicts(scan(corpus_config))


def test_ledger_totals_match_transcript_sums(tmp_path):
    """Oracle: independent summation over the transcript file."""
    answers = first_deposit_answers()
    root = fixture_path("first_deposit")
    transcript_path = str(tmp_path / "t.jsonl")
    config = replay_config(root, transcript_path, project_name="first_deposit")
    write_transcript(config, answers, transcript_path)
    config.validate()
    result = scan(config)

    recorded = {}
    with open(transcript_path, encoding="utf-8") as fh:
        for line in fh:
            raw = json.loads(line)
            recorded[(raw["purpose"], raw["rule_id"], raw["function_id"],
                      raw["prompt_sha256"])] = (raw["tokens_in"], raw["tokens_out"])

    assert result.exchanges  # the scan served at least the scenario queries
    assert result.ledger.tokens_in == sum(e.tokens_in for e in result.exchanges)
    assert result.ledger.tokens_out == sum(e.tokens_out for e in result.exchanges)
    for exchange in result.exchanges:
        assert recorded[exchange.key] == (exchange.tokens_in, exchange.tokens_out)
    used_keys = {tuple(k.split("|")) for f in result.findings for k in f.transcript_keys}
    assert used_keys <= set(recorded)


def test_context_overflow_skips_candidate(tmp_path):
    root = fixture_path("first_deposit")
    transcript_path = str(tmp_path / "t.jsonl")
    with open(transcript_path, "w", encoding="utf-8"):
        pass
    config = replay_config(root, transcript_path, project_name="first_deposit", token_budget=10)
    config.validate()
    result = scan(config)  # every candidate overflows before any LLM call
    assert result.confirmed == []
    skipped = [f for f in result.findings if f.verdict == "skipped"]
    assert skipped
    assert all(f.reason.startswith("too large") for f in skipped)


def test_report_meta_records_analysis_choices(tmp_path):
    result = run_replay("first_deposit", first_deposit_answers(), tmp_path)
    assert result.meta["context_depth"] == "direct-neighbors"
    assert "non-comment" in result.meta["loc_counting"]
    assert result.meta["config_fingerprint"]
    assert result.meta["rules"] == sorted(result.meta["rules"])


def test_prepare_scan_counts_first_deposit(tmp_path):
    config = replay_config(fixture_path("first_deposit"), str(tmp_path / "x.jsonl"))
    prepared = prepare_scan(config)
    assert len(prepared.layout.included) == 1
    names = {fn.name for fn in prepared.scannable}
    assert "deposit" in names
    assert "_mint" in names  # internal but reachable from deposit


@pytest.fixture
def gc_state():
    """Run with GC enabled and nothing frozen; restore whatever was set."""
    enabled = gc.isenabled()
    gc.enable()
    gc.unfreeze()
    yield
    gc.unfreeze()
    if not enabled:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_scan_restores_gc_state(tmp_path, gc_state, enabled):
    if not enabled:
        gc.disable()
    before = (gc.isenabled(), gc.get_freeze_count())
    run_replay("first_deposit", first_deposit_answers(), tmp_path)
    assert (gc.isenabled(), gc.get_freeze_count()) == before


@pytest.mark.parametrize("enabled", [True, False])
def test_scan_restores_gc_state_when_prepare_raises(tmp_path, gc_state, enabled):
    if not enabled:
        gc.disable()
    before = (gc.isenabled(), gc.get_freeze_count())
    rules_dir = tmp_path / "rules"
    rules_dir.mkdir()
    (rules_dir / "broken.yaml").write_text("id: [\n", encoding="utf-8")
    transcript_path = tmp_path / "t.jsonl"
    transcript_path.write_text("", encoding="utf-8")
    config = replay_config(fixture_path("first_deposit"), str(transcript_path),
                           rules_dir=str(rules_dir))
    with pytest.raises(RuleParseError):  # raised by prepare_scan, after the parse
        scan(config)
    assert (gc.isenabled(), gc.get_freeze_count()) == before


@pytest.mark.parametrize("enabled", [True, False])
def test_the_replay_transcript_loads_with_gc_off_and_a_broken_one_leaves_gc_state(
        tmp_path, gc_state, monkeypatch, enabled):
    if not enabled:
        gc.disable()
    before = (gc.isenabled(), gc.get_freeze_count())
    load = Transcript.load.__func__
    collecting = []  # whether cyclic GC was on at each load

    def recording(cls, path):
        collecting.append(gc.isenabled())
        return load(cls, path)

    monkeypatch.setattr(Transcript, "load", classmethod(recording))
    run_replay("first_deposit", first_deposit_answers(), tmp_path)
    assert collecting == [False]
    assert (gc.isenabled(), gc.get_freeze_count()) == before

    transcript_path = tmp_path / "t.jsonl"
    transcript_path.write_text("{\n", encoding="utf-8")
    config = replay_config(fixture_path("first_deposit"), str(transcript_path))
    with pytest.raises(TranscriptError):
        scan(config)
    assert collecting == [False, False]
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_scan_keeps_callers_frozen_objects_frozen(tmp_path, gc_state):
    sentinel = ["frozen by the caller"]
    gc.freeze()
    frozen = gc.get_freeze_count()
    assert frozen > 0
    run_replay("first_deposit", first_deposit_answers(), tmp_path)
    assert gc.isenabled()
    assert gc.get_freeze_count() == frozen
    # the permanent generation is invisible to get_objects()
    assert not any(obj is sentinel for obj in gc.get_objects())


def _assert_scan_frees_parsed_functions(tmp_path, monkeypatch):
    records = []
    original = pipeline.prepare_scan

    def spy(config):
        prepared = original(config)
        records.extend(weakref.ref(fn) for fn in prepared.functions)
        return prepared

    monkeypatch.setattr(pipeline, "prepare_scan", spy)
    result = run_replay("first_deposit", first_deposit_answers(), tmp_path)
    assert records and result.confirmed
    # no collection, here or in scan(): reference counting alone must do it
    assert [ref for ref in records if ref() is not None] == []


def test_scan_frees_its_parsed_functions_on_return(tmp_path, gc_state, monkeypatch):
    """The AST holds no reference cycle, so refcounting frees it with GC on."""
    _assert_scan_frees_parsed_functions(tmp_path, monkeypatch)


def test_scan_frees_its_parsed_functions_on_return_with_gc_off(tmp_path, gc_state, monkeypatch):
    """The same holds when the caller has cyclic GC disabled."""
    gc.disable()
    _assert_scan_frees_parsed_functions(tmp_path, monkeypatch)


@pytest.fixture(scope="module")
def corpus_config(tmp_path_factory):
    """The acceptance corpus (2 fillers) with its oracle transcript."""
    root = str(tmp_path_factory.mktemp("corpus"))
    cases = build_corpus(variants=3)
    write_corpus(root, cases, filler_files=2)
    transcript_path = os.path.join(root, "transcript.jsonl")
    config = replay_config(root, transcript_path, project_name="corpus")
    write_transcript(config, corpus_answers(cases), transcript_path)
    return config


def test_scan_leaves_no_cyclic_garbage(corpus_config, gc_state):
    gc.collect()
    gc.disable()
    prepared = prepare_scan(corpus_config)
    assert prepared.graph.edges
    del prepared
    assert gc.collect() == 0
    result = scan(corpus_config)
    assert result.confirmed
    del result
    assert gc.collect() == 0


# Heap a prepared scan may keep per KLoC of the 1x acceptance corpus. It
# keeps 0.16 MB; parsing every function body with its file, even those
# the scan never reads, would keep 0.73 MB and fail.
RETAINED_MB_PER_KLOC = 0.21


def test_prepared_scan_heap_per_kloc(tmp_path, gc_state):
    write_corpus(str(tmp_path), build_corpus(variants=1), filler_files=60)
    config = replay_config(str(tmp_path), str(tmp_path / "t.jsonl"))
    # Intern the corpus's names first: the interpreter's table of interned
    # strings is shared by the whole process and grows by doubling, so
    # whether it resized inside the measured parse would depend on which
    # tests ran before.
    prepare_scan(config)
    gc.collect()
    gc.disable()  # as in scan(): nothing is collected while the project is parsed
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        prepared = prepare_scan(config)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    kloc = count_kloc(prepared.layout.included)
    assert kloc > 12
    assert retained / 1e6 / kloc <= RETAINED_MB_PER_KLOC, \
        f"{retained / 1e6:.1f} MB retained over {kloc:.1f} KLoC"


# Bytes of a replay scan's finding and check-verdict records, per finding
# of the acceptance corpus. Slotted records take 343. An instance
# dictionary on findings takes 391, on check verdicts 399, on both 447,
# and each fails. (Everything a finding keeps, its strings and lists
# included, is about 1,980 bytes against 2,080 with both.)
RECORD_BYTES_PER_FINDING = 365


def test_finding_records_bytes_per_finding(corpus_config, gc_state):
    findings = scan(corpus_config).findings
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        # the same records built again, sharing every field value but the verdict list
        records = [replace(f, check_verdicts=[replace(v) for v in f.check_verdicts])
                   for f in findings]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(records) == 36
    assert held / len(records) <= RECORD_BYTES_PER_FINDING, \
        f"{held / len(records):.0f} bytes per finding"


# Traced peak of rendering the markdown report, over the size of the text.
# Joining its lines once keeps it at 1.9; copying the joined text to strip
# it and again to end it with a newline raised it to 2.9.
MARKDOWN_PEAK_PER_TEXT = 2.4


def test_rendering_the_markdown_report_copies_no_whole_text(corpus_config, gc_state):
    result = scan(corpus_config)
    result.report("markdown")
    gc.collect()
    tracemalloc.start()
    try:
        text = result.report("markdown")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= MARKDOWN_PEAK_PER_TEXT * sys.getsizeof(text), \
        f"peak {peak} bytes for a text of {sys.getsizeof(text)}"


def test_prepare_scan_parses_only_the_bodies_it_reads(tmp_path, monkeypatch):
    write_corpus(str(tmp_path), build_corpus(variants=1), filler_files=60)
    parses = Counter()
    parse_body = parser_module.parse_body

    def counting_parse_body(fn):
        parses[id(fn)] += 1
        return parse_body(fn)

    monkeypatch.setattr(parser_module, "parse_body", counting_parse_body)
    prepared = prepare_scan(replay_config(str(tmp_path), ""))
    graph, reachable = prepared.graph, prepared.reach.reachable
    readers = reachable | {caller for fid in reachable for caller in graph.callers_of(fid)}
    parsed = [fn for fn in prepared.functions if fn.parsed_body is not None]
    assert len(prepared.functions) > 1000
    assert len(parsed) <= len(readers) == 18
    assert {graph.id_of(fn) for fn in parsed} <= readers
    assert parses and max(parses.values()) == 1


def test_scan_runs_no_collection(corpus_config, gc_state, monkeypatch):
    def collect(*args):
        raise AssertionError("scan() ran a garbage collection")

    monkeypatch.setattr(gc, "collect", collect)
    assert scan(corpus_config).confirmed


def _scan_and_line_indexes(root: str, monkeypatch, variants: int, filler_files: int):
    """A scan of the acceptance corpus's ``variants`` with ``filler_files`` fillers,
    answered as the corpus is, and the paths of the files it built a line index of."""
    cases = build_corpus(variants=variants)
    write_corpus(root, cases, filler_files=filler_files)
    config = replay_config(root, "")
    layouts = []
    discover = pipeline.discover_sources

    def recording_discover(*args):
        layouts.append(discover(*args))
        return layouts[-1]

    monkeypatch.setattr(pipeline, "discover_sources", recording_discover)
    answer = scripted(scripted_answerer(corpus_answers(cases), load_rules(config.rules_dir)))
    result = scan(config, LlmGateway(answer))
    (layout,) = layouts
    return result, {src.path for src in layout.included if "line_index" in vars(src)}


def test_a_scan_builds_no_line_index_for_a_file_whose_lines_it_never_reads(tmp_path, monkeypatch):
    """Spans are read from the line index when asked, so only a file whose
    statements become evidence builds one: never a filler of uncalled functions."""
    result, indexed = _scan_and_line_indexes(str(tmp_path), monkeypatch, 1, 4)
    assert result.confirmed and indexed
    assert indexed <= {finding.file for finding in result.findings}
    assert not any(path.startswith("contracts/Filler") for path in indexed)


def test_a_scan_of_the_acceptance_corpus_builds_no_line_index_for_its_fillers(tmp_path,
                                                                              monkeypatch):
    """The acceptance corpus with 60 fillers: the files with a finding build a
    line index, and none of the 1,200 filler functions' files does."""
    result, indexed = _scan_and_line_indexes(str(tmp_path), monkeypatch, 3, 60)
    assert indexed == {finding.file for finding in result.findings}
    assert len(result.confirmed) >= 15
    assert not any(path.startswith("contracts/Filler") for path in indexed)
