import json
import random
from dataclasses import dataclass
from unittest.mock import MagicMock, patch

import pytest

from solscout.errors import ProviderError, ReplayMiss, UnparseableAnswer
from solscout.gateway import (
    _first_json_object,
    LlmExchange,
    LlmGateway,
    ProviderConfig,
    RecognitionAbort,
    Transcript,
    build_property_prompt,
    build_recognition_prompt,
    build_scenario_prompt,
    estimate_tokens,
    parse_recognition_answer,
    parse_scenario_answer,
    parse_yes_no,
    system_prompt,
    validate_recognition,
)
from solscout.rules import load_rules, rule_for_id, shipped_rules_dir


@pytest.fixture(scope="module")
def rfd_rule():
    return rule_for_id(load_rules(shipped_rules_dir()), "risky-first-deposit")


def test_system_prompt_contents():
    text = system_prompt()
    assert "You are a smart contract auditor" in text
    assert "five times" in text
    assert system_prompt() == text  # constant


def test_scenario_prompt_shape(rfd_rule):
    code = "function deposit() public {}"
    prompt = build_scenario_prompt(rfd_rule.scenarios, code)
    assert '"1":' in prompt
    assert rfd_rule.scenarios[0] in prompt
    assert prompt.rstrip().endswith(code)


def test_scenario_prompt_numbers_all_scenarios():
    prompt = build_scenario_prompt(["first thing", "second thing"], "code")
    assert '"1": "Yes" or "No", "2": "Yes" or "No"' in prompt
    assert '"1": first thing?' in prompt
    assert '"2": second thing?' in prompt


def test_scenario_prompt_empty_code_still_well_formed(rfd_rule):
    prompt = build_scenario_prompt(rfd_rule.scenarios, "")
    assert '"1":' in prompt


def test_property_prompt_double_confirms(rfd_rule):
    prompt = build_property_prompt(rfd_rule, "code")
    assert rfd_rule.scenarios[0] in prompt
    assert "when the supply/liquidity is 0" in prompt
    assert 'Answer only "Yes" or "No".' in prompt


def test_recognition_prompt_sections(rfd_rule):
    prompt = build_recognition_prompt(rfd_rule.recognition, "code")
    for slot in ("VariableA", "VariableB", "VariableC"):
        assert f'starts with "{slot}:"' in prompt
    assert '"VariableA":{"Variable name":"Description"}' in prompt


def test_recognition_prompt_single_slot():
    @dataclass
    class Spec:
        questions: list

        @property
        def slots(self):
            return [s for s, _ in self.questions]

    prompt = build_recognition_prompt(Spec([("OnlySlot", "which?")]), "c")
    assert prompt.count('{"Variable name":"Description"}') == 1


def _scanned_first_json_object(text: str):
    """Reference: a hand-written brace and string scanner.

    From each ``{`` it finds the matching ``}`` (braces inside strings do
    not count) and returns the span as JSON if it decodes.
    """
    start = text.find("{")
    while start != -1:
        depth = 0
        in_str = False
        escaped = False
        for i in range(start, len(text)):
            ch = text[i]
            if in_str:
                if escaped:
                    escaped = False
                elif ch == "\\":
                    escaped = True
                elif ch == '"':
                    in_str = False
                continue
            if ch == '"':
                in_str = True
            elif ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    try:
                        return json.loads(text[start : i + 1])
                    except json.JSONDecodeError:
                        break
        start = text.find("{", start + 1)
    return None


FIRST_JSON_ANSWERS = [
    '{"1": "Yes", "2": "No"}',
    'Sure! Here it is:\n```json\n{"1": "Yes"}\n```',
    '```\n{"VariableA": {"_shares": "minted {share}"}}\n```',
    '{"1": "Yes"} and also {"2": "No"}',
    '{broken} {"1": "No"}',
    '{"a": "quote \\" inside", "b": {"c": [1, 2, {"d": null}]}}',
    '{"a": "backslash \\\\"} tail}',
    '{"a": "unterminated',
    '{{{"1": "Yes"}',
    '{"1": "Yes"',
    '}{"1": "No"}{',
    '"{\"1\": \"Yes\"}"',
    'no json at all',
    '',
    '{}',
    '{ "k" : [ "}" , "{" ] }',
]

_FUZZ_ALPHABET = '{}[]":,\\ ab1-.e\n'


def _mutate(rng: random.Random, text: str) -> str:
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        op = rng.randrange(3)
        pos = rng.randrange(len(chars) + 1)
        if op == 0 or not chars:
            chars.insert(pos, rng.choice(_FUZZ_ALPHABET))
        elif op == 1:
            del chars[min(pos, len(chars) - 1)]
        else:
            chars[min(pos, len(chars) - 1)] = rng.choice(_FUZZ_ALPHABET)
    return "".join(chars)


def test_first_json_object_matches_the_brace_scanner():
    rng = random.Random(20231)
    texts = list(FIRST_JSON_ANSWERS)
    texts += ["".join(rng.choice(_FUZZ_ALPHABET) for _ in range(rng.randint(0, 30)))
              for _ in range(3000)]
    texts += [_mutate(rng, rng.choice(FIRST_JSON_ANSWERS)) for _ in range(3000)]
    texts.append('{"a": ' + "[" * 100_000 + ' {"1": "Yes"}')  # deeper than the recursion limit
    for text in texts:
        assert _first_json_object(text) == _scanned_first_json_object(text), text
    assert _first_json_object(FIRST_JSON_ANSWERS[3]) == {"1": "Yes"}
    assert _first_json_object(FIRST_JSON_ANSWERS[4]) == {"1": "No"}
    assert _first_json_object(FIRST_JSON_ANSWERS[5])["a"] == 'quote " inside'
    assert _first_json_object(texts[-1]) == {"1": "Yes"}


def test_parse_scenario_answer_basic():
    assert parse_scenario_answer('{"1": "Yes", "2": "No"}', 2) == {1: True, 2: False}


def test_parse_scenario_answer_tolerates_prefix_and_missing():
    assert parse_scenario_answer('Sure! {"1":"yes"}', 1) == {1: True}
    assert parse_scenario_answer('{"2": "Yes"}', 2) == {1: False, 2: True}
    assert parse_scenario_answer('{"1": "maybe?"}', 1) == {1: False}


def test_parse_scenario_answer_unparseable():
    with pytest.raises(UnparseableAnswer):
        parse_scenario_answer("I think so", 1)


def test_parse_yes_no():
    assert parse_yes_no("Yes.") is True
    assert parse_yes_no("No") is False
    assert parse_yes_no("The answer is YES!") is True
    with pytest.raises(UnparseableAnswer):
        parse_yes_no("I think so")


def test_parse_recognition_answer():
    response = json.dumps({
        "VariableA": {"_shares": "total minted share"},
        "VariableB": {"totalSupply": "supply read"},
    })
    parsed = parse_recognition_answer(response, ["VariableA", "VariableB", "VariableC"])
    assert parsed["VariableA"] == ("_shares", "total minted share")
    assert "VariableC" not in parsed


@dataclass
class FakeContext:
    text: str


def test_validate_recognition_accepts_grounded_names():
    ctx = FakeContext("if (totalSupply() == 0) { _shares = _amount; }")
    answer = {"VariableB": ("totalSupply", "total LP supply")}
    out = validate_recognition(answer, ctx, ["VariableB"])
    assert out == {"VariableB": ("totalSupply", "total LP supply")}


def test_validate_recognition_aborts_on_ghost_and_empty():
    ctx = FakeContext("if (totalSupply() == 0) { }")
    ghost = validate_recognition({"VariableB": ("ghostVar", "x")}, ctx, ["VariableB"])
    assert isinstance(ghost, RecognitionAbort)
    empty = validate_recognition({"VariableB": ("totalSupply", "")}, ctx, ["VariableB"])
    assert isinstance(empty, RecognitionAbort)
    missing = validate_recognition({}, ctx, ["VariableB"])
    assert isinstance(missing, RecognitionAbort)


def test_validate_recognition_token_match_is_exact():
    ctx = FakeContext("uint mytotalSupplyX; totalSupplyCap = 1;")
    out = validate_recognition({"V": ("totalSupply", "d")}, ctx, ["V"])
    assert isinstance(out, RecognitionAbort)  # substrings of identifiers do not count


def test_estimate_tokens():
    assert estimate_tokens("") == 0
    assert estimate_tokens("x" * 400) == 100
    assert estimate_tokens("x" * 401) == 101


def _exchange(**kw):
    defaults = dict(
        purpose="scenario", rule_id="r", function_id="C.f",
        system=system_prompt(), user="ask", response='{"1":"Yes"}',
        tokens_in=10, tokens_out=3,
    )
    defaults.update(kw)
    return LlmExchange(**defaults)


def test_transcript_roundtrip(tmp_path):
    path = str(tmp_path / "t.jsonl")
    transcript = Transcript()
    transcript.append(_exchange())
    transcript.append(_exchange(purpose="property", response="Yes"))
    transcript.save(path)
    loaded = Transcript.load(path)
    assert len(loaded) == 2
    key = _exchange().key
    assert loaded.get(key).response == '{"1":"Yes"}'


def test_transcript_last_wins_on_duplicate_keys(tmp_path):
    path = str(tmp_path / "t.jsonl")
    first = _exchange(response="old")
    second = _exchange(response="new")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(first.to_json() + "\n" + second.to_json() + "\n")
    loaded = Transcript.load(path)
    assert len(loaded) == 1
    assert loaded.get(first.key).response == "new"


def test_replay_returns_recorded_exchange():
    transcript = Transcript()
    recorded = _exchange()
    transcript.append(recorded)
    gateway = LlmGateway(ProviderConfig(), mode="replay", transcript=transcript)
    result = gateway.complete("scenario", "r", "C.f", system_prompt(), "ask")
    assert result.response == recorded.response
    assert gateway.exchanges == [recorded]


def test_replay_miss_names_key():
    gateway = LlmGateway(ProviderConfig(), mode="replay", transcript=Transcript())
    with pytest.raises(ReplayMiss) as exc:
        gateway.complete("scenario", "r", "C.f", system_prompt(), "ask")
    assert exc.value.key[0] == "scenario"
    assert exc.value.key[1] == "r"


def _mock_response(status=200, content="Yes", usage=None):
    resp = MagicMock()
    resp.status_code = status
    resp.json.return_value = {
        "choices": [{"message": {"content": content}}],
        "usage": usage or {},
    }
    resp.text = content
    return resp


def test_live_mode_posts_two_message_conversation(monkeypatch):
    monkeypatch.setenv("SOLSCOUT_API_KEY", "secret")
    gateway = LlmGateway(ProviderConfig(temperature=0.0), mode="live")
    with patch("solscout.gateway.requests.post", return_value=_mock_response()) as post:
        exchange = gateway.complete("property", "r", "C.f", system_prompt(), "ask?")
    payload = post.call_args.kwargs["json"]
    assert [m["role"] for m in payload["messages"]] == ["system", "user"]
    assert len(payload["messages"]) == 2  # empty session: never any history
    assert payload["temperature"] == 0.0
    assert exchange.response == "Yes"
    assert exchange.tokens_in == estimate_tokens(system_prompt()) + estimate_tokens("ask?")


def test_live_mode_uses_provider_usage_when_reported(monkeypatch):
    monkeypatch.setenv("SOLSCOUT_API_KEY", "secret")
    gateway = LlmGateway(ProviderConfig(), mode="live")
    response = _mock_response(usage={"prompt_tokens": 42, "completion_tokens": 7})
    with patch("solscout.gateway.requests.post", return_value=response):
        exchange = gateway.complete("property", "r", "C.f", "s", "u")
    assert (exchange.tokens_in, exchange.tokens_out) == (42, 7)


def test_live_mode_requires_api_key(monkeypatch):
    monkeypatch.delenv("SOLSCOUT_API_KEY", raising=False)
    gateway = LlmGateway(ProviderConfig(), mode="live")
    with pytest.raises(ProviderError):
        gateway.complete("property", "r", "C.f", "s", "u")


def test_retry_with_backoff_then_success(monkeypatch):
    monkeypatch.setenv("SOLSCOUT_API_KEY", "secret")
    sleeps = []
    gateway = LlmGateway(ProviderConfig(), mode="live", sleeper=sleeps.append)
    responses = [_mock_response(status=500), _mock_response(status=429), _mock_response()]
    with patch("solscout.gateway.requests.post", side_effect=responses):
        exchange = gateway.complete("property", "r", "C.f", "s", "u")
    assert exchange.response == "Yes"
    assert sleeps == [1.0, 2.0]


def test_retry_exhaustion_raises_provider_error(monkeypatch):
    monkeypatch.setenv("SOLSCOUT_API_KEY", "secret")
    gateway = LlmGateway(ProviderConfig(), mode="live", sleeper=lambda _s: None)
    with patch("solscout.gateway.requests.post", return_value=_mock_response(status=500)):
        with pytest.raises(ProviderError):
            gateway.complete("property", "r", "C.f", "s", "u")


def test_record_mode_appends_jsonl(tmp_path, monkeypatch):
    monkeypatch.setenv("SOLSCOUT_API_KEY", "secret")
    path = str(tmp_path / "rec.jsonl")
    gateway = LlmGateway(ProviderConfig(), mode="record", record_path=path)
    with patch("solscout.gateway.requests.post", return_value=_mock_response()):
        gateway.complete("property", "r", "C.f", "s", "u")
    gateway.close()
    loaded = Transcript.load(path)
    assert len(loaded) == 1
    replayer = LlmGateway(ProviderConfig(), mode="replay", transcript=loaded)
    assert replayer.complete("property", "r", "C.f", "s", "u").response == "Yes"


def test_answerer_stands_in_for_the_provider(monkeypatch):
    monkeypatch.delenv("SOLSCOUT_API_KEY", raising=False)
    calls = []

    def answer(purpose, rule_id, function_id, user):
        calls.append((purpose, rule_id, function_id, user))
        return "Yes"

    gateway = LlmGateway(ProviderConfig(), mode="record", answer=answer)
    with patch("solscout.gateway.requests.post") as post:
        exchange = gateway.complete("property", "r", "C.f", "system", "user")
    post.assert_not_called()
    assert calls == [("property", "r", "C.f", "user")]
    assert (exchange.response, exchange.latency) == ("Yes", 0.0)
    assert exchange.tokens_in == estimate_tokens("system") + estimate_tokens("user")
    assert exchange.tokens_out == estimate_tokens("Yes")
    assert gateway.transcript.get(exchange.key) is exchange


def test_ask_retries_unparseable_once_then_raises():
    transcript = Transcript()
    bad = _exchange(purpose="property", response="mumble")
    transcript.append(bad)
    gateway = LlmGateway(ProviderConfig(), mode="replay", transcript=transcript)
    with pytest.raises(UnparseableAnswer):
        gateway.ask("property", "r", "C.f", "ask", parse_yes_no)
    # identical prompt asked exactly twice
    assert len(gateway.exchanges) == 2


def test_cost_additivity_over_transcript(tmp_path):
    """Oracle: independent summation over the serialized transcript file."""
    path = str(tmp_path / "t.jsonl")
    transcript = Transcript()
    for i in range(5):
        transcript.append(_exchange(function_id=f"C.f{i}", tokens_in=7 * i, tokens_out=i))
    transcript.save(path)
    total_in = total_out = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            raw = json.loads(line)
            total_in += raw["tokens_in"]
            total_out += raw["tokens_out"]
    assert total_in == sum(e.tokens_in for e in transcript.entries.values())
    assert total_out == sum(e.tokens_out for e in transcript.entries.values())
