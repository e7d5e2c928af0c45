import base64
import gc
import json
import random
import re
import socket
import time
import tracemalloc
import warnings
from dataclasses import dataclass, fields, replace
from operator import attrgetter

import pytest

from solscout.errors import (
    ProviderError,
    ProviderUnavailable,
    ReplayMiss,
    TranscriptError,
    UnparseableAnswer,
)
from solscout.confirm import validate_recognition
from solscout.gateway import LlmExchange, LlmGateway, Transcript, prompt_sha256, scripted
from solscout.prompts import (
    _first_json_object,
    build_property_prompt,
    build_recognition_prompt,
    build_scenario_prompt,
    estimate_tokens,
    parse_recognition_answer,
    parse_scenario_answer,
    parse_yes_no,
    render_recognition_answer,
    render_scenario_answer,
    render_yes_no,
)
from solscout.transport import REFUSED_EVERY_QUERY, HttpProvider, ProviderConfig, _plan_route
from solscout.rules import load_rules, shipped_rules_dir

from chatserver import chat_body, in_order
from conftest import TLS_CA
from helpers import rule_for_id, system_prompt


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


def test_first_json_object_tries_no_start_after_the_last_closing_brace():
    """A hostile answer of unclosed objects costs one scan, not one decode per
    ``{`` (about 3 s for 160 KB when every ``{`` was tried)."""
    hostile = '{"a":' * 32_000
    started = time.perf_counter()
    assert _first_json_object(hostile) is None
    assert _first_json_object('{"1": "Yes"}' + hostile) == {"1": "Yes"}
    assert time.perf_counter() - started < 0.2


def test_first_json_object_matches_the_brace_scanner_where_strings_and_escapes_interleave():
    """A ``{`` may close only for a count begun at it: inside a string as
    seen from an earlier ``{``, or right after an escaped quote."""
    rng = random.Random(20262)
    texts = ['{[ "{ }', '{"' + '{"a":' * 50 + "}", '{\\"' * 40 + "{}", '"\\\\"{"1": "Yes"}',
             '{"a": "\\"}" {"b": 2}']
    texts += ["".join(rng.choice('{}"\\:a ') for _ in range(rng.randint(1, 60)))
              for _ in range(5000)]
    for text in texts:
        assert _first_json_object(text) == _scanned_first_json_object(text), text


@pytest.mark.parametrize("hostile, value", [
    ('{"a":' * 8000 + "}", None),
    ('{"' + '{"a":' * 8000 + "}", None),
    ("{" * 40_000 + "}", {}),
    ('{\\"' * 13_000 + "}", None),
    ('{"a":' * 8000 + "x" + "}" * 8000, None),
    (('{' + '"k": 1, ' * 8 + '"a":') * 600 + "x" + "}" * 600, None),
], ids=["unclosed-objects", "inside-a-string-from-the-first", "open-braces", "escaped-quotes",
        "every-brace-closes-too-deep", "every-brace-closes"])
def test_a_hostile_answer_is_decoded_only_from_braces_that_close(hostile, value):
    """Each ``{`` before the last ``}`` used to cost a decode reading to the
    end: 0.8 s for the 40 KB of unclosed objects. Where every ``{`` closes,
    each used to be decoded down to the failure, or to the recursion limit:
    0.6 s for the 48 KB of objects nested 8,000 deep, 0.2 s for the 42 KB
    nested 600 deep. A failed decode now rules out the objects it read into."""
    timings = []
    for _ in range(3):
        started = time.perf_counter()
        assert _first_json_object(hostile) == value
        timings.append(time.perf_counter() - started)
    assert min(timings) < 0.05


def test_a_failed_decode_rules_out_only_the_objects_still_open_where_it_failed():
    """The inner objects closed before the failure still decode; one begun
    inside a string, as read from the failed decode, is no object of it."""
    for text, value in [('{"a": {"b": 1}, x}', {"b": 1}),
                        ('{"a": "{", "b": {"c": x}} {"d": 1}', {"d": 1}),
                        ('{"a": "{"b": 2}"} x', {"b": 2}),
                        ('{"a": "\\u12{"b": 3}', {"b": 3})]:
        assert _first_json_object(text) == _scanned_first_json_object(text) == value, text


@pytest.mark.parametrize("text, value", [
    ('{"1": "Yes"}', {"1": "Yes"}),
    ('garbage { not json } then {"1": "No"} tail', {"1": "No"}),
    ('"{\\"in\\": \\"string\\"}" {"a": "}{"}', {"a": "}{"}),
    ('{"a": "{\\"b\\": 1}"}', {"a": '{"b": 1}'}),
    ('{"a": {"b": {"c": [1, {"d": "}"}]}}}', {"a": {"b": {"c": [1, {"d": "}"}]}}}),
    ('{"a": ' + "[" * 100_000 + '] } {"deep": "no"}', {"deep": "no"}),
    ('{"a": ' + "[" * 100_000 + "]}", None),
    ('{"a": 1', None),
    ("}}}{", None),
    ("{}", {}),
    ("", None),
], ids=["plain", "garbage-before", "object-inside-a-string", "string-holding-an-object",
        "nested", "too-deep-then-an-object", "too-deep", "unclosed", "only-a-trailing-open",
        "empty-object", "empty"])
def test_first_json_object_decodes_the_same_values(text, value):
    assert _first_json_object(text) == value


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


def test_rendered_replies_parse_back_to_what_was_rendered():
    for verdicts in ({1: True}, {1: False}, {1: True, 2: False, 3: True}):
        assert parse_scenario_answer(render_scenario_answer(verdicts), len(verdicts)) == verdicts
    for yes in (True, False):
        assert parse_yes_no(render_yes_no(yes)) is yes
    answer = {
        "VariableA": ("_shares", "the total minted share"),
        "UpdateStatement": ("balances[msg.sender] -= amount;", 'the "sender" balance, ünïcode'),
        "VariableC": ("_amount", ""),
    }
    assert parse_recognition_answer(render_recognition_answer(answer), list(answer)) == answer


@dataclass
class FakeContext:
    text: str


def test_validate_recognition_accepts_grounded_names():
    ctx = FakeContext("if (totalSupply() == 0) { _shares = _amount; }")
    answer = {"VariableB": ("totalSupply", "total LP supply")}
    assert validate_recognition(answer, ctx, ["VariableB"]) is None


def test_validate_recognition_aborts_on_ghost_and_empty():
    ctx = FakeContext("if (totalSupply() == 0) { }")
    ghost = validate_recognition({"VariableB": ("ghostVar", "x")}, ctx, ["VariableB"])
    assert ghost == "VariableB: 'ghostVar' does not occur in the context"
    no_name = validate_recognition({"VariableB": ("", "x")}, ctx, ["VariableB"])
    assert no_name == "VariableB: empty name"
    empty = validate_recognition({"VariableB": ("totalSupply", "")}, ctx, ["VariableB"])
    assert empty == "VariableB: empty description"
    missing = validate_recognition({}, ctx, ["VariableB"])
    assert missing == "VariableB: missing from answer"


def test_validate_recognition_token_match_is_exact():
    ctx = FakeContext("uint mytotalSupplyX; totalSupplyCap = 1;")
    out = validate_recognition({"V": ("totalSupply", "d")}, ctx, ["V"])
    assert out == "V: 'totalSupply' does not occur in the context"  # substrings do not count


def test_estimate_tokens():
    assert estimate_tokens("") == 0
    assert estimate_tokens("x" * 400) == 100
    assert estimate_tokens("x" * 401) == 101


def _exchange(**kw):
    """An exchange answering ("scenario", "r", "C.f") asked with ``system_prompt()`` and "ask"."""
    defaults = dict(
        purpose="scenario", rule_id="r", function_id="C.f", response='{"1":"Yes"}',
        tokens_in=10, tokens_out=3, prompt_sha256=prompt_sha256(system_prompt(), "ask"),
    )
    defaults.update(kw)
    return LlmExchange(**defaults)


def _transcript(path, *exchanges) -> Transcript:
    """``exchanges``, each asked with ``system_prompt()`` and "ask", written to
    ``path`` as record-file lines and loaded back."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(exchange.to_json(system_prompt(), "ask") + "\n" for exchange in exchanges)
    return Transcript.load(str(path))


def test_transcript_roundtrip(tmp_path):
    path = str(tmp_path / "t.jsonl")
    replies = {"scenario": '{"1":"Yes"}', "property": "Yes"}
    gateway = LlmGateway(scripted(lambda purpose, *_: replies[purpose]), path)
    first = gateway.complete("scenario", "r", "C.f", system_prompt(), "ask")
    gateway.complete("property", "r", "C.f", system_prompt(), "ask")
    gateway.close()
    loaded = Transcript.load(path)
    assert len(loaded) == 2
    assert loaded.entries[first.key].response == '{"1":"Yes"}'


def test_a_rejected_query_replays_its_error_and_charges_nothing(tmp_path):
    path = str(tmp_path / "t.jsonl")

    def reject(purpose, rule_id, function_id, user):
        raise ProviderError("provider returned 400")

    recorder = LlmGateway(scripted(reject), path)
    with pytest.raises(ProviderError):
        recorder.complete("scenario", "r", "C.f", system_prompt(), "ask")
    recorder.close()
    with open(path, encoding="utf-8") as fh:
        [record] = [json.loads(line) for line in fh]
    assert record["error"] == "provider returned 400"
    assert not {"response", "tokens_in", "tokens_out"} & set(record)
    gateway = LlmGateway(Transcript.load(path).answer)
    with pytest.raises(ProviderError) as exc:
        gateway.complete("scenario", "r", "C.f", system_prompt(), "ask")
    assert type(exc.value) is ProviderError and str(exc.value) == "provider returned 400"
    assert recorder.exchanges == gateway.exchanges == []


def test_transcript_last_wins_on_duplicate_keys(tmp_path):
    first = _exchange(response="old")
    loaded = _transcript(tmp_path / "t.jsonl", first, _exchange(response="new"))
    assert len(loaded) == 1
    assert loaded.entries[first.key].response == "new"


# What a record scan writes for a retried query, a rejected one and a
# plain one: the transcript file format, fixed byte for byte.
ASKED, WHICH = prompt_sha256("s", "Is it?"), prompt_sha256("s", "Which?")
RECORDED = (
    '{"function_id": "C.f", "prompt_sha256": '
    '"3cbb84ef476f4630abdb642d6ef69652afb753a66bc26fb4c43afc22fce1f2ce", "purpose": "property", '
    '"response": "mumble", "rule_id": "r", "system": "s", "tokens_in": 3, "tokens_out": 2, '
    '"user": "Is it?"}\n'
    '{"attempt": 1, "function_id": "C.f", "prompt_sha256": '
    '"3cbb84ef476f4630abdb642d6ef69652afb753a66bc26fb4c43afc22fce1f2ce", "purpose": "property", '
    '"response": "Yes", "rule_id": "r", "system": "s", "tokens_in": 3, "tokens_out": 1, '
    '"user": "Is it?"}\n'
    '{"error": "provider returned 400: busy", "function_id": "C.g", "prompt_sha256": '
    '"3cbb84ef476f4630abdb642d6ef69652afb753a66bc26fb4c43afc22fce1f2ce", "purpose": "property", '
    '"rule_id": "r", "system": "s", "user": "Is it?"}\n'
    '{"function_id": "C.g", "prompt_sha256": '
    '"8a16811a47f95a7c51f38a99f62db1ab24b5378c5501498e2ee015e2522c3d08", "purpose": "scenario", '
    '"response": "{\\"1\\": \\"No\\"}", "rule_id": "r", "system": "s", "tokens_in": 3, '
    '"tokens_out": 3, "user": "Which?"}\n'
)


def _record(path: str) -> str:
    """Record the queries of ``RECORDED`` to ``path``; returns the file's text."""
    replies = iter(["mumble", "Yes", ProviderError("provider returned 400: busy"),
                    '{"1": "No"}'])

    def answer(purpose, rule_id, function_id, user):
        reply = next(replies)
        if isinstance(reply, Exception):
            raise reply
        return reply

    gateway = LlmGateway(scripted(answer), path)
    gateway.complete("property", "r", "C.f", "s", "Is it?")
    gateway.complete("property", "r", "C.f", "s", "Is it?", attempt=1)
    with pytest.raises(ProviderError):
        gateway.complete("property", "r", "C.g", "s", "Is it?")
    gateway.complete("scenario", "r", "C.g", "s", "Which?")
    gateway.close()
    assert len(gateway.exchanges) == 3
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def test_a_record_file_holds_each_exchange_with_its_prompts(tmp_path):
    assert _record(str(tmp_path / "record.jsonl")) == RECORDED
    # the gateway keeps each answer, never its prompts: the file has them
    assert not {"system", "user"} & {field.name for field in fields(LlmExchange)}


def test_a_loaded_entry_keeps_its_key_answer_and_usage_and_no_prompt(tmp_path):
    path = str(tmp_path / "t.jsonl")
    _record(path)
    loaded = Transcript.load(path)
    answer = attrgetter("key", "response", "tokens_in", "tokens_out", "error", "attempt")
    assert [answer(e) for e in loaded.entries.values()] == [
        (("property", "r", "C.f", ASKED), "mumble", 3, 2, "", 0),
        (("property", "r", "C.f", ASKED, "retry1"), "Yes", 3, 1, "", 1),
        (("property", "r", "C.g", ASKED), "", 0, 0, "provider returned 400: busy", 0),
        (("scenario", "r", "C.g", WHICH), '{"1": "No"}', 3, 3, "", 0),
    ]
    for entry in loaded.entries.values():
        assert entry.latency == 0.0
        assert not hasattr(entry, "__dict__")  # a slotted dataclass
    # equal ids are one string, however many entries name them
    first, retry = list(loaded.entries.values())[:2]
    assert first.function_id is retry.function_id and first.purpose is retry.purpose


# Heap a loaded transcript, or a gateway recording to a file, may keep per
# entry of ~1 KB prompts. Each keeps about 400 bytes; entries that kept
# their prompts would keep 2,100 and fail.
RETAINED_BYTES_PER_ENTRY = 600


def test_loaded_transcript_heap_per_entry(tmp_path):
    rng = random.Random(7)
    answers = {"scenario": '{"1": "Yes"}', "property": "Yes",
               "recognition": '{"VariableA": {"shares": "the minted shares"}}'}
    path = str(tmp_path / "t.jsonl")
    recorder = LlmGateway(scripted(lambda purpose, *_: answers[purpose]), path)
    for i in range(700):
        for purpose in answers:
            user = f"{purpose} of C{i}.f\n\n" + "".join(rng.choices("abcdef ;{}()\n", k=1000))
            recorder.complete(purpose, "risky-first-deposit", f"C{i}.f", system_prompt(), user)
    recorder.close()
    del recorder
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = Transcript.load(path)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(loaded) == 2100
    assert retained / len(loaded) <= RETAINED_BYTES_PER_ENTRY, \
        f"{retained / len(loaded):.0f} bytes retained per entry"


def test_a_file_recording_gateway_heap_per_query(tmp_path):
    """The record file holds the prompts, so the gateway keeps none of them."""
    rng = random.Random(7)
    answers = {"scenario": '{"1": "Yes"}', "property": "Yes",
               "recognition": '{"VariableA": {"shares": "the minted shares"}}'}
    gateway = LlmGateway(scripted(lambda purpose, *_: answers[purpose]),
                         str(tmp_path / "t.jsonl"))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(700):
            for purpose in answers:
                user = f"{purpose} of C{i}.f\n\n" + "".join(rng.choices("abcdef ;{}()\n", k=1000))
                gateway.complete(purpose, "risky-first-deposit", f"C{i}.f", system_prompt(), user)
        del user
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gateway.close()
    assert len(gateway.exchanges) == 2100
    assert retained / len(gateway.exchanges) <= RETAINED_BYTES_PER_ENTRY, \
        f"{retained / len(gateway.exchanges):.0f} bytes retained per query"


# A replay keeps a pointer per query in ``exchanges``; a copy of each
# answered entry (an exchange and its prompt hash) would be ~240 bytes.
REPLAYED_BYTES_PER_QUERY = 40


def test_a_replaying_gateway_heap_per_query(tmp_path):
    """A replay keeps each loaded entry as the query's exchange, not a copy of it."""
    rng = random.Random(7)
    answers = {"scenario": '{"1": "Yes"}', "property": "Yes",
               "recognition": '{"VariableA": {"shares": "the minted shares"}}'}
    queries = [(purpose, f"C{i}.f",
                f"{purpose} of C{i}.f\n\n" + "".join(rng.choices("abcdef ;{}()\n", k=1000)))
               for i in range(700) for purpose in answers]
    path = str(tmp_path / "t.jsonl")
    recorder = LlmGateway(scripted(lambda purpose, *_: answers[purpose]), path)
    for purpose, function_id, user in queries:
        recorder.complete(purpose, "risky-first-deposit", function_id, system_prompt(), user)
    recorder.close()
    loaded = Transcript.load(path)
    gateway = LlmGateway(loaded.answer)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for purpose, function_id, user in queries:
            gateway.complete(purpose, "risky-first-deposit", function_id, system_prompt(), user)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(gateway.exchanges) == 2100
    assert all(replayed is loaded.entries[replayed.key] for replayed in gateway.exchanges)
    assert [(e.tokens_in, e.tokens_out) for e in gateway.exchanges] == [
        (e.tokens_in, e.tokens_out) for e in recorder.exchanges]
    assert retained / len(gateway.exchanges) <= REPLAYED_BYTES_PER_QUERY, \
        f"{retained / len(gateway.exchanges):.0f} bytes retained per query"


@pytest.mark.parametrize("spoil, reason", [
    pytest.param(lambda line: line[:len(line) // 2], "Unterminated string",
                 id="cut-off"),  # what a killed record scan leaves
    pytest.param(lambda line: line.replace('"prompt_sha256"', '"digest"'),
                 "missing 'prompt_sha256'", id="no-prompt-hash"),
    pytest.param(lambda line: "[1, 2]", "list indices", id="not-an-object"),
    pytest.param(lambda line: line.replace('"tokens_out": 3', '"tokens_out": "three"'),
                 "invalid literal", id="bad-tokens"),
    pytest.param(lambda line: line.replace(' "s"', ' "s\udcff"'), "can't decode",
                 id="bad-utf-8"),
])
def test_a_malformed_line_is_an_error_naming_its_place(tmp_path, spoil, reason):
    path = tmp_path / "t.jsonl"
    lines = RECORDED.splitlines()
    lines[-1] = spoil(lines[-1])
    path.write_bytes(("\n".join(lines)).encode("utf-8", "surrogateescape"))
    with pytest.raises(TranscriptError, match=re.escape(f"{path}:4: ") + ".*" + reason):
        Transcript.load(str(path))


def test_blank_lines_are_skipped_and_still_counted(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text("\n  \n" + RECORDED.replace("\n", "\n\n", 1) + "{", encoding="utf-8")
    with pytest.raises(TranscriptError, match=re.escape(f"{path}:8: ")):
        Transcript.load(str(path))


def test_replay_returns_recorded_exchange(tmp_path):
    recorded = _exchange()
    gateway = LlmGateway(_transcript(tmp_path / "t.jsonl", recorded).answer)
    result = gateway.complete("scenario", "r", "C.f", system_prompt(), "ask")
    answer = attrgetter("key", "response", "tokens_in", "tokens_out", "latency")
    assert answer(result) == answer(recorded)
    assert gateway.exchanges == [result]


def test_replay_miss_names_key():
    gateway = LlmGateway(Transcript().answer)
    with pytest.raises(ReplayMiss) as exc:
        gateway.complete("scenario", "r", "C.f", system_prompt(), "ask")
    assert exc.value.key[0] == "scenario"
    assert exc.value.key[1] == "r"


def _live(server, record=None, sleeper=time.sleep, **provider) -> LlmGateway:
    """A gateway whose answerer is the provider ``server``."""
    return LlmGateway(HttpProvider(ProviderConfig(endpoint=server.url, **provider), sleeper),
                      record)


def test_live_mode_posts_two_message_conversation(monkeypatch, serve):
    monkeypatch.setenv("SOLSCOUT_API_KEY", "secret")
    server = serve(in_order((200, chat_body("Yes"))))
    gateway = _live(server, temperature=0.0)
    exchange = gateway.complete("property", "r", "C.f", system_prompt(), "ask?")
    gateway.close()
    [request] = server.requests
    assert (request.method, request.target) == ("POST", "/v1/chat/completions")
    assert request.headers["Authorization"] == "Bearer secret"
    assert request.headers["Content-Type"] == "application/json"
    payload = request.json()
    assert [m["role"] for m in payload["messages"]] == ["system", "user"]
    assert len(payload["messages"]) == 2  # empty session: never any history
    assert payload["temperature"] == 0.0
    assert exchange.response == "Yes"
    assert exchange.tokens_in == estimate_tokens(system_prompt()) + estimate_tokens("ask?")


def test_live_mode_uses_provider_usage_when_reported(monkeypatch, serve):
    monkeypatch.setenv("SOLSCOUT_API_KEY", "secret")
    server = serve(in_order((200, chat_body("Yes", {"prompt_tokens": 42,
                                                    "completion_tokens": 7}))))
    gateway = _live(server)
    exchange = gateway.complete("property", "r", "C.f", "s", "u")
    gateway.close()
    assert (exchange.tokens_in, exchange.tokens_out) == (42, 7)


def test_live_mode_requires_api_key(monkeypatch, serve):
    monkeypatch.delenv("SOLSCOUT_API_KEY", raising=False)
    server = serve(in_order((200, chat_body("Yes"))))
    with pytest.raises(ProviderUnavailable, match="SOLSCOUT_API_KEY"):
        _live(server)  # the key is read once, when the provider is built
    assert server.requests == []


def test_retry_with_backoff_then_success(monkeypatch, serve):
    monkeypatch.setenv("SOLSCOUT_API_KEY", "secret")
    sleeps = []
    server = serve(in_order((500, ""), (429, ""), (200, chat_body("Yes"))))
    gateway = _live(server, sleeper=sleeps.append)
    exchange = gateway.complete("property", "r", "C.f", "s", "u")
    gateway.close()
    assert exchange.response == "Yes"
    assert sleeps == [1.0, 2.0]
    assert len(server.requests) == 3


def test_retry_exhaustion_raises_provider_error(monkeypatch, serve):
    monkeypatch.setenv("SOLSCOUT_API_KEY", "secret")
    server = serve(in_order((500, "")))
    gateway = _live(server, sleeper=lambda _s: None)
    with pytest.raises(ProviderUnavailable, match="provider returned 500"):
        gateway.complete("property", "r", "C.f", "s", "u")
    gateway.close()
    assert len(server.requests) == HttpProvider.RETRIES


def test_a_refused_connection_is_unavailable_after_the_last_retry(monkeypatch, direct):
    monkeypatch.setenv("SOLSCOUT_API_KEY", "secret")
    with socket.socket() as probe:  # a port nothing listens on once it is closed
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    sleeps = []
    gateway = LlmGateway(HttpProvider(ProviderConfig(endpoint=f"http://127.0.0.1:{port}/v1"),
                                      sleeps.append))
    with pytest.raises(ProviderUnavailable, match="request failed"):
        gateway.complete("property", "r", "C.f", "s", "u")
    gateway.close()
    assert sleeps == [1.0, 2.0]


@pytest.mark.parametrize("status", sorted(REFUSED_EVERY_QUERY))
def test_a_refused_key_or_route_is_unavailable_at_once(monkeypatch, serve, status):
    monkeypatch.setenv("SOLSCOUT_API_KEY", "secret")
    sleeps = []
    server = serve(in_order((status, "no")))
    gateway = _live(server, sleeper=sleeps.append)
    with pytest.raises(ProviderUnavailable, match=f"provider returned {status}: no"):
        gateway.complete("property", "r", "C.f", "s", "u")
    gateway.close()
    assert (len(server.requests), sleeps) == (1, [])


@pytest.mark.parametrize("status, body, message", [
    (400, "bad model name", "provider returned 400: bad model name"),
    (200, "not json", "malformed provider response: "),
    (200, '{"choices": []}', "malformed provider response: "),
    (200, "[1]", "malformed provider response: "),
])
def test_rejected_or_malformed_reply_raises_without_retry(monkeypatch, serve,
                                                          status, body, message):
    monkeypatch.setenv("SOLSCOUT_API_KEY", "secret")
    sleeps = []
    server = serve(in_order((status, body)))
    gateway = _live(server, sleeper=sleeps.append)
    with pytest.raises(ProviderError) as exc:
        gateway.complete("property", "r", "C.f", "s", "u")
    gateway.close()
    assert str(exc.value).startswith(message)
    assert not isinstance(exc.value, ProviderUnavailable)  # it costs one candidate
    assert (len(server.requests), sleeps) == (1, [])


def test_record_mode_appends_jsonl(tmp_path, monkeypatch, serve):
    monkeypatch.setenv("SOLSCOUT_API_KEY", "secret")
    path = str(tmp_path / "rec.jsonl")
    server = serve(in_order((200, chat_body("Yes"))))
    gateway = _live(server, record=path)
    gateway.complete("property", "r", "C.f", "s", "u")
    gateway.close()
    loaded = Transcript.load(path)
    assert len(loaded) == 1
    replayer = LlmGateway(loaded.answer)
    assert replayer.complete("property", "r", "C.f", "s", "u").response == "Yes"


def test_answerer_stands_in_for_the_provider(tmp_path, monkeypatch):
    monkeypatch.delenv("SOLSCOUT_API_KEY", raising=False)
    calls = []

    def answer(purpose, rule_id, function_id, user):
        calls.append((purpose, rule_id, function_id, user))
        return "Yes"

    path = str(tmp_path / "rec.jsonl")
    gateway = LlmGateway(scripted(answer), path)
    exchange = gateway.complete("property", "r", "C.f", "system", "user")
    gateway.close()
    assert calls == [("property", "r", "C.f", "user")]
    assert (exchange.response, exchange.latency) == ("Yes", 0.0)
    assert exchange.tokens_in == estimate_tokens("system") + estimate_tokens("user")
    assert exchange.tokens_out == estimate_tokens("Yes")
    with open(path, encoding="utf-8") as fh:
        [entry] = [json.loads(line) for line in fh]
    assert (entry["system"], entry["user"], entry["response"]) == ("system", "user", "Yes")


def test_scripted_and_the_http_provider_estimate_the_usage_they_are_not_told(monkeypatch,
                                                                            serve):
    """What the gateway used to estimate for every answerer reporting 0."""
    monkeypatch.setenv("SOLSCOUT_API_KEY", "secret")
    asked = LlmExchange("property", "r", "C.f", "", 0, 0,
                        prompt_sha256=prompt_sha256("system", "user"))
    prompt = estimate_tokens("system") + estimate_tokens("user")
    exchange = scripted(lambda *_: "Yes")(asked, "system", "user")
    assert (exchange.response, exchange.tokens_in, exchange.tokens_out) == \
        ("Yes", prompt, estimate_tokens("Yes"))
    server = serve(in_order((200, chat_body("Yes")),
                            (200, chat_body("No", {"prompt_tokens": 42})),
                            (200, chat_body("Maybe", {"completion_tokens": 3}))))
    provider = HttpProvider(ProviderConfig(endpoint=server.url))
    usage = [(e.tokens_in, e.tokens_out) for e in
             (provider(asked, "system", "user") for _ in range(3))]
    assert usage == [(prompt, estimate_tokens("Yes")), (42, estimate_tokens("No")), (prompt, 3)]


def test_the_gateway_records_the_usage_its_answerer_reports(tmp_path):
    """A reused answer is charged nothing, and its replay charges nothing either."""
    path = str(tmp_path / "rec.jsonl")
    gateway = LlmGateway(lambda asked, system, user: replace(asked, response="Yes"), path)
    exchange = gateway.complete("property", "r", "C.f", "system", "user")
    gateway.close()
    assert (exchange.tokens_in, exchange.tokens_out) == (0, 0)
    with open(path, encoding="utf-8") as fh:
        [entry] = [json.loads(line) for line in fh]
    assert (entry["tokens_in"], entry["tokens_out"]) == (0, 0)
    replayed = LlmGateway(Transcript.load(path).answer).complete("property", "r", "C.f",
                                                                 "system", "user")
    assert (replayed.tokens_in, replayed.tokens_out) == (0, 0)


# ----------------------------------------------------------------------
# connections, proxies and TLS


def test_each_query_closes_its_connection(monkeypatch, serve):
    monkeypatch.setenv("SOLSCOUT_API_KEY", "secret")
    server = serve(in_order((200, chat_body("Yes"))))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        gateway = _live(server)
        for i in range(3):
            assert gateway.complete("property", "r", f"C.f{i}", "s", "u").response == "Yes"
            assert server.wait_ended(i + 1)  # closed once the reply was read
        gateway.close()
        del gateway
        gc.collect()
    assert (server.accepted, len(server.requests)) == (3, 3)
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def _with_credentials(base: str) -> str:
    return base.replace("://", "://user:p%40ss@")


BASIC = "Basic " + base64.b64encode(b"user:p@ss").decode("ascii")


@pytest.mark.parametrize("variable, proxy_tls", [
    ("http_proxy", False), ("all_proxy", False), ("http_proxy", True),
], ids=["http_proxy", "all_proxy", "https-scheme-proxy"])
def test_http_proxy_gets_the_absolute_uri_unless_no_proxy_lists_the_host(
        monkeypatch, serve, variable, proxy_tls):
    monkeypatch.setenv("SOLSCOUT_API_KEY", "secret")
    monkeypatch.setenv("REQUESTS_CA_BUNDLE", TLS_CA)
    provider = serve(in_order((200, chat_body("direct"))))
    proxy = serve(in_order((200, chat_body("proxied"))), tls=proxy_tls)
    monkeypatch.setenv(variable, _with_credentials(proxy.base))
    monkeypatch.setenv("no_proxy", "example.invalid")
    gateway = _live(provider)
    assert gateway.complete("property", "r", "C.f", "s", "u").response == "proxied"
    gateway.close()
    [request] = proxy.requests
    assert request.target == provider.url
    assert request.headers["Host"] == provider.base.split("//")[1]
    assert request.headers["Proxy-Authorization"] == BASIC
    assert provider.requests == []

    monkeypatch.setenv("no_proxy", "example.invalid,127.0.0.1")
    gateway = _live(provider)
    assert gateway.complete("property", "r", "C.f", "s", "u").response == "direct"
    gateway.close()
    assert [r.target for r in provider.requests] == ["/v1/chat/completions"]
    assert len(proxy.requests) == 1


@pytest.mark.parametrize("proxy_tls", [False, True], ids=["http-proxy", "https-proxy"])
def test_https_endpoint_is_tunnelled_through_the_proxy(monkeypatch, serve, proxy_tls):
    monkeypatch.setenv("SOLSCOUT_API_KEY", "secret")
    monkeypatch.setenv("REQUESTS_CA_BUNDLE", TLS_CA)
    provider = serve(in_order((200, chat_body("tunnelled"))), tls=True)
    proxy = serve(in_order((200, "")), tls=proxy_tls)  # a 200 opens the tunnel
    monkeypatch.setenv("https_proxy", _with_credentials(proxy.base))
    gateway = _live(provider)
    assert gateway.complete("property", "r", "C.f", "s", "u").response == "tunnelled"
    gateway.close()
    [connect] = proxy.requests
    assert (connect.method, connect.target) == ("CONNECT", provider.base.split("//")[1])
    assert connect.headers["Proxy-Authorization"] == BASIC
    [request] = provider.requests
    assert request.target == "/v1/chat/completions"
    assert "Proxy-Authorization" not in request.headers
    assert proxy.wait_ended(1) and provider.wait_ended(1)


@pytest.mark.parametrize("proxy, scheme, port", [
    ("https://proxy.example", "https", 443),
    ("http://proxy.example", "http", 80),
    ("proxy.example:3128", "http", 3128),
])
def test_a_proxy_url_without_a_port_gets_its_scheme_default(monkeypatch, direct,
                                                           proxy, scheme, port):
    import http.client

    monkeypatch.setenv("http_proxy", proxy)
    open_connection, target, _headers = _plan_route("http://api.example/v1", 5.0)
    conn = open_connection()  # not connected yet
    assert (conn.host, conn.port, target) == ("proxy.example", port, "http://api.example/v1")
    assert isinstance(conn, http.client.HTTPSConnection) == (scheme == "https")


def test_a_refused_tunnel_is_retried_then_unavailable(monkeypatch, serve):
    monkeypatch.setenv("SOLSCOUT_API_KEY", "secret")
    proxy = serve(in_order((403, "")))
    monkeypatch.setenv("https_proxy", proxy.base)
    gateway = LlmGateway(HttpProvider(
        ProviderConfig(endpoint="https://127.0.0.1:9/v1/chat/completions"), lambda _s: None))
    with pytest.raises(ProviderUnavailable, match="403"):
        gateway.complete("property", "r", "C.f", "s", "u")
    gateway.close()
    assert [(r.method, r.target) for r in proxy.requests] == \
        [("CONNECT", "127.0.0.1:9")] * HttpProvider.RETRIES


@pytest.mark.parametrize("variable", ["REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE", "SSL_CERT_FILE"])
def test_https_endpoint_trusts_the_ca_the_environment_names(monkeypatch, serve, variable):
    monkeypatch.setenv("SOLSCOUT_API_KEY", "secret")
    monkeypatch.setenv(variable, TLS_CA)
    server = serve(in_order((200, chat_body("Yes"))), tls=True)
    gateway = _live(server)
    assert gateway.complete("property", "r", "C.f", "s", "u").response == "Yes"
    gateway.close()
    assert [r.target for r in server.requests] == ["/v1/chat/completions"]


def test_https_endpoint_with_an_unknown_ca_is_unavailable(monkeypatch, serve):
    monkeypatch.setenv("SOLSCOUT_API_KEY", "secret")
    monkeypatch.delenv("SSL_CERT_FILE", raising=False)
    monkeypatch.delenv("SSL_CERT_DIR", raising=False)
    server = serve(in_order((200, chat_body("Yes"))), tls=True)
    gateway = _live(server, sleeper=lambda _s: None)
    with pytest.raises(ProviderUnavailable, match="CERTIFICATE_VERIFY_FAILED"):
        gateway.complete("property", "r", "C.f", "s", "u")
    gateway.close()
    assert server.requests == []


def test_ask_retries_unparseable_once_then_raises(tmp_path):
    transcript = _transcript(tmp_path / "t.jsonl",
                             _exchange(purpose="property", response="mumble"),
                             _exchange(purpose="property", response="still mumbling", attempt=1))
    gateway = LlmGateway(transcript.answer)
    made = []
    with pytest.raises(UnparseableAnswer):
        gateway.ask("property", "r", "C.f", "ask", parse_yes_no, made)
    # identical prompt asked exactly twice, and both attempts handed back
    assert [(e.response, e.attempt) for e in gateway.exchanges] == \
        [("mumble", 0), ("still mumbling", 1)]
    assert made == gateway.exchanges


def test_cost_additivity_over_transcript(tmp_path):
    """Oracle: independent summation over the serialized transcript file."""
    path = tmp_path / "t.jsonl"
    loaded = _transcript(path, *(_exchange(function_id=f"C.f{i}", tokens_in=7 * i, tokens_out=i)
                                 for i in range(5)))
    total_in = total_out = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            raw = json.loads(line)
            total_in += raw["tokens_in"]
            total_out += raw["tokens_out"]
    assert total_in == sum(e.tokens_in for e in loaded.entries.values()) == 70
    assert total_out == sum(e.tokens_out for e in loaded.entries.values()) == 10
