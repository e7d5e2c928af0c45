"""Prompts, and the answers read back from them.

Every prompt the scan sends is built here: one system prompt and a user
prompt per stage (scenario, property, recognition). Each parser reads a
model's free-form reply into the value its stage needs and raises
``UnparseableAnswer`` for a reply it cannot read; each renderer writes
the reply its parser reads, which is what scripted answerers say.
"""

from __future__ import annotations

import json
import re

from .errors import UnparseableAnswer

SYSTEM_PROMPT = (
    "You are a smart contract auditor. You will be asked questions related "
    "to code properties. You can mimic answering them in the background five "
    "times and provide me with the most frequently appearing answer. "
    "Furthermore, please strictly adhere to the output format specified in "
    "the question; there is no need to explain your answer."
)


def estimate_tokens(text: str) -> int:
    """Deterministic budget estimator: ceil(utf-8 bytes / 4)."""
    if not text:
        return 0
    return -(-len(text.encode("utf-8")) // 4)


# ----------------------------------------------------------------------
# prompt builders


def build_scenario_prompt(scenarios: list, code: str) -> str:
    if not scenarios:
        raise ValueError("at least one scenario is required")
    shape = ", ".join(f'"{i}": "Yes" or "No"' for i in range(1, len(scenarios) + 1))
    questions = "\n".join(
        f'"{i}": {sentence}?' for i, sentence in enumerate(scenarios, 1)
    )
    return (
        "Given the following smart contract code, answer the questions below "
        f"and organize the result in a json format like {{{shape}}}.\n\n"
        f"{questions}\n\n{code}"
    )


def build_property_prompt(rule, code: str, scenario_index: int = 0) -> str:
    sentence = f"{rule.scenarios[scenario_index]} {rule.property}"
    return (
        f'Does the following smart contract code "{sentence}"? '
        f'Answer only "Yes" or "No".\n\n{code}'
    )


def build_recognition_prompt(recognition, code: str) -> str:
    lines = [
        f'In this function, {question} Please answer in a section starts with "{slot}:".'
        for slot, question in recognition.questions
    ]
    shape = ", ".join(
        f'"{slot}":{{"Variable name":"Description"}}' for slot in recognition.slots
    )
    lines.append(f"Please answer in the following json format: {{{shape}}}")
    return "\n".join(lines) + f"\n\n{code}"


# ----------------------------------------------------------------------
# answer parsing


_DECODER = json.JSONDecoder()
_BRACE_QUOTE_OR_BACKSLASH = re.compile(r'[{}"\\]')
# a string, also one cut off where the search ends, or a brace outside one
_STRING_OR_BRACE = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*(?:"|\\?\Z)|[{}]', re.DOTALL)


def _first_json_object(text: str):
    """The object decoded from the first ``{`` that starts one, or None.

    A decode is tried only from the ``{`` that ``_decode_starts`` yields,
    so an answer of unclosed objects is not decoded once per ``{``; and
    none from a ``{`` that an earlier failed decode rules out, so nor is
    one of nested objects that all close. A decode that fails at a
    position rules out the objects it had read into and not closed
    there: decoded alone, each fails at the same place. A nesting too
    deep to decode counts as no object there, nor at any ``{`` before
    the ``}`` that closes it.
    """
    failed = set()
    deep_until = -1
    for start, end in _decode_starts(text):
        if start in failed or start < deep_until:
            continue
        try:
            return _DECODER.raw_decode(text, start)[0]
        except json.JSONDecodeError as exc:
            failed.update(_open_objects(text, start, exc.pos))
        except RecursionError:
            deep_until = max(deep_until, end)
    return None


def _open_objects(text: str, start: int, stop: int) -> list:
    """The objects still open at ``stop`` of those read from the one at ``start``.

    ``text[start:stop]`` must be what the decoder read from ``start``
    before it failed at ``stop``: valid JSON so far, so each ``{``
    outside a string opens an object and each ``}`` closes the innermost.
    """
    opened = []
    for match in _STRING_OR_BRACE.finditer(text, start, stop):
        char = match.group()
        if char == "{":
            opened.append(match.start())
        elif char == "}":
            opened.pop()
    return opened


def _decode_starts(text: str):
    """Each ``{`` worth decoding from, as ``(start, end)``: the first, then,
    in text order, each later one whose brace count closes, at ``end``.

    The first is yielded before its count is known, with ``end`` -1. A
    count begins at its ``{`` and skips braces inside strings, where a
    backslash escapes the next character; no object ends anywhere else.
    Counts in the same state at the same place go on alike, and there
    are three states: outside a string, inside one, and inside one with
    the next character escaped. So one pass keeps every count: each
    state holds a stack of groups of open ``{``, and a ``}`` met outside
    a string closes the top group of that state.
    """
    first = text.find("{")
    if first == -1:
        return
    yield first, -1  # where an answer's object usually starts: tried before the pass
    closing = []
    outside, inside, escaped, escaped_at = [], [], [], -1
    for match in _BRACE_QUOTE_OR_BACKSLASH.finditer(text, first + 1):
        at, char = match.start(), match.group()
        if escaped and escaped_at != at:  # the escaped character was none of these
            inside, escaped = _merge(inside, escaped), []
        if char == "\\":
            inside, escaped, escaped_at = escaped, inside, at + 1
        elif char == '"':
            outside, inside, escaped = inside, _merge(outside, escaped), []
        else:
            if escaped:
                inside, escaped = _merge(inside, escaped), []
            if char == "{":
                outside.append([at])
            elif outside:
                closing += ((start, at) for start in outside.pop())
    yield from sorted(closing)


def _merge(a: list, b: list) -> list:
    """Two stacks whose counts go on alike: groups as deep from the top close together."""
    if len(a) < len(b):
        a, b = b, a
    for depth in range(1, len(b) + 1):
        group, other = a[-depth], b[-depth]
        if len(group) < len(other):
            group, other = other, group
            a[-depth] = group
        group += other
    return a


_YES_NO_RE = re.compile(r"[A-Za-z]+")


def _as_yes(value) -> bool:
    return isinstance(value, str) and value.strip().strip(".!,").lower() == "yes"


def parse_scenario_answer(text: str, n: int) -> dict:
    """Map scenario index -> yes/no. Missing or garbled keys default to no."""
    obj = _first_json_object(text)
    if not isinstance(obj, dict):
        raise UnparseableAnswer(f"no JSON object in scenario answer: {text[:80]!r}")
    result = {}
    for i in range(1, n + 1):
        value = obj.get(str(i), obj.get(i))
        result[i] = _as_yes(value)
    return result


def parse_yes_no(text: str) -> bool:
    """First standalone yes/no token decides; anything else is unparseable."""
    for word in _YES_NO_RE.findall(text):
        lowered = word.lower()
        if lowered == "yes":
            return True
        if lowered == "no":
            return False
    raise UnparseableAnswer(f"no yes/no answer in: {text[:80]!r}")


def parse_recognition_answer(text: str, slots: list) -> dict:
    """Extract slot -> (name, description); absent slots are left out."""
    obj = _first_json_object(text)
    if not isinstance(obj, dict):
        raise UnparseableAnswer(f"no JSON object in recognition answer: {text[:80]!r}")
    out = {}
    for slot in slots:
        value = obj.get(slot)
        if isinstance(value, dict) and value:
            name, desc = next(iter(value.items()))
            out[slot] = (str(name).strip(), str(desc).strip())
        elif isinstance(value, str) and value.strip():
            out[slot] = (value.strip(), "")
    return out


# the replies each parser reads back: what scripted answerers say


def render_scenario_answer(verdicts: dict) -> str:
    """Scenario index -> yes/no, as ``parse_scenario_answer`` reads it."""
    return json.dumps({str(i): "Yes" if yes else "No" for i, yes in verdicts.items()})


def render_yes_no(yes: bool) -> str:
    return "Yes" if yes else "No"


def render_recognition_answer(answer: dict) -> str:
    """Slot -> (name, description), as ``parse_recognition_answer`` reads it."""
    return json.dumps({slot: {name: desc} for slot, (name, desc) in answer.items()})
