"""Shared test scaffolding: scripted answers and transcript authoring.

Transcripts are authored by the real pipeline: a record scan with a
scripted answerer writes the file, so replay-mode scans exercise the
real hash-keyed lookup path.
"""

from __future__ import annotations

import os
import re
import tempfile
from bisect import bisect_left
from dataclasses import replace
from itertools import accumulate, chain, compress, zip_longest
from operator import sub

from solscout.config import ScanConfig
from solscout.errors import SolscoutError, SoliditySyntaxError
from solscout.frontend import LineIndex, SourceFile, SourceUnit, parse_source
from solscout.frontend.lexer import (_FREE_FUNCTION_HEAD_RE, _STRING, _STRING_ALTERNATIVES,
                                     Tokens, token_kind)
from solscout.project import canonical_signature, inherited_names
from solscout.gateway import LlmGateway, Transcript, scripted
from solscout.pipeline import scan
from solscout.prompts import (SYSTEM_PROMPT, render_recognition_answer, render_scenario_answer,
                              render_yes_no)
from solscout.rules import load_rules


class ScriptedAnswers:
    """Answers keyed by (rule_id, function_id); raw strings pass through."""

    def __init__(self, default_scenario=False, default_property=True):
        self.scenario = {}
        self.property = {}
        self.recognition = {}
        self.default_scenario = default_scenario
        self.default_property = default_property


def corpus_answers(cases: list) -> ScriptedAnswers:
    """Yes to every corpus case with its recognition; No to everything else."""
    answers = ScriptedAnswers(default_scenario=False)
    for case in cases:
        key = (case.rule_id, case.fid)
        answers.scenario[key] = True
        answers.property[key] = True
        answers.recognition[key] = case.recognition
    return answers


def scripted_answerer(answers: ScriptedAnswers, rules: list):
    """``answer(purpose, rule_id, function_id, user)`` for ``gateway.scripted``.

    A scenario query shared by several rules (their ids joined with
    ``,``) gets each rule's verdict over that rule's own scenario
    numbers; a raw string for any of them is the whole reply.
    """
    scenario_counts = {rule.id: len(rule.scenarios) for rule in rules}

    def answer(purpose, rule_id, function_id, user):
        key = (rule_id, function_id)
        if purpose == "scenario":
            rule_ids = rule_id.split(",")
            values = [answers.scenario.get((rid, function_id), answers.default_scenario)
                      for rid in rule_ids]
            raw = [value for value in values if isinstance(value, str)]
            if raw:
                return raw[0]
            verdicts = [yes for rid, yes in zip(rule_ids, values)
                        for _ in range(scenario_counts[rid])]
            return render_scenario_answer(dict(enumerate(verdicts, 1)))
        if purpose == "property":
            value, render = answers.property.get(key, answers.default_property), render_yes_no
        else:
            value, render = answers.recognition.get(key, {}), render_recognition_answer
        return value if isinstance(value, str) else render(value)

    return answer


def write_transcript(config: ScanConfig, answers: ScriptedAnswers, path: str) -> None:
    """Write to ``path`` a transcript of every query a scan of ``config`` will make."""
    open(path, "w").close()  # a fresh file: the gateway appends
    answer = scripted(scripted_answerer(answers, load_rules(config.rules_dir)))
    # one worker: entries in candidate order
    one_worker = replace(config, provider=replace(config.provider, max_in_flight=1))
    scan(one_worker, LlmGateway(answer, path))


def build_transcript(config: ScanConfig, answers: ScriptedAnswers) -> Transcript:
    """``write_transcript``'s transcript, loaded from a file of its own."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "transcript.jsonl")
        write_transcript(config, answers, path)
        return Transcript.load(path)


def parse_text(text: str, path: str = "<memory>") -> SourceUnit:
    """``text`` parsed as the file ``path``."""
    return parse_source(SourceFile(path=path, text=text))


def replay_config(project_root: str, transcript_path: str, **kw) -> ScanConfig:
    return ScanConfig(project_root=project_root, mode="replay",
                      transcript_path=transcript_path, **kw)


def edge_set(graph) -> set:
    """Every (source node, target node) edge of a ``DefUseGraph``."""
    return {(src, dst) for src, outs in graph.edges_out.items() for dst in outs}


def evidence_spans(finding) -> list:
    """The evidence spans of a finding's check verdicts, in verdict order."""
    return [tuple(span) for verdict in finding.check_verdicts for span in verdict.evidence]


class RuleNotFound(SolscoutError):
    """No loaded rule has the requested id."""


def rule_for_id(rules: list, rule_id: str):
    for rule in rules:
        if rule.id == rule_id:
            return rule
    raise RuleNotFound(rule_id)


def filter_kinds(rule) -> list:
    """The kinds of a rule's filter directives, in rule order."""
    return [f.kind for f in rule.filters]


def system_prompt() -> str:
    return SYSTEM_PROMPT


def walk_expression(expr):
    """``expr`` and every expression below it, in pre-order."""
    yield expr
    if expr.callee is not None:
        yield from walk_expression(expr.callee)
    for arg in expr.args:
        if arg is not None:
            yield from walk_expression(arg)


def token_rows(tokens: Tokens) -> list:
    """A ``tokenize`` result as one ``(kind, value, start, end)`` row per token."""
    return list(zip(map(token_kind, tokens), tokens, tokens.starts, tokens.ends))


def cut_tokens(tokens: Tokens, cut: int) -> Tokens:
    """The first ``cut`` of ``tokens``, then eof where token ``cut`` starts."""
    at = tokens.starts[cut]
    cut_list = Tokens(tokens[:cut] + [""])
    cut_list.starts = tokens.starts[:cut] + [at]
    cut_list.ends = tokens.ends[:cut] + [at]
    return cut_list


# ----------------------------------------------------------------------
# oracles: the regex and per-function forms of passes the scanner now
# does with str.find, str.split, newline counts and a name check

# Strings first so comment markers inside them are ignored.
_SEGMENT_RE = re.compile(_STRING_ALTERNATIVES + r"|//[^\n]*|/\*.*?\*/", re.DOTALL)


def regex_strip_comments(text: str, path: str = "") -> str:
    """``lexer.strip_comments`` as one ``finditer`` of strings and comments."""
    parts = []
    pos = 0
    for m in _SEGMENT_RE.finditer(text):
        _check_gap(text, pos, m.start(), path)
        parts.append(text[pos : m.start()])
        seg = m.group(0)
        if seg.startswith("//") or seg.startswith("/*"):
            parts.append("".join("\n" if c == "\n" else " " for c in seg))
        else:
            parts.append(seg)
        pos = m.end()
    _check_gap(text, pos, len(text), path)
    parts.append(text[pos:])
    return "".join(parts)


def _check_gap(text: str, lo: int, hi: int, path: str) -> None:
    gap = text[lo:hi]
    bad = None
    for needle, msg in (('"', "unterminated string"), ("'", "unterminated string"),
                        ("/*", "unterminated block comment")):
        at = gap.find(needle)
        if at != -1 and (bad is None or at < bad[0]):
            bad = (at, msg)
    if bad is not None:
        line, col = LineIndex(text).linecol(lo + bad[0])
        raise SoliditySyntaxError(bad[1], line, col, path)


# One ``(text, brace)`` pair per brace outside a string literal, then one
# or two with the brace "" for the text after the last one.
_BRACE_RE = re.compile(r"""([^{}"']*(?:""" + _STRING + r"""[^{}"']*)*)([{}]|\Z)""")
_BRACE_STEP = {"{": 1, "}": -1, "": 0}
_DEPTH_ONE_EDGES = {("{", 1), ("}", 2)}
_TOP_LEVEL_OPEN = ("{", 0)


def regex_outline(stripped: str, path: str = "") -> str:
    """``lexer.outline`` with its braces found by one regex walk over the text."""
    flat = list(chain.from_iterable(_BRACE_RE.findall(stripped)))
    starts = list(accumulate(map(len, flat), initial=0))[1::2]
    braces = flat[1::2]
    depths = list(accumulate(map(_BRACE_STEP.__getitem__, braces), initial=0))
    index = LineIndex(stripped)
    if min(depths) < 0:
        line, col = index.linecol(starts[depths.index(-1) - 1])
        raise SoliditySyntaxError("unbalanced '}'", line, col, path)
    if depths[-1]:
        last = len(depths) - 1 - depths[::-1].index(depths[-1] - 1)
        line, col = index.linecol(starts[last])
        raise SoliditySyntaxError("unclosed '{'", line, col, path)
    edges = list(compress(starts, map(_DEPTH_ONE_EDGES.__contains__, zip(braces, depths))))
    for k in compress(range(len(braces)), map(_TOP_LEVEL_OPEN.__eq__, zip(braces, depths))):
        if _FREE_FUNCTION_HEAD_RE.fullmatch(stripped, starts[k - 1] + 1 if k else 0, starts[k]):
            body = [starts[k], starts[depths.index(0, k + 1) - 1]]
            edges[bisect_left(edges, body[0]):bisect_left(edges, body[1])] = body
    if not edges:
        return stripped
    opens, closes = edges[0::2], edges[1::2]
    kept_starts = [0, *closes]
    kept_stops = [*map((1).__add__, opens), len(stripped)]
    kept = map(stripped.__getitem__, map(slice, kept_starts, kept_stops))
    blanks = map(" ".__mul__, map(sub, closes, kept_stops))
    return "".join(chain.from_iterable(zip_longest(kept, blanks, fillvalue="")))


def newline_span(fn) -> tuple:
    """A function's 1-based (start line, end line), by counting the newlines before them."""
    count = fn.file.text.count
    return count("\n", 0, fn.start) + 1, count("\n", 0, max(fn.start, fn.end - 1)) + 1


def whitelist_survivors(functions: list, whitelist, contracts_by_name: dict) -> list:
    """``project.filter_openzeppelin`` building every named function's signatures."""
    if not whitelist.entries:
        return list(functions)
    return [fn for fn in functions
            if not fn.name or not any(canonical_signature(fn, name) in whitelist
                                      for name in inherited_names(fn, contracts_by_name))]
