"""Shared test scaffolding: scripted answers and transcript authoring.

Transcripts are authored by the real pipeline, scanning with a scripted
answerer and an in-memory record sink, so replay-mode scans exercise
the real hash-keyed lookup path.
"""

from __future__ import annotations

from solscout.config import ScanConfig
from solscout.errors import SolscoutError
from solscout.gateway import (SYSTEM_PROMPT, LlmGateway, ProviderConfig, Transcript,
                              render_recognition_answer, render_scenario_answer, render_yes_no,
                              scripted)
from solscout.pipeline import scan
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
    """``answer(purpose, rule_id, function_id, user)`` for ``gateway.scripted``."""
    scenario_counts = {rule.id: len(rule.scenarios) for rule in rules}

    def answer(purpose, rule_id, function_id, user):
        key = (rule_id, function_id)
        if purpose == "scenario":
            value = answers.scenario.get(key, answers.default_scenario)
            render = lambda yes: render_scenario_answer(
                dict.fromkeys(range(1, scenario_counts[rule_id] + 1), yes))
        elif purpose == "property":
            value, render = answers.property.get(key, answers.default_property), render_yes_no
        else:
            value, render = answers.recognition.get(key, {}), render_recognition_answer
        return value if isinstance(value, str) else render(value)

    return answer


def build_transcript(config: ScanConfig, answers: ScriptedAnswers) -> Transcript:
    """Author a transcript covering every query the scan will make."""
    transcript = Transcript()
    answer = scripted(scripted_answerer(answers, load_rules(config.rules_dir)))
    # one worker: entries in candidate order
    scan(config, LlmGateway(ProviderConfig(max_in_flight=1), answer, transcript))
    return transcript


def replay_config(project_root: str, transcript_path: str, **kw) -> ScanConfig:
    return ScanConfig(project_root=project_root, mode="replay",
                      transcript_path=transcript_path, **kw)


def write_transcript(config: ScanConfig, answers: ScriptedAnswers, path: str) -> Transcript:
    transcript = build_transcript(config, answers)
    transcript.save(path)
    return transcript


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
