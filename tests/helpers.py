"""Shared test scaffolding: scripted answers and transcript authoring.

Transcripts are authored by the real pipeline, scanning in record mode
against a scripted answerer, so replay-mode scans exercise the real
hash-keyed lookup path.
"""

from __future__ import annotations

import json

from solscout.config import ScanConfig
from solscout.gateway import LlmGateway, ProviderConfig, Transcript
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
    """An ``LlmGateway`` answerer that renders ``answers`` as model replies."""
    scenario_counts = {rule.id: len(rule.scenarios) for rule in rules}

    def answer(purpose, rule_id, function_id, user):
        key = (rule_id, function_id)
        if purpose == "scenario":
            value = answers.scenario.get(key, answers.default_scenario)
            if not isinstance(value, str):
                verdict = "Yes" if value else "No"
                value = json.dumps(
                    {str(i): verdict for i in range(1, scenario_counts[rule_id] + 1)}
                )
        elif purpose == "property":
            value = answers.property.get(key, answers.default_property)
            if not isinstance(value, str):
                value = "Yes" if value else "No"
        else:
            value = answers.recognition.get(key, {})
            if not isinstance(value, str):
                value = json.dumps(
                    {slot: {name: desc} for slot, (name, desc) in value.items()}
                )
        return value

    return answer


def build_transcript(config: ScanConfig, answers: ScriptedAnswers) -> Transcript:
    """Author a transcript covering every query the scan will make."""
    gateway = LlmGateway(
        ProviderConfig(max_in_flight=1),  # one worker: entries in candidate order
        mode="record",
        answer=scripted_answerer(answers, load_rules(config.rules_dir)),
    )
    scan(config, gateway)
    return gateway.transcript


def replay_config(project_root: str, transcript_path: str, **kw) -> ScanConfig:
    config = ScanConfig(
        project_root=project_root,
        mode="replay",
        transcript_path=transcript_path,
        **kw,
    )
    return config


def write_transcript(config: ScanConfig, answers: ScriptedAnswers, path: str) -> Transcript:
    transcript = build_transcript(config, answers)
    transcript.save(path)
    return transcript
