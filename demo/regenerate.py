#!/usr/bin/env python3
"""Rebuild demo/transcript.jsonl from scripted answers.

The pipeline scans demo/project with a scripted answerer and records to
an in-memory transcript, so it holds exactly the queries a replay makes.
It is keyed by prompt hash, so it must be regenerated whenever prompt
construction changes. Run from the repository root:

    python demo/regenerate.py
"""

import os

from solscout.config import ScanConfig
from solscout.gateway import (LlmGateway, ProviderConfig, Transcript, render_recognition_answer,
                              render_scenario_answer, render_yes_no, scripted)
from solscout.pipeline import scan
from solscout.rules import load_rules

HERE = os.path.dirname(os.path.abspath(__file__))

# the one candidate a reviewer should see confirmed, with its recognition
TARGET = ("risky-first-deposit", "YaxisVault.deposit")
RECOGNITION = {
    "VariableA": ("_shares", "the total minted share"),
    "VariableB": ("totalSupply", "total supply checked against zero"),
    "VariableC": ("_amount", "the deposit amount"),
}


def transcript_text() -> str:
    """The demo transcript, one JSON exchange per line."""
    config = ScanConfig(project_root=os.path.join(HERE, "project"), project_name="demo")
    scenario_counts = {rule.id: len(rule.scenarios) for rule in load_rules(config.rules_dir)}

    def answer(purpose, rule_id, function_id, user):
        if purpose == "scenario":
            return render_scenario_answer(dict.fromkeys(
                range(1, scenario_counts[rule_id] + 1), (rule_id, function_id) == TARGET))
        if purpose == "property":
            return render_yes_no(True)
        return render_recognition_answer(RECOGNITION)

    transcript = Transcript()
    scan(config, LlmGateway(ProviderConfig(max_in_flight=1), scripted(answer), transcript))
    return "".join(entry.to_json() + "\n" for entry in transcript.entries.values())


def main():
    text = transcript_text()
    out = os.path.join(HERE, "transcript.jsonl")
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)
    exchanges = text.count("\n")
    print(f"wrote {exchanges} exchanges to {out}")


if __name__ == "__main__":
    main()
