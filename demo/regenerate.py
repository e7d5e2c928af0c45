#!/usr/bin/env python3
"""Rebuild demo/transcript.jsonl from scripted answers.

The pipeline scans demo/project with a scripted answerer and records to
a fresh file, so it holds exactly the queries a replay makes. It is
keyed by prompt hash, so it must be regenerated whenever prompt
construction changes. Run from the repository root:

    python demo/regenerate.py
"""

import os
import tempfile

from solscout.config import ScanConfig
from solscout.gateway import LlmGateway, scripted
from solscout.pipeline import scan
from solscout.prompts import render_recognition_answer, render_scenario_answer, render_yes_no
from solscout.rules import load_rules
from solscout.transport import ProviderConfig

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
    # one worker: entries in candidate order
    config = ScanConfig(project_root=os.path.join(HERE, "project"), project_name="demo",
                        mode="record", provider=ProviderConfig(max_in_flight=1))
    scenario_counts = {rule.id: len(rule.scenarios) for rule in load_rules(config.rules_dir)}

    def answer(purpose, rule_id, function_id, user):
        if purpose == "scenario":  # rules sharing the query are joined with ","
            verdicts = [(rid, function_id) == TARGET for rid in rule_id.split(",")
                        for _ in range(scenario_counts[rid])]
            return render_scenario_answer(dict(enumerate(verdicts, 1)))
        if purpose == "property":
            return render_yes_no(True)
        return render_recognition_answer(RECOGNITION)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "transcript.jsonl")
        scan(config, LlmGateway(scripted(answer), path))
        with open(path, encoding="utf-8") as fh:
            return fh.read()


def main():
    text = transcript_text()
    out = os.path.join(HERE, "transcript.jsonl")
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)
    exchanges = text.count("\n")
    print(f"wrote {exchanges} exchanges to {out}")


if __name__ == "__main__":
    main()
