#!/usr/bin/env python3
"""Rebuild demo/transcript.jsonl from scripted answers.

The pipeline scans demo/project in record mode against a scripted
answerer, so the transcript holds exactly the queries a replay makes.
It is keyed by prompt hash, so it must be regenerated whenever prompt
construction changes. Run from the repository root:

    python demo/regenerate.py
"""

import json
import os

from solscout.config import ScanConfig
from solscout.gateway import LlmGateway, ProviderConfig
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
            verdict = "Yes" if (rule_id, function_id) == TARGET else "No"
            return json.dumps(
                {str(i): verdict for i in range(1, scenario_counts[rule_id] + 1)}
            )
        if purpose == "property":
            return "Yes"
        return json.dumps({s: {n: d} for s, (n, d) in RECOGNITION.items()})

    gateway = LlmGateway(ProviderConfig(max_in_flight=1), mode="record", answer=answer)
    scan(config, gateway)
    return "".join(entry.to_json() + "\n" for entry in gateway.transcript.entries.values())


def main():
    text = transcript_text()
    out = os.path.join(HERE, "transcript.jsonl")
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)
    exchanges = text.count("\n")
    print(f"wrote {exchanges} exchanges to {out}")


if __name__ == "__main__":
    main()
