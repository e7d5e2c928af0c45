#!/usr/bin/env python3
"""Rebuild demo/transcript.jsonl from scripted answers.

The pipeline scans demo/project with the test suite's scripted answerer
(``tests/helpers.write_transcript``) and records to a fresh file, so it
holds exactly the queries a replay makes. It is keyed by prompt hash, so
it must be regenerated whenever prompt construction changes. Run from
the repository root:

    python demo/regenerate.py
"""

import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "tests"))

from helpers import ScriptedAnswers, write_transcript  # noqa: E402
from solscout.config import ScanConfig  # noqa: E402

# the one candidate a reviewer should see confirmed, with its recognition
TARGET = ("risky-first-deposit", "YaxisVault.deposit")
RECOGNITION = {
    "VariableA": ("_shares", "the total minted share"),
    "VariableB": ("totalSupply", "total supply checked against zero"),
    "VariableC": ("_amount", "the deposit amount"),
}


def transcript_text() -> str:
    """The demo transcript, one JSON exchange per line."""
    config = ScanConfig(project_root=os.path.join(HERE, "project"), project_name="demo",
                        mode="record")
    answers = ScriptedAnswers(default_scenario=False)
    answers.scenario[TARGET] = True
    answers.recognition[TARGET] = RECOGNITION
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "transcript.jsonl")
        write_transcript(config, answers, path)
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
