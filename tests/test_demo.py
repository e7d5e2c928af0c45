"""The bundled demo must keep replaying as documented in the README."""

import importlib.util
import json
import os

from solscout.cli import main

DEMO = os.path.join(os.path.dirname(__file__), os.pardir, "demo")


def test_demo_transcript_is_what_regenerate_writes():
    spec = importlib.util.spec_from_file_location(
        "regenerate", os.path.join(DEMO, "regenerate.py"))
    regenerate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regenerate)
    with open(os.path.join(DEMO, "transcript.jsonl"), encoding="utf-8") as fh:
        committed = fh.read()
    assert regenerate.transcript_text() == committed, "run python demo/regenerate.py"


def test_demo_transcript_replays_one_finding(tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    code = main([
        "scan", os.path.join(DEMO, "project"),
        "--mode", "replay",
        "--transcript", os.path.join(DEMO, "transcript.jsonl"),
        "--out", out_dir,
        "--project-name", "demo",
    ])
    assert code == 1, "stale demo transcript: run python demo/regenerate.py"
    with open(os.path.join(out_dir, "scan-report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["counts"]["confirmed"] == 1
    finding = [f for f in report["findings"] if f["verdict"] == "confirmed"][0]
    assert finding["rule_id"] == "risky-first-deposit"
    capsys.readouterr()

    score_code = main([
        "score", os.path.join(out_dir, "scan-report.json"),
        os.path.join(DEMO, "truth.yaml"),
    ])
    assert score_code == 0
    assert "TP=1 TN=4 FP=0 FN=0 (sum 5)" in capsys.readouterr().out
