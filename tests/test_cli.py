import json
import os
import subprocess
import sys

import yaml

from solscout.cli import EXIT_ERROR, EXIT_PARTIAL, main
from solscout.config import load_config
from solscout.pipeline import prepare_scan

from chatserver import by_prompt, in_order
from conftest import fixture_path
from helpers import build_transcript, replay_config, write_transcript
from test_pipeline import first_deposit_answers


def prep_first_deposit_transcript(tmp_path):
    root = fixture_path("first_deposit")
    transcript_path = str(tmp_path / "first_deposit.jsonl")
    config = replay_config(root, transcript_path, project_name="first_deposit")
    write_transcript(config, first_deposit_answers(), transcript_path)
    return root, transcript_path


def test_scan_first_deposit_replay_exit_code_and_reports(tmp_path, capsys):
    root, transcript = prep_first_deposit_transcript(tmp_path)
    out_dir = str(tmp_path / "out")
    code = main([
        "scan", root, "--mode", "replay", "--transcript", transcript,
        "--out", out_dir, "--project-name", "first_deposit",
    ])
    assert code == 1  # confirmed findings
    captured = capsys.readouterr().out
    assert "1 confirmed" in captured
    assert "risky-first-deposit" in captured
    with open(os.path.join(out_dir, "scan-report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["counts"]["confirmed"] == 1
    assert os.path.exists(os.path.join(out_dir, "scan-report.md"))


def test_scan_with_a_failing_provider_writes_both_reports_and_exits_partial(
        tmp_path, capsys, monkeypatch, serve):
    monkeypatch.setenv("SOLSCOUT_API_KEY", "secret")
    root = fixture_path("first_deposit")
    oracle = build_transcript(replay_config(root, str(tmp_path / "o.jsonl")),
                              first_deposit_answers())
    answer = by_prompt(oracle)
    server = serve(lambda request: (400, "quota") if len(server.requests) == 3
                   else answer(request))
    config_path = tmp_path / "scan.yaml"
    config_path.write_text(yaml.safe_dump({"provider": {"endpoint": server.url}}))
    out_dir = str(tmp_path / "out")
    code = main(["scan", root, "--config", str(config_path), "--mode", "record",
                 "--transcript", str(tmp_path / "t.jsonl"), "--out", out_dir,
                 "--max-in-flight", "1"])
    assert code == EXIT_PARTIAL
    assert "1 candidates skipped on provider errors" in capsys.readouterr().err
    with open(os.path.join(out_dir, "scan-report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    [failed] = [f for f in report["findings"] if f["reason"].startswith("provider-error")]
    assert failed["verdict"] == "skipped"
    assert failed["reason"] == "provider-error: provider returned 400: quota"
    assert os.path.exists(os.path.join(out_dir, "scan-report.md"))


def test_scan_with_a_refused_key_stops_with_no_report(tmp_path, capsys, monkeypatch, serve):
    monkeypatch.setenv("SOLSCOUT_API_KEY", "wrong")
    server = serve(in_order((401, "invalid api key")))
    config_path = tmp_path / "scan.yaml"
    config_path.write_text(yaml.safe_dump({"provider": {"endpoint": server.url}}))
    out_dir = str(tmp_path / "out")
    code = main(["scan", fixture_path("first_deposit"), "--config", str(config_path),
                 "--mode", "record", "--transcript", str(tmp_path / "t.jsonl"),
                 "--out", out_dir, "--max-in-flight", "1"])
    assert code == EXIT_ERROR
    assert "error: provider returned 401: invalid api key" in capsys.readouterr().err
    assert len(server.requests) == 1
    assert not os.path.exists(os.path.join(out_dir, "scan-report.json"))


def test_start_up_and_a_replay_scan_load_no_network_code(tmp_path):
    root, transcript = prep_first_deposit_transcript(tmp_path)
    code = (
        "import sys\n"
        "import solscout.cli\n"
        "from helpers import replay_config\n"
        "from solscout.pipeline import scan\n"
        f"result = scan(replay_config({root!r}, {transcript!r}))\n"
        "assert len(result.confirmed) == 1\n"
        "print(sorted(m for m in ('requests', 'urllib3', 'http.client', 'ssl',\n"
        "                         'concurrent.futures') if m in sys.modules))\n"
    )
    tests_dir = os.path.dirname(__file__)
    src_dir = os.path.join(os.path.dirname(tests_dir), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src_dir, tests_dir]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.strip() == "[]"


def test_scan_empty_project_exits_clean(tmp_path, capsys):
    root = tmp_path / "empty"
    root.mkdir()
    transcript = tmp_path / "t.jsonl"
    transcript.write_text("", encoding="utf-8")
    out_dir = str(tmp_path / "out")
    code = main([
        "scan", str(root), "--mode", "replay", "--transcript", str(transcript),
        "--out", out_dir,
    ])
    assert code == 0
    with open(os.path.join(out_dir, "scan-report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["findings"] == []


def test_scan_replay_without_transcript_is_config_error(tmp_path, capsys):
    root = fixture_path("first_deposit")
    code = main(["scan", root, "--mode", "replay", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "transcript" in capsys.readouterr().err


def test_scan_live_without_key_is_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SOLSCOUT_API_KEY", raising=False)
    code = main(["scan", fixture_path("first_deposit"), "--mode", "live",
                 "--out", str(tmp_path / "o")])
    assert code == 2


def test_score_first_deposit_report_against_truth(tmp_path, capsys):
    root, transcript = prep_first_deposit_transcript(tmp_path)
    out_dir = str(tmp_path / "out")
    main(["scan", root, "--mode", "replay", "--transcript", transcript,
          "--out", out_dir, "--project-name", "first_deposit"])
    capsys.readouterr()

    truth_path = tmp_path / "truth.yaml"
    truth_path.write_text(yaml.safe_dump({
        "projects": [{
            "name": "first_deposit",
            "tested": ["risky-first-deposit", "wrong-checkpoint-order", "slippage",
                       "front-running", "unauthorized-transfer"],
            "vulnerabilities": [{
                "rule": "risky-first-deposit",
                "function": "contracts/Vault.sol:YaxisVault.deposit",
            }],
        }],
    }), encoding="utf-8")
    code = main(["score", os.path.join(out_dir, "scan-report.json"), str(truth_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "TP=1 TN=4 FP=0 FN=0 (sum 5)" in out
    assert "precision=100.00%" in out
    assert "recall=100.00%" in out


def test_score_prints_expected_rates_from_raw_counts(tmp_path, capsys):
    """A 232-pair fixture engineered to TP=40 TN=154 FP=30 FN=8."""
    types = [f"t{i}" for i in range(232)]
    truth_entries = [
        {"rule": f"t{i}", "function": f"f{i}.sol:C.v{i}"} for i in range(48)
    ]
    truth_path = tmp_path / "truth.yaml"
    truth_path.write_text(yaml.safe_dump({
        "projects": [{"name": "w3b", "tested": types, "vulnerabilities": truth_entries}],
    }), encoding="utf-8")

    findings = []
    for i in range(40):  # match the first 40 ground-truth functions -> TP
        findings.append({
            "rule_id": f"t{i}", "project": "w3b", "file": f"f{i}.sol",
            "function_id": f"C.v{i}", "contract": "C", "function": f"v{i}",
            "span": [1, 2], "verdict": "confirmed",
        })
    for i in range(48, 78):  # 30 findings on truth-free types -> FP
        findings.append({
            "rule_id": f"t{i}", "project": "w3b", "file": "x.sol",
            "function_id": "C.x", "contract": "C", "function": "x",
            "span": [1, 2], "verdict": "confirmed",
        })
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps({"findings": findings}), encoding="utf-8")

    assert main(["score", str(report_path), str(truth_path)]) == 0
    out = capsys.readouterr().out
    assert "TP=40 TN=154 FP=30 FN=8 (sum 232)" in out
    assert "precision=57.14%" in out
    assert "recall=83.33%" in out
    assert "f1=67.80%" in out


def test_score_empty_all_tn(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps({"findings": []}), encoding="utf-8")
    truth_path = tmp_path / "truth.yaml"
    truth_path.write_text(yaml.safe_dump({
        "projects": [{"name": "p", "tested": ["a", "b"], "vulnerabilities": []}],
    }), encoding="utf-8")
    assert main(["score", str(report_path), str(truth_path)]) == 0
    assert "TP=0 TN=2 FP=0 FN=0" in capsys.readouterr().out


def test_score_malformed_truth_exits_2(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps({"findings": []}), encoding="utf-8")
    truth_path = tmp_path / "truth.yaml"
    truth_path.write_text("projects: 'not a list'", encoding="utf-8")
    assert main(["score", str(report_path), str(truth_path)]) == 2


def test_rules_check_shipped(capsys):
    assert main(["rules-check"]) == 0
    assert "10 rules OK" in capsys.readouterr().out


def test_rules_check_empty_dir_warns(tmp_path, capsys):
    assert main(["rules-check", "--rules", str(tmp_path)]) == 0
    assert "0 rules" in capsys.readouterr().out


def test_rules_check_bad_rule_exits_2(tmp_path, capsys):
    (tmp_path / "bad.yaml").write_text(yaml.safe_dump({
        "schema": 1, "id": "bad", "scenarios": ["s"], "property": "p",
        "filters": [{"kind": "FCE", "expressions": ["x"]}],
        "recognition": [{"slot": "A", "question": "q?"}],
        "checks": [{"kind": "VC", "between": ["Z"], "expectation": "present"}],
    }), encoding="utf-8")
    (tmp_path / "broken.yaml").write_text("schema: [1\n", encoding="utf-8")
    assert main(["rules-check", "--rules", str(tmp_path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    paths = [str(tmp_path / name) for name in ("bad.yaml", "broken.yaml")]
    assert [line.split(": ")[0] for line in lines] == paths
    assert "Z" in lines[0] and "<yaml>" in lines[1]
    for line, path in zip(lines, paths):
        assert line.count(path) == 1, line



def test_rules_check_reads_each_rule_once(tmp_path, capsys, monkeypatch):
    from solscout import cli, rules

    read = rules.read_rule
    calls = []

    def counting_read_rule(path):
        calls.append(path)
        return read(path)

    monkeypatch.setattr(rules, "read_rule", counting_read_rule)
    monkeypatch.setattr(cli, "read_rule", counting_read_rule)
    assert main(["rules-check"]) == 0
    assert calls == rules.rule_paths(rules.shipped_rules_dir())

    calls.clear()
    shipped = rules.rule_paths(rules.shipped_rules_dir())[0]
    paths = [str(tmp_path / name) for name in ("a.yaml", "b.yaml")]
    for path in paths:
        with open(shipped, encoding="utf-8") as src, open(path, "w", encoding="utf-8") as dst:
            dst.write(src.read())
    rule_id = read(shipped).id
    capsys.readouterr()
    assert main(["rules-check", "--rules", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"{paths[1]}: field 'id': duplicate rule id {rule_id!r} (also in {paths[0]})\n")
    assert calls == paths

def test_graph_dump(capsys):
    assert main(["graph-dump", fixture_path("first_deposit")]) == 0
    dot = capsys.readouterr().out
    assert '"YaxisVault.deposit" -> "YaxisVault.balance";' in dot


def test_graph_dump_is_the_scans_graph(tmp_path, capsys):
    """Whitelisted functions are left out, as in the scan; parse failures warn."""
    contracts = tmp_path / "contracts"
    contracts.mkdir()
    (contracts / "Token.sol").write_text(
        "contract Token is ERC20 {\n"
        "    uint256 supply;\n"
        "    function totalSupply() public view returns (uint256) { return supply; }\n"
        "    function half() public view returns (uint256) { return totalSupply() / 2; }\n"
        "}\n", encoding="utf-8")
    (contracts / "Broken.sol").write_text("contract Broken {", encoding="utf-8")
    assert main(["graph-dump", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    nodes = [line.strip()[1:-2] for line in captured.out.splitlines()
             if line.strip().endswith('";') and "->" not in line]
    assert nodes == prepare_scan(load_config(str(tmp_path))).graph.nodes
    assert "Token.half" in nodes and "Token.totalSupply" not in nodes
    assert "warning: skipped contracts/Broken.sol" in captured.err


def test_graph_dump_reachable_only_drops_unreachable_callers(tmp_path, capsys):
    (tmp_path / "A.sol").write_text(
        "contract A {\n"
        "    uint256 x;\n"
        "    function pub() public { helper(); }\n"
        "    function helper() internal { x = 1; }\n"
        "    function dead() internal { helper(); }\n"
        "}\n", encoding="utf-8")
    assert main(["graph-dump", "--reachable-only", str(tmp_path)]) == 0
    dot = capsys.readouterr().out
    assert '"A.pub" -> "A.helper";' in dot
    assert "A.dead" not in dot
