"""Command-line entry point: scan, score, rules-check, graph-dump."""

from __future__ import annotations

import argparse
import json
import os
import sys

import yaml

from .config import MODES, load_config
from .errors import ConfigError, RuleParseError, SolscoutError, TruthMismatch
from .pipeline import prepare_scan, scan
from .report import Finding, GroundTruth, derive_rates, score
from .rules import check_unique_ids, read_rule, rule_paths, shipped_rules_dir

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2
EXIT_PARTIAL = 3  # reports written, but the provider failed some candidates


def _pct(value) -> str:
    return "undefined" if value is None else f"{value * 100:.2f}%"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solscout",
        description="Scan Solidity projects for logic vulnerabilities "
                    "(LLM matching + static confirmation).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="scan a project directory")
    p_scan.add_argument("project_root")
    p_scan.add_argument("--config", default="", help="YAML config file")
    p_scan.add_argument("--rules", dest="rules_dir", default=None)
    p_scan.add_argument("--whitelist", default=None)
    p_scan.add_argument("--mode", choices=MODES, default=None)
    p_scan.add_argument("--transcript", default=None)
    p_scan.add_argument("--out", dest="output_dir", default=None)
    p_scan.add_argument("--token-budget", type=int, default=None)
    p_scan.add_argument("--max-in-flight", type=int, default=None)
    p_scan.add_argument("--project-name", default=None)

    p_score = sub.add_parser("score", help="score a scan report against ground truth")
    p_score.add_argument("report_path")
    p_score.add_argument("truth_path")

    p_rules = sub.add_parser("rules-check", help="validate a rules directory")
    p_rules.add_argument("--rules", dest="rules_dir", default=shipped_rules_dir())

    p_graph = sub.add_parser("graph-dump", help="dump the scan's call graph as DOT")
    p_graph.add_argument("project_root")
    p_graph.add_argument("--out", default="", help="write DOT here instead of stdout")
    p_graph.add_argument("--reachable-only", action="store_true")
    return parser


def cmd_scan(args) -> int:
    overrides = {
        "rules_dir": args.rules_dir,
        "whitelist": args.whitelist,
        "mode": args.mode,
        "transcript": args.transcript,
        "output_dir": args.output_dir,
        "token_budget": args.token_budget,
        "max_in_flight": args.max_in_flight,
        "project": args.project_name,
    }
    try:
        config = load_config(args.project_root, args.config, overrides)
        result = scan(config)
    except (ConfigError, RuleParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    os.makedirs(config.output_dir, exist_ok=True)
    json_path = os.path.join(config.output_dir, "scan-report.json")
    md_path = os.path.join(config.output_dir, "scan-report.md")
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(result.report("json"))
    with open(md_path, "w", encoding="utf-8") as fh:
        fh.write(result.report("markdown"))

    confirmed = result.confirmed
    stats = result.stats
    print(
        f"scanned {stats['files_included']} files "
        f"({stats['functions_reachable']} reachable functions, "
        f"{stats['candidates_filtered']} candidates): "
        f"{len(confirmed)} confirmed, {stats['rejected']} rejected, "
        f"{stats['skipped']} skipped"
    )
    for finding in confirmed:
        print(f"  [{finding.rule_id}] {finding.file}:{finding.span[0]}-{finding.span[1]} "
              f"{finding.contract}.{finding.function}")
    print(f"reports written to {json_path} and {md_path}")
    failed = result.provider_failures
    if failed:
        print(f"warning: {len(failed)} candidates skipped on provider errors, "
              f"first: {failed[0].reason}", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_FINDINGS if confirmed else EXIT_CLEAN


def _findings_from_report(path: str) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "findings" not in doc:
        raise TruthMismatch(f"{path}: not a scan report")
    findings = []
    for raw in doc["findings"]:
        findings.append(Finding(
            rule_id=raw["rule_id"],
            project=raw["project"],
            file=raw["file"],
            function_id=raw["function_id"],
            contract=raw["contract"],
            function=raw["function"],
            span=tuple(raw["span"]),
            verdict=raw["verdict"],
        ))
    return findings


def cmd_score(args) -> int:
    try:
        findings = _findings_from_report(args.report_path)
        truth = GroundTruth.load(args.truth_path)
        counts = score(findings, truth)
    except (TruthMismatch, OSError, KeyError, ValueError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    rates = derive_rates(counts)
    print(f"TP={counts.tp} TN={counts.tn} FP={counts.fp} FN={counts.fn} (sum {counts.total})")
    print(f"precision={_pct(rates.precision)} recall={_pct(rates.recall)} "
          f"f1={_pct(rates.f1)} fp_rate={_pct(rates.fp_rate)}")
    return EXIT_CLEAN


def cmd_rules_check(args) -> int:
    try:
        paths = rule_paths(args.rules_dir)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    errors = []
    rules = []
    for path in paths:
        try:
            rules.append(read_rule(path))
        except RuleParseError as exc:
            errors.append(str(exc))
    if not errors:
        try:
            check_unique_ids(paths, rules)
        except RuleParseError as exc:
            errors.append(str(exc))
    if errors:
        for line in errors:
            print(line, file=sys.stderr)
        return EXIT_ERROR
    if not paths:
        print("warning: 0 rules")
    else:
        print(f"{len(paths)} rules OK")
    return EXIT_CLEAN


def cmd_graph_dump(args) -> int:
    try:
        prepared = prepare_scan(load_config(args.project_root), every_body=True)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    for path, msg in prepared.parse_failures:
        print(f"warning: skipped {path}: {msg}", file=sys.stderr)
    dot = prepared.graph.to_dot()
    if args.reachable_only:
        # a node or edge line stays when every id quoted in it is reachable
        keep = prepared.reach.reachable
        dot = "\n".join(line for line in dot.splitlines()
                        if all(fid in keep for fid in line.split('"')[1::2]))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dot + "\n")
    else:
        print(dot)
    return EXIT_CLEAN


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "scan":
            return cmd_scan(args)
        if args.command == "score":
            return cmd_score(args)
        if args.command == "rules-check":
            return cmd_rules_check(args)
        if args.command == "graph-dump":
            return cmd_graph_dump(args)
    except SolscoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
