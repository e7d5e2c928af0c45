"""Findings aggregation, ground-truth scoring, and cost accounting.

Scoring counts one outcome per (project, tested vulnerability type)
pair: a true positive needs a confirmed finding that matches the
ground-truth function locator, and spurious findings for a pair count
as a single false positive no matter how many functions were flagged.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from json.encoder import encode_basestring_ascii as _encode_str

from .errors import TruthMismatch
from .rules import load_yaml

REPORT_SCHEMA_VERSION = 1
_INF = float("inf")


@dataclass(slots=True)
class Finding:
    rule_id: str
    project: str
    file: str
    function_id: str
    contract: str
    function: str
    span: tuple  # (start line, end line)
    verdict: str  # confirmed|rejected|skipped
    reason: str = ""
    recognized: dict = field(default_factory=dict)  # slot -> {name, description}
    check_verdicts: list = field(default_factory=list)
    transcript_keys: list = field(default_factory=list)
    excerpt: str = ""


@dataclass
class GroundTruth:
    entries: set = field(default_factory=set)  # (project, rule id, locator)
    tested_types: dict = field(default_factory=dict)  # project -> set of rule ids

    @classmethod
    def load(cls, path: str) -> "GroundTruth":
        with open(path, "r", encoding="utf-8") as fh:
            data = load_yaml(fh)
        if not isinstance(data, dict) or not isinstance(data.get("projects"), list):
            raise TruthMismatch(f"{path}: expected a top-level 'projects' list")
        truth = cls()
        for proj in data["projects"]:
            name = proj.get("name")
            tested = proj.get("tested") or []
            if not name or not isinstance(tested, list):
                raise TruthMismatch(f"{path}: each project needs 'name' and 'tested'")
            truth.tested_types[name] = set(tested)
            for vuln in proj.get("vulnerabilities") or []:
                rule_id = vuln.get("rule")
                locator = vuln.get("function")
                if not rule_id or not locator:
                    raise TruthMismatch(f"{path}: vulnerability needs 'rule' and 'function'")
                if rule_id not in truth.tested_types[name]:
                    raise TruthMismatch(
                        f"{path}: {name}: vulnerability rule {rule_id!r} not in tested types"
                    )
                truth.entries.add((name, rule_id, locator))
        return truth


@dataclass
class ConfusionCounts:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass
class Rates:
    precision: float | None
    recall: float | None
    f1: float | None
    fp_rate: float | None


def _locator_matches(finding: Finding, locator: str) -> bool:
    if ":" not in locator:
        return False
    file_part, func_part = locator.rsplit(":", 1)
    if f"{finding.contract}.{finding.function}" != func_part:
        return False
    path = finding.file.replace("\\", "/")
    return path == file_part or path.endswith("/" + file_part)


def score(findings: list, truth: GroundTruth) -> ConfusionCounts:
    """Per (project, tested rule) confusion counting at function level."""
    confirmed = [f for f in findings if f.verdict == "confirmed"]
    unknown = {f.project for f in confirmed} - set(truth.tested_types)
    if unknown:
        raise TruthMismatch(f"findings reference projects absent from truth: {sorted(unknown)}")

    counts = ConfusionCounts()
    for project in sorted(truth.tested_types):
        for rule_id in sorted(truth.tested_types[project]):
            pair_findings = [
                f for f in confirmed if f.project == project and f.rule_id == rule_id
            ]
            pair_entries = [
                loc for (p, r, loc) in truth.entries if p == project and r == rule_id
            ]
            if pair_entries:
                matched = any(
                    _locator_matches(f, loc) for f in pair_findings for loc in pair_entries
                )
                if matched:
                    counts.tp += 1
                else:
                    counts.fn += 1
            else:
                if pair_findings:
                    counts.fp += 1
                else:
                    counts.tn += 1
    return counts


def derive_rates(counts: ConfusionCounts) -> Rates:
    def ratio(num, den):
        return num / den if den else None

    precision = ratio(counts.tp, counts.tp + counts.fp)
    recall = ratio(counts.tp, counts.tp + counts.fn)
    f1 = None
    if precision is not None and recall is not None and (precision + recall) > 0:
        f1 = 2 * precision * recall / (precision + recall)
    fp_rate = ratio(counts.fp, counts.fp + counts.tn)
    return Rates(precision=precision, recall=recall, f1=f1, fp_rate=fp_rate)


@dataclass
class CostLedger:
    total_seconds: float = 0.0
    tokens_in: int = 0
    tokens_out: int = 0
    total_usd: float = 0.0
    kloc: float = 0.0
    seconds_per_kloc: float = 0.0
    usd_per_kloc: float = 0.0


def summarize_cost(exchanges: list, wall_seconds: float, kloc: float,
                   price_in_per_1k: float = 0.0, price_out_per_1k: float = 0.0) -> CostLedger:
    tokens_in = sum(e.tokens_in for e in exchanges)
    tokens_out = sum(e.tokens_out for e in exchanges)
    usd = (tokens_in * price_in_per_1k + tokens_out * price_out_per_1k) / 1000.0
    ledger = CostLedger(
        total_seconds=round(wall_seconds, 6),
        tokens_in=tokens_in,
        tokens_out=tokens_out,
        total_usd=round(usd, 6),
        kloc=round(kloc, 6),
    )
    if kloc > 0:
        ledger.seconds_per_kloc = round(ledger.total_seconds / kloc, 6)
        ledger.usd_per_kloc = round(ledger.total_usd / kloc, 6)
    return ledger


def count_kloc(sources: list) -> float:
    """Thousands of non-blank, non-comment lines across included files.

    A line is one of ``str.splitlines``; it is blank if it is empty or
    all whitespace (``str.isspace``, what ``str.strip`` removes).
    """
    total = 0
    for src in sources:
        lines = (src.stripped or src.text).splitlines()
        total += len(lines) - lines.count("") - sum(map(str.isspace, lines))
    return total / 1000.0


# ----------------------------------------------------------------------
# report documents


def _ordered(findings: list) -> list:
    return sorted(
        findings,
        key=lambda f: (f.rule_id, f.file, tuple(f.span), f.function_id, f.verdict),
    )


def emit_report(findings: list, ledger: CostLedger, fmt: str, meta: dict | None = None) -> str:
    meta = meta or {}
    if fmt == "json":
        doc = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "meta": meta,
            "ledger": ledger,
            "findings": _ordered(findings),
            "counts": {
                "confirmed": sum(1 for f in findings if f.verdict == "confirmed"),
                "rejected": sum(1 for f in findings if f.verdict == "rejected"),
                "skipped": sum(1 for f in findings if f.verdict == "skipped"),
            },
        }
        return json_text(doc)
    if fmt == "markdown":
        return _markdown_report(findings, ledger, meta)
    raise ValueError(f"unknown report format {fmt!r}")


def json_text(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)`` and a newline, byte for byte, for str keys.

    A dataclass instance is written as the object of its fields, as
    ``json.dumps`` would write ``dataclasses.asdict`` of it, but without
    that copy. With ``indent`` set, ``json.dumps`` takes its
    generator-based pure-Python encoder. This writer appends every piece
    of the document to one list, then the final newline, and joins it
    once, so the text is never copied; strings go through the C string
    encoder. Punctuation and encoded keys are shared strings, so the
    list's pieces take less memory than the encoder's.
    """
    out: list = []
    _write_json(doc, 0, out, {})
    out.append("\n")
    return "".join(out)


def _punctuation(depth: int) -> tuple:
    """(open list, open object, separator, close list, close object) of a container at ``depth``."""
    outer = "\n" + "  " * depth
    inner = outer + "  "
    return "[" + inner, "{" + inner, "," + inner, outer + "]", outer + "}"


_PUNCTUATION = tuple(_punctuation(depth) for depth in range(8))

_FIELD_NAMES: dict = {}  # dataclass -> its field names, sorted


def _write_json(value, depth: int, out: list, keys: dict) -> None:
    """Append ``value``, a container's contents indented one level past ``depth``.

    ``keys`` maps each object key written so far to its encoded text.
    """
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        sep, _open_object, comma, close, _close_object = (
            _PUNCTUATION[depth] if depth < len(_PUNCTUATION) else _punctuation(depth))
        for item in value:
            out.append(sep)
            _write_json(item, depth + 1, out, keys)
            sep = comma
        out.append(close)
    elif isinstance(value, dict):
        _write_object(sorted(value.items()), depth, out, keys)
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        if value != value:
            out.append("NaN")
        elif value in (_INF, -_INF):
            out.append("Infinity" if value > 0 else "-Infinity")
        else:
            out.append(float.__repr__(value))
    else:
        cls = type(value)
        names = _FIELD_NAMES.get(cls)
        if names is None:
            if not is_dataclass(cls):
                raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")
            names = _FIELD_NAMES[cls] = sorted(f.name for f in fields(cls))
        _write_object(((name, getattr(value, name)) for name in names), depth, out, keys)


def _write_object(members, depth: int, out: list, keys: dict) -> None:
    """Append the object of ``members``, its (key, value) pairs in key order."""
    _open_list, sep, comma, _close_list, close = (
        _PUNCTUATION[depth] if depth < len(_PUNCTUATION) else _punctuation(depth))
    first = sep
    for key, item in members:
        text = keys.get(key)
        if text is None:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            text = keys[key] = _encode_str(key) + ": "
        out += (sep, text)
        _write_json(item, depth + 1, out, keys)
        sep = comma
    out.append("{}" if sep is first else close)


def _markdown_report(findings: list, ledger: CostLedger, meta: dict) -> str:
    lines = ["# Scan report", ""]
    if meta:
        lines.append(f"- project: `{meta.get('project_root', '')}`")
        lines.append(f"- config fingerprint: `{meta.get('config_fingerprint', '')}`")
        lines.append(f"- mode: {meta.get('mode', '')}")
        lines.append("")
    lines += [
        "## Cost ledger",
        "",
        "| seconds | tokens in | tokens out | USD | KLoC | s/KLoC | USD/KLoC |",
        "|---|---|---|---|---|---|---|",
        f"| {ledger.total_seconds} | {ledger.tokens_in} | {ledger.tokens_out} "
        f"| {ledger.total_usd} | {ledger.kloc} | {ledger.seconds_per_kloc} "
        f"| {ledger.usd_per_kloc} |",
        "",
    ]
    by_rule: dict[str, list] = {}
    for f in _ordered(findings):
        by_rule.setdefault(f.rule_id, []).append(f)
    if not by_rule:
        lines += ["## Findings", "", "No findings.", ""]
    for rule_id in sorted(by_rule):
        lines += [f"## {rule_id}", ""]
        for f in by_rule[rule_id]:
            lines.append(
                f"### {f.contract}.{f.function} — verdict: {f.verdict}"
                + (f" ({f.reason})" if f.reason else "")
            )
            lines.append("")
            lines.append(f"- file: `{f.file}` lines {f.span[0]}-{f.span[1]}")
            for slot, info in sorted(f.recognized.items()):
                lines.append(f"- {slot}: `{info['name']}` — {info['description']}")
            for v in f.check_verdicts:
                ev = ", ".join(f"lines {a}-{b}" for a, b in (tuple(s) for s in v.evidence))
                lines.append(
                    f"- check {v.kind} ({v.expectation}): {v.result}"
                    + (f" — evidence: {ev}" if ev else "")
                )
            if f.transcript_keys:
                lines.append(f"- transcript: {', '.join(f.transcript_keys)}")
            if f.excerpt:
                lines += ["", "```solidity", f.excerpt.rstrip(), "```"]
            lines.append("")
    # the text ends in one newline: trailing blank lines and spaces are
    # dropped before the one join, not from a copy of the joined text
    while not lines[-1].strip():
        lines.pop()
    lines[-1] = lines[-1].rstrip()
    lines.append("")
    return "\n".join(lines)
