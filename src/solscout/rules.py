"""Vulnerability rule registry.

Each rule file decomposes one vulnerability type into natural-language
scenario/property sentences for the LLM, pre-LLM filter directives, a
recognition questionnaire, and the static checks that confirm or reject
a candidate. Loading is fail-fast: one malformed file aborts the load so
a scan never runs a silently partial ruleset.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from importlib import resources

import yaml

from .errors import RuleParseError

FILTER_KINDS = {"FNK", "FCE", "FCNE", "FCCE", "FCNCE", "FPT", "FPNC", "FNM", "CFN"}
CHECK_KINDS = {"DF", "VC", "OC", "FA"}
EXPECTATIONS = {
    "DF": {"present", "absent"},
    "VC": {"present", "absent"},
    "OC": {"before", "after"},
    "FA": {"user-controlled"},
}
SCHEMA_VERSION = 1

# libyaml's loader when PyYAML was built with it: the same data, about 8x
# faster on the shipped rules; its error messages are worded differently
_SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_yaml(stream):
    """``yaml.safe_load``, through libyaml when PyYAML has it."""
    return yaml.load(stream, Loader=_SAFE_LOADER)


@dataclass(frozen=True)
class ContextPolicy:
    include_callers: bool = True
    include_callees: bool = True


@dataclass
class FilterDirective:
    kind: str
    payload: object = None  # keywords | expressions | combinations | types, normalized


@dataclass
class CheckDirective:
    kind: str
    between: list
    expectation: str
    arg: int | None = None  # FA only: pin one argument index


@dataclass
class RecognitionSpec:
    questions: list = field(default_factory=list)  # (slot, question) in order

    @property
    def slots(self) -> list:
        return [slot for slot, _ in self.questions]


@dataclass
class VulnRule:
    id: str
    title: str
    scenarios: list
    property: str
    filters: list
    checks: list
    context_policy: ContextPolicy
    recognition: RecognitionSpec

    @property
    def check_kinds(self) -> list:
        return [c.kind for c in self.checks]


_PAYLOAD_KEY = {
    "FNK": "keywords",
    "FCE": "expressions",
    "FCNE": "expressions",
    "FCCE": "combinations",
    "FCNCE": "combinations",
    "FPT": "types",
}


def _parse_filter(path: str, raw: dict) -> FilterDirective:
    kind = raw.get("kind")
    if kind not in FILTER_KINDS:
        raise RuleParseError(path, "filters.kind", f"unknown filter kind {kind!r}")
    key = _PAYLOAD_KEY.get(kind)
    if key is None:
        extra = set(raw) - {"kind"}
        if extra:
            raise RuleParseError(path, f"filters.{kind}", f"takes no payload, got {sorted(extra)}")
        return FilterDirective(kind=kind)
    payload = raw.get(key)
    if kind in ("FCCE", "FCNCE"):
        ok = (isinstance(payload, list) and payload
              and all(isinstance(c, list) and c and all(isinstance(s, str) and s for s in c)
                      for c in payload))
    else:
        ok = (isinstance(payload, list) and payload
              and all(isinstance(s, str) and s for s in payload))
    if not ok:
        raise RuleParseError(path, f"filters.{kind}.{key}", "missing or malformed payload")
    # normalized once here, for the case-insensitive matches of filters.py
    if kind in ("FCCE", "FCNCE"):
        payload = [[s.lower() for s in combo] for combo in payload]
    elif kind == "FPT":
        payload = [s.lower().replace(" ", "") for s in payload]
    else:
        payload = [s.lower() for s in payload]
    return FilterDirective(kind=kind, payload=payload)


def _parse_check(path: str, raw: dict, slots: list) -> CheckDirective:
    kind = raw.get("kind")
    if kind not in CHECK_KINDS:
        raise RuleParseError(path, "checks.kind", f"unknown check kind {kind!r}")
    between = raw.get("between")
    if not isinstance(between, list) or not between:
        raise RuleParseError(path, f"checks.{kind}.between", "must be a nonempty list of slots")
    for slot in between:
        if slot not in slots:
            raise RuleParseError(
                path, f"checks.{kind}.between",
                f"slot {slot!r} is not defined in recognition",
            )
    expectation = raw.get("expectation", "present")
    if expectation not in EXPECTATIONS[kind]:
        raise RuleParseError(
            path, f"checks.{kind}.expectation",
            f"{expectation!r} not allowed for {kind} (allowed: {sorted(EXPECTATIONS[kind])})",
        )
    want = {"DF": (2,), "OC": (2,), "FA": (1, 2)}.get(kind)
    if want is not None and len(between) not in want:
        raise RuleParseError(
            path, f"checks.{kind}.between",
            f"needs {' or '.join(map(str, want))} slots",
        )
    arg = raw.get("arg")
    if arg is not None and (kind != "FA" or not isinstance(arg, int) or arg < 0):
        raise RuleParseError(path, f"checks.{kind}.arg", "only FA takes a non-negative arg index")
    return CheckDirective(kind=kind, between=list(between), expectation=expectation, arg=arg)


def parse_rule(path: str, data: dict) -> VulnRule:
    if not isinstance(data, dict):
        raise RuleParseError(path, "<root>", "rule file must be a mapping")
    if data.get("schema") != SCHEMA_VERSION:
        raise RuleParseError(path, "schema", f"expected schema: {SCHEMA_VERSION}")
    rule_id = data.get("id")
    if not isinstance(rule_id, str) or not rule_id:
        raise RuleParseError(path, "id", "missing rule id")
    title = data.get("title") or rule_id
    scenarios = data.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios or not all(
        isinstance(s, str) and s.strip() for s in scenarios
    ):
        raise RuleParseError(path, "scenarios", "must be a nonempty list of sentences")
    prop = data.get("property")
    if not isinstance(prop, str) or not prop.strip():
        raise RuleParseError(path, "property", "must be a nonempty sentence")

    filters = [_parse_filter(path, f) for f in _as_list(path, "filters", data.get("filters"))]

    questions = []
    seen_slots = set()
    for raw in _as_list(path, "recognition", data.get("recognition", []), allow_empty=True):
        slot, question = raw.get("slot"), raw.get("question")
        if not slot or not isinstance(slot, str):
            raise RuleParseError(path, "recognition.slot", "missing slot name")
        if slot in seen_slots:
            raise RuleParseError(path, "recognition.slot", f"duplicate slot {slot!r}")
        if not question or not isinstance(question, str):
            raise RuleParseError(path, "recognition.question", f"missing question for {slot!r}")
        seen_slots.add(slot)
        questions.append((slot, question.strip()))
    recognition = RecognitionSpec(questions=questions)

    checks = [
        _parse_check(path, c, recognition.slots)
        for c in _as_list(path, "checks", data.get("checks", []), allow_empty=True)
    ]
    if checks and not questions:
        raise RuleParseError(path, "recognition", "rules with checks need recognition questions")

    suppresses_callers = any(f.kind in ("FPNC", "CFN") for f in filters)
    ctx_raw = data.get("context") or {}
    if not isinstance(ctx_raw, dict):
        raise RuleParseError(path, "context", "must be a mapping")
    callers = ctx_raw.get("callers", not suppresses_callers)
    callees = ctx_raw.get("callees", True)
    if suppresses_callers and callers:
        raise RuleParseError(
            path, "context.callers",
            "FPNC/CFN directives suppress callers; context.callers must not be true",
        )
    policy = ContextPolicy(include_callers=bool(callers), include_callees=bool(callees))

    return VulnRule(
        id=rule_id,
        title=title,
        scenarios=[s.strip() for s in scenarios],
        property=prop.strip(),
        filters=filters,
        checks=checks,
        context_policy=policy,
        recognition=recognition,
    )


def _as_list(path, fieldname, value, allow_empty=False):
    if value is None and allow_empty:
        return []
    if not isinstance(value, list) or (not value and not allow_empty):
        raise RuleParseError(path, fieldname, "must be a nonempty list")
    for item in value:
        if not isinstance(item, dict):
            raise RuleParseError(path, fieldname, "entries must be mappings")
    return value


def rule_paths(rule_dir: str) -> list:
    """The rule files of a directory, in name order."""
    return [os.path.join(rule_dir, fname) for fname in sorted(os.listdir(rule_dir))
            if fname.endswith((".yaml", ".yml"))]


def read_rule(path: str) -> VulnRule:
    """Read and validate one rule file; a YAML error is a ``RuleParseError``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = load_yaml(fh)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            reason = (str(exc) if mark is None
                      else f"line {mark.line + 1}, column {mark.column + 1}: {exc.problem}")
            raise RuleParseError(path, "<yaml>", reason) from exc
    return parse_rule(path, data)


def check_unique_ids(paths: list, rules: list) -> None:
    """Reject the first rule whose id an earlier file already declares.

    ``rules[i]`` is the rule read from ``paths[i]``.
    """
    seen = {}
    for path, rule in zip(paths, rules):
        if rule.id in seen:
            raise RuleParseError(path, "id", f"duplicate rule id {rule.id!r} (also in {seen[rule.id]})")
        seen[rule.id] = path


def load_rules(rule_dir: str) -> list:
    """Load and validate every rule file in a directory, sorted by id."""
    paths = rule_paths(rule_dir)
    rules = [read_rule(path) for path in paths]
    check_unique_ids(paths, rules)
    return sorted(rules, key=lambda r: r.id)


def shipped_rules_dir() -> str:
    """Directory of the rule files bundled with the package."""
    return str(resources.files("solscout").joinpath("data/rules"))
