import re

import pytest
import yaml

from solscout import rules as rules_module
from solscout.errors import RuleParseError
from solscout.rules import (
    ContextPolicy,
    load_rules,
    parse_rule,
    rule_paths,
    shipped_rules_dir,
)

from helpers import RuleNotFound, filter_kinds, rule_for_id

MINIMAL = {
    "schema": 1,
    "id": "demo",
    "title": "Demo",
    "scenarios": ["do something risky"],
    "property": "and never check it",
    "filters": [{"kind": "FCE", "expressions": ["risky"]}],
    "recognition": [{"slot": "VariableA", "question": "which variable is risky?"}],
    "checks": [{"kind": "VC", "between": ["VariableA"], "expectation": "present"}],
}


def write_rule(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return path


def test_shipped_rules_load():
    rules = load_rules(shipped_rules_dir())
    assert len(rules) == 10
    assert [r.id for r in rules] == sorted(r.id for r in rules)


def test_shipped_rule_lookup_examples():
    rules = load_rules(shipped_rules_dir())
    rfd = rule_for_id(rules, "risky-first-deposit")
    assert filter_kinds(rfd) == ["FCCE"]
    assert rfd.check_kinds == ["DF", "VC"]
    wco = rule_for_id(rules, "wrong-checkpoint-order")
    assert filter_kinds(wco) == ["FCE", "CFN"]
    assert wco.check_kinds == ["OC"]
    assert wco.context_policy == ContextPolicy(include_callers=False, include_callees=True)
    with pytest.raises(RuleNotFound):
        rule_for_id(rules, "nonexistent")


def test_empty_rules_dir(tmp_path):
    assert load_rules(str(tmp_path)) == []


def test_minimal_rule_roundtrip(tmp_path):
    write_rule(tmp_path, "demo.yaml", MINIMAL)
    rules = load_rules(str(tmp_path))
    assert rules[0].id == "demo"
    assert rules[0].scenarios == ["do something risky"]


def test_unknown_slot_in_check_rejected(tmp_path):
    bad = dict(MINIMAL)
    bad["checks"] = [{"kind": "VC", "between": ["VariableZ"], "expectation": "present"}]
    write_rule(tmp_path, "bad.yaml", bad)
    with pytest.raises(RuleParseError) as exc:
        load_rules(str(tmp_path))
    assert "VariableZ" in str(exc.value)


def test_one_bad_file_fails_whole_load(tmp_path):
    write_rule(tmp_path, "good.yaml", MINIMAL)
    write_rule(tmp_path, "zbad.yaml", {"schema": 1, "id": "broken"})
    with pytest.raises(RuleParseError):
        load_rules(str(tmp_path))


@pytest.mark.parametrize("mutation,field", [
    ({"schema": 2}, "schema"),
    ({"id": None}, "id"),
    ({"scenarios": []}, "scenarios"),
    ({"property": " "}, "property"),
    ({"filters": [{"kind": "XXX"}]}, "filters.kind"),
    ({"filters": [{"kind": "FCCE", "combinations": ["flat"]}]}, "FCCE"),
    ({"filters": [{"kind": "FNM", "keywords": ["x"]}]}, "FNM"),
    ({"checks": [{"kind": "OC", "between": ["VariableA"], "expectation": "before"}]}, "OC"),
    ({"checks": [{"kind": "VC", "between": ["VariableA"], "expectation": "before"}]}, "expectation"),
    ({"checks": [{"kind": "DF", "between": ["VariableA", "VariableA"], "arg": 1,
                  "expectation": "present"}]}, "arg"),
])
def test_schema_violations(tmp_path, mutation, field):
    bad = dict(MINIMAL)
    bad.update(mutation)
    write_rule(tmp_path, "bad.yaml", bad)
    with pytest.raises(RuleParseError) as exc:
        load_rules(str(tmp_path))
    assert field.split(".")[0] in str(exc.value)


def test_checks_require_recognition(tmp_path):
    bad = dict(MINIMAL)
    bad["recognition"] = []
    write_rule(tmp_path, "bad.yaml", bad)
    with pytest.raises(RuleParseError):
        load_rules(str(tmp_path))


def test_duplicate_rule_ids_rejected(tmp_path):
    write_rule(tmp_path, "a.yaml", MINIMAL)
    write_rule(tmp_path, "b.yaml", MINIMAL)
    with pytest.raises(RuleParseError) as exc:
        load_rules(str(tmp_path))
    assert "duplicate" in str(exc.value)


def test_context_policy_derived_from_directives():
    rule = parse_rule("mem", {
        **MINIMAL,
        "filters": [{"kind": "CFN"}],
    })
    assert rule.context_policy.include_callers is False
    assert rule.context_policy.include_callees is True


def test_context_contradiction_rejected():
    with pytest.raises(RuleParseError):
        parse_rule("mem", {
            **MINIMAL,
            "filters": [{"kind": "FPNC"}],
            "context": {"callers": True},
        })


def test_load_is_deterministic(tmp_path):
    write_rule(tmp_path, "demo.yaml", MINIMAL)
    first = load_rules(str(tmp_path))
    second = load_rules(str(tmp_path))
    assert [r.id for r in first] == [r.id for r in second]
    assert first[0].filters[0].payload == second[0].filters[0].payload


# the pure-Python loader, and libyaml's when PyYAML was built with it
LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])


def test_shipped_rules_load_equal_under_both_yaml_loaders(monkeypatch):
    expected = load_rules(shipped_rules_dir())
    for path in rule_paths(shipped_rules_dir()):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        data = [yaml.load(text, Loader=loader) for loader in LOADERS]
        assert all(other == data[0] for other in data), path
    for loader in LOADERS:
        monkeypatch.setattr(rules_module, "_SAFE_LOADER", loader)
        assert load_rules(shipped_rules_dir()) == expected


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
def test_a_yaml_error_names_its_line_and_column(monkeypatch, tmp_path, loader):
    monkeypatch.setattr(rules_module, "_SAFE_LOADER", loader)
    (tmp_path / "broken.yaml").write_text("schema: 1\nid: [1, 2\n", encoding="utf-8")
    with pytest.raises(RuleParseError) as exc:
        load_rules(str(tmp_path))
    assert exc.value.field == "<yaml>"
    assert re.fullmatch(r"line \d+, column \d+: \S.*", exc.value.reason)
