import json
import re
import shutil
from dataclasses import asdict

import pytest
import yaml

from solscout.config import load_config, shipped_whitelist_path
from solscout.errors import ConfigError, ProviderUnavailable
from solscout.transport import HttpProvider, ProviderConfig

from conftest import fixture_path


def test_defaults():
    config = load_config(fixture_path("first_deposit"))
    assert config.mode == "live"
    assert config.provider.temperature == 0.0
    assert config.provider.max_context_tokens == 4096
    assert config.token_budget == 4096 - 1024
    assert config.whitelist_path == shipped_whitelist_path()
    assert config.project_name == "first_deposit"


def test_yaml_config_and_flag_overrides(tmp_path):
    config_path = tmp_path / "scan.yaml"
    config_path.write_text(yaml.safe_dump({
        "project": "from-yaml",
        "mode": "record",
        "token_budget": 2000,
        "provider": {
            "model": "local-model",
            "temperature": 0.0,
            "price_in_per_1k": 0.0015,
            "price_out_per_1k": 0.002,
        },
    }), encoding="utf-8")
    config = load_config(
        fixture_path("first_deposit"), str(config_path),
        overrides={"mode": "replay", "transcript": "t.jsonl"},
    )
    assert config.mode == "replay"  # flag wins over file
    assert config.project_name == "from-yaml"
    assert config.token_budget == 2000
    assert config.provider.model == "local-model"
    assert config.provider.price_in_per_1k == 0.0015


def test_unknown_provider_key_rejected(tmp_path):
    config_path = tmp_path / "scan.yaml"
    config_path.write_text(yaml.safe_dump({"provider": {"modle": "typo"}}), encoding="utf-8")
    with pytest.raises(ConfigError, match="modle"):
        load_config(fixture_path("first_deposit"), str(config_path))


def test_unknown_top_level_key_rejected(tmp_path):
    config_path = tmp_path / "scan.yaml"
    config_path.write_text(yaml.safe_dump({"mode": "replay", "trancript": "t.jsonl"}),
                           encoding="utf-8")
    with pytest.raises(ConfigError, match="trancript"):
        load_config(fixture_path("first_deposit"), str(config_path))


def test_every_provider_field_is_a_provider_key(tmp_path):
    values = asdict(ProviderConfig(model="m", timeout=5.0, max_in_flight=2))
    config_path = tmp_path / "scan.yaml"
    config_path.write_text(yaml.safe_dump({"provider": values}), encoding="utf-8")
    config = load_config(fixture_path("first_deposit"), str(config_path))
    assert asdict(config.provider) == values


@pytest.mark.parametrize("values, key", [
    ({"max_in_flight": "many"}, "max_in_flight"),
    ({"max_in_flight": "4"}, "max_in_flight"),
    ({"provider": {"max_in_flight": "many"}}, "provider.max_in_flight"),
    ({"provider": {"timeout": "soon"}}, "provider.timeout"),
    ({"provider": {"temperature": False}}, "provider.temperature"),
    ({"token_budget": True}, "token_budget"),
    ({"acl_modifiers": "onlyOwner"}, "acl_modifiers"),
    ({"excluded_segments": ["test", 3]}, "excluded_segments"),
    ({"project": 7}, "project"),
])
def test_a_value_of_the_wrong_type_is_an_error_naming_its_key(tmp_path, values, key):
    config_path = tmp_path / "scan.yaml"
    config_path.write_text(yaml.safe_dump(values), encoding="utf-8")
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be "):
        load_config(fixture_path("first_deposit"), str(config_path))


@pytest.mark.parametrize("values, message", [
    ({"provider": {"timeout": -1}}, "provider.timeout must be positive, got -1"),
    ({"provider": {"timeout": 0}}, "provider.timeout must be positive, got 0"),
    ({"provider": {"max_in_flight": 0}}, "provider.max_in_flight must be positive, got 0"),
    ({"max_in_flight": -2}, "provider.max_in_flight must be positive, got -2"),
    ({"token_budget": -5}, "token_budget must not be negative, got -5"),
])
def test_a_value_out_of_range_is_an_error_naming_its_key(tmp_path, values, message):
    config_path = tmp_path / "scan.yaml"
    config_path.write_text(yaml.safe_dump(values), encoding="utf-8")
    config = load_config(fixture_path("first_deposit"), str(config_path))
    with pytest.raises(ConfigError, match=rf"^{re.escape(message)}$"):
        config.validate(builds_gateway=False)


def test_a_float_setting_takes_an_integer_as_written(tmp_path):
    config_path = tmp_path / "scan.json"
    config_path.write_text(json.dumps({"provider": {
        "endpoint": "http://127.0.0.1:9/v1", "timeout": 30, "temperature": 0,
        "max_in_flight": 3}}), encoding="utf-8")
    provider = load_config(fixture_path("first_deposit"), str(config_path)).provider
    assert (provider.timeout, provider.temperature, provider.max_in_flight) == (30, 0, 3)
    assert isinstance(provider.temperature, int)  # hashed into the fingerprint as written


def test_empty_top_level_values_keep_their_defaults(tmp_path):
    config_path = tmp_path / "scan.yaml"
    config_path.write_text(yaml.safe_dump({
        "project": "", "rules_dir": "", "whitelist": None, "acl_modifiers": [],
        "excluded_segments": [], "token_budget": None, "mode": "", "transcript": "",
        "output_dir": "", "max_in_flight": None, "provider": None,
    }), encoding="utf-8")
    config = load_config(fixture_path("first_deposit"), str(config_path))
    assert config == load_config(fixture_path("first_deposit"))
    assert (config.mode, config.output_dir) == ("live", "scan-output")


def test_an_empty_endpoint_is_kept_and_refused(tmp_path, monkeypatch):
    monkeypatch.setenv("SOLSCOUT_API_KEY", "k")
    config_path = tmp_path / "scan.yaml"
    config_path.write_text(yaml.safe_dump({"provider": {"endpoint": "", "model": None}}),
                           encoding="utf-8")
    provider = load_config(fixture_path("first_deposit"), str(config_path)).provider
    assert (provider.endpoint, provider.model) == ("", ProviderConfig().model)
    with pytest.raises(ProviderUnavailable, match="endpoint"):
        HttpProvider(provider)


def test_replay_requires_transcript():
    config = load_config(fixture_path("first_deposit"), overrides={"mode": "replay"})
    with pytest.raises(ConfigError):
        config.validate()


def test_record_requires_transcript_path(monkeypatch):
    monkeypatch.setenv("SOLSCOUT_API_KEY", "k")
    config = load_config(fixture_path("first_deposit"), overrides={"mode": "record"})
    with pytest.raises(ConfigError):
        config.validate()


def test_live_requires_api_key(monkeypatch):
    monkeypatch.delenv("SOLSCOUT_API_KEY", raising=False)
    config = load_config(fixture_path("first_deposit"))
    with pytest.raises(ConfigError):
        config.validate()
    monkeypatch.setenv("SOLSCOUT_API_KEY", "k")
    config.validate()


def test_fingerprint_tracks_semantic_fields(tmp_path):
    a = load_config(fixture_path("first_deposit"))
    b = load_config(fixture_path("first_deposit"))
    assert a.fingerprint() == b.fingerprint()
    c = load_config(fixture_path("first_deposit"), overrides={"token_budget": 123})
    assert c.fingerprint() != a.fingerprint()


def test_fingerprint_hashes_rule_and_whitelist_contents_not_paths(tmp_path):
    shipped = load_config(fixture_path("first_deposit"))
    copies = []
    for name in ("a", "b"):
        rules, whitelist = tmp_path / name / "rules", tmp_path / name / "whitelist.txt"
        shutil.copytree(shipped.rules_dir, rules)
        shutil.copyfile(shipped.whitelist_path, whitelist)
        copies.append(load_config(fixture_path("first_deposit"), overrides={
            "rules_dir": str(rules), "whitelist": str(whitelist)}))
    assert copies[0].fingerprint() == copies[1].fingerprint() == shipped.fingerprint()

    rule = sorted((tmp_path / "b" / "rules").glob("*.yaml"))[0]
    rule.write_text(rule.read_text(encoding="utf-8").replace("title: ", "title: Edited ", 1),
                    encoding="utf-8")
    edited_rule = copies[1].fingerprint()
    assert edited_rule != copies[0].fingerprint()
    whitelist = tmp_path / "a" / "whitelist.txt"
    whitelist.write_text(whitelist.read_text(encoding="utf-8") + "extra\n", encoding="utf-8")
    assert copies[0].fingerprint() not in (shipped.fingerprint(), edited_rule)
