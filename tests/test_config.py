import shutil
from dataclasses import asdict

import pytest
import yaml

from solscout.config import load_config, shipped_whitelist_path
from solscout.errors import ConfigError
from solscout.gateway import ProviderConfig

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


def test_every_provider_field_is_a_provider_key(tmp_path):
    values = asdict(ProviderConfig(model="m", timeout=5.0, max_in_flight=2))
    config_path = tmp_path / "scan.yaml"
    config_path.write_text(yaml.safe_dump({"provider": values}), encoding="utf-8")
    config = load_config(fixture_path("first_deposit"), str(config_path))
    assert asdict(config.provider) == values


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
