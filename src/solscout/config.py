"""Scan configuration: YAML file plus flag overrides, flags win.

The resolved configuration is fingerprinted and embedded in every
report so a scan is reproducible from its output.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, fields
from importlib import resources

import yaml

from .callgraph import DEFAULT_ACL_MODIFIERS
from .errors import ConfigError
from .transport import ProviderConfig
from .project import DEFAULT_EXCLUDED_SEGMENTS
from .rules import load_yaml, rule_paths, shipped_rules_dir


# live asks the provider, record also appends to the transcript, replay answers from it
MODES = ("live", "record", "replay")


def shipped_whitelist_path() -> str:
    return str(resources.files("solscout").joinpath("data/oz_whitelist.txt"))


@dataclass
class ScanConfig:
    project_root: str
    project_name: str = ""
    rules_dir: str = field(default_factory=shipped_rules_dir)
    whitelist_path: str = field(default_factory=shipped_whitelist_path)
    acl_modifiers: list[str] = field(default_factory=lambda: sorted(DEFAULT_ACL_MODIFIERS))
    excluded_segments: list[str] = field(
        default_factory=lambda: sorted(DEFAULT_EXCLUDED_SEGMENTS))
    token_budget: int = 0  # 0 -> provider.max_context_tokens - 1024
    mode: str = "live"
    transcript_path: str = ""
    output_dir: str = "scan-output"
    provider: ProviderConfig = field(default_factory=ProviderConfig)

    def __post_init__(self):
        if not self.project_name:
            self.project_name = os.path.basename(os.path.normpath(self.project_root)) or "project"
        if not self.token_budget:
            self.token_budget = max(256, self.provider.max_context_tokens - 1024)

    def validate(self, builds_gateway: bool = True) -> None:
        """Raise ``ConfigError`` for a configuration no scan can run with.

        ``builds_gateway=False`` is for a scan handed a ready gateway: the
        transcript and API key that building one needs are then not checked.
        """
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        for key, value in (("provider.timeout", self.provider.timeout),
                           ("provider.max_in_flight", self.provider.max_in_flight)):
            if value <= 0:
                raise ConfigError(f"{key} must be positive, got {value!r}")
        if self.token_budget < 0:
            raise ConfigError(f"token_budget must not be negative, got {self.token_budget!r}")
        if builds_gateway:
            if self.mode == "replay" and not self.transcript_path:
                raise ConfigError("replay mode requires a transcript path")
            if self.mode == "replay" and not os.path.isfile(self.transcript_path):
                raise ConfigError(f"transcript not found: {self.transcript_path}")
            if self.mode == "record" and not self.transcript_path:
                raise ConfigError("record mode requires a transcript path to write")
            if self.mode in ("live", "record") and not os.environ.get(self.provider.api_key_env):
                raise ConfigError(
                    f"{self.mode} mode requires the {self.provider.api_key_env} env var"
                )
        if not os.path.isdir(self.project_root):
            raise ConfigError(f"project root not found: {self.project_root}")
        if not os.path.isdir(self.rules_dir):
            raise ConfigError(f"rules directory not found: {self.rules_dir}")
        if not os.path.isfile(self.whitelist_path):
            raise ConfigError(f"whitelist not found: {self.whitelist_path}")

    def fingerprint(self) -> str:
        """Hash of the settings a scan's answers depend on.

        The rule files ``load_rules`` reads (in name order) and the
        whitelist count by content, not path, so the same scan gives the
        same fingerprint from any checkout or install.
        """
        payload = {
            "project_name": self.project_name,
            "rules": [_file_digest(path) for path in rule_paths(self.rules_dir)],
            "whitelist": _file_digest(self.whitelist_path),
            "acl_modifiers": sorted(self.acl_modifiers),
            "excluded_segments": sorted(self.excluded_segments),
            "token_budget": self.token_budget,
            "mode": self.mode,
            # every provider setting but the three that cannot change an answer
            "provider": {name: value for name, value in asdict(self.provider).items()
                         if name not in ("api_key_env", "timeout", "max_in_flight")},
        }
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# YAML keys named otherwise than their field
_RENAMED = {"project_name": "project", "whitelist_path": "whitelist",
            "transcript_path": "transcript"}

# the type a value given for a field of each annotation must have
_TYPES = {"str": str, "int": int, "float": (int, float), "list[str]": list}

# top-level values that keep a field's default: an empty path or list has always
# meant the shipped one
_UNSET = (None, "", [])


def load_config(project_root: str, config_path: str = "", overrides: dict | None = None) -> ScanConfig:
    """Build a ScanConfig from an optional YAML file plus override values.

    A key is its ``ScanConfig`` field's name, or under ``provider`` its
    ``ProviderConfig`` field's name, except ``project``, ``whitelist`` and
    ``transcript``; a top-level ``max_in_flight`` sets the provider's.
    ``overrides`` holds the command's flags by key, None for one not given.
    A missing or null value keeps the default, as does an empty string or
    list at the top level. Any other value must have its field's type, or
    ``ConfigError`` names the key.
    """
    raw: dict = {}
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                raw = load_yaml(fh) or {}
        except (OSError, yaml.YAMLError) as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {config_path} must be a mapping")
    raw.update((key, value) for key, value in (overrides or {}).items() if value is not None)
    max_in_flight = raw.pop("max_in_flight", None)
    section = raw.pop("provider", None) or {}
    if not isinstance(section, dict):
        raise ConfigError("provider section must be a mapping")
    provider = _settings(ProviderConfig, section, "provider.", (None,))
    if max_in_flight not in _UNSET:
        provider["max_in_flight"] = _checked("max_in_flight", max_in_flight, "int")
    settings = _settings(ScanConfig, raw, "", _UNSET)
    return ScanConfig(project_root, provider=ProviderConfig(**provider), **settings)


def _settings(cls, raw: dict, prefix: str, unset: tuple) -> dict:
    """Field name -> value for each key of ``raw`` whose value is not ``unset``."""
    by_key = {_RENAMED.get(f.name, f.name): f for f in fields(cls)
              if f.name not in ("project_root", "provider")}
    unknown = sorted(f"{prefix}{key}" for key in raw if key not in by_key)
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    return {by_key[key].name: _checked(prefix + key, value, by_key[key].type)
            for key, value in raw.items() if value not in unset}


def _checked(key: str, value, annotation: str):
    """``value`` if a field annotated ``annotation`` takes it; a bool is not a number."""
    ok = isinstance(value, _TYPES[annotation]) and not isinstance(value, bool)
    if annotation == "list[str]":
        ok = ok and all(isinstance(item, str) for item in value)
    if not ok:
        raise ConfigError(f"{key} must be {annotation}, got {value!r}")
    return value
