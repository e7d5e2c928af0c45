"""Scan configuration: YAML file plus flag overrides, flags win.

The resolved configuration is fingerprinted and embedded in every
report so a scan is reproducible from its output.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, fields
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
    acl_modifiers: list = field(default_factory=lambda: sorted(DEFAULT_ACL_MODIFIERS))
    excluded_segments: list = field(default_factory=lambda: sorted(DEFAULT_EXCLUDED_SEGMENTS))
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
            "provider": {
                "endpoint": self.provider.endpoint,
                "model": self.provider.model,
                "temperature": self.provider.temperature,
                "max_context_tokens": self.provider.max_context_tokens,
                "price_in_per_1k": self.provider.price_in_per_1k,
                "price_out_per_1k": self.provider.price_out_per_1k,
            },
        }
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


_PROVIDER_KEYS = {f.name for f in fields(ProviderConfig)}
_TOP_LEVEL_KEYS = {"project", "rules_dir", "whitelist", "acl_modifiers", "excluded_segments",
                   "token_budget", "mode", "transcript", "output_dir", "max_in_flight",
                   "provider"}


def load_config(project_root: str, config_path: str = "", overrides: dict | None = None) -> ScanConfig:
    """Build a ScanConfig from an optional YAML file plus override values."""
    data: dict = {}
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                data = load_yaml(fh) or {}
        except (OSError, yaml.YAMLError) as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {config_path} must be a mapping")
        unknown = set(data) - _TOP_LEVEL_KEYS
        if unknown:
            raise ConfigError(f"unknown keys in config {config_path}: {sorted(unknown)}")

    merged = dict(data)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value

    provider_raw = merged.get("provider") or {}
    if not isinstance(provider_raw, dict):
        raise ConfigError("provider section must be a mapping")
    unknown = set(provider_raw) - _PROVIDER_KEYS
    if unknown:
        raise ConfigError(f"unknown provider keys: {sorted(unknown)}")
    provider = ProviderConfig(**provider_raw)
    if "max_in_flight" in merged:
        provider.max_in_flight = int(merged["max_in_flight"])

    config = ScanConfig(
        project_root=project_root,
        project_name=merged.get("project", ""),
        rules_dir=merged.get("rules_dir") or shipped_rules_dir(),
        whitelist_path=merged.get("whitelist") or shipped_whitelist_path(),
        acl_modifiers=list(merged.get("acl_modifiers") or sorted(DEFAULT_ACL_MODIFIERS)),
        excluded_segments=list(merged.get("excluded_segments")
                               or sorted(DEFAULT_EXCLUDED_SEGMENTS)),
        token_budget=int(merged.get("token_budget") or 0),
        mode=merged.get("mode", "live"),
        transcript_path=merged.get("transcript", "") or "",
        output_dir=merged.get("output_dir", "scan-output"),
        provider=provider,
    )
    return config
