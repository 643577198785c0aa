"""Run configuration: INI files with per-module sections plus flag overrides.

Precedence, lowest to highest: built-in defaults, values from the config
file, command-line flags.  A command asks the Resolver for every key it
reads, then rejects any file section or key it never asked for, so each
command accepts exactly the keys it reads.  The resolved configuration,
which holds those keys, is echoed into every run manifest so a run can be
reproduced from its outputs alone.
"""
from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError

OUTPUT_ROOT_ENV = "VEGPATCH_OUT"

def load_ini(path) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    found = parser.read(path)
    if not found:
        raise ConfigError(f"config file not found: {path}")
    return {section: dict(parser.items(section))
            for section in parser.sections()}


def _cast(value: str, kind, section: str, key: str):
    try:
        if kind == "floats":
            return tuple(float(tok) for tok in value.replace(",", " ").split())
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"[{section}] {key} = {value!r}: expected {getattr(kind, '__name__', kind)}"
        ) from exc


@dataclass
class Resolver:
    """Merges file values and CLI overrides with typed access."""

    sections: dict[str, dict[str, str]] = field(default_factory=dict)
    resolved: dict[str, dict] = field(default_factory=dict)

    def get(self, section: str, key: str, kind, default, override=None):
        """Typed value of [section] key; file keys match in any case.

        configparser lowercases the keys it reads, so ``A`` finds ``a``.
        The resolved echo keeps the key as the caller spells it.  A file
        value is cast, and a malformed one refused, even under an override.
        """
        items = {k.lower(): v
                 for k, v in self.sections.get(section, {}).items()}
        value = (_cast(items[key.lower()], kind, section, key)
                 if key.lower() in items else default)
        if override is not None:
            value = override
        self.resolved.setdefault(section, {})[key] = value
        return value

    def reject_unread(self, command: str) -> None:
        """ConfigError naming the first file section or key never asked
        for; called once a command has resolved all its settings."""
        for section, items in self.sections.items():
            read = {key.lower() for key in self.resolved.get(section, ())}
            unread = [f"[{section}] {key} = {value!r}"
                      for key, value in items.items()
                      if key.lower() not in read]
            if section not in self.resolved:
                raise ConfigError(
                    f"{command} reads no config section [{section}]"
                    + (f"; it holds {unread[0]}" if unread else ""))
            if unread:
                raise ConfigError(
                    f"{command} does not read config key {unread[0]}")


def make_resolver(config_path: str | None) -> Resolver:
    """Resolver over the INI file, if any."""
    return Resolver(load_ini(config_path)) if config_path else Resolver()


def resolve_output_dir(out: str | None, default: str = ".") -> Path:
    """Output directory under the optional environment root."""
    root = os.environ.get(OUTPUT_ROOT_ENV, "")
    target = Path(out if out is not None else default)
    if root and not target.is_absolute():
        target = Path(root) / target
    return target
