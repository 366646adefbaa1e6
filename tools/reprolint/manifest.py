"""The contract manifest: which files carry which structural contracts.

``seam_manifest.toml`` (next to this module; the name is historical)
holds the small amount of per-rule configuration the rules need: the
env-knob owner file (RL003), the names of types the spec serializer
knows how to JSON-ify (RL004), and the checkpoint-wire modules (RL005).
Tests point the engine at a corpus-local manifest instead, so the rules
themselves stay free of hard-coded repo paths.

All paths are matched as *posix suffixes* of the linted file's path —
``src/repro/config.py`` matches whether the linter was launched from
the repo root or handed an absolute path.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

#: The repo's manifest, used when ``--manifest`` is not given.
DEFAULT_MANIFEST_PATH = Path(__file__).resolve().parent / "seam_manifest.toml"


class ManifestError(ValueError):
    """The manifest file is missing, unparsable, or malformed."""


@dataclass(frozen=True)
class Manifest:
    """Parsed manifest contents consumed by the rules."""

    env_owners: tuple[str, ...] = ("src/repro/config.py",)
    json_convertible: frozenset = frozenset()
    wire_paths: tuple[str, ...] = ()
    source: Optional[Path] = None

    def is_env_owner(self, posix_path: str) -> bool:
        return any(_suffix_match(posix_path, p) for p in self.env_owners)

    def is_wire_module(self, posix_path: str) -> bool:
        return any(_suffix_match(posix_path, p) for p in self.wire_paths)


def _suffix_match(posix_path: str, manifest_path: str) -> bool:
    """True when ``manifest_path`` names ``posix_path`` (suffix-wise)."""
    manifest_path = manifest_path.strip("/")
    return (posix_path == manifest_path
            or posix_path.endswith("/" + manifest_path))


def _string_list(table: dict, key: str, where: str) -> list:
    value = table.get(key, [])
    if not (isinstance(value, list)
            and all(isinstance(v, str) for v in value)):
        raise ManifestError(f"{where}.{key} must be a list of strings")
    return value


def load_manifest(path=None) -> Manifest:
    """Parse a manifest TOML file (the repo's by default)."""
    path = Path(path) if path is not None else DEFAULT_MANIFEST_PATH
    try:
        with open(path, "rb") as fh:
            doc = tomllib.load(fh)
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    except tomllib.TOMLDecodeError as exc:
        raise ManifestError(f"manifest {path} is not valid TOML: {exc}") \
            from exc

    rl003 = doc.get("rl003", {})
    owners = _string_list(rl003, "owners", "[rl003]") \
        or ["src/repro/config.py"]
    rl004 = doc.get("rl004", {})
    convertible = _string_list(rl004, "json_convertible", "[rl004]")
    rl005 = doc.get("rl005", {})
    wire = _string_list(rl005, "paths", "[rl005]")

    return Manifest(
        env_owners=tuple(owners),
        json_convertible=frozenset(convertible),
        wire_paths=tuple(wire),
        source=path,
    )
