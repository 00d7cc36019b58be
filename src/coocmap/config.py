"""Flat key = value config files with '#' comments, shared by the CLI and
the sweep spec loader."""

from __future__ import annotations

from typing import Any, Callable, Mapping

from .errors import ValidationError


def parse_kv_file(path, types: Mapping[str, Callable[[str], Any]], what: str) -> dict[str, Any]:
    """Each key's value converted by `types[key]`. A key outside `types` is
    an unknown `what`; a value that does not convert names its line and key,
    and a key given twice names both lines."""
    out: dict[str, Any] = {}
    line_of: dict[str, int] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in types:
                raise ValidationError(f"{path}: unknown {what} {key!r}")
            if key in line_of:
                raise ValidationError(
                    f"{path}:{lineno}: {what} {key} given twice, first on line {line_of[key]}"
                )
            line_of[key] = lineno
            try:
                out[key] = types[key](value)
            except ValueError as e:
                raise ValidationError(f"{path}:{lineno}: cannot read {key} = {value}: {e}") from e
    return out
