"""Flat key = value config files with '#' comments, shared by the CLI and
the sweep spec loader."""

from __future__ import annotations

from typing import Any, Callable, Mapping

from .errors import ValidationError


def parse_kv_file(
    path,
    types: Mapping[str, Callable[[str], Any]],
    what: str,
    canonical: Callable[[str], str] = lambda key: key,
) -> dict[str, Any]:
    """Each key's value converted by `types[key]`, keyed by `canonical` of
    the key as written, so two spellings of one key are that key given
    twice. A key outside `types` is an unknown `what`; a value that does not
    convert names its line and key, and a key given twice names both lines
    (and the first spelling, if it differs)."""
    out: dict[str, Any] = {}
    first: dict[str, tuple[int, str]] = {}  # line and spelling of each key's first line
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
            written, value = (part.strip() for part in line.split("=", 1))
            key = canonical(written)
            if key not in types:
                raise ValidationError(f"{path}: unknown {what} {written!r}")
            if key in first:
                n, spelled = first[key]
                as_ = f" as {spelled}" if spelled != written else ""
                raise ValidationError(
                    f"{path}:{lineno}: {what} {written} given twice, first on line {n}{as_}"
                )
            first[key] = lineno, written
            try:
                out[key] = types[key](value)
            except ValueError as e:
                raise ValidationError(
                    f"{path}:{lineno}: cannot read {written} = {value}: {e}"
                ) from e
    return out
