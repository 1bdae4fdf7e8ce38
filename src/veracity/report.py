"""Structured report data model and its text codec.

A report is an ordered list of named sections, each an ordered list of
key=value string pairs. The structured rendering is line-oriented:

    [section name]
    key=value
    key=value

    [next section]
    ...

Sections are separated by blank lines. Names, keys and values may contain
anything except "\n" and "\r" (the first "=" on a line splits key from value,
so values may contain "=" freely); to_structured raises ValueError on a
report that holds either. parse_structured splits records on "\n" only, so
the other line breaks str.splitlines knows (U+2028 and the rest) read back
as the characters they are, and it drops the "\r" of a CRLF line end.
parse_structured inverts to_structured exactly.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Section:
    name: str
    fields: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class Report:
    sections: tuple[Section, ...] = ()


def _check_text(label: str, text: str) -> None:
    if "\n" in text or "\r" in text:
        raise ValueError(f"{label} must not contain line breaks: {text!r}")


def to_structured(report: Report) -> str:
    blocks = []
    for section in report.sections:
        _check_text("section name", section.name)
        lines = [f"[{section.name}]"]
        for key, value in section.fields:
            _check_text("field key", key)
            _check_text("field value", value)
            if not key or "=" in key or key.startswith("["):
                raise ValueError(f"bad field key: {key!r}")
            lines.append(f"{key}={value}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def parse_structured(text: str) -> Report:
    sections: list[Section] = []
    name: str | None = None
    fields: list[tuple[str, str]] = []

    def flush() -> None:
        nonlocal name, fields
        if name is not None:
            sections.append(Section(name, tuple(fields)))
        name, fields = None, []

    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.removesuffix("\r")
        if not line.strip():
            flush()
            continue
        if line.startswith("[") and line.endswith("]"):
            flush()
            name = line[1:-1]
        elif "=" in line and not line.startswith("["):
            if name is None:
                raise ValueError(f"line {lineno}: field before any section header")
            key, _, value = line.partition("=")
            if not key:
                raise ValueError(f"line {lineno}: empty field key")
            fields.append((key, value))
        else:
            raise ValueError(
                f"line {lineno}: expected a [section] header or key=value"
            )
    flush()
    return Report(tuple(sections))
