"""Reference tokenizer for differential parser tests.

The tokenizer the parser used before its per-line scan, frozen with its
token type: one regex match per whitespace run, comment and newline,
a frozen dataclass for every token, and columns counted by hand.  It is
slow on purpose and must stay simple; veracity.parser.tokenize is checked
against it token for token and error for error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from veracity.parser import ParseError

_UNICODE_OPS = {
    "∧": "/\\",
    "∨": "\\/",
    "→": "->",
    "¬": "~",
    "⊥": "_|_",
    "λ": "\\",
    "⊢": "|-",
    "∈": ":",
    "·": "*",
}

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[\ \t\r]+)
    | (?P<comment>\#[^\n]*)
    | (?P<nl>\n)
    | (?P<number>\d+(?:\.\d+)?(?:/\d+)?)
    | (?P<op>/\\|\\/|->|=>|\|-|_\|_
        | [∧∨→¬⊥λ⊢∈·]
        | [()\{\}\[\],.:;^@|=*~\\])
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*'*)
    | (?P<string>"(?:[^"\\\n]|\\["\\])*")
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class OracleToken:
    kind: str
    text: str
    line: int
    col: int


def oracle_tokenize(text: str) -> list[OracleToken]:
    tokens: list[OracleToken] = []
    pos = 0
    line = 1
    col = 1
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        lexeme = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(lexeme)
        else:
            if kind == "op":
                lexeme = _UNICODE_OPS.get(lexeme, lexeme)
            tokens.append(OracleToken(kind, lexeme, line, col))
            col += m.end() - m.start()
        pos = m.end()
    tokens.append(OracleToken("eof", "", line, col))
    return tokens
