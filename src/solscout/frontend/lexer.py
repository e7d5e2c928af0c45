"""Tokenizer for Solidity source.

Comments are blanked out (length-preserving) before tokenization so that
token offsets always index the original text. Unterminated strings and
block comments are the only lexical hard errors; any other stray byte
becomes a one-character punct token and is left to the parser's opaque
fallback.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import SoliditySyntaxError
from .nodes import LineIndex

# Strings first so comment markers inside them are ignored.
_SEGMENT_RE = re.compile(
    r'"(?:\\.|[^"\\\n])*"'
    r"|'(?:\\.|[^'\\\n])*'"
    r"|//[^\n]*"
    r"|/\*.*?\*/",
    re.DOTALL,
)

# One alternation per token: whitespace (unnamed, skipped) first, then the
# token kinds in priority order, then any other character as ``stray``.
# DOTALL is scoped to ``stray`` so an escaped newline still ends a string.
_TOKEN_RE = re.compile(
    r"""
    \s+
  | (?P<id>[A-Za-z_$][A-Za-z0-9_$]*)
  | (?P<num>0[xX][0-9a-fA-F_]+|\d[\d_]*(?:\.\d[\d_]*)?(?:[eE][+-]?\d+)?)
  | (?P<str>"(?:\\.|[^"\\\n])*"|'(?:\\.|[^'\\\n])*')
  | (?P<punct>>>=|<<=|\*\*=|\*\*|=>|->|\+\+|--|&&|\|\||==|!=|<=|>=|\+=|-=|\*=|/=|%=|\|=|&=|\^=
      |<<|>>|[{}()\[\];:,.?~!<>=+\-*/%&|^])
  | (?P<stray>(?s:.))
    """,
    re.VERBOSE,
)


@dataclass(slots=True)
class Token:
    type: str  # id|num|str|punct|eof
    value: str
    start: int
    end: int


def strip_comments(text: str, path: str = "") -> str:
    """Replace comments with spaces, keeping newlines and offsets intact.

    Raises SoliditySyntaxError for unterminated strings or block comments.
    """
    parts = []
    pos = 0
    for m in _SEGMENT_RE.finditer(text):
        _check_gap(text, pos, m.start(), path)
        parts.append(text[pos : m.start()])
        seg = m.group(0)
        if seg.startswith("//") or seg.startswith("/*"):
            parts.append("".join("\n" if c == "\n" else " " for c in seg))
        else:
            parts.append(seg)
        pos = m.end()
    _check_gap(text, pos, len(text), path)
    parts.append(text[pos:])
    return "".join(parts)


def _check_gap(text: str, lo: int, hi: int, path: str) -> None:
    gap = text[lo:hi]
    bad = None
    for needle, msg in (('"', "unterminated string"), ("'", "unterminated string"),
                        ("/*", "unterminated block comment")):
        at = gap.find(needle)
        if at != -1 and (bad is None or at < bad[0]):
            bad = (at, msg)
    if bad is not None:
        line, col = LineIndex(text).linecol(lo + bad[0])
        raise SoliditySyntaxError(bad[1], line, col, path)


def tokenize(stripped: str, path: str = "") -> list[Token]:
    tokens = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(stripped):
        kind = m.lastgroup
        if kind is None:  # whitespace
            continue
        if kind == "stray":
            # Stray byte: keep totality, let the parser degrade to opaque.
            kind = "punct"
        start, end = m.span()
        append(Token(kind, m.group(), start, end))
    length = len(stripped)
    tokens.append(Token("eof", "", length, length))
    return tokens


def check_braces(tokens: list[Token], index: LineIndex, path: str = "") -> None:
    """Reject files with unbalanced curly braces up front."""
    stack = []
    for tok in tokens:
        if tok.type != "punct":
            continue
        if tok.value == "{":
            stack.append(tok)
        elif tok.value == "}":
            if not stack:
                line, col = index.linecol(tok.start)
                raise SoliditySyntaxError("unbalanced '}'", line, col, path)
            stack.pop()
    if stack:
        line, col = index.linecol(stack[-1].start)
        raise SoliditySyntaxError("unclosed '{'", line, col, path)
