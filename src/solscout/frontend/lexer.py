"""Tokenizer for Solidity source.

Comments are blanked out (length-preserving) before tokenization so that
token offsets always index the original text. Unterminated strings and
block comments are the only lexical hard errors; any other stray byte
becomes a one-character punct token and is left to the parser's opaque
fallback.
"""

from __future__ import annotations

import re
import string
from itertools import accumulate, chain, repeat
from operator import itemgetter
from typing import NamedTuple

from ..errors import SoliditySyntaxError
from .nodes import LineIndex

_STRING = r"""(?:"(?:\\[\s\S]|[^"\\\n])*"|'(?:\\[\s\S]|[^'\\\n])*')"""

# Strings first so comment markers inside them are ignored.
_SEGMENT_RE = re.compile(_STRING + r"|//[^\n]*|/\*.*?\*/", re.DOTALL)

# One ``(whitespace, token)`` pair per match: the token alternatives in
# priority order, then any other character as a stray byte. A ``hex`` or
# ``unicode`` prefix is part of the string after it; plain strings come
# after identifiers and numbers, which are more common. An escape takes
# any character, a newline included, as in Solidity.
_TOKEN_RE = re.compile(
    r"""
    (\s*)
    ( (?:hex|unicode)""" + _STRING + r"""
    | [A-Za-z_$][A-Za-z0-9_$]*
    | 0[xX][0-9a-fA-F_]+|\d[\d_]*(?:\.\d[\d_]*)?(?:[eE][+-]?\d+)?
    | """ + _STRING + r"""
    | >>=|<<=|\*\*=|\*\*|=>|->|\+\+|--|&&|\|\||==|!=|<=|>=|\+=|-=|\*=|/=|%=|\|=|&=|\^=
    | <<|>>|[{}()\[\];:,.?~!<>=+\-*/%&|^]
    | (?s:.)
    )
    """,
    re.VERBOSE,
)

# Token kind by first character; any other first character, a lone quote
# included, makes punctuation.
_KIND_OF_FIRST = (dict.fromkeys(string.ascii_letters + "_$", "id")
                  | dict.fromkeys(string.digits, "num"))
_QUOTES = ('"', "'")
_STR_IF_QUOTED = {True: "str"}


class Token(NamedTuple):
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
    """Tokens of comment-stripped text, ending with exactly one ``eof``.

    Every step maps a C function over the whole file, so no Python code
    runs per token.
    """
    # Stop at the last non-space character: trailing whitespace would
    # otherwise backtrack into the stray-byte branch.
    pairs = _TOKEN_RE.findall(stripped, 0, len(stripped.rstrip()))
    flat = list(chain.from_iterable(pairs))
    offsets = list(accumulate(map(len, flat)))
    values = flat[1::2]
    heads = map(_KIND_OF_FIRST.get, map(itemgetter(0), values), repeat("punct"))
    # two or more characters ending in a quote: a string, prefixed or not
    quoted = map(str.endswith, values, repeat(_QUOTES), repeat(1))
    kinds = map(_STR_IF_QUOTED.get, quoted, heads)  # "str" if quoted else head
    tokens = list(map(tuple.__new__, repeat(Token),
                      zip(kinds, values, offsets[0::2], offsets[1::2])))
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
