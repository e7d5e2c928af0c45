"""Tokenizer for Solidity source.

Comments are blanked out (length-preserving) before tokenization so that
token offsets always index the original text. Unterminated strings and
block comments are the only lexical hard errors, and unbalanced braces
the only structural one; any other stray byte becomes a one-character
punct token and is left to the parser's opaque fallback.

A file is lexed in two kinds of piece. ``outline`` blanks the inside of
every block opened at brace depth 1 (function and other member bodies
of a contract, the inner blocks of a free function), so lexing the file
gives only what the file-level parse reads; a body is lexed by range
when it is parsed, and ``identifiers`` lists the names of one that is
not. Token values are interned, so a name that occurs many times in a
project is stored once however many tokens and nodes refer to it.
"""

from __future__ import annotations

import re
import string
from itertools import accumulate, chain, compress, repeat, zip_longest
from operator import itemgetter, sub
from sys import intern
from typing import NamedTuple

from ..errors import SoliditySyntaxError
from .nodes import LineIndex

# Each alternative starts with a literal, so a search skips to the next
# quote (or slash, below) in C instead of trying the pattern everywhere.
_STRING_ALTERNATIVES = r""""(?:\\[\s\S]|[^"\\\n])*"|'(?:\\[\s\S]|[^'\\\n])*'"""
_STRING = "(?:" + _STRING_ALTERNATIVES + ")"
_PREFIXED_STRING = r"(?:hex|unicode)" + _STRING
_IDENTIFIER = r"[A-Za-z_$][A-Za-z0-9_$]*"
_NUMBER = r"0[xX][0-9a-fA-F_]+|\d[\d_]*(?:\.\d[\d_]*)?(?:[eE][+-]?\d+)?"

# Strings first so comment markers inside them are ignored.
_SEGMENT_RE = re.compile(_STRING_ALTERNATIVES + r"|//[^\n]*|/\*.*?\*/", re.DOTALL)

# One ``(whitespace, token)`` pair per match: the token alternatives in
# priority order, then any other character as a stray byte. A ``hex`` or
# ``unicode`` prefix is part of the string after it; plain strings come
# after identifiers and numbers, which are more common. An escape takes
# any character, a newline included, as in Solidity.
_TOKEN_RE = re.compile(
    r"""
    (\s*)
    ( """ + _PREFIXED_STRING + r"""
    | """ + _IDENTIFIER + r"""
    | """ + _NUMBER + r"""
    | """ + _STRING + r"""
    | >>=|<<=|\*\*=|\*\*|=>|->|\+\+|--|&&|\|\||==|!=|<=|>=|\+=|-=|\*=|/=|%=|\|=|&=|\^=
    | <<|>>|[{}()\[\];:,.?~!<>=+\-*/%&|^]
    | (?s:.)
    )
    """,
    re.VERBOSE,
)

# One match per token that holds a letter, a digit or a quote, its value
# as group 1 if it is an id: a run of characters that start no such token
# (whitespace, operators, stray bytes), then ``_TOKEN_RE``'s alternatives
# for those tokens in its order, or the end of the range. No other token
# holds such a character, so each match ends where a token does.
_IDENTIFIER_RE = re.compile(
    r"""[^A-Za-z_$"'\d]*(?:""" + _PREFIXED_STRING + "|(" + _IDENTIFIER + ")|"
    + _NUMBER + "|" + _STRING + r"|\Z)")

# One ``(text, brace)`` pair per brace outside a string literal, then one
# or two with the brace "" for the text after the last one: a search that
# must end in a brace would retry from every character of that text.
_BRACE_RE = re.compile(r"""([^{}"']*(?:""" + _STRING + r"""[^{}"']*)*)([{}]|\Z)""")
_BRACE_STEP = {"{": 1, "}": -1, "": 0}
# (brace, depth before it) of the braces that open and close a block at depth 1
_DEPTH_ONE_EDGES = {("{", 1), ("}", 2)}

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


def tokenize(stripped: str, path: str = "", start: int = 0, end: int | None = None) -> list[Token]:
    """Tokens of comment-stripped text, ending with exactly one ``eof``.

    With ``end``, only ``stripped[start:end]`` is lexed, where ``start``
    begins a token and ``end`` ends one; offsets stay those of the whole
    text and ``eof`` sits at ``end``. Every step maps a C function over
    the whole range, so no Python code runs per token.
    """
    if end is None:
        # A leading byte-order mark is whitespace. Stop at the last
        # non-space character: trailing whitespace would otherwise
        # backtrack into the stray-byte branch.
        start = 1 if stripped.startswith("\ufeff") else 0
        stop, length = len(stripped.rstrip()), len(stripped)
    else:
        stop = length = end
    pairs = _TOKEN_RE.findall(stripped, start, stop)
    flat = list(chain.from_iterable(pairs))
    offsets = list(accumulate(map(len, flat), initial=start))
    values = list(map(intern, flat[1::2]))
    heads = map(_KIND_OF_FIRST.get, map(itemgetter(0), values), repeat("punct"))
    # two or more characters ending in a quote: a string, prefixed or not
    quoted = map(str.endswith, values, repeat(_QUOTES), repeat(1))
    kinds = map(_STR_IF_QUOTED.get, quoted, heads)  # "str" if quoted else head
    tokens = list(map(tuple.__new__, repeat(Token),
                      zip(kinds, values, offsets[1::2], offsets[2::2])))
    tokens.append(Token("eof", "", length, length))
    return tokens


def outline(stripped: str, index: LineIndex, path: str = "") -> str:
    """``stripped`` with the inside of every block opened at brace depth 1 blanked.

    The copy keeps every length and offset, and each blanked block's
    braces. Raises SoliditySyntaxError at the first ``}`` that closes
    nothing, or else at the last ``{`` that nothing closes. One regex
    walk finds the braces outside strings; depths and block edges come
    from C-level maps over it, so no Python code runs per brace.
    """
    flat = list(chain.from_iterable(_BRACE_RE.findall(stripped)))
    starts = list(accumulate(map(len, flat), initial=0))[1::2]
    braces = flat[1::2]
    # depths[i]: brace depth before braces[i]; depths[-1]: at the end of the file
    depths = list(accumulate(map(_BRACE_STEP.__getitem__, braces), initial=0))
    if min(depths) < 0:
        _brace_error("unbalanced '}'", starts[depths.index(-1) - 1], index, path)
    if depths[-1]:
        # the last '{' opened from one level below the final depth
        last = len(depths) - 1 - depths[::-1].index(depths[-1] - 1)
        _brace_error("unclosed '{'", starts[last], index, path)
    edges = list(compress(starts, map(_DEPTH_ONE_EDGES.__contains__, zip(braces, depths))))
    if not edges:
        return stripped
    opens, closes = edges[0::2], edges[1::2]
    # keep each stretch from a close (or the start) through the next open
    kept_starts = [0, *closes]
    kept_stops = [*map((1).__add__, opens), len(stripped)]
    kept = map(stripped.__getitem__, map(slice, kept_starts, kept_stops))
    blanks = map(" ".__mul__, map(sub, closes, kept_stops))
    return "".join(chain.from_iterable(zip_longest(kept, blanks, fillvalue="")))


def _brace_error(message: str, offset: int, index: LineIndex, path: str):
    line, col = index.linecol(offset)
    raise SoliditySyntaxError(message, line, col, path)


def identifiers(stripped: str, start: int, end: int) -> tuple:
    """Distinct names of the id tokens of ``stripped[start:end]``, first seen first, interned.

    These are the values ``tokenize`` gives its id tokens over the same
    range, found without building a token.
    """
    names = dict.fromkeys(_IDENTIFIER_RE.findall(stripped, start, end))
    names.pop("", None)
    return tuple(map(intern, names))
