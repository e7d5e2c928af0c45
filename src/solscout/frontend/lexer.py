"""Tokenizer for Solidity source.

Comments are blanked out (length-preserving) before tokenization so that
token offsets always index the original text. Unterminated strings and
block comments are the only lexical hard errors, and unbalanced braces
the only structural one; any other stray byte becomes a one-character
punct token and is left to the parser's opaque fallback.

A file is lexed in two kinds of piece. ``outline`` blanks the inside of
every block opened at brace depth 1 (function and other member bodies
of a contract) and of every free function's body, so lexing the file
gives only what the file-level parse reads; a body is lexed by range
when it is parsed, and ``identifiers`` lists the names of one that is
not. The two passes over a whole file, ``strip_comments`` and the
brace walk of ``outline``, use no regex: ``str.find`` and ``str.split``
jump between the characters they stop at, at memchr speed, where a
regex scan costs about 12 ns a character.

``tokenize`` builds no object per token: it returns the interned token
values as a ``Tokens`` list with their offsets in two more lists, so a
name that occurs many times in a project is stored once however many
tokens and nodes refer to it. A token's kind is not stored either;
``token_kind`` works it out from the value.
"""

from __future__ import annotations

import re
import string
from bisect import bisect_left
from itertools import accumulate, chain, compress, repeat, zip_longest
from operator import add, sub
from sys import intern

from ..errors import SoliditySyntaxError
from .nodes import LineIndex

# Each alternative starts with a literal, so a search skips to the next
# quote (or slash, below) in C instead of trying the pattern everywhere.
_STRING_ALTERNATIVES = r""""(?:\\[\s\S]|[^"\\\n])*"|'(?:\\[\s\S]|[^'\\\n])*'"""
_STRING = "(?:" + _STRING_ALTERNATIVES + ")"
_PREFIXED_STRING = r"(?:hex|unicode)" + _STRING
_IDENTIFIER = r"[A-Za-z_$][A-Za-z0-9_$]*"
_NUMBER = r"0[xX][0-9a-fA-F_]+|\d[\d_]*(?:\.\d[\d_]*)?(?:[eE][+-]?\d+)?"

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
# Every byte but ASCII letters, digits, '_' and '$' made a space, so that
# splitting leaves the runs of those.
_RUN_BYTES = bytes(c if chr(c) in string.ascii_letters + string.digits + "_$" else 32
                   for c in range(256))
_DIGIT_BYTES = frozenset(string.digits.encode())

_BRACE_STEP = {"{": 1, "}": -1}
# the sum of the depths before and after a brace that opens or closes a block at depth 1
_DEPTH_ONE_EDGE = {3}
# The text from the brace before a top-level '{' to it, when that '{'
# opens a free function's body: statements up to the last ';', then one
# that starts with ``function``. Strings may hold any of these characters.
_STATEMENT_TEXT = r"""[^;"']*(?:""" + _STRING + r"""[^;"']*)*"""
_FREE_FUNCTION_HEAD_RE = re.compile(
    "(?:" + _STATEMENT_TEXT + r";)*\s*function(?![A-Za-z0-9_$])" + _STATEMENT_TEXT)

# Token kind by first character, "" being eof's; any other first
# character, a lone quote included, makes punctuation.
_ID_FIRST = frozenset(string.ascii_letters + "_$")
_KIND_OF_FIRST = (dict.fromkeys(_ID_FIRST, "id") | dict.fromkeys(string.digits, "num")
                  | {"": "eof"})
_QUOTES = "\"'"


class Tokens(list):
    """The interned values of a range's tokens, ending with the eof value ``""``.

    ``starts[i]`` and ``ends[i]`` are the offsets of token ``i`` in the
    whole text; eof's are both the end of the range. ``len()`` is the
    number of tokens, eof included.
    """

    __slots__ = ("starts", "ends")


def token_kind(value: str) -> str:
    """The kind of the token spelled ``value``: id, num, str, punct or eof.

    Two or more characters ending in a quote are a string, prefixed or
    not; otherwise the first character decides, and only eof is empty.
    """
    if len(value) > 1 and value[-1] in _QUOTES:
        return "str"
    return _KIND_OF_FIRST.get(value[:1], "punct")


def is_id(value: str) -> bool:
    """Whether ``value`` spells an id token, a name or a keyword: ``token_kind(value) == "id"``."""
    return value[:1] in _ID_FIRST and value[-1] not in _QUOTES


def strip_comments(text: str, path: str = "") -> str:
    """Replace comments with spaces, keeping newlines and offsets intact.

    Raises SoliditySyntaxError for unterminated strings or block comments.
    The walk jumps from one ``"``, ``'`` or ``/`` to the next with
    ``str.find``, so text between them costs a memchr scan.
    """
    parts = []
    kept = 0  # text[kept:] is not yet in parts
    for at, end in _segments(text, path):
        if text[at] == "/":
            parts.append(text[kept:at])
            # every character but a newline becomes a space
            parts.append("\n".join(map(" ".__mul__, map(len, text[at:end].split("\n")))))
            kept = end
    if not kept:
        return text
    parts.append(text[kept:])
    return "".join(parts)


def _segments(text: str, path: str):
    """``(start, end)`` of each string literal and comment of ``text``, in order.

    Strings come first, so comment markers inside them are ignored. An
    escape takes any character, a newline included; an unescaped newline
    ends no string. Raises SoliditySyntaxError at the first string or
    block comment that does not end.
    """
    find = text.find
    length = len(text)

    def after(needle: str, pos: int) -> int:  # the next ``needle`` at or after pos, or length
        found = find(needle, pos)
        return length if found < 0 else found

    dquote, squote, slash = after('"', 0), after("'", 0), after("/", 0)
    while (at := min(dquote, squote, slash)) < length:
        if at != slash:
            end = _string_end(text, at)
            if end < 0:
                _raise_at(text, at, "unterminated string", path)
            yield at, end
        elif text.startswith("/", at + 1):
            end = after("\n", at)
            yield at, end
        elif text.startswith("*", at + 1):
            end = find("*/", at + 2) + 2
            if end < 2:
                _raise_at(text, at, "unterminated block comment", path)
            yield at, end
        else:
            end = at + 1  # a division
        if dquote < end:
            dquote = after('"', end)
        if squote < end:
            squote = after("'", end)
        if slash < end:
            slash = after("/", end)


def _string_end(text: str, at: int) -> int:
    """One past the quote that ends the string literal opened at ``at``, or -1."""
    quote = text[at]
    find = text.find
    pos = at + 1
    while True:
        close = find(quote, pos)
        if close < 0:
            return -1
        newline = find("\n", pos, close)
        escape = find("\\", pos, close)
        if escape < 0:
            return -1 if newline >= 0 else close + 1
        if 0 <= newline < escape:
            return -1
        pos = escape + 2  # the escaped character, whatever it is


def _raise_at(text: str, offset: int, message: str, path: str):
    line, col = LineIndex(text).linecol(offset)
    raise SoliditySyntaxError(message, line, col, path)


def tokenize(stripped: str, path: str = "", start: int = 0, end: int | None = None) -> Tokens:
    """Tokens of comment-stripped text, ending with exactly one eof.

    With ``end``, only ``stripped[start:end]`` is lexed, where ``start``
    begins a token and ``end`` ends one; offsets stay those of the whole
    text and eof sits at ``end``. Every step maps a C function over the
    whole range, so no Python code runs per token, and no kind is worked
    out: ``token_kind`` gives one from its value where the parser needs it.
    """
    if end is None:
        # A leading byte-order mark is whitespace. Stop at the last
        # non-space character: trailing whitespace would otherwise
        # backtrack into the stray-byte branch.
        start = 1 if stripped.startswith("\ufeff") else 0
        stop, length = len(stripped.rstrip()), len(stripped)
    else:
        stop = length = end
    flat = list(chain.from_iterable(_TOKEN_RE.findall(stripped, start, stop)))
    offsets = list(accumulate(map(len, flat), initial=start))
    tokens = Tokens(map(intern, flat[1::2]))
    tokens.append("")
    tokens.starts = offsets[1::2]
    tokens.starts.append(length)
    tokens.ends = offsets[2::2]
    tokens.ends.append(length)
    return tokens


def outline(stripped: str, path: str = "") -> str:
    """``stripped`` with the inside of every block opened at brace depth 1
    and of every free function's body blanked.

    The copy keeps every length and offset, and each blanked block's
    braces. Raises SoliditySyntaxError at the first ``}`` that closes
    nothing, or else at the last ``{`` that nothing closes. ``str.split``
    finds the braces, and those inside a string literal are dropped;
    depths and block edges come from C-level maps over them, so no Python
    code runs per brace or per character. Only a top-level block is
    looked at alone: it is a free function's body if the text since the
    brace before its ``{`` ends in a statement that starts with
    ``function``. So a free function whose header holds a brace keeps
    its body's top-level statements in the outline.
    """
    starts = _offsets(stripped.replace("}", "{"), "{")  # every brace, in order
    if '"' in stripped or "'" in stripped:
        for at, end in _segments(stripped, path):  # only strings: comments are blank
            del starts[bisect_left(starts, at):bisect_left(starts, end)]
    # depths[i]: brace depth before brace i; depths[-1]: at the end of the file
    depths = list(accumulate(map(_BRACE_STEP.__getitem__, map(stripped.__getitem__, starts)),
                             initial=0))
    if min(depths) < 0:
        _raise_at(stripped, starts[depths.index(-1) - 1], "unbalanced '}'", path)
    if depths[-1]:
        # the last '{' opened from one level below the final depth
        last = len(depths) - 1 - depths[::-1].index(depths[-1] - 1)
        _raise_at(stripped, starts[last], "unclosed '{'", path)
    # a brace between depths 1 and 2 opens or closes a block opened at depth 1
    edges = list(compress(starts, map(_DEPTH_ONE_EDGE.__contains__, map(add, depths, depths[1:]))))
    k = 0  # top-level blocks follow one another: each ends where the depth is back to 0
    while k < len(starts):
        close = depths.index(0, k + 1) - 1
        if _FREE_FUNCTION_HEAD_RE.fullmatch(stripped, starts[k - 1] + 1 if k else 0, starts[k]):
            # the body's own braces replace the edges of the blocks inside it
            body = [starts[k], starts[close]]
            edges[bisect_left(edges, body[0]):bisect_left(edges, body[1])] = body
        k = close + 1
    if not edges:
        return stripped
    opens, closes = edges[0::2], edges[1::2]
    # keep each stretch from a close (or the start) through the next open
    kept_starts = [0, *closes]
    kept_stops = [*map((1).__add__, opens), len(stripped)]
    kept = map(stripped.__getitem__, map(slice, kept_starts, kept_stops))
    blanks = map(" ".__mul__, map(sub, closes, kept_stops))
    return "".join(chain.from_iterable(zip_longest(kept, blanks, fillvalue="")))


def _offsets(text: str, char: str) -> list:
    """The offset of every ``char`` in ``text``, in order."""
    pieces = text.split(char)
    pieces.pop()
    # one past each piece's end is the next char; -1 stands before the first piece
    return list(accumulate(map(add, map(len, pieces), repeat(1)), initial=-1))[1:]


def identifiers(stripped: str, start: int, end: int) -> tuple:
    """Distinct names of the id tokens of ``stripped[start:end]``, first seen first, interned.

    These are the values ``tokenize`` gives its id tokens over the same
    range, found without building a token. In ASCII text with no quote,
    where every run of letters, digits, ``_`` and ``$`` that starts with a
    digit is all digits, the id tokens are the runs that start with no
    digit, and byte-level C functions split the range into its runs. Any
    other range takes one regex match per token.
    """
    body = stripped[start:end]
    if body.isascii() and '"' not in body and "'" not in body:
        runs = dict.fromkeys(body.encode().translate(_RUN_BYTES).split())
        if all([run.isdigit() for run in runs if run[0] in _DIGIT_BYTES]):
            return tuple([intern(run.decode()) for run in runs if run[0] not in _DIGIT_BYTES])
    names = dict.fromkeys(_IDENTIFIER_RE.findall(stripped, start, end))
    names.pop("", None)
    return tuple(map(intern, names))
