"""AST node types for the Solidity subset the scanner understands.

Expressions and statements keep only character offsets and a reference
to their ``SourceFile``; their text (``raw``) and a statement's 1-based
line range (``span``) are sliced from the file on demand, so every piece
of evidence in a scan report comes straight out of the file while the
parsed project holds no copy of it. Child sequences are tuples, sized
to their contents, and an empty one is the shared ``()``.
"""

from __future__ import annotations

import bisect
import threading
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Iterator, Optional

_BODY_LOCK = threading.Lock()


class LineIndex:
    """Maps character offsets to 1-based (line, column) pairs.

    The line starts are one ``array`` of 8 bytes a line, not a list of int
    objects: a file's index is built when its lines are first read, in the
    middle of a scan, where small objects would raise its peak memory.
    """

    def __init__(self, text: str):
        # each line's start: one past the previous line's end and newline
        self._starts = array("q", accumulate(map((1).__add__, map(len, text.split("\n"))),
                                             initial=0))
        self._starts.pop()  # one past the end of the text

    def linecol(self, offset: int) -> tuple[int, int]:
        line = bisect.bisect_right(self._starts, offset)
        return line, offset - self._starts[line - 1] + 1

    def line_of(self, offset: int) -> int:
        return bisect.bisect_right(self._starts, offset)


@dataclass
class SourceFile:
    """One Solidity file: original text plus a comment-blanked twin.

    ``stripped`` has every comment replaced by spaces (newlines kept) so
    offsets line up with ``text``; keyword filters match on ``stripped``
    while report excerpts slice ``text``. ``line_index`` is built the
    first time something reads a line or column of the file.
    """

    path: str
    text: str
    stripped: str = ""

    @cached_property
    def line_index(self) -> LineIndex:
        return LineIndex(self.text)


@dataclass(slots=True)
class Expression:
    kind: str  # identifier|member-access|index|call|binary|unary|literal|tuple
    start: int
    end: int
    src: SourceFile = field(repr=False, compare=False)
    name: str = ""  # identifier name or member name
    op: str = ""
    callee: Optional["Expression"] = None
    args: tuple = ()

    @property
    def raw(self) -> str:
        return self.src.text[self.start : self.end]


@dataclass(slots=True)
class Statement:
    kind: str  # see parser; "opaque" preserves raw text of anything else
    start: int
    end: int
    src: SourceFile = field(repr=False, compare=False)
    condition: Optional[Expression] = None
    children: tuple = ()
    exprs: tuple = ()
    decl_names: tuple = ()
    post_expr: Optional[Expression] = None

    @property
    def raw(self) -> str:
        return self.src.text[self.start : self.end]

    @property
    def span(self) -> tuple[int, int]:
        """1-based (start line, end line)."""
        line_of = self.src.line_index.line_of
        return line_of(self.start), line_of(max(self.start, self.end - 1))

    def walk(self) -> Iterator["Statement"]:
        yield self
        for c in self.children:
            yield from c.walk()

    def expressions(self) -> Iterator[Expression]:
        """Each top-level expression once: a ``require``'s condition is also its first arg."""
        if self.condition is not None:
            yield self.condition
        for e in self.exprs:
            if e is not None and e is not self.condition:
                yield e
        if self.post_expr is not None:
            yield self.post_expr


@dataclass(eq=False)
class FunctionRecord:
    """A parsed function/constructor/fallback; the unit of all analysis.

    ``body`` is the body's statement table: every statement, nested ones
    too, in walk (pre-order) order, so a statement's index in it is its
    order key; the top-level statements hold the rest as ``children``.
    Every body is lexed alone, from its range of the file, by the parse
    that reads it, so offsets and spans are the file's. An entry point's
    body is parsed with its file. Any other body is skipped, and it
    keeps only where it starts (``body_start``); it is parsed the first
    time ``body`` is read, once. To decide whether to walk a skipped
    body, the call graph tests its file's runs once (``lexer.may_name``),
    and the runs of the body's own range only if those may name a
    function it reached; it keeps no copy of either. Like a statement's,
    its line ``span`` is read from the file's line index when asked, so
    the parse counts no lines and a file whose lines nothing reads
    builds no index.
    """

    name: str  # empty for constructor/fallback/receive
    kind: str  # function|constructor|fallback|receive
    params: list  # ordered (type_text, name) pairs
    visibility: str  # public|external|internal|private
    modifiers: list  # invocation names, source order
    start: int = 0
    end: int = 0
    contract: str = ""
    contract_def: Optional["ContractDef"] = None
    file: Optional[SourceFile] = None
    body_start: int = -1  # offset of the body's '{'; -1 for a declaration
    parsed_body: Optional[tuple] = field(default=None, repr=False)

    @property
    def span(self) -> tuple[int, int]:
        """1-based (start line, end line), read from the file's line index."""
        line_of = self.file.line_index.line_of
        return line_of(self.start), line_of(max(self.start, self.end - 1))

    @property
    def arity(self) -> int:
        return len(self.params)

    @property
    def display_name(self) -> str:
        return self.name or self.kind

    @property
    def is_entry_point(self) -> bool:
        """Callable from outside: public or external, and not a constructor."""
        return self.visibility in ("public", "external") and self.kind != "constructor"

    @property
    def has_body(self) -> bool:
        """Whether ``body`` is not None, without parsing a skipped body."""
        return self.body_start >= 0

    @property
    def body(self) -> Optional[tuple]:
        """The statement table, in walk order; None for declarations."""
        if self.parsed_body is None and self.body_start >= 0:
            with _BODY_LOCK:  # one parse, however many threads read it at once
                if self.parsed_body is None:
                    from .parser import parse_body

                    self.parsed_body = parse_body(self)
        return self.parsed_body

    def source(self) -> str:
        return self.file.text[self.start : self.end] if self.file else ""

    def body_text(self) -> str:
        """Comment-stripped body text (braces to braces), for filters."""
        if self.file is None or not self.body:
            return ""
        hi = max(s.end for s in self.body)  # a statement's children end inside it
        return self.file.stripped[self.body[0].start:hi]

    @cached_property
    def body_lower(self) -> str:
        """``body_text()`` lower-cased once, for the case-insensitive filters."""
        return self.body_text().lower()


@dataclass(eq=False)
class ContractDef:
    """A contract's header; its other members are skipped by the parser.

    Functions point at their contract (``FunctionRecord.contract_def``)
    but not the other way round, so the parsed heap has no reference
    cycle and reference counting alone frees it.
    """

    name: str
    kind: str  # contract|interface|library|abstract
    bases: list  # base names in declaration order


@dataclass
class SourceUnit:
    contracts: list = field(default_factory=list)  # declaration order
    functions: list = field(default_factory=list)  # declaration order, free ones last
