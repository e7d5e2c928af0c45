"""AST node types for the Solidity subset the scanner understands.

Nodes keep exact source spans (character offsets into the original file
text plus 1-based line ranges) so that every piece of evidence in a scan
report can be sliced straight out of the file.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional

_NEWLINE_RE = re.compile("\n")


class LineIndex:
    """Maps character offsets to 1-based (line, column) pairs."""

    def __init__(self, text: str):
        self._starts = [0]
        self._starts.extend(m.end() for m in _NEWLINE_RE.finditer(text))

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
    while report excerpts slice ``text``.
    """

    path: str
    text: str
    stripped: str = ""
    line_index: LineIndex = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.line_index is None:
            self.line_index = LineIndex(self.text)


@dataclass(slots=True)
class Expression:
    kind: str  # identifier|member-access|index|call|binary|unary|literal|tuple
    start: int
    end: int
    raw: str
    name: str = ""  # identifier name or member name
    op: str = ""
    callee: Optional["Expression"] = None
    args: list = field(default_factory=list)

    def walk(self) -> Iterator["Expression"]:
        yield self
        if self.callee is not None:
            yield from self.callee.walk()
        for a in self.args:
            if a is not None:
                yield from a.walk()


@dataclass(slots=True)
class Statement:
    kind: str  # see parser; "opaque" preserves raw text of anything else
    start: int
    end: int
    span: tuple[int, int]  # 1-based (start line, end line)
    raw: str
    seq: int = -1
    condition: Optional[Expression] = None
    children: list = field(default_factory=list)
    exprs: list = field(default_factory=list)
    decl_names: list = field(default_factory=list)
    post_expr: Optional[Expression] = None

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
    """A parsed function/constructor/fallback; the unit of all analysis."""

    name: str  # empty for constructor/fallback/receive
    kind: str  # function|constructor|fallback|receive
    params: list  # ordered (type_text, name) pairs
    visibility: str  # public|external|internal|private
    modifiers: list  # invocation names, source order
    body: Optional[list]  # top-level statements; None for declarations
    span: tuple[int, int]
    start: int = 0
    end: int = 0
    contract: str = ""
    contract_def: Optional["ContractDef"] = None
    file: Optional[SourceFile] = None

    @property
    def arity(self) -> int:
        return len(self.params)

    @property
    def display_name(self) -> str:
        return self.name or self.kind

    def statements(self) -> Iterator[Statement]:
        for s in self.body or []:
            yield from s.walk()

    def source(self) -> str:
        return self.file.text[self.start : self.end] if self.file else ""

    def body_text(self) -> str:
        """Comment-stripped body text (braces to braces), for filters."""
        if self.file is None or not self.body:
            return ""
        lo = min(s.start for s in self.body)
        hi = max(s.end for s in self.body)
        return self.file.stripped[lo:hi]

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
