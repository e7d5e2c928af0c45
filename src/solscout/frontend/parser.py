"""Recursive-descent parser for the Solidity subset needed by the scanner.

The grammar coverage is deliberately partial: contract headers and
inheritance, functions/constructors/fallbacks, the statement forms that
matter for ordering/condition/dataflow checks, and ordinary expressions.
A token lookahead tells a declaration from an expression statement, so
each statement is parsed once. Nothing reads the other top-level
constructs and contract members (pragmas, imports, modifier definitions,
state variables, structs, events, ...), so they are skipped unparsed.
Inside a function body, anything else (assembly, try/catch, do-while
innards that fail, exotic syntax) degrades to an ``opaque`` statement
that preserves the exact source text, so nothing is ever silently
dropped; skipped members end where an opaque statement would.

The file-level parse reads the file's outline (see ``lexer.outline``):
the inside of every contract member's body and of every free function's
body is blank, so its tokens are only the body's two braces.
``_parse_block`` lexes and parses one body from its own range of the
file. It parses the bodies of entry points (public or external, not
constructors) as their file is parsed, and every other body when
something first reads it (``parse_body``), so a function's body is
lexed once at most (bar the free functions ``lexer.outline`` names).

Two readers read a file's outline and differ only in how they read a
header: ``_function`` builds every record from what they read, with
all of a record's rules, and ``_unit`` lists free functions last, under
one nameless contract. A record's line span is read from the file's
line index when asked.

One compiled pattern, ``_OUTLINE_RE``, reads most outlines without
lexing them: one ``finditer`` per file matches it item by item, each a
contract header, a contract's closing brace, a function with a blank
body or none, in a contract or free, or any other member or top-level
statement, skipped as ``_skip_statement`` skips it. Brackets nest up to
five deep in a member, and parentheses up to five deep in a parameter
list and in the arguments of a base or a header word, strings inside
included: ``mapping(address => mapping(address => uint256))``,
``is ERC20("Name", "SYM")``, ``onlyRole(keccak256("X"))``.
``_read_outline`` builds from the matches the unit the token walk
(``Parser``) would build, field by field, interning every name, type,
modifier and base as ``tokenize`` interns token values. It reads a
parameter list of ``TYPE [location] [name]`` items (a possibly dotted
type, array suffixes, ``address payable``) from its match; any other
list, such as one with a ``mapping`` or ``function`` type, is lexed
alone and read by ``_parse_params``. It declines a file the matches do
not cover from its first character to its last as that grammar: a
``function (`` member without a body (a state variable of function
type, say), deeper nesting, a constructor, fallback or receive outside
a contract, or malformed text. It declines a file one of whose lexed
parameter lists does not read to its ')', too. A declined file goes
through the token walk, which is the reference and the source of every
syntax error but one: an entry body that nests too deep, which
``_function`` reports the same way on either path. The input alone
decides which path runs.

The parser reads a ``tokenize`` result as it is: token values, start
offsets and end offsets by index, with no object per token. It calls
``tokenize`` and ``strip_comments`` through this module's globals,
which the benchmark's tracer wraps to time lexing and count tokens.
"""

from __future__ import annotations

import re
from operator import attrgetter
from sys import intern

from ..errors import SoliditySyntaxError
from .lexer import (
    _IDENTIFIER,
    _NAME_CHAR,
    _STRING,
    Tokens,
    is_id,
    outline,
    strip_comments,
    token_kind,
    tokenize,
)
from .nodes import (
    ContractDef,
    Expression,
    FunctionRecord,
    SourceFile,
    SourceUnit,
    Statement,
)

VISIBILITIES = {"public", "external", "internal", "private"}
MUTABILITY = {"view", "pure", "payable", "constant"}
LOCATIONS = {"memory", "storage", "calldata"}
UNITS = {"wei", "gwei", "szabo", "finney", "ether",
         "seconds", "minutes", "hours", "days", "weeks", "years"}
ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "<<=", ">>=", "**="}
BINARY_LEVELS = (
    ("||",), ("&&",), ("==", "!="), ("<", ">", "<=", ">="),
    ("|",), ("^",), ("&",), ("<<", ">>"), ("+", "-"), ("*", "/", "%"), ("**",),
)
# Binary operator -> index of its level in BINARY_LEVELS (higher binds tighter).
BINARY_PRECEDENCE = {op: level for level, ops in enumerate(BINARY_LEVELS) for op in ops}
PREFIX_OPS = {"!", "~", "-", "+", "++", "--", "delete", "new"}
# Tokens that can continue an expression after its primary.
POSTFIX_OPS = {"(", "{", ".", "[", "++", "--"}
# Tokens that can end or nest a statement skipped unparsed.
_SKIP_STOPS = {"(", "[", ")", "]", "{", ";"}
# The words of a function header that ``_parse_function`` does not take as modifiers.
_HEADER_KEYWORDS = VISIBILITIES | MUTABILITY | {"virtual", "override", "returns"}

# From the first to the last non-space character of a range.
_INSIDE_RE = re.compile(r"\S(?:.*\S)?", re.DOTALL)


class _Backtrack(Exception):
    """Internal: current construct does not parse; caller falls back."""


class Parser:
    """One file's parser.

    ``values[pos]`` is the current token's value and ``starts[pos]`` and
    ``ends[pos]`` are its offsets: the lists of one ``tokenize`` result,
    read as they are. ``pos`` never moves past eof, whose value ``""`` is
    the only empty one, and a lookahead never passes a token that may be
    eof, so no read runs off the end. Only punct tokens spell punctuation
    and only ids spell keywords, so comparing a token's value alone tells
    which one it is; ``is_id`` and ``token_kind`` tell the rest from the value.
    """

    def __init__(self, src: SourceFile, tokens: Tokens | None = None):
        """Lex the file's outline, or parse the given ``tokens`` of it."""
        self.src = src
        if tokens is None:
            tokens = tokenize(_outline(src), src.path)
        self.values = tokens
        self.starts = tokens.starts
        self.ends = tokens.ends
        self.pos = 0

    # ------------------------------------------------------------------
    # token plumbing

    def advance(self) -> str:
        value = self.values[self.pos]
        if value:
            self.pos += 1
        return value

    def _advance_start(self) -> int:
        """Consume the current token, which is not eof; return its start offset."""
        self.pos += 1
        return self.starts[self.pos - 1]

    def at(self, value: str) -> bool:
        return self.values[self.pos] == value

    def _fail(self, message: str):
        line, col = self.src.line_index.linecol(self.starts[self.pos])
        raise SoliditySyntaxError(message, line, col, self.src.path)

    def expect_punct(self, value: str, hard: bool = False) -> int:
        """Consume ``value``; return its end offset."""
        if self.values[self.pos] == value:
            self.pos += 1
            return self.ends[self.pos - 1]
        if hard:
            self._fail(f"expected '{value}'")
        raise _Backtrack()

    def expect_id(self, what: str, hard: bool = False) -> str:
        value = self.values[self.pos]
        if is_id(value):
            self.pos += 1
            return value
        if hard:
            self._fail(f"expected {what}")
        raise _Backtrack()

    # ------------------------------------------------------------------
    # top level

    def parse(self) -> SourceUnit:
        values = self.values
        contracts, functions, free = [], [], []
        while value := values[self.pos]:
            if value in ("contract", "interface", "library") or (
                value == "abstract" and values[self.pos + 1] == "contract"
            ):
                contracts.append(self._parse_contract(functions))
            elif value == "function":
                free.append(self._parse_function(None))
            else:
                self._skip_statement()
        return _unit(contracts, functions, free)

    def _after_balanced(self, i: int, opening: str, closing: str) -> int:
        """Index just past the ``closing`` matching the ``opening`` at ``i - 1``, or of eof."""
        values = self.values
        depth = 1
        while depth:
            value = values[i]
            if not value:
                return i
            i += 1
            if value == opening:
                depth += 1
            elif value == closing:
                depth -= 1
        return i

    def _skip_balanced(self, opening: str, closing: str) -> None:
        """Consume tokens through the ``closing`` matching the consumed ``opening``."""
        self.pos = self._after_balanced(self.pos, opening, closing)

    def _skip_balanced_parens(self) -> None:
        if self.at("("):
            self.pos += 1
            self._skip_balanced("(", ")")

    # ------------------------------------------------------------------
    # contracts

    def _parse_contract(self, functions: list) -> ContractDef:
        kind = self.advance()
        if kind == "abstract":
            self.advance()  # 'contract'
            kind = "abstract"
        name = self.expect_id("contract name", hard=True)
        bases: list[str] = []
        if self.at("is"):
            self.advance()
            while True:
                base = self.expect_id("base contract name", hard=True)
                while self.at("."):
                    self.advance()
                    base += "." + self.expect_id("base name part", hard=True)
                self._skip_balanced_parens()
                bases.append(intern(base))
                if self.at(","):
                    self.advance()
                else:
                    break
        self.expect_punct("{", hard=True)
        contract = ContractDef(name=name, kind=kind, bases=bases)
        while not self.at("}") and self.values[self.pos]:
            if not self._at_function():
                self._skip_statement()  # modifier, state variable, struct, event, ...
            elif not self._skipped_function_type_variable():
                functions.append(self._parse_function(contract))
        self.expect_punct("}", hard=True)
        return contract

    def _at_function(self) -> bool:
        v = self.values[self.pos]
        return v == "function" or v == "constructor" or (
            (v == "fallback" or v == "receive") and self.values[self.pos + 1] == "("
        )

    def _skipped_function_type_variable(self) -> bool:
        """Skip a state variable of function type here, if one starts here.

        A ``function (`` member that ends at its ``;`` is one when it
        holds ``=`` or its last token is a name, not a header keyword:
        ``function (uint) external returns (uint) public handler;``. A
        ``function (`` member with a body, or whose header ends in a
        keyword, is an old-style fallback function.
        """
        values = self.values
        first = self.pos
        if values[first] != "function" or values[first + 1] != "(":
            return False
        self._skip_statement()
        last = values[self.pos - 2]
        if values[self.pos - 1] == ";" and (
                "=" in values[first:self.pos] or (is_id(last) and last not in _HEADER_KEYWORDS)):
            return True
        self.pos = first
        return False

    # ------------------------------------------------------------------
    # functions

    def _parse_function(self, contract: ContractDef | None) -> FunctionRecord:
        """A function of ``contract``, or a free one if it is None."""
        values = self.values
        start = self.starts[self.pos]
        kw = self.advance()
        if kw == "function":
            kind = "function"
            name = "" if self.at("(") else self.expect_id("function name", hard=True)
        else:
            kind = kw
            name = ""
        params = self._parse_params()
        visibility = None
        modifiers: list[str] = []
        while True:
            v = values[self.pos]
            if v == "{" or v == ";" or not v:
                break
            self.pos += 1
            if not is_id(v):
                continue  # stray punctuation in header: skip, stay total
            if v in VISIBILITIES:
                visibility = v
            elif v == "override" or v == "returns":
                self._skip_balanced_parens()
            elif v not in MUTABILITY and v != "virtual":
                modifiers.append(v)
                self._skip_balanced_parens()
        body_start = -1
        if self.at(";"):
            end = self.expect_punct(";")
        else:
            body_start = self.starts[self.pos]
            self.expect_punct("{", hard=True)
            self._skip_balanced("{", "}")
            end = self.ends[self.pos - 1]
        return _function(self.src, contract, name, kind, params, visibility, modifiers, start,
                         end, body_start)

    def _parse_params(self) -> list:
        values = self.values
        params = []
        self.expect_punct("(", hard=True)
        while (value := values[self.pos]) != ")" and value:
            saved = self.pos
            try:
                type_text = self._parse_type()
                if values[self.pos] in LOCATIONS:
                    self.pos += 1
                name = ""
                if is_id(values[self.pos]):
                    name = self.advance()
                params.append((intern(type_text), name))
            except _Backtrack:
                # salvage the raw text so arity stays right
                self.pos = saved
                depth = 0
                while value := values[self.pos]:
                    if depth == 0 and (value == "," or value == ")"):
                        break
                    self.pos += 1
                    if value == "(" or value == "[":
                        depth += 1
                    elif (value == ")" or value == "]") and depth:
                        depth -= 1  # a stray closer must not hide the list's ')'
                raw = self.src.stripped[self.starts[saved]: self.starts[self.pos]].strip()
                params.append((intern(raw), ""))
            if self.at(","):
                self.pos += 1
        self.expect_punct(")", hard=True)
        return params

    def _parse_type(self) -> str:
        values = self.values
        text = values[self.pos]
        if not is_id(text):
            raise _Backtrack()
        self.pos += 1
        if text == "mapping":
            self.expect_punct("(")
            key = self._parse_type()
            if is_id(values[self.pos]):
                self.pos += 1  # named mapping key (0.8.18+)
            self.expect_punct("=>")
            value = self._parse_type()
            if is_id(values[self.pos]):
                self.pos += 1
            self.expect_punct(")")
            text = f"mapping({key}=>{value})"
        elif text == "function":
            self._skip_balanced_parens()
            while values[self.pos] in VISIBILITIES or values[self.pos] in MUTABILITY:
                self.pos += 1
            if self.at("returns"):
                self.pos += 1
                self._skip_balanced_parens()
        else:
            while values[self.pos] == "." and is_id(values[self.pos + 1]):
                text += "." + values[self.pos + 1]
                self.pos += 2
            if text == "address" and self.at("payable"):
                self.pos += 1
        while values[self.pos] == "[":
            close = self._after_balanced(self.pos + 1, "[", "]")
            if not values[close]:
                # no ']', or one that ends the file where a name must follow
                raise _Backtrack()
            text += "".join(values[self.pos:close])
            self.pos = close
        return text

    # ------------------------------------------------------------------
    # statements

    def _parse_block_children(self) -> tuple[list, int]:
        values = self.values
        self.expect_punct("{", hard=True)
        children = []
        while (value := values[self.pos]) != "}" and value:
            children.append(self._parse_statement())
        return children, self.expect_punct("}", hard=True)

    def _statement(self, kind: str, start: int, end: int, condition=None, children=(),
                   exprs=(), decl_names=(), post_expr=None) -> Statement:
        return Statement(kind, start, end, self.src, condition, children, exprs, decl_names,
                         post_expr)

    def _parse_statement(self) -> Statement:
        saved = self.pos
        try:
            return self._statement_dispatch()
        except _Backtrack:
            self.pos = saved
            return self._opaque_statement()

    def _opaque_statement(self) -> Statement:
        start = self.starts[self.pos]
        end = self._skip_statement()
        return self._statement("opaque", start, max(start, end))

    def _skip_statement(self) -> int:
        """Skip a statement or member unparsed; return its end offset.

        It ends after a ``;`` or a ``{...}`` block at bracket depth 0, or before
        a ``}``: blocks are skipped whole, so that one closes an enclosing block
        (taken alone if the statement starts there). Inside brackets, a block
        does not end the statement: ``S({a: 1})``.
        """
        values = self.values
        first = self.pos
        depth = 0
        while value := values[self.pos]:
            if value == "}":
                if self.pos == first:
                    self.pos += 1
                break
            self.pos += 1
            if value not in _SKIP_STOPS:
                continue
            if value == "(" or value == "[":
                depth += 1
            elif value == ")" or value == "]":
                depth = max(0, depth - 1)
            elif value == "{":
                self._skip_balanced("{", "}")
                if depth == 0:
                    break
            elif depth == 0:  # ';'
                break
        return self.ends[self.pos - 1]

    _STATEMENT_KEYWORDS = {
        "if": "_parse_if",
        "for": "_parse_for",
        "while": "_parse_while",
        "do": "_parse_do_while",
        "return": "_parse_return",
        "emit": "_parse_emit",
        "revert": "_parse_revert",
        "assembly": "_parse_assembly",
        "try": "_parse_try",
    }

    def _statement_dispatch(self) -> Statement:
        values = self.values
        value = values[self.pos]
        start = self.starts[self.pos]
        if value == "{":
            children, end = self._parse_block_children()
            return self._statement("block", start, end, children=tuple(children))
        if is_id(value):
            handler = self._STATEMENT_KEYWORDS.get(value)
            if handler is not None:
                return getattr(self, handler)()
            following = values[self.pos + 1]
            if (value == "require" or value == "assert") and following == "(":
                return self._parse_require(value)
            if value == "unchecked" and following == "{":
                self.pos += 1
                children, end = self._parse_block_children()
                return self._statement("block", start, end, children=tuple(children))
            if value in ("break", "continue", "throw"):
                self.pos += 1
                end = self.expect_punct(";")
                return self._statement("opaque", start, end)
        if self._at_declaration():
            return self._parse_local_decl()
        return self._parse_expression_statement()

    def _at_declaration(self) -> bool:
        """Whether a type then a name start here, read ahead as in solc's ``parseSimpleStatement``.

        A data location or ``payable`` counts as the name; a tuple declaration
        has ``(`` and any commas before its first type.
        """
        values = self.values
        i = self.pos
        if values[i] == "(":
            i += 1
            while values[i] == ",":
                i += 1
        value = values[i]
        if not is_id(value) or value in PREFIX_OPS:
            return False
        if value == "mapping" or value == "function":
            return True
        i += 1
        while values[i] == "." and is_id(values[i + 1]):
            i += 2
        while values[i] == "[":
            i = self._after_balanced(i + 1, "[", "]")
        return is_id(values[i])

    def _parse_if(self) -> Statement:
        start = self._advance_start()
        self.expect_punct("(")
        cond = self._parse_expression()
        self.expect_punct(")")
        then = self._parse_statement()
        children = (then,)
        end = then.end
        if self.at("else"):
            self.advance()
            other = self._parse_statement()
            children = (then, other)
            end = other.end
        return self._statement("if", start, end, condition=cond, children=children)

    def _parse_for(self) -> Statement:
        start = self._advance_start()
        self.expect_punct("(")
        children = ()
        if self.at(";"):
            self.advance()
        elif self._at_declaration():
            children = (self._parse_local_decl(),)
        else:
            init = self._parse_expression()
            end = self.expect_punct(";")
            children = (self._statement("expression", init.start, end, exprs=(init,)),)
        cond = None
        if self.at(";"):
            self.advance()
        else:
            cond = self._parse_expression()
            self.expect_punct(";")
        post = None
        if not self.at(")"):
            post = self._parse_expression()
        self.expect_punct(")")
        body = self._parse_statement()
        return self._statement(
            "for", start, body.end, condition=cond, children=(*children, body), post_expr=post
        )

    def _parse_while(self) -> Statement:
        start = self._advance_start()
        self.expect_punct("(")
        cond = self._parse_expression()
        self.expect_punct(")")
        body = self._parse_statement()
        return self._statement("while", start, body.end, condition=cond, children=(body,))

    def _parse_do_while(self) -> Statement:
        start = self._advance_start()
        body = self._parse_statement()
        if not self.at("while"):
            raise _Backtrack()
        self.advance()
        self.expect_punct("(")
        cond = self._parse_expression()
        self.expect_punct(")")
        end = self.expect_punct(";")
        return self._statement("while", start, end, condition=cond, children=(body,))

    def _parse_require(self, which: str) -> Statement:
        start = self._advance_start()
        args = self._parse_call_args()
        end = self.expect_punct(";")
        cond = args[0] if args else None
        return self._statement(which, start, end, condition=cond, exprs=args)

    def _parse_revert(self) -> Statement:
        start = self._advance_start()
        exprs = ()
        if self.at("("):
            exprs = self._parse_call_args()
        elif is_id(self.values[self.pos]):
            exprs = (self._parse_expression(),)
        end = self.expect_punct(";")
        return self._statement("revert", start, end, exprs=exprs)

    def _parse_return(self) -> Statement:
        start = self._advance_start()
        exprs = ()
        if not self.at(";"):
            exprs = (self._parse_expression(),)
        end = self.expect_punct(";")
        return self._statement("return", start, end, exprs=exprs)

    def _parse_emit(self) -> Statement:
        start = self._advance_start()
        expr = self._parse_expression()
        end = self.expect_punct(";")
        return self._statement("emit", start, end, exprs=(expr,))

    def _parse_assembly(self) -> Statement:
        start = self._advance_start()
        if token_kind(self.values[self.pos]) == "str":
            self.advance()
        if not self.at("{"):
            raise _Backtrack()
        self.advance()
        self._skip_balanced("{", "}")
        return self._statement("opaque", start, self.ends[self.pos - 1])

    def _parse_try(self) -> Statement:
        start = self._advance_start()
        self._parse_expression()
        if self.at("returns"):
            self.advance()
            self._skip_balanced_parens()
        if not self.at("{"):
            raise _Backtrack()
        self.advance()
        self._skip_balanced("{", "}")
        while self.at("catch"):
            self.advance()
            if is_id(self.values[self.pos]):
                self.advance()
            self._skip_balanced_parens()
            if not self.at("{"):
                raise _Backtrack()
            self.advance()
            self._skip_balanced("{", "}")
        return self._statement("opaque", start, self.ends[self.pos - 1])

    def _parse_local_decl(self) -> Statement:
        values = self.values
        start = self.starts[self.pos]
        if self.at("("):
            # tuple declaration: (uint a, , uint b) = expr;
            self.advance()
            names = []
            while not self.at(")"):
                if self.at(","):
                    self.advance()
                    continue
                self._parse_type()
                if values[self.pos] in LOCATIONS:
                    self.pos += 1
                names.append(self.expect_id("variable name"))
                if self.at(","):
                    self.advance()
            self.expect_punct(")")
            self.expect_punct("=")
            rhs = self._parse_expression()
            end = self.expect_punct(";")
            return self._statement("local-decl", start, end, decl_names=tuple(names),
                                   exprs=(rhs,))
        self._parse_type()
        if values[self.pos] in LOCATIONS:
            self.pos += 1
        name = self.expect_id("variable name")
        exprs = ()
        if values[self.pos] == "=":
            self.pos += 1
            exprs = (self._parse_expression(),)
        end = self.expect_punct(";")
        return self._statement("local-decl", start, end, decl_names=(name,), exprs=exprs)

    def _parse_expression_statement(self) -> Statement:
        start = self.starts[self.pos]
        expr = self._parse_expression()
        end = self.expect_punct(";")
        if expr.kind == "binary" and expr.op in ASSIGN_OPS:
            return self._statement("assignment", start, end, exprs=expr.args)  # (target, value)
        return self._statement("expression", start, end, exprs=(expr,))

    # ------------------------------------------------------------------
    # expressions

    def _expr(self, kind: str, start: int, end: int, name: str = "", op: str = "",
              callee: Expression = None, args: tuple = ()) -> Expression:
        return Expression(kind, start, end, self.src, name, op, callee, args)

    def _parse_expression(self) -> Expression:
        """Assignment (right-associative) over a conditional over binary operators."""
        left = self._parse_binary(0)
        value = self.values[self.pos]
        if value == "?":
            self.pos += 1
            then = self._parse_expression()
            self.expect_punct(":")
            other = self._parse_expression()
            return self._expr("binary", left.start, other.end, op="?:", args=(left, then, other))
        if value in ASSIGN_OPS:
            self.pos += 1
            right = self._parse_expression()
            return self._expr("binary", left.start, right.end, op=value, args=(left, right))
        return left

    def _parse_binary(self, min_prec: int) -> Expression:
        """Precedence climbing: operators of level >= ``min_prec``, all left-associative."""
        values = self.values
        left = self._parse_unary()
        while True:
            op = values[self.pos]
            prec = BINARY_PRECEDENCE.get(op)
            if prec is None or prec < min_prec:
                return left
            self.pos += 1
            right = self._parse_binary(prec + 1)
            left = self._expr("binary", left.start, right.end, op=op, args=(left, right))

    def _parse_unary(self) -> Expression:
        op = self.values[self.pos]
        if op in PREFIX_OPS:
            start = self._advance_start()
            operand = self._parse_unary()
            return self._expr("unary", start, operand.end, op=op, args=(operand,))
        return self._parse_postfix(self._parse_primary())

    def _parse_postfix(self, base: Expression) -> Expression:
        values = self.values
        ends = self.ends
        while (value := values[self.pos]) in POSTFIX_OPS:
            if value == "(":
                args = self._parse_call_args()
                base = self._expr("call", base.start, ends[self.pos - 1], callee=base, args=args)
            elif value == "{":
                # f{value: x}(...) rather than a block: '{' ident ':'
                if not is_id(values[self.pos + 1]) or values[self.pos + 2] != ":":
                    return base
                opts = self._parse_named_values()
                if not self.at("("):
                    raise _Backtrack()
                args = self._parse_call_args()
                base = self._expr("call", base.start, ends[self.pos - 1],
                                  callee=base, args=args + opts)
            elif value == ".":
                name = values[self.pos + 1]
                if token_kind(name) not in ("id", "num"):
                    raise _Backtrack()
                self.pos += 2
                base = self._expr("member-access", base.start, ends[self.pos - 1],
                                  name=name, callee=base)
            elif value == "[":
                self.pos += 1
                args = ()
                if not self.at("]") and not self.at(":"):
                    args = (self._parse_expression(),)
                if self.at(":"):
                    self.pos += 1
                    if not self.at("]"):
                        args += (self._parse_expression(),)
                end = self.expect_punct("]")
                base = self._expr("index", base.start, end, callee=base, args=args)
            else:  # postfix ++ or --
                self.pos += 1
                base = self._expr("unary", base.start, ends[self.pos - 1], op=value, args=(base,))
        return base

    def _parse_named_values(self) -> tuple:
        self.expect_punct("{")
        exprs = []
        while not self.at("}") and self.values[self.pos]:
            self.expect_id("option name")
            self.expect_punct(":")
            exprs.append(self._parse_expression())
            if self.at(","):
                self.pos += 1
        self.expect_punct("}")
        return tuple(exprs)

    def _parse_call_args(self) -> tuple:
        values = self.values
        self.expect_punct("(")
        args = []
        while (value := values[self.pos]) != ")" and value:
            args.append(self._parse_expression())
            if values[self.pos] == ",":
                self.pos += 1
        self.expect_punct(")")
        return tuple(args)

    def _parse_primary(self) -> Expression:
        values = self.values
        pos = self.pos
        value = values[pos]
        start = self.starts[pos]
        kind = token_kind(value)
        if kind == "id":
            self.pos += 1
            return self._expr("identifier", start, self.ends[pos], name=value)
        if kind == "num":
            self.pos += 1
            if values[self.pos] in UNITS:
                self.pos += 1
            return self._expr("literal", start, self.ends[self.pos - 1])
        if kind == "str":
            self.pos += 1
            while token_kind(values[self.pos]) == "str":  # adjacent string concatenation
                self.pos += 1
            return self._expr("literal", start, self.ends[self.pos - 1])
        if value == "(":
            self.pos += 1
            elems = []
            expect_elem = True
            while not self.at(")") and values[self.pos]:
                if self.at(","):
                    if expect_elem:
                        elems.append(None)
                    self.pos += 1
                    expect_elem = True
                    continue
                elems.append(self._parse_expression())
                expect_elem = False
            end = self.expect_punct(")")
            real = [e for e in elems if e is not None]
            if len(elems) == 1 and len(real) == 1:
                return real[0]
            return self._expr("tuple", start, end, args=tuple(elems))
        if value == "[":
            self.pos += 1
            elems = []
            while not self.at("]") and values[self.pos]:
                elems.append(self._parse_expression())
                if self.at(","):
                    self.pos += 1
            end = self.expect_punct("]")
            return self._expr("tuple", start, end, args=tuple(elems))
        if value == "{":
            elems = self._parse_named_values()
            return self._expr("tuple", start, self.ends[self.pos - 1], args=elems)
        raise _Backtrack()


def _parse_block(src: SourceFile, start: int, end: int) -> tuple:
    """The statement table of the block ``src.stripped[start:end]``: every
    statement in it, in walk (pre-order) order.

    Only the block's own tokens are lexed, with their offsets in the
    file, so a malformed statement cannot run past the block's ``}``.
    Raises whatever the parse raises.
    """
    tops = Parser(src, tokenize(src.stripped, src.path, start, end))._parse_block_children()[0]
    return tuple([stmt for top in tops for stmt in top.walk()])


def parse_body(fn: FunctionRecord) -> tuple:
    """Parse a body the file's parse skipped; see ``FunctionRecord.body``.

    A body that does not parse (nested too deep, say) becomes one opaque
    statement spanning its inside; the rest of its file is unaffected.
    """
    src = fn.file
    try:
        return _parse_block(src, fn.body_start, fn.end)
    except Exception:
        inside = _INSIDE_RE.search(src.stripped, fn.body_start + 1, fn.end - 1)
        return (Statement("opaque", inside.start(), inside.end(), src),)


def _function(src: SourceFile, contract: ContractDef | None, name: str, kind: str,
              params: list, visibility: str | None, modifiers: list, start: int, end: int,
              body_start: int) -> FunctionRecord:
    """The record of the function ``src.text[start:end]`` of ``contract``, or a
    free one if it is None, as a reader read its header: ``visibility`` is
    None where the header names none, and ``body_start`` is -1 where it
    has no body. Both readers build every record here, as they meet it.

    An entry point's body is parsed now; one that nests too deep fails
    the file at the function's first character.
    """
    if contract is None:
        visibility = "internal"  # a free function is always internal
    else:
        if visibility is None:
            visibility = "external" if contract.kind == "interface" else "public"
        if name and name == contract.name:
            name, kind = "", "constructor"  # pre-0.5 constructor-by-name
    fn = FunctionRecord(name, kind, params, visibility, modifiers, start, end,
                        contract=contract.name if contract else "", contract_def=contract,
                        file=src, body_start=body_start)
    if body_start >= 0 and fn.is_entry_point:
        try:
            fn.parsed_body = _parse_block(src, body_start, end)
        except RecursionError:
            line, col = src.line_index.linecol(start)
            raise SoliditySyntaxError("nesting too deep", line, col, src.path) from None
    return fn


def _unit(contracts: list, functions: list, free: list) -> SourceUnit:
    """The unit of a file's contracts and their functions, then its ``free``
    functions, which share one nameless contract, listed last."""
    if free:
        nameless = ContractDef(name="", kind="contract", bases=[])
        for fn in free:
            fn.contract_def = nameless
        contracts.append(nameless)
        functions += free
    return SourceUnit(contracts, functions)


# ----------------------------------------------------------------------
# the outline read by one pattern

_ID = _IDENTIFIER + "(?!" + _NAME_CHAR + ")"  # a whole id token
_DOTTED = _ID + r"(?:\s*\.\s*" + _ID + ")*"


def _words(*words: str) -> str:
    """A pattern for one id token spelled as one of ``words``."""
    return "(?:" + "|".join(sorted(words)) + ")(?!" + _NAME_CHAR + ")"


def _nested(opening: str, closing: str, text: str, atoms: str, depth: int) -> str:
    """A pattern for a group from ``opening`` to ``closing`` that holds ``text``,
    ``atoms`` and groups like it, nested up to ``depth`` deep. Each repeat
    starts with a character ``text`` cannot hold, so a failed match
    backtracks in linear time."""
    group = "(?!)"
    for _ in range(depth):
        group = opening + text + "(?:(?:" + atoms + "|" + group + ")" + text + ")*" + closing
    return group


# Statement text at bracket depth 0: any text but brackets, ';' and
# quotes. Brace groups, and the bracket groups ``_skip_statement``
# passes over, counting '(' and '[' alike.
_TEXT = r"""[^;{}()\[\]"']*"""
_BRACES = r"""\{[^{}"']*(?:""" + _STRING + r"""[^{}"']*)*\}"""
_GROUP = _nested(r"[(\[]", r"[)\]]", _TEXT, _STRING + "|" + _BRACES, 5)
# A parenthesised group as ``_skip_balanced_parens`` skips it: only
# parentheses count, and strings hold any character.
_ARGUMENTS = _nested(r"\(", r"\)", r"""[^()"']*""", _STRING, 5)
_BASE = _DOTTED + r"(?:\s*" + _ARGUMENTS + ")?"
# One match per item of an outline, each a named group: a contract's
# header through its '{' (c), its closing '}' (e), a function with a
# blank body or none (f), any other member or top-level statement,
# skipped (m), trailing whitespace (t), or the rest of a text that no
# item starts (x). Header words are ids, each of which may take one
# parenthesised group, but a visibility or mutability word takes none.
_OUTLINE_RE = re.compile(
    r"\s*(?:"
    r"(?P<c>(?:(?P<abstract>abstract)\s+contract|(?P<ckind>contract|interface|library))"
    r"(?!" + _NAME_CHAR + r")\s*(?P<cname>" + _ID + ")"
    r"(?:\s*is(?!" + _NAME_CHAR + r")\s*(?P<bases>(?:" + _BASE
    + r"\s*(?:,\s*(?=[A-Za-z_$])|(?=\{)))+))?"
    r"\s*\{)"
    r"|(?P<e>\})"
    r"|(?P<f>(?:function(?!" + _NAME_CHAR + r")\s*(?P<fname>" + _ID + ")?"
    r"|(?P<fkind>" + _words("constructor", "fallback", "receive") + "))"
    r"\s*(?P<params>" + _ARGUMENTS + ")"
    r"(?P<words>(?:\s*(?:(?!" + _words(*VISIBILITIES, *MUTABILITY, "virtual") + ")"
    + _ID + r"\s*" + _ARGUMENTS + "|" + _ID + "))*)"
    r"\s*(?:;|(?P<body>\{) *\}))"
    r"|(?P<m>(?![\s}]|" + _words("function", "constructor", "fallback", "receive", "contract",
                                   "interface", "library", "abstract") + ")"
    + _TEXT + "(?:(?:" + _STRING + "|" + _GROUP + ")" + _TEXT + ")*"
    r"(?:;|" + _BRACES + "))"
    r")|(?P<t>\s+\Z)|(?P<x>[\s\S]+)")
# The items of a file the pattern reads: members, free functions and
# contracts, each contract's functions and members, then trailing
# whitespace.
_STRUCTURE_RE = re.compile("(?:[mf]|c[fm]*e)*t?")
# One parameter as ``_parse_params`` reads it, ``TYPE [location] [name]``,
# and the ',' or ')' after it; and a list of them. It captures
# ``address`` before ``payable``, any other type, its array suffixes and
# the name.
_PARAMETER = (r"\s*(?:(address)(?!" + _NAME_CHAR + r")\s*payable(?!" + _NAME_CHAR + ")"
              + "|(?!" + _words("mapping", "function") + ")(" + _DOTTED + "))"
              + r"""((?:\s*\[[^\[\]()"';{},]*\])*)"""
              + r"(?:\s*" + _words(*LOCATIONS) + r")?(?:\s*(" + _ID + r"))?\s*[,)]")
_PARAMETER_RE = re.compile(_PARAMETER)
_PARAMETERS_RE = re.compile(r"\((?:\s*\)|(?:" + _PARAMETER + ")+)")
# A base or header word, and the arguments it may take: findall lists the names.
_NAMES_RE = re.compile("(" + _DOTTED + r")(?:\s*" + _ARGUMENTS + ")?")
_KIND = attrgetter("lastgroup")


def _outline(src: SourceFile) -> str:
    """The outline of the file's comment-stripped text, stripping it first if need be."""
    if not src.stripped:
        src.stripped = strip_comments(src.text, src.path)
    return outline(src.stripped, src.path)


def _read_outline(src: SourceFile, text: str) -> SourceUnit | None:
    """The file's unit read from its outline ``text`` by ``_OUTLINE_RE``, or
    None if the pattern does not read the whole file as contracts, members
    and functions, or a lexed parameter list does not read to its ')'.

    It reads each function's header and ``_function`` builds its record,
    as for the token walk, so the unit equals ``Parser.parse``'s, field by
    field, each name, type, modifier and base interned, and it raises what
    ``Parser.parse`` raises for an entry body that nests too deep.
    """
    items = list(_OUTLINE_RE.finditer(text, 1 if text.startswith("\ufeff") else 0))
    if not _STRUCTURE_RE.fullmatch("".join(map(_KIND, items))):
        return None
    contracts, functions, free = [], [], []
    contract = None  # the contract whose members are being read
    headers = {}  # the fields of each distinct parameter list and header words of the file
    for item in items:
        what = item.lastgroup
        if what == "f":
            name, kind = item.group("fname", "fkind")
            if kind:
                if contract is None:
                    return None  # the token walk skips it as a statement
                kind, name = intern(kind), ""
            elif name is None:
                if item.start("body") < 0:
                    return None  # a state variable of function type, or a bodiless fallback
                kind, name = "function", ""  # an old-style fallback function
            else:
                kind, name = "function", intern(name)
            header = item.group("params", "words")
            fields = headers.get(header)
            if fields is None:
                fields = headers[header] = _header_fields(*header)
            params, visibility, modifiers = fields
            if params is None:
                # not a list of TYPE [location] [name]: its own tokens, walked
                params = _walked_params(src, text, *item.span("params"))
                if params is None:
                    return None
            (free if contract is None else functions).append(_function(
                src, contract, name, kind, list(params), visibility, list(modifiers),
                item.start("f"), item.end(), item.start("body")))
        elif what == "c":
            bases = item["bases"]
            contract = ContractDef(
                name=intern(item["cname"]),
                kind="abstract" if item["abstract"] else intern(item["ckind"]),
                bases=[intern("".join(base.split())) for base in _NAMES_RE.findall(bases)]
                if bases else [])
        elif what == "e":
            contracts.append(contract)
            contract = None
    return _unit(contracts, functions, free)


def _header_fields(parameters: str, words: str) -> tuple:
    """``(params, visibility or None, modifiers)`` of a header's parameter list and
    words; params is None if the list is not one of ``TYPE [location] [name]``."""
    params = None
    if _PARAMETERS_RE.fullmatch(parameters):
        params = []
        for address, type_text, dims, name in _PARAMETER_RE.findall(parameters, 1):
            type_text = address or type_text
            if dims or "." in type_text:
                type_text = "".join((type_text + dims).split())  # its tokens joined
            params.append((intern(type_text), intern(name)))
    visibility = None
    modifiers = []
    for word in _NAMES_RE.findall(words):
        if word in VISIBILITIES:
            visibility = intern(word)
        elif word not in _HEADER_KEYWORDS:
            modifiers.append(intern(word))
    return params, visibility, modifiers


def _walked_params(src: SourceFile, text: str, start: int, end: int) -> list | None:
    """The params ``_parse_params`` reads from the list ``text[start:end]``, lexed
    alone, or None if its read fails or ends before the list's ')'."""
    parser = Parser(src, tokenize(text, src.path, start, end))
    try:
        params = parser._parse_params()
    except SoliditySyntaxError:
        return None
    return params if parser.pos == len(parser.values) - 1 else None


def parse_source(src: SourceFile) -> SourceUnit:
    """Parse one file. Raises SoliditySyntaxError; never anything else.

    ``_read_outline`` reads the file if its pattern covers it; any other
    file goes through the token walk (``Parser``). The token walk raises
    every syntax error but one: an entry body that nests too deep fails
    at the entry point's first character, on either path (``_function``).
    Nesting too deep elsewhere fails at the token where the file-level
    parse ran out of stack.
    """
    parser = None
    try:
        text = _outline(src)
        unit = _read_outline(src, text)
        if unit is None:
            parser = Parser(src, tokenize(text, src.path))
            unit = parser.parse()
        return unit
    except SoliditySyntaxError:
        raise
    except RecursionError:
        line, col = src.line_index.linecol(parser.starts[parser.pos]) if parser else (1, 1)
        raise SoliditySyntaxError("nesting too deep", line, col, src.path) from None
    except Exception as exc:  # totality: a parse either succeeds or raises SyntaxError
        raise SoliditySyntaxError(f"parse failure: {exc}", 1, 1, src.path) from exc
