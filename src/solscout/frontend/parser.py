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

The parser reads a ``tokenize`` result as it is: token values, start
offsets and end offsets by index, with no object per token. It calls
``tokenize`` and ``strip_comments`` through this module's globals,
which the benchmark's tracer wraps to time lexing and count tokens.
"""

from __future__ import annotations

import re

from ..errors import SoliditySyntaxError
from .lexer import (Tokens, identifiers, is_id, outline, strip_comments, token_kind,
                    tokenize)
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

_ELEMENTARY_RE = re.compile(r"^(address|bool|string|byte|bytes\d*|u?int\d*|u?fixed\d*x?\d*)$")
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
            if not src.stripped:
                src.stripped = strip_comments(src.text, src.path)
            tokens = tokenize(outline(src.stripped, src.path), src.path)
        self.values = tokens
        self.starts = tokens.starts
        self.ends = tokens.ends
        self.pos = 0
        # (offset, its line) of the last ``_line_of`` answer; offsets asked only grow
        self._line_at = (0, 1)

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
        unit = SourceUnit()
        free: list[FunctionRecord] = []
        while value := values[self.pos]:
            if value in ("contract", "interface", "library") or (
                value == "abstract" and values[self.pos + 1] == "contract"
            ):
                unit.contracts.append(self._parse_contract(unit.functions))
            elif value == "function":
                free.append(self._parse_function("contract", None))
            else:
                self._skip_statement()
        if free:
            synthetic = ContractDef(name="", kind="contract", bases=[])
            for fn in free:
                fn.contract_def = synthetic
            unit.contracts.append(synthetic)
            unit.functions.extend(free)
        for fn in unit.functions:
            fn.file = self.src
        return unit

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
                bases.append(base)
                if self.at(","):
                    self.advance()
                else:
                    break
        self.expect_punct("{", hard=True)
        contract = ContractDef(name=name, kind=kind, bases=bases)
        while not self.at("}") and self.values[self.pos]:
            if self._at_function():
                fn = self._parse_function(contract.kind, contract.name)
                fn.contract = contract.name
                fn.contract_def = contract
                functions.append(fn)
            else:
                self._skip_statement()  # modifier, state variable, struct, event, ...
        self.expect_punct("}", hard=True)
        return contract

    def _at_function(self) -> bool:
        v = self.values[self.pos]
        return v == "function" or v == "constructor" or (
            (v == "fallback" or v == "receive") and self.values[self.pos + 1] == "("
        )

    # ------------------------------------------------------------------
    # functions

    def _parse_function(self, contract_kind: str, contract_name: str | None) -> FunctionRecord:
        """A function of a contract, or a free one if ``contract_name`` is None."""
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
        if contract_name is None:
            visibility = "internal"  # a free function is always internal
        elif visibility is None:
            visibility = "external" if contract_kind == "interface" else "public"
        if name and name == contract_name:
            name, kind = "", "constructor"  # pre-0.5 constructor-by-name
        fn = FunctionRecord(name, kind, params, visibility, modifiers, (0, 0), start)
        if self.at(";"):
            fn.end = self.expect_punct(";")
        else:
            fn.body_start = self.starts[self.pos]
            self.expect_punct("{", hard=True)
            self._skip_balanced("{", "}")
            fn.end = self.ends[self.pos - 1]
            if fn.is_entry_point:
                fn.parsed_body = _parse_block(self.src, fn.body_start, fn.end)
            else:
                fn.body_names = identifiers(self.src.stripped, fn.body_start, fn.end)
        fn.span = (self._line_of(start), self._line_of(max(start, fn.end - 1)))
        return fn

    def _line_of(self, offset: int) -> int:
        """The 1-based line of ``offset``, not before the last one asked.

        The newlines since the last answer are counted, so the file's
        parse needs no line index, and a file whose lines nothing else
        reads never builds one.
        """
        at, line = self._line_at
        line += self.src.text.count("\n", at, offset)
        self._line_at = (offset, line)
        return line

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
                params.append((type_text, name))
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
                params.append((raw, ""))
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
        return Statement(kind, start, end, self.src, -1, condition, children or (),
                         exprs or (), decl_names or (), post_expr)

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
            return self._statement("block", start, end, children=children)
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
                return self._statement("block", start, end, children=children)
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
        children = [then]
        end = then.end
        if self.at("else"):
            self.advance()
            other = self._parse_statement()
            children.append(other)
            end = other.end
        return self._statement("if", start, end, condition=cond, children=children)

    def _parse_for(self) -> Statement:
        start = self._advance_start()
        self.expect_punct("(")
        children = []
        if self.at(";"):
            self.advance()
        elif self._at_declaration():
            children.append(self._parse_local_decl())
        else:
            init = self._parse_expression()
            end = self.expect_punct(";")
            children.append(self._statement("expression", init.start, end, exprs=[init]))
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
        children.append(body)
        return self._statement(
            "for", start, body.end, condition=cond, children=children, post_expr=post
        )

    def _parse_while(self) -> Statement:
        start = self._advance_start()
        self.expect_punct("(")
        cond = self._parse_expression()
        self.expect_punct(")")
        body = self._parse_statement()
        return self._statement("while", start, body.end, condition=cond, children=[body])

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
        return self._statement("while", start, end, condition=cond, children=[body])

    def _parse_require(self, which: str) -> Statement:
        start = self._advance_start()
        args = self._parse_call_args()
        end = self.expect_punct(";")
        cond = args[0] if args else None
        return self._statement(which, start, end, condition=cond, exprs=args)

    def _parse_revert(self) -> Statement:
        start = self._advance_start()
        exprs = []
        if self.at("("):
            exprs = self._parse_call_args()
        elif is_id(self.values[self.pos]):
            exprs = [self._parse_expression()]
        end = self.expect_punct(";")
        return self._statement("revert", start, end, exprs=exprs)

    def _parse_return(self) -> Statement:
        start = self._advance_start()
        exprs = []
        if not self.at(";"):
            exprs = [self._parse_expression()]
        end = self.expect_punct(";")
        return self._statement("return", start, end, exprs=exprs)

    def _parse_emit(self) -> Statement:
        start = self._advance_start()
        expr = self._parse_expression()
        end = self.expect_punct(";")
        return self._statement("emit", start, end, exprs=[expr])

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
            return self._statement("local-decl", start, end, decl_names=names, exprs=[rhs])
        self._parse_type()
        if values[self.pos] in LOCATIONS:
            self.pos += 1
        name = self.expect_id("variable name")
        exprs = []
        if values[self.pos] == "=":
            self.pos += 1
            exprs = [self._parse_expression()]
        end = self.expect_punct(";")
        return self._statement("local-decl", start, end, decl_names=[name], exprs=exprs)

    def _parse_expression_statement(self) -> Statement:
        start = self.starts[self.pos]
        expr = self._parse_expression()
        end = self.expect_punct(";")
        if expr.kind == "binary" and expr.op in ASSIGN_OPS:
            return self._statement("assignment", start, end, exprs=[expr.args[0], expr.args[1]])
        return self._statement("expression", start, end, exprs=[expr])

    # ------------------------------------------------------------------
    # expressions

    def _expr(self, kind: str, start: int, end: int, name: str = "", op: str = "",
              callee: Expression = None, args: list = ()) -> Expression:
        return Expression(kind, start, end, self.src, name, op, callee, args or ())

    def _parse_expression(self) -> Expression:
        """Assignment (right-associative) over a conditional over binary operators."""
        left = self._parse_binary(0)
        value = self.values[self.pos]
        if value == "?":
            self.pos += 1
            then = self._parse_expression()
            self.expect_punct(":")
            other = self._parse_expression()
            return self._expr("binary", left.start, other.end, op="?:", args=[left, then, other])
        if value in ASSIGN_OPS:
            self.pos += 1
            right = self._parse_expression()
            return self._expr("binary", left.start, right.end, op=value, args=[left, right])
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
            left = self._expr("binary", left.start, right.end, op=op, args=[left, right])

    def _parse_unary(self) -> Expression:
        op = self.values[self.pos]
        if op in PREFIX_OPS:
            start = self._advance_start()
            operand = self._parse_unary()
            return self._expr("unary", start, operand.end, op=op, args=[operand])
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
                args = []
                if not self.at("]") and not self.at(":"):
                    args.append(self._parse_expression())
                if self.at(":"):
                    self.pos += 1
                    if not self.at("]"):
                        args.append(self._parse_expression())
                end = self.expect_punct("]")
                base = self._expr("index", base.start, end, callee=base, args=args)
            else:  # postfix ++ or --
                self.pos += 1
                base = self._expr("unary", base.start, ends[self.pos - 1], op=value, args=[base])
        return base

    def _parse_named_values(self) -> list:
        self.expect_punct("{")
        exprs = []
        while not self.at("}") and self.values[self.pos]:
            self.expect_id("option name")
            self.expect_punct(":")
            exprs.append(self._parse_expression())
            if self.at(","):
                self.pos += 1
        self.expect_punct("}")
        return exprs

    def _parse_call_args(self) -> list:
        values = self.values
        self.expect_punct("(")
        args = []
        while (value := values[self.pos]) != ")" and value:
            args.append(self._parse_expression())
            if values[self.pos] == ",":
                self.pos += 1
        self.expect_punct(")")
        return args

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
            return self._expr("tuple", start, end, args=elems)
        if value == "[":
            self.pos += 1
            elems = []
            while not self.at("]") and values[self.pos]:
                elems.append(self._parse_expression())
                if self.at(","):
                    self.pos += 1
            end = self.expect_punct("]")
            return self._expr("tuple", start, end, args=elems)
        if value == "{":
            elems = self._parse_named_values()
            return self._expr("tuple", start, self.ends[self.pos - 1], args=elems)
        raise _Backtrack()


def _assign_seq(body: list | None) -> None:
    for i, stmt in enumerate(inner for top in body or () for inner in top.walk()):
        stmt.seq = i


def _parse_block(src: SourceFile, start: int, end: int) -> list:
    """Statements of the block ``src.stripped[start:end]``, numbered by ``seq``.

    Only the block's own tokens are lexed, with their offsets in the
    file, so a malformed statement cannot run past the block's ``}``.
    Raises whatever the parse raises.
    """
    body = Parser(src, tokenize(src.stripped, src.path, start, end))._parse_block_children()[0]
    _assign_seq(body)
    return body


def parse_body(fn: FunctionRecord) -> list:
    """Parse a body the file's parse skipped; see ``FunctionRecord.body``.

    A body that does not parse (nested too deep, say) becomes one opaque
    statement spanning its inside; the rest of its file is unaffected.
    """
    src = fn.file
    try:
        return _parse_block(src, fn.body_start, fn.end)
    except Exception:
        inside = _INSIDE_RE.search(src.stripped, fn.body_start + 1, fn.end - 1)
        return [Statement("opaque", inside.start(), inside.end(), src, 0)]


def parse_source(src: SourceFile) -> SourceUnit:
    """Parse one file. Raises SoliditySyntaxError; never anything else."""
    try:
        return Parser(src).parse()
    except SoliditySyntaxError:
        raise
    except RecursionError:
        raise SoliditySyntaxError("nesting too deep", 1, 1, src.path) from None
    except Exception as exc:  # totality: a parse either succeeds or raises SyntaxError
        raise SoliditySyntaxError(f"parse failure: {exc}", 1, 1, src.path) from exc


def parse_text(text: str, path: str = "<memory>") -> SourceUnit:
    return parse_source(SourceFile(path=path, text=text))


def enumerate_functions(unit: SourceUnit) -> list:
    """All functions across all contracts, in declaration order."""
    return list(unit.functions)
