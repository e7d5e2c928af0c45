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
the inside of every contract member's body is blank, so its tokens are
only the body's two braces. ``_parse_block`` lexes and parses one body
from its own range of the file. It parses the bodies of entry points
(public or external, not constructors) as their file is parsed, and
every other body when something first reads it (``parse_body``), so a
contract function's body is lexed once at most.
"""

from __future__ import annotations

import re

from ..errors import SoliditySyntaxError
from .lexer import Token, identifiers, outline, strip_comments, tokenize
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

_ELEMENTARY_RE = re.compile(r"^(address|bool|string|byte|bytes\d*|u?int\d*|u?fixed\d*x?\d*)$")
# From the first to the last non-space character of a range.
_INSIDE_RE = re.compile(r"\S(?:.*\S)?", re.DOTALL)


class _Backtrack(Exception):
    """Internal: current construct does not parse; caller falls back."""


class Parser:
    """One file's parser.

    ``self.tokens[self.pos]`` is the current token. ``pos`` never moves
    past the ``eof`` token, and two more copies of it pad the list, so
    looking up to two tokens ahead never runs off the end. Only punct
    tokens spell punctuation and only ids spell keywords, so comparing a
    token's value alone tells which one it is.
    """

    def __init__(self, src: SourceFile, tokens: list | None = None):
        """Lex the file's outline, or parse the given ``tokens`` of it."""
        self.src = src
        if tokens is None:
            if not src.stripped:
                src.stripped = strip_comments(src.text, src.path)
            tokens = tokenize(outline(src.stripped, src.line_index, src.path), src.path)
        self.tokens = tokens + tokens[-1:] * 2
        self.pos = 0

    # ------------------------------------------------------------------
    # token plumbing

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type != "eof":
            self.pos += 1
        return tok

    def at(self, value: str) -> bool:
        return self.tokens[self.pos].value == value

    def _fail(self, message: str):
        line, col = self.src.line_index.linecol(self.tokens[self.pos].start)
        raise SoliditySyntaxError(message, line, col, self.src.path)

    def expect_punct(self, value: str, hard: bool = False) -> Token:
        tok = self.tokens[self.pos]
        if tok.value == value:
            self.pos += 1
            return tok
        if hard:
            self._fail(f"expected '{value}'")
        raise _Backtrack()

    def expect_id(self, what: str, hard: bool = False) -> Token:
        tok = self.tokens[self.pos]
        if tok.type == "id":
            self.pos += 1
            return tok
        if hard:
            self._fail(f"expected {what}")
        raise _Backtrack()

    # ------------------------------------------------------------------
    # top level

    def parse(self) -> SourceUnit:
        unit = SourceUnit()
        free: list[FunctionRecord] = []
        while self.peek().type != "eof":
            tok = self.peek()
            if tok.type == "id" and (
                tok.value in ("contract", "interface", "library")
                or (tok.value == "abstract" and self.peek(1).value == "contract")
            ):
                unit.contracts.append(self._parse_contract(unit.functions))
            elif tok.type == "id" and tok.value == "function":
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
        tokens = self.tokens
        depth = 1
        while depth:
            tok = tokens[i]
            if tok.type == "eof":
                return i
            i += 1
            if tok.value == opening:
                depth += 1
            elif tok.value == closing:
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
        kind = self.advance().value
        if kind == "abstract":
            self.advance()  # 'contract'
            kind = "abstract"
        name = self.expect_id("contract name", hard=True).value
        bases: list[str] = []
        if self.at("is"):
            self.advance()
            while True:
                base = self.expect_id("base contract name", hard=True).value
                while self.at("."):
                    self.advance()
                    base += "." + self.expect_id("base name part", hard=True).value
                self._skip_balanced_parens()
                bases.append(base)
                if self.at(","):
                    self.advance()
                else:
                    break
        self.expect_punct("{", hard=True)
        contract = ContractDef(name=name, kind=kind, bases=bases)
        while not self.at("}") and self.peek().type != "eof":
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
        tok = self.peek()
        if tok.type != "id":
            return False
        v = tok.value
        return v == "function" or v == "constructor" or (
            v in ("fallback", "receive") and self.peek(1).value == "("
        )

    # ------------------------------------------------------------------
    # functions

    def _parse_function(self, contract_kind: str, contract_name: str | None) -> FunctionRecord:
        """A function of a contract, or a free one if ``contract_name`` is None."""
        tokens = self.tokens
        start = tokens[self.pos].start
        kw = self.advance().value
        if kw == "function":
            kind = "function"
            name = "" if self.at("(") else self.expect_id("function name", hard=True).value
        else:
            kind = kw
            name = ""
        params = self._parse_params()
        visibility = None
        modifiers: list[str] = []
        while True:
            tok = tokens[self.pos]
            v = tok.value
            if v == "{" or v == ";" or tok.type == "eof":
                break
            self.pos += 1
            if tok.type != "id":
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
            fn.end = self.advance().end
        else:
            fn.body_start = self.expect_punct("{", hard=True).start
            self._skip_balanced("{", "}")
            fn.end = tokens[self.pos - 1].end
            if fn.is_entry_point:
                fn.parsed_body = _parse_block(self.src, fn.body_start, fn.end)
            else:
                fn.body_names = identifiers(self.src.stripped, fn.body_start, fn.end)
        line_of = self.src.line_index.line_of
        fn.span = (line_of(start), line_of(max(start, fn.end - 1)))
        return fn

    def _parse_params(self) -> list:
        tokens = self.tokens
        params = []
        self.expect_punct("(", hard=True)
        while (tok := tokens[self.pos]).value != ")" and tok.type != "eof":
            saved = self.pos
            try:
                type_text = self._parse_type()
                if tokens[self.pos].value in LOCATIONS:
                    self.pos += 1
                name = ""
                if tokens[self.pos].type == "id":
                    name = self.advance().value
                params.append((type_text, name))
            except _Backtrack:
                # salvage the raw text so arity stays right
                self.pos = saved
                depth = 0
                while self.peek().type != "eof":
                    if self.at(",") and depth == 0 or self.at(")") and depth == 0:
                        break
                    tok = self.advance()
                    if tok.type == "punct" and tok.value in "([":
                        depth += 1
                    elif tok.type == "punct" and tok.value in ")]" and depth:
                        depth -= 1  # a stray closer must not hide the list's ')'
                raw = self.src.stripped[tokens[saved].start: self.peek().start].strip()
                params.append((raw, ""))
            if self.at(","):
                self.pos += 1
        self.expect_punct(")", hard=True)
        return params

    def _parse_type(self) -> str:
        tokens = self.tokens
        tok = tokens[self.pos]
        if tok.type != "id":
            raise _Backtrack()
        self.pos += 1
        if tok.value == "mapping":
            self.expect_punct("(")
            key = self._parse_type()
            if tokens[self.pos].type == "id":
                self.pos += 1  # named mapping key (0.8.18+)
            self.expect_punct("=>")
            value = self._parse_type()
            if tokens[self.pos].type == "id":
                self.pos += 1
            self.expect_punct(")")
            text = f"mapping({key}=>{value})"
        elif tok.value == "function":
            self._skip_balanced_parens()
            while tokens[self.pos].value in VISIBILITIES or tokens[self.pos].value in MUTABILITY:
                self.pos += 1
            if self.at("returns"):
                self.pos += 1
                self._skip_balanced_parens()
            text = "function"
        else:
            text = tok.value
            while tokens[self.pos].value == "." and tokens[self.pos + 1].type == "id":
                text += "." + tokens[self.pos + 1].value
                self.pos += 2
            if text == "address" and self.at("payable"):
                self.pos += 1
        while tokens[self.pos].value == "[":
            close = self._after_balanced(self.pos + 1, "[", "]")
            if tokens[close].type == "eof":
                # no ']', or one that ends the file where a name must follow
                raise _Backtrack()
            text += "".join([t.value for t in tokens[self.pos:close]])
            self.pos = close
        return text

    # ------------------------------------------------------------------
    # statements

    def _parse_block_children(self) -> tuple[list, int]:
        tokens = self.tokens
        self.expect_punct("{", hard=True)
        children = []
        while (tok := tokens[self.pos]).value != "}" and tok.type != "eof":
            children.append(self._parse_statement())
        end = tok.end
        self.expect_punct("}", hard=True)
        return children, end

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
        start = self.tokens[self.pos].start
        end = self._skip_statement()
        return self._statement("opaque", start, max(start, end))

    def _skip_statement(self) -> int:
        """Skip a statement or member unparsed; return its end offset.

        It ends after a ``;`` or a ``{...}`` block at bracket depth 0, or before
        a ``}``: blocks are skipped whole, so that one closes an enclosing block
        (taken alone if the statement starts there). Inside brackets, a block
        does not end the statement: ``S({a: 1})``.
        """
        tokens = self.tokens
        first = self.pos
        depth = 0
        while (tok := tokens[self.pos]).type != "eof":
            value = tok.value
            if value == "}":
                if self.pos == first:
                    self.pos += 1
                break
            self.pos += 1
            if tok.type != "punct":
                continue
            if value in "([":
                depth += 1
            elif value in ")]":
                depth = max(0, depth - 1)
            elif value == "{":
                self._skip_balanced("{", "}")
                if depth == 0:
                    break
            elif value == ";" and depth == 0:
                break
        return tokens[self.pos - 1].end

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
        tokens = self.tokens
        tok = tokens[self.pos]
        value = tok.value
        if value == "{":
            children, end = self._parse_block_children()
            return self._statement("block", tok.start, end, children=children)
        if tok.type == "id":
            handler = self._STATEMENT_KEYWORDS.get(value)
            if handler is not None:
                return getattr(self, handler)()
            following = tokens[self.pos + 1].value
            if (value == "require" or value == "assert") and following == "(":
                return self._parse_require(value)
            if value == "unchecked" and following == "{":
                self.pos += 1
                children, end = self._parse_block_children()
                return self._statement("block", tok.start, end, children=children)
            if value in ("break", "continue", "throw"):
                self.pos += 1
                end = self.expect_punct(";").end
                return self._statement("opaque", tok.start, end)
        if self._at_declaration():
            return self._parse_local_decl()
        return self._parse_expression_statement()

    def _at_declaration(self) -> bool:
        """Whether a type then a name start here, read ahead as in solc's ``parseSimpleStatement``.

        A data location or ``payable`` counts as the name; a tuple declaration
        has ``(`` and any commas before its first type.
        """
        tokens = self.tokens
        i = self.pos
        if tokens[i].value == "(":
            i += 1
            while tokens[i].value == ",":
                i += 1
        tok = tokens[i]
        if tok.type != "id" or tok.value in PREFIX_OPS:
            return False
        if tok.value == "mapping" or tok.value == "function":
            return True
        i += 1
        while tokens[i].value == "." and tokens[i + 1].type == "id":
            i += 2
        while tokens[i].value == "[":
            i = self._after_balanced(i + 1, "[", "]")
        return tokens[i].type == "id"

    def _parse_if(self) -> Statement:
        start = self.advance().start
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
        start = self.advance().start
        self.expect_punct("(")
        children = []
        if self.at(";"):
            self.advance()
        elif self._at_declaration():
            children.append(self._parse_local_decl())
        else:
            init = self._parse_expression()
            end = self.expect_punct(";").end
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
        start = self.advance().start
        self.expect_punct("(")
        cond = self._parse_expression()
        self.expect_punct(")")
        body = self._parse_statement()
        return self._statement("while", start, body.end, condition=cond, children=[body])

    def _parse_do_while(self) -> Statement:
        start = self.advance().start
        body = self._parse_statement()
        if not self.at("while"):
            raise _Backtrack()
        self.advance()
        self.expect_punct("(")
        cond = self._parse_expression()
        self.expect_punct(")")
        end = self.expect_punct(";").end
        return self._statement("while", start, end, condition=cond, children=[body])

    def _parse_require(self, which: str) -> Statement:
        start = self.advance().start
        args = self._parse_call_args()
        end = self.expect_punct(";").end
        cond = args[0] if args else None
        return self._statement(which, start, end, condition=cond, exprs=args)

    def _parse_revert(self) -> Statement:
        start = self.advance().start
        exprs = []
        if self.at("("):
            exprs = self._parse_call_args()
        elif self.peek().type == "id":
            exprs = [self._parse_expression()]
        end = self.expect_punct(";").end
        return self._statement("revert", start, end, exprs=exprs)

    def _parse_return(self) -> Statement:
        start = self.advance().start
        exprs = []
        if not self.at(";"):
            exprs = [self._parse_expression()]
        end = self.expect_punct(";").end
        return self._statement("return", start, end, exprs=exprs)

    def _parse_emit(self) -> Statement:
        start = self.advance().start
        expr = self._parse_expression()
        end = self.expect_punct(";").end
        return self._statement("emit", start, end, exprs=[expr])

    def _parse_assembly(self) -> Statement:
        start = self.advance().start
        if self.peek().type == "str":
            self.advance()
        if not self.at("{"):
            raise _Backtrack()
        self.advance()
        self._skip_balanced("{", "}")
        end = self.tokens[self.pos - 1].end
        return self._statement("opaque", start, end)

    def _parse_try(self) -> Statement:
        start = self.advance().start
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
            if self.peek().type == "id" and not self.at("{"):
                self.advance()
            self._skip_balanced_parens()
            if not self.at("{"):
                raise _Backtrack()
            self.advance()
            self._skip_balanced("{", "}")
        end = self.tokens[self.pos - 1].end
        return self._statement("opaque", start, end)

    def _parse_local_decl(self) -> Statement:
        tokens = self.tokens
        start = tokens[self.pos].start
        if self.at("("):
            # tuple declaration: (uint a, , uint b) = expr;
            self.advance()
            names = []
            while not self.at(")"):
                if self.at(","):
                    self.advance()
                    continue
                self._parse_type()
                if tokens[self.pos].value in LOCATIONS:
                    self.pos += 1
                names.append(self.expect_id("variable name").value)
                if self.at(","):
                    self.advance()
            self.expect_punct(")")
            self.expect_punct("=")
            rhs = self._parse_expression()
            end = self.expect_punct(";").end
            return self._statement("local-decl", start, end, decl_names=names, exprs=[rhs])
        self._parse_type()
        if tokens[self.pos].value in LOCATIONS:
            self.pos += 1
        name = self.expect_id("variable name").value
        exprs = []
        if tokens[self.pos].value == "=":
            self.pos += 1
            exprs = [self._parse_expression()]
        end = self.expect_punct(";").end
        return self._statement("local-decl", start, end, decl_names=[name], exprs=exprs)

    def _parse_expression_statement(self) -> Statement:
        start = self.tokens[self.pos].start
        expr = self._parse_expression()
        end = self.expect_punct(";").end
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
        tokens = self.tokens
        left = self._parse_binary(0)
        tok = tokens[self.pos]
        if tok.value == "?":
            self.pos += 1
            then = self._parse_expression()
            self.expect_punct(":")
            other = self._parse_expression()
            return self._expr("binary", left.start, other.end, op="?:", args=[left, then, other])
        if tok.value in ASSIGN_OPS:
            self.pos += 1
            right = self._parse_expression()
            return self._expr("binary", left.start, right.end, op=tok.value, args=[left, right])
        return left

    def _parse_binary(self, min_prec: int) -> Expression:
        """Precedence climbing: operators of level >= ``min_prec``, all left-associative."""
        tokens = self.tokens
        left = self._parse_unary()
        while True:
            tok = tokens[self.pos]
            prec = BINARY_PRECEDENCE.get(tok.value)
            if prec is None or prec < min_prec:
                return left
            self.pos += 1
            right = self._parse_binary(prec + 1)
            left = self._expr("binary", left.start, right.end, op=tok.value, args=[left, right])

    def _parse_unary(self) -> Expression:
        tok = self.tokens[self.pos]
        if tok.value in PREFIX_OPS:
            self.pos += 1
            operand = self._parse_unary()
            return self._expr("unary", tok.start, operand.end, op=tok.value, args=[operand])
        return self._parse_postfix(self._parse_primary())

    def _parse_postfix(self, base: Expression) -> Expression:
        tokens = self.tokens
        while (value := tokens[self.pos].value) in POSTFIX_OPS:
            if value == "(":
                args = self._parse_call_args()
                base = self._expr("call", base.start, tokens[self.pos - 1].end,
                                  callee=base, args=args)
            elif value == "{":
                # f{value: x}(...) rather than a block: '{' ident ':'
                if tokens[self.pos + 1].type != "id" or tokens[self.pos + 2].value != ":":
                    return base
                opts = self._parse_named_values()
                if not self.at("("):
                    raise _Backtrack()
                args = self._parse_call_args()
                base = self._expr("call", base.start, tokens[self.pos - 1].end,
                                  callee=base, args=args + opts)
            elif value == ".":
                name_tok = tokens[self.pos + 1]
                if name_tok.type != "id" and name_tok.type != "num":
                    raise _Backtrack()
                self.pos += 2
                base = self._expr("member-access", base.start, name_tok.end,
                                  name=name_tok.value, callee=base)
            elif value == "[":
                self.pos += 1
                args = []
                if not self.at("]") and not self.at(":"):
                    args.append(self._parse_expression())
                if self.at(":"):
                    self.pos += 1
                    if not self.at("]"):
                        args.append(self._parse_expression())
                end = self.expect_punct("]").end
                base = self._expr("index", base.start, end, callee=base, args=args)
            else:  # postfix ++ or --
                end = tokens[self.pos].end
                self.pos += 1
                base = self._expr("unary", base.start, end, op=value, args=[base])
        return base

    def _parse_named_values(self) -> list:
        self.expect_punct("{")
        values = []
        while not self.at("}") and self.peek().type != "eof":
            self.expect_id("option name")
            self.expect_punct(":")
            values.append(self._parse_expression())
            if self.at(","):
                self.pos += 1
        self.expect_punct("}")
        return values

    def _parse_call_args(self) -> list:
        tokens = self.tokens
        self.expect_punct("(")
        args = []
        while (tok := tokens[self.pos]).value != ")" and tok.type != "eof":
            args.append(self._parse_expression())
            if tokens[self.pos].value == ",":
                self.pos += 1
        self.expect_punct(")")
        return args

    def _parse_primary(self) -> Expression:
        tokens = self.tokens
        tok = tokens[self.pos]
        kind = tok.type
        if kind == "id":
            self.pos += 1
            return self._expr("identifier", tok.start, tok.end, name=tok.value)
        if kind == "num":
            self.pos += 1
            end = tok.end
            if tokens[self.pos].value in UNITS:
                end = self.advance().end
            return self._expr("literal", tok.start, end)
        if kind == "str":
            self.pos += 1
            end = tok.end
            while tokens[self.pos].type == "str":  # adjacent string concatenation
                end = self.advance().end
            return self._expr("literal", tok.start, end)
        if tok.value == "(":
            self.pos += 1
            elems = []
            expect_elem = True
            while not self.at(")") and self.peek().type != "eof":
                if self.at(","):
                    if expect_elem:
                        elems.append(None)
                    self.pos += 1
                    expect_elem = True
                    continue
                elems.append(self._parse_expression())
                expect_elem = False
            end = self.expect_punct(")").end
            real = [e for e in elems if e is not None]
            if len(elems) == 1 and len(real) == 1:
                return real[0]
            return self._expr("tuple", tok.start, end, args=elems)
        if tok.value == "[":
            self.pos += 1
            elems = []
            while not self.at("]") and self.peek().type != "eof":
                elems.append(self._parse_expression())
                if self.at(","):
                    self.pos += 1
            end = self.expect_punct("]").end
            return self._expr("tuple", tok.start, end, args=elems)
        if tok.value == "{":
            values = self._parse_named_values()
            end = tokens[self.pos - 1].end
            return self._expr("tuple", tok.start, end, args=values)
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
