import glob
import os
import random
import re
import sys
import threading
from collections import Counter

import pytest

from solscout.errors import SoliditySyntaxError
from solscout.frontend import (
    FunctionRecord,
    LineIndex,
    SourceFile,
    contains_identifier,
    enumerate_functions,
    iter_calls,
    parse_source,
    parse_text,
    strip_comments,
)
from solscout.frontend import parser as parser_module
from solscout.frontend.lexer import identifiers, outline, tokenize
from solscout.frontend.parser import BINARY_LEVELS, Parser, _Backtrack

from conftest import fixture_path
from corpus import build_corpus, filler_source
from helpers import (cut_tokens, line_index_span, regex_outline, regex_strip_comments, token_rows,
                     walk_expression)


# With this as ``FunctionRecord.is_entry_point``, every body is parsed with
# its file, so a test that drives ``Parser`` itself sees every statement.
EVERY_BODY = property(lambda fn: True)


def read_fixture(*parts) -> str:
    with open(fixture_path(*parts), "r", encoding="utf-8") as fh:
        return fh.read()


def test_minimal_unit():
    unit = parse_text("contract C { function f() public {} }")
    assert len(unit.contracts) == 1
    contract = unit.contracts[0]
    assert contract.name == "C"
    fn = unit.functions[0]
    assert fn.contract_def is contract
    assert fn.name == "f"
    assert fn.visibility == "public"
    assert fn.body == []


def test_first_deposit_deposit_function():
    unit = parse_text(read_fixture("first_deposit", "contracts", "Vault.sol"), "Vault.sol")
    deposit = next(f for f in enumerate_functions(unit) if f.name == "deposit")
    conditions = [s.condition.raw for s in deposit.statements()
                  if s.kind == "if" and s.condition is not None]
    assert any("totalSupply()" in c for c in conditions)
    # the fixture places the zero-supply branch on lines 8-9
    iff = next(s for s in deposit.statements() if s.kind == "if")
    assert iff.span[0] == 8
    assign = next(s for s in deposit.statements()
                  if s.kind == "assignment" and s.raw == "_shares = _amount;")
    assert assign.span == (9, 9)


def test_malformed_contract_header():
    with pytest.raises(SoliditySyntaxError) as exc_info:
        parse_text("contract {")
    assert exc_info.value.line == 1


def test_enumerate_declaration_order():
    unit = parse_text("""
        contract A { function f() public {} function g() public {} }
        contract B { function h() public {} }
    """)
    names = [(f.contract, f.name) for f in enumerate_functions(unit)]
    assert names == [("A", "f"), ("A", "g"), ("B", "h")]


def test_enumerate_empty_unit():
    assert enumerate_functions(parse_text("pragma solidity ^0.8.0;")) == []


def test_checkpoint_order_function_records():
    unit = parse_text(read_fixture("checkpoint_order", "contracts", "StakerVault.sol"))
    names = {f.name for f in enumerate_functions(unit)}
    assert "transfer" in names
    assert "userCheckpoint" in names


def test_visibilities_and_modifiers():
    unit = parse_text("""
        contract C {
            function a() external pure returns (uint256) { return 1; }
            function b(uint256 x) internal view returns (bool ok) { return x > 0; }
            function c() private {}
            function d() public onlyOwner whenNotPaused(3) {}
        }
    """)
    fns = {f.name: f for f in enumerate_functions(unit)}
    assert fns["a"].visibility == "external"
    assert fns["b"].visibility == "internal"
    assert fns["c"].visibility == "private"
    assert fns["d"].modifiers == ["onlyOwner", "whenNotPaused"]


def test_interface_functions_default_external():
    unit = parse_text("interface I { function f() returns (uint256); }")
    fn = enumerate_functions(unit)[0]
    assert fn.visibility == "external"
    assert fn.body is None


def test_legacy_constructor_by_name():
    unit = parse_text("contract Token { function Token() public { owner = msg.sender; } }")
    fn = enumerate_functions(unit)[0]
    assert fn.kind == "constructor"
    assert fn.name == ""


def test_kitchen_sink_contract_parses_meaningfully():
    src = """
        pragma solidity ^0.8.19;
        import {IERC20} from "./IERC20.sol";

        library Math {
            function min(uint256 a, uint256 b) internal pure returns (uint256) {
                return a < b ? a : b;
            }
        }

        abstract contract Base {
            event Moved(address indexed who, uint256 amount);
            error TooSmall(uint256 got);
            struct Slot { uint128 a; uint128 b; }
            enum Phase { Idle, Open, Closed }
            using Math for uint256;

            uint256 public immutable cap;
            mapping(address => Slot) internal slots;

            modifier gated(uint256 floor) {
                require(floor > 0, "floor");
                _;
            }

            function poke(address payable who) external virtual returns (bool ok);
        }

        contract Sink is Base {
            function work(uint256[] calldata xs, bytes memory blob) public gated(1) returns (uint256 total) {
                unchecked {
                    for (uint256 i = 0; i < xs.length; ++i) {
                        total += xs[i].min(100);
                    }
                }
                (bool sent, ) = payable(msg.sender).call{value: total}("");
                if (!sent) {
                    revert TooSmall({got: total});
                }
                uint256 scaled = total ** 2;
                scaled **= 2;
                delete slots[msg.sender];
                emit Moved(msg.sender, Math.min(scaled, 1 ether));
                return scaled;
            }
        }
    """
    unit = parse_text(src)
    names = {(f.contract, f.name) for f in enumerate_functions(unit)}
    assert ("Math", "min") in names
    assert ("Base", "poke") in names
    assert ("Sink", "work") in names
    work = next(f for f in enumerate_functions(unit) if f.name == "work")
    kinds = [s.kind for s in work.statements()]
    assert "opaque" not in kinds, kinds  # everything here is in the supported subset
    assert {"block", "for", "assignment", "local-decl", "if", "revert",
            "expression", "emit", "return"} <= set(kinds)
    assert work.modifiers == ["gated"]


def test_constructor_and_fallback_kinds():
    unit = parse_text("""
        contract C {
            constructor(uint256 x) public {}
            fallback() external payable {}
            receive() external payable {}
        }
    """)
    kinds = [f.kind for f in enumerate_functions(unit)]
    assert kinds == ["constructor", "fallback", "receive"]
    assert all(f.name == "" for f in enumerate_functions(unit))


def test_inheritance_bases_preserve_order():
    unit = parse_text("contract D is B, C, A(1, 2) { }")
    assert unit.contracts[0].bases == ["B", "C", "A"]


def test_param_order_and_types():
    unit = parse_text("""
        contract C {
            function f(address to, uint256[] memory amounts, mapping(address => uint) storage m) internal {}
        }
    """)
    fn = enumerate_functions(unit)[0]
    assert fn.params == [
        ("address", "to"),
        ("uint256[]", "amounts"),
        ("mapping(address=>uint)", "m"),
    ]


def test_statement_kinds():
    unit = parse_text("""
        contract C {
            function f(uint256 n) public returns (uint256) {
                uint256 total = 0;
                for (uint256 i = 0; i < n; i++) {
                    total += i;
                }
                while (total > 100) { total -= 1; }
                if (total == 0) { revert("zero"); } else { emit Done(total); }
                require(total < 1000, "too big");
                assert(total >= 0);
                return total;
            }
        }
    """)
    fn = enumerate_functions(unit)[0]
    kinds = {s.kind for s in fn.statements()}
    assert {"local-decl", "for", "while", "if", "revert", "emit",
            "require", "assert", "return", "assignment", "block"} <= kinds


def test_tuple_declaration_and_assignment():
    unit = parse_text("""
        contract C {
            function f() public {
                (uint256 a, uint256 b) = pair();
                (a, b) = (b, a);
            }
        }
    """)
    fn = enumerate_functions(unit)[0]
    stmts = list(fn.statements())
    assert stmts[0].kind == "local-decl"
    assert stmts[0].decl_names == ["a", "b"]
    assert stmts[1].kind == "assignment"


def test_require_condition_raw():
    unit = parse_text("contract C { function f(uint x) public { require(x >= 10, \"low\"); } }")
    stmt = next(iter(enumerate_functions(unit)[0].statements()))
    assert stmt.kind == "require"
    assert stmt.condition.raw == "x >= 10"


def test_assembly_becomes_opaque_with_raw():
    src = """contract C {
        function f() public {
            uint256 x = 1;
            assembly { let y := add(x, 1) x := y }
            x = 2;
        }
    }"""
    fn = enumerate_functions(parse_text(src))[0]
    kinds = [s.kind for s in fn.statements()]
    assert kinds == ["local-decl", "opaque", "assignment"]
    opaque = [s for s in fn.statements() if s.kind == "opaque"][0]
    assert opaque.raw.startswith("assembly")
    assert "let y := add(x, 1)" in opaque.raw


def test_try_catch_becomes_opaque():
    src = """contract C {
        function f() public {
            try token.transfer(a, b) returns (bool ok) { x = 1; } catch { x = 2; }
            done = true;
        }
    }"""
    fn = enumerate_functions(parse_text(src))[0]
    kinds = [s.kind for s in fn.statements()]
    assert kinds == ["opaque", "assignment"]


def test_unknown_statement_degrades_to_opaque():
    src = "contract C { function f() public { weird ??! stuff ;; x = 1; } }"
    fn = enumerate_functions(parse_text(src))[0]
    assert [s.kind for s in fn.statements()][-1] == "assignment"
    assert any(s.kind == "opaque" for s in fn.statements())


def test_unterminated_string_errors():
    with pytest.raises(SoliditySyntaxError):
        parse_text('contract C { function f() public { s = "abc; } }')


def test_unterminated_comment_errors():
    with pytest.raises(SoliditySyntaxError) as exc_info:
        parse_text("contract C { } /* dangling")
    assert exc_info.value.line == 1


def _syntax_error(text: str):
    """``(message, line, column)`` of the error parsing ``text``, or None."""
    try:
        parse_text(text, "")
    except SoliditySyntaxError as err:
        return str(err).split(": ", 1)[1], err.line, err.column
    return None


_BRACE_ERRORS = [
    # an extra '}': the first one that closes nothing
    ("contract C { } }", ("unbalanced '}'", 1, 16)),
    ("contract C {\n  function f() public { }\n  }\n}\n}", ("unbalanced '}'", 4, 1)),
    # an unclosed '{': the last one opened that nothing closes
    ("contract C { function f() public { }", ("unclosed '{'", 1, 12)),
    ("contract C {\n  function f() public {\n    if (a) { x(); }\n    if (b) {\n      y();\n    }\n",
     ("unclosed '{'", 2, 23)),
    ("contract A { function f() public { { { } { }", ("unclosed '{'", 1, 36)),
    ("contract A { function f() public { } function g() public {", ("unclosed '{'", 1, 58)),
    ("contract A { function f() public { } } contract B { function g() public { if (x) { } }",
     ("unclosed '{'", 1, 51)),
    # braces in strings and comments are not braces
    ('contract C { function f() public { s = "}"; t = \'{\'; } }', None),
    ("contract C { function f() public { g(); } // }\n /* { */ }", None),
    ('contract C { string s = "}}"; } }', ("unbalanced '}'", 1, 33)),
    ("contract C { // {\n function f() public { s = \"{\"; }\n", ("unclosed '{'", 1, 12)),
    # a prefixed string is one string
    ('contract C { bytes b = hex"7b"; string u = unicode"{"; }', None),
    ('contract C { bytes b = hex"7b"; } }', ("unbalanced '}'", 1, 35)),
]


def test_unbalanced_braces_error_positions():
    for text, error in _BRACE_ERRORS:
        assert _syntax_error(text) == error, text


def test_comment_stripping_preserves_offsets():
    src = 'uint x; // trailing\n/* block\nspans lines */ uint y;'
    stripped = strip_comments(src)
    assert len(stripped) == len(src)
    assert stripped.count("\n") == src.count("\n")
    assert "trailing" not in stripped
    assert "spans" not in stripped
    assert "uint y;" in stripped


def test_comment_markers_inside_strings_kept():
    src = 'contract C { function f() public { s = "// not a comment"; } }'
    fn = enumerate_functions(parse_text(src))[0]
    stmt = list(fn.statements())[0]
    assert "// not a comment" in stmt.raw


def test_span_roundtrip_fidelity():
    """Raw text and line spans are the file's, and no node's repr copies the file."""
    for parts in (("first_deposit", "contracts", "Vault.sol"), ("checkpoint_order", "contracts", "StakerVault.sol")):
        text = read_fixture(*parts)
        line_of = LineIndex(text).line_of
        unit = parse_text(text)
        for fn in enumerate_functions(unit):
            assert text[fn.start:fn.end] == fn.source()
            for stmt in fn.statements():
                assert text[stmt.start:stmt.end] == stmt.raw
                assert stmt.span == (line_of(stmt.start), line_of(max(stmt.start, stmt.end - 1)))
                assert text not in repr(stmt)
                for expr in stmt.expressions():
                    for node in walk_expression(expr):
                        if node is not None:
                            assert text[node.start:node.end] == node.raw
                            assert text not in repr(node)


def _depth_ordered(fn):
    out = []

    def visit(stmts, depth):
        for s in stmts:
            out.append((s, depth))
            visit(s.children, depth + 1)

    visit(fn.body or [], 0)
    return out


def test_seq_matches_preorder_span_order():
    """seq increases exactly with (span start, nesting depth)."""
    text = read_fixture("first_deposit", "contracts", "Vault.sol")
    unit = parse_text(text)
    for fn in enumerate_functions(unit):
        stmts = _depth_ordered(fn)
        for (a, da) in stmts:
            for (b, db) in stmts:
                if a.seq < b.seq:
                    assert (a.start, da) < (b.start, db)


DEEP_EXPRESSIONS = {
    "parentheses": "(" * 2000 + "a" + ")" * 2000,
    "negations": "!" * 2000 + "a",
}


@pytest.mark.parametrize("expr", DEEP_EXPRESSIONS.values(), ids=list(DEEP_EXPRESSIONS))
def test_deep_nesting_is_a_syntax_error_not_a_recursion_error(expr):
    with pytest.raises(SoliditySyntaxError, match="nesting too deep"):
        parse_text("contract C { function f() public { x = %s; } }" % expr)


DEEP_PARENS = "(" * 400 + "a" + ")" * 400


@pytest.mark.parametrize("member", [
    "modifier m() { require(%s); _; }" % DEEP_PARENS,
    "uint256 x = %s;" % DEEP_PARENS,
], ids=["modifier-body", "state-variable-initializer"])
def test_deep_members_other_than_functions_are_skipped(member):
    unit = parse_text("contract C { %s function f() public { g(); } }" % member)
    assert [(fn.contract, fn.name) for fn in enumerate_functions(unit)] == [("C", "f")]


def test_star_import_exports_exist():
    import solscout.frontend as frontend

    namespace = {}
    exec("from solscout.frontend import *", namespace)
    for name in frontend.__all__:
        assert name in namespace and getattr(frontend, name) is namespace[name], name


def test_totality_fuzz_never_crashes(monkeypatch):
    """The parser returns a unit or raises SoliditySyntaxError for any input.

    ``Parser`` is called directly: ``parse_source`` turns every other
    exception into a SoliditySyntaxError and would hide a crash, and so
    would ``parse_body``, so each input is also parsed with every body.
    """
    rng = random.Random(20240817)
    seeds = [
        "contract C { function f() public { x = 1; } }",
        read_fixture("first_deposit", "contracts", "Vault.sol"),
        "pragma solidity ^0.8.0; interface I { function f() external; }",
    ]
    alphabet = '{}()[];,."\'/*abcdef_ \n0123456789=+-<>!&|'
    for i in range(400):
        if i % 2 == 0:
            base = list(rng.choice(seeds))
            for _ in range(rng.randrange(1, 8)):
                op = rng.randrange(3)
                pos = rng.randrange(max(1, len(base)))
                if op == 0 and base:
                    del base[pos % len(base)]
                elif op == 1:
                    base.insert(pos, rng.choice(alphabet))
                else:
                    base[pos % len(base)] = rng.choice(alphabet)
            text = "".join(base)
        else:
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 200)))
        for every_body in (False, True):
            with monkeypatch.context() as patch:
                if every_body:
                    patch.setattr(FunctionRecord, "is_entry_point", EVERY_BODY)
                try:
                    enumerate_functions(Parser(SourceFile(path="fuzz.sol", text=text)).parse())
                except SoliditySyntaxError:
                    pass


def _shape(expr):
    """Operator/argument nesting of an expression; leaves are their raw text."""
    if expr is None:
        return None
    if expr.kind in ("binary", "unary"):
        return (expr.op, *(_shape(a) for a in expr.args))
    return expr.raw


def _expression_shape(text: str):
    fn = enumerate_functions(parse_text(f"contract C {{ function f() public {{ return {text}; }} }}"))[0]
    return _shape(fn.body[0].exprs[0])


@pytest.mark.parametrize("text, shape", [
    # one expression per BINARY_LEVELS level, each against the next tighter level
    ("a || b && c", ("||", "a", ("&&", "b", "c"))),
    ("a && b == c", ("&&", "a", ("==", "b", "c"))),
    ("a != b <= c", ("!=", "a", ("<=", "b", "c"))),
    ("a > b | c", (">", "a", ("|", "b", "c"))),
    ("a | b ^ c", ("|", "a", ("^", "b", "c"))),
    ("a ^ b & c", ("^", "a", ("&", "b", "c"))),
    ("a & b << c", ("&", "a", ("<<", "b", "c"))),
    ("a >> b - c", (">>", "a", ("-", "b", "c"))),
    ("a + b % c", ("+", "a", ("%", "b", "c"))),
    ("a / b ** c", ("/", "a", ("**", "b", "c"))),
    ("-a ** b", ("**", ("-", "a"), "b")),
    ("a * b + c", ("+", ("*", "a", "b"), "c")),
    ("(a || b) && c", ("&&", ("||", "a", "b"), "c")),
    ("a - b - c", ("-", ("-", "a", "b"), "c")),
    ("a ** b ** c", ("**", ("**", "a", "b"), "c")),
    ("a ? b : c ? d : e", ("?:", "a", "b", ("?:", "c", "d", "e"))),
    ("a || b ? c : d", ("?:", ("||", "a", "b"), "c", "d")),
    ("a = b += c", ("=", "a", ("+=", "b", "c"))),
    ("a = b ? c : d", ("=", "a", ("?:", "b", "c", "d"))),
])
def test_expression_precedence_and_associativity(text, shape):
    assert _expression_shape(text) == shape


@pytest.mark.parametrize("op", [op for level in BINARY_LEVELS for op in level])
def test_every_binary_operator_is_left_associative(op):
    assert _expression_shape(f"a {op} b {op} c") == (op, (op, "a", "b"), "c")


# The tokenizer as it was before the single master regex: one whitespace
# match and one token match per step. Kept here as a differential oracle.
_ORACLE_TOKEN_RE = re.compile(
    r"""
    (?P<id>[A-Za-z_$][A-Za-z0-9_$]*)
  | (?P<num>0[xX][0-9a-fA-F_]+|\d[\d_]*(?:\.\d[\d_]*)?(?:[eE][+-]?\d+)?)
  | (?P<str>"(?:\\[\s\S]|[^"\\\n])*"|'(?:\\[\s\S]|[^'\\\n])*')
  | (?P<punct>>>=|<<=|\*\*=|\*\*|=>|->|\+\+|--|&&|\|\||==|!=|<=|>=|\+=|-=|\*=|/=|%=|\|=|&=|\^=
      |<<|>>|[{}()\[\];:,.?~!<>=+\-*/%&|^])
    """,
    re.VERBOSE,
)
_ORACLE_WS_RE = re.compile(r"\s+")


def _oracle_tokenize(stripped: str) -> list:
    tokens = []
    pos = 0
    length = len(stripped)
    while pos < length:
        ws = _ORACLE_WS_RE.match(stripped, pos)
        if ws:
            pos = ws.end()
            continue
        m = _ORACLE_TOKEN_RE.match(stripped, pos)
        if m:
            tokens.append((m.lastgroup, m.group(0), m.start(), m.end()))
            pos = m.end()
        else:
            tokens.append(("punct", stripped[pos], pos, pos + 1))
            pos += 1
    tokens.append(("eof", "", length, length))
    return tokens


def _differential_texts() -> list:
    texts = [strip_comments(case.source) for case in build_corpus(3)]
    texts.append(strip_comments(filler_source(0)))
    for parts in (("first_deposit", "contracts", "Vault.sol"),
                  ("checkpoint_order", "contracts", "StakerVault.sol")):
        texts.append(strip_comments(read_fixture(*parts)))
    texts += [
        "x @ y # z \x00 w",
        "caf\u00e9 = \u00fcber \u2014 \U0001f600;",
        "a >>>= b; c **= d; e => f; g>>=h<<=i**j",
        "a=>b>>>=c!==d&&=e||=f",
        "s = \"open\nnext\";",
        "s = 'it\\'s';",
        "s = \"escaped\\\nnewline\";",
        "0x1F_ff 1_000.5e-3 .5 1e 0x",
        "\t\r\n\x0b\x0c \u00a0\u2028",
        "",
        "@",
    ]
    rng = random.Random(20261017)
    alphabet = "ab_$09.xXeE+-*/%=<>!&|^~?:;,(){}[]'\"\\ \n\t@#\x00\u00e9\u2603"
    texts += ["".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 60)))
              for _ in range(300)]
    return texts


def test_tokenizer_matches_two_match_oracle():
    for text in _differential_texts():
        assert token_rows(tokenize(text)) == _oracle_tokenize(text), text


def test_tokenize_ends_in_one_eof_on_the_acceptance_corpus():
    for case in build_corpus(3):
        text = strip_comments(case.source)
        rows = token_rows(tokenize(text))
        assert [row[0] for row in rows].count("eof") == 1, case.filename
        assert rows[-1] == ("eof", "", len(text), len(text))
        assert len(rows) == len(_oracle_tokenize(text))


_BLOCKS_AT_EVERY_DEPTH = """
pragma solidity ^0.8.0;
import {A, B} from "x.sol";
struct Top { uint a; }
string constant F = "; function f() {";
function free(uint x) pure returns (uint) { if (x > 0) { return x; } { x += 1; } return x; }
contract C is A("}{") {
    struct S { uint a; }
    S s = S({a: 1});
    modifier m() { if (true) { _; } }
    function f() public m() { g({a: 1}); if (x) { y = "{"; } }
    function g(uint a) internal { unchecked { a++; } }
}
"""


def _sources_for_lexing() -> list:
    texts = [strip_comments(case.source) for case in build_corpus(1)]
    return texts + [filler_source(0), _BLOCKS_AT_EVERY_DEPTH,
                    'hex"7b" unicode"x" hexa"b" 0x1fz 0xg 1.5e3x 1.e5 1_000ether a.5 $b _c ٣d ٣_e ٣e5x '
                    'éf #g @h\u00a0i\\j',
                    # ASCII with no quote: ranges without 0x1fz, 1e+5x, 9$a or 1_0 split into runs
                    'a.5 1.e5 x2 b9 $c _d 0x1fz 12 e; 1e+5x f 9$a g 1_0 h @i #j \\k 3.25 l\x00m']


def test_identifiers_are_the_id_tokens_of_the_range():
    rng = random.Random(15)
    for text in _sources_for_lexing():
        rows = token_rows(tokenize(text))[:-1]
        for _ in range(40):
            first, last = sorted(rng.randrange(len(rows)) for _ in range(2))
            start, end = rows[first][2], rows[last][3]
            ids = [value for kind, value, _, _ in token_rows(tokenize(text, "", start, end))
                   if kind == "id"]
            names = identifiers(text, start, end)
            assert names == tuple(dict.fromkeys(ids)), text[start:end]
            assert all(sys.intern(name) is name for name in names)


def test_the_outline_lexes_all_but_the_inside_of_blocks_opened_at_depth_one():
    """Nor the inside of a free function's body: a top-level block whose
    statement, after the last top-level ``;`` or ``}``, starts with ``function``."""
    for text in _sources_for_lexing():
        kept, depth, first, in_free_body = [], 0, None, False
        for row in token_rows(tokenize(text)):
            kind, value = row[:2]
            if kind == "punct" and value == "}":
                depth -= 1
                in_free_body = in_free_body and depth > 0
            if depth == 0 and first is None:
                first = value
            if depth < (1 if in_free_body else 2):
                kept.append(row)
            if kind == "punct" and value == "{":
                in_free_body = in_free_body or (depth == 0 and first == "function")
                depth += 1
            if depth == 0 and kind == "punct" and value in (";", "}"):
                first = None
        assert token_rows(tokenize(outline(text))) == kept


def test_every_token_boundary_prefix_parses_or_is_a_syntax_error(monkeypatch):
    """Cutting a token list after any token puts eof under every lookahead the parser makes.

    The outline's tokens are cut for headers and members, and each body's
    own tokens for its statements. The cut lists go to ``Parser`` itself:
    the brace check would reject most cut texts before a parse began.
    """
    texts = [
        read_fixture("first_deposit", "contracts", "Vault.sol"),
        next(case.source for case in build_corpus(1) if case.filename == "StakeVul0.sol"),
        # call options look two tokens ahead
        "contract C { function f() public { (bool ok, ) = to.call{value: v}(hex\"00\"); } }",
    ]
    for every_body in (False, True):
        if every_body:
            monkeypatch.setattr(FunctionRecord, "is_entry_point", EVERY_BODY)
        for text in texts:
            src = SourceFile(path="cut.sol", text=text)
            parser = Parser(src)
            lists = [(parser.values, Parser.parse)]
            lists += [(tokenize(src.stripped, src.path, fn.body_start, fn.end),
                       Parser._parse_block_children)
                      for fn in parser.parse().functions if fn.has_body]
            assert len(lists) > 1
            for tokens, parse in lists:
                for cut in range(len(tokens)):
                    try:
                        parse(Parser(src, cut_tokens(tokens, cut)))
                    except SoliditySyntaxError:
                        pass


def _parse_reading_every_body(monkeypatch, text: str, path: str) -> tuple:
    """Parse ``text``, read every body twice; return the unit, each ``parser.tokenize``
    result and each ``Parser``'s (values, starts, ends) lists."""
    lexed, read = [], []

    def recording_tokenize(*args):
        lexed.append(tokenize(*args))
        return lexed[-1]

    def recording_init(parser, src, tokens=None):
        init(parser, src, tokens)
        read.append((parser.values, parser.starts, parser.ends))

    init = Parser.__init__
    with monkeypatch.context() as patch:
        patch.setattr(parser_module, "tokenize", recording_tokenize)
        patch.setattr(Parser, "__init__", recording_init)
        unit = parse_source(SourceFile(path=path, text=text))
        for fn in unit.functions * 2:
            fn.body
    return unit, lexed, read


_TWO_FIXTURES = [("first_deposit", "contracts", "Vault.sol"),
                 ("checkpoint_order", "contracts", "StakerVault.sol")]


def test_every_token_the_parser_reads_comes_through_the_module_tokenize(monkeypatch):
    """Benchmark tracing wraps ``parser.tokenize`` by name and counts tokens with ``len()``."""
    for parts in _TWO_FIXTURES:
        _, lexed, read = _parse_reading_every_body(monkeypatch, read_fixture(*parts), parts[-1])
        assert len(read) == len(lexed) > 1
        for (values, starts, ends), tokens in zip(read, lexed):
            assert values is tokens and starts is tokens.starts and ends is tokens.ends
        for tokens in lexed:
            assert len(tokens) == len(tokens.starts) == len(tokens.ends)
            assert tokens.index("") == len(tokens) - 1


def test_no_body_is_lexed_twice(monkeypatch):
    """The outline holds only a function body's braces, in a contract or free; the body
    is lexed once, alone."""
    sources = [(parts[-1], read_fixture(*parts)) for parts in _TWO_FIXTURES]
    for path, text in sources + [("Free.sol", _BLOCKS_AT_EVERY_DEPTH)]:
        unit, lexed, _ = _parse_reading_every_body(monkeypatch, text, path)
        bodies = [fn for fn in unit.functions if fn.has_body]
        assert bodies
        assert sorted((tokens.starts[0], tokens.ends[-1]) for tokens in lexed[1:]) == sorted(
            (fn.body_start, fn.end) for fn in bodies)
        starts = Counter(start for tokens in lexed for start in tokens.starts[:-1])
        assert {start for start, n in starts.items() if n > 1} == {
            offset for fn in bodies for offset in (fn.body_start, fn.end - 1)}
    assert [fn.name for fn in bodies if fn.contract_def.name == ""] == ["free"]


# ----------------------------------------------------------------------
# statement classification: declaration or expression, by lookahead

def _sources_with_statements() -> list:
    sources = [case.source for case in build_corpus(3)] + [filler_source(0)]
    for root in (fixture_path(), os.path.join(os.path.dirname(__file__), os.pardir, "demo")):
        for path in sorted(glob.glob(os.path.join(root, "**", "*.sol"), recursive=True)):
            with open(path, encoding="utf-8") as fh:
                sources.append(fh.read())
    return sources


class _ClassifyingParser(Parser):
    """Records, at each lookahead, whether ``_parse_local_decl`` succeeds there."""

    def __init__(self, src, tokens):
        super().__init__(src, tokens)
        self.answers = []

    def _at_declaration(self):
        saved = self.pos
        try:
            self._parse_local_decl()
            parses = True
        except _Backtrack:
            parses = False
        self.pos = saved
        answer = super()._at_declaration()
        assert self.pos == saved
        self.answers.append((answer, parses, self.starts[saved]))
        return answer


def test_declaration_lookahead_agrees_with_a_full_declaration_parse():
    """Every body is parsed from its own tokens, as ``FunctionRecord.body`` parses it."""
    starts = 0
    for source in _sources_with_statements():
        src = SourceFile(path="c.sol", text=source)
        for fn in parse_source(src).functions:
            if not fn.has_body:
                continue
            parser = _ClassifyingParser(
                src, tokenize(src.stripped, src.path, fn.body_start, fn.end))
            parser._parse_block_children()
            for answer, parses, start in parser.answers:
                assert answer == parses, source[start:start + 60]
            starts += len(parser.answers)
    assert starts > 100


def _body_statement(statement: str):
    unit = parse_text("contract C { function f() public { %s } }" % statement)
    return unit.functions[0].body[0]


@pytest.mark.parametrize("statement, kind", [
    ("uint[] memory a = new uint[](n);", "local-decl"),
    ("mapping(address => uint) storage m = b;", "local-decl"),
    ("address payable p = payable(x);", "local-decl"),
    ("L.S memory s;", "local-decl"),
    ("var x = 1;", "local-decl"),
    ("(, uint b) = g();", "local-decl"),
    ("x[i] = 1;", "assignment"),
    ("a.b = c;", "assignment"),
    ("IERC20(t).transfer(a, 1);", "expression"),
    ("(uint a, x) = g();", "opaque"),
])
def test_statement_kind_by_lookahead(statement, kind):
    assert _body_statement(statement).kind == kind


def test_delete_statement_is_a_unary_expression():
    stmt = _body_statement("delete t;")
    assert (stmt.kind, stmt.decl_names) == ("expression", ())
    assert [(e.kind, e.op, e.args[0].name) for e in stmt.exprs] == [("unary", "delete", "t")]


@pytest.mark.parametrize("init, kind", [
    ("uint i = 0", "local-decl"),
    ("i = 0", "expression"),
])
def test_for_init_kind_by_lookahead(init, kind):
    loop = _body_statement("for (%s; i < n; i++) { g(i); }" % init)
    assert loop.kind == "for"
    assert loop.children[0].kind == kind
    assert loop.children[0].raw == init + ";"


@pytest.mark.parametrize("broken", [
    "uint x",
    "uint x = f(;",
    "function h() public { x = g(; }",
], ids=["member-without-semicolon", "member-with-open-paren", "statement-with-open-paren"])
def test_a_broken_member_or_statement_costs_only_itself(broken):
    unit = parse_text("contract A { %s } "
                      "contract B { function f() public { g(); } function g() internal {} }" % broken)
    assert [c.name for c in unit.contracts] == ["A", "B"]
    assert [(fn.contract, fn.name) for fn in unit.functions if fn.contract == "B"] == [
        ("B", "f"), ("B", "g")]


def test_leading_bom_is_whitespace():
    text = "\ufeffcontract C { function f() public {} }"
    assert token_rows(tokenize(text))[0] == ("id", "contract", 1, 9)
    (fn,) = enumerate_functions(parse_text(text))
    assert fn.source() == "function f() public {}"


def test_opaque_statement_spans_a_block_inside_brackets():
    body = parse_text("contract C { function f() public { g({a: 1}) h; k(); } }").functions[0].body
    assert [(s.kind, s.raw) for s in body] == [("opaque", "g({a: 1}) h;"), ("expression", "k();")]


@pytest.mark.parametrize("text, result", [
    ("uint[2] x", "uint[2]"),
    ("uint[a[1]][] x", "uint[a[1]][]"),
    ("uint[2", _Backtrack),
    ("uint[a[1] x", _Backtrack),
])
def test_array_type_needs_its_closing_bracket(text, result):
    parser = Parser(SourceFile(path="t.sol", text=text))
    if result is _Backtrack:
        with pytest.raises(_Backtrack):
            parser._parse_type()
    else:
        assert parser._parse_type() == result


# ----------------------------------------------------------------------
# members and top-level constructs the parser does not read

def _function_fields(unit) -> list:
    return [(fn.name, fn.kind, fn.params, fn.visibility, fn.modifiers, fn.body,
             fn.span, fn.start, fn.end, fn.contract) for fn in unit.functions]


@pytest.mark.parametrize("member", [
    "struct S { uint a; };",
    "S public s = S({a: 1});",
    "enum E { A, B }",
    "modifier m() { _; }",
    "mapping(address => mapping(uint => bool)) public allowed;",
], ids=["struct-and-semicolon", "struct-initializer", "enum", "modifier", "nested-mapping"])
def test_skipped_member_keeps_the_function_after_it(member):
    template = "contract C { %s function f(uint a) public { g(a); } }"
    unit = parse_text(template % member)
    # blanking the member keeps every offset of the function the same
    assert _function_fields(unit) == _function_fields(parse_text(template % (" " * len(member))))
    assert [fn.name for fn in unit.functions] == ["f"]


def test_skipped_import_keeps_the_contract_after_it():
    template = 'pragma solidity ^0.8.0; %s contract C { function f(uint a) public { g(a); } }'
    member = 'import {A, B} from "x.sol";'
    unit = parse_text(template % member)
    assert _function_fields(unit) == _function_fields(parse_text(template % (" " * len(member))))
    assert [(c.name, c.bases) for c in unit.contracts] == [("C", [])]


def test_no_statement_yields_an_expression_twice():
    for case in build_corpus(3):
        for fn in parse_text(case.source).functions:
            for stmt in fn.statements():
                exprs = list(stmt.expressions())
                assert len({id(e) for e in exprs}) == len(exprs), stmt.raw


# ----------------------------------------------------------------------
# bodies parsed on first read

def test_only_entry_point_bodies_are_parsed_with_the_file():
    unit = parse_text(
        "contract C {\n"
        "    constructor() { a(); }\n"
        "    function pub() public { b(); }\n"
        "    function ext() external { c(); }\n"
        "    function inner() internal { d(e); }\n"
        "    function hidden() private {}\n"
        "    function decl() internal;\n"
        "}\n"
        "function free() { f(); }\n")
    parsed = {fn.display_name: fn.parsed_body is not None for fn in unit.functions}
    assert parsed == {"constructor": False, "pub": True, "ext": True, "inner": False,
                      "hidden": False, "decl": False, "free": False}
    names = {fn.display_name: fn.body_names for fn in unit.functions}
    assert names == {"constructor": ("a",), "pub": None, "ext": None, "inner": ("d", "e"),
                     "hidden": (), "decl": None, "free": ("f",)}
    assert [fn.has_body for fn in unit.functions] == [True] * 5 + [False, True]
    inner = unit.functions[3]
    [call] = inner.body
    assert (call.kind, call.raw, call.seq, call.span) == ("expression", "d(e);", 0, (5, 5))


def _expression_tree(expr):
    if expr is None:
        return None
    return (expr.kind, expr.start, expr.end, expr.name, expr.op,
            _expression_tree(expr.callee), [_expression_tree(a) for a in expr.args])


def _body_tree(fn) -> list:
    return [(s.kind, s.start, s.end, s.span, s.seq, list(s.decl_names), len(s.children),
             [_expression_tree(e) for e in (s.condition, *s.exprs, s.post_expr)])
            for s in fn.statements()]


def test_a_deferred_body_once_read_equals_the_eager_parse(sample_projects, monkeypatch):
    deferred = 0
    for root in sample_projects:
        for path in sorted(glob.glob(os.path.join(root, "**", "*.sol"), recursive=True)):
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            with monkeypatch.context() as patch:
                patch.setattr(FunctionRecord, "is_entry_point", EVERY_BODY)
                eager = parse_text(text, path).functions
            lazy = parse_text(text, path).functions
            assert all(fn.body_names is None for fn in eager)
            deferred += sum(fn.body_names is not None for fn in lazy)
            assert ([(fn.name, fn.start, fn.end, fn.span, fn.body_start) for fn in lazy]
                    == [(fn.name, fn.start, fn.end, fn.span, fn.body_start) for fn in eager])
            assert [_body_tree(fn) for fn in lazy] == [_body_tree(fn) for fn in eager], path
    assert deferred > 100


def test_a_deferred_body_that_does_not_parse_is_one_opaque_statement():
    inside = "x = %s;\n    y();" % DEEP_EXPRESSIONS["parentheses"]
    unit = parse_text("contract C {\n  function f() public { g(); }\n"
                      "  function g() internal {\n    %s\n  }\n}\n" % inside)
    f, g = unit.functions
    [stmt] = g.body
    assert (stmt.kind, stmt.raw, stmt.seq, stmt.span) == ("opaque", inside, 0, (4, 5))
    assert [s.raw for s in f.body] == ["g();"]


def test_a_function_header_that_ends_the_file_is_a_syntax_error():
    # no ';' and no body: a deferred body here would span nothing
    assert _syntax_error("contract C {} function f() pure") == ("expected '{'", 1, 32)


def test_threads_reading_deferred_bodies_at_once_parse_each_once(monkeypatch):
    unit = parse_text(filler_source(0, functions=40))
    parses = Counter()
    parse_body = parser_module.parse_body

    def counting_parse_body(fn):
        parses[fn.name] += 1
        return parse_body(fn)

    monkeypatch.setattr(parser_module, "parse_body", counting_parse_body)
    count = (os.cpu_count() or 1) + 2
    barrier = threading.Barrier(count)
    bodies = [None] * count
    spans = [None] * count  # each statement's span builds the file's line index on first read

    def read(i):
        barrier.wait(timeout=10)
        bodies[i] = [fn.body for fn in unit.functions]
        spans[i] = [stmt.span for fn in unit.functions for stmt in fn.statements()]

    threads = [threading.Thread(target=read, args=(i,), daemon=True) for i in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(b is not None for b in bodies)
    for statements in zip(*bodies):
        assert all(body is statements[0] for body in statements)
    assert parses == {fn.name: 1 for fn in unit.functions}
    line_of = LineIndex(unit.functions[0].file.text).line_of
    expected = [(line_of(stmt.start), line_of(max(stmt.start, stmt.end - 1)))
                for fn in unit.functions for stmt in fn.statements()]
    assert len(expected) > 100 and spans == [expected] * count


NESTED_CALLS = """contract N {
    function f(uint x) public {
        (uint a, , uint b) = t(u(x), v());
        f(g(1), h(k(2)).m(3))[i(4)] = p(q(r(5)) + s(6)) ? w(7) : y(z(8));
        require(ok(x), string(abi.encodePacked("x", name(x))));
    }
}"""


def test_iter_calls_lists_calls_in_the_order_of_a_pre_order_walk():
    """On every expression of the acceptance corpus, at every depth."""
    sources = [(case.source, case.filename) for case in build_corpus(variants=3)]
    seen = 0
    for text, path in sources + [(NESTED_CALLS, "N.sol")]:
        for fn in enumerate_functions(parse_text(text, path)):
            for stmt in fn.statements():
                for top in stmt.expressions():
                    for expr in walk_expression(top):
                        calls = iter_calls(expr)
                        assert calls == [n for n in walk_expression(expr) if n.kind == "call"]
                        seen += len(calls)
    assert seen > 60


# ----------------------------------------------------------------------
# the find-based passes against their regex oracles

_LEXING_EDGE_CASES = {
    "escaped quotes": 'contract C { function f() public { s = "a\\"}b"; t = \'it\\\'s {\'; '
                      'u = "\\\\"; v = \'\\\\\'; } }',
    "comment markers in strings": 'contract C { function f() public { s = "// {"; '
                                  't = \'/* }\'; u = "*/"; g(); } function g() internal {} }',
    "braces in strings": 'contract C { string s = "{{{"; function f() public { t = "}"; '
                         'if (x) { u = \'{}}\'; } } }',
    "CRLF line ends": "contract C {\r\n  // c {\r\n  function f() public {\r\n    g();\r\n  }\r\n"
                      "  /* a\r\n } b */\r\n  function g() internal { }\r\n}\r\n",
    "non-ASCII before a function": '// héllo ☃ { ünï\ncontract C { string s = "é{ñ"; /* ☃ } */\n'
                                   '  function f() public { g("☃"); }\n function g(string memory) '
                                   'internal {} }',
    "byte-order mark": "\ufeffcontract C {\n function f() public { g(); }\n"
                       " function g() internal {}\n}\n",
    "escaped newline": 'contract C { function f() public { s = "a\\\nb}"; g(); } }',
    "divisions and slashes": "contract C { function f() public { x = a / b / (c /d); } } /",
    "comment openers": "contract C { /*/ } */ function f() public {} //}\n} /**/",
    "prefixed strings": 'contract C { bytes b = hex"7b"; string u = unicode"}{"; }',
    "free function": 'string constant F = "; function f() {";\n'
                     "function free(uint x) pure returns (uint) { if (x > 0) { return x; } }",
}

# Every text whose SoliditySyntaxError message, line and column a test pins.
_PINNED_ERRORS = [text for text, error in _BRACE_ERRORS if error] + [
    "contract {",
    'contract C { function f() public { s = "abc; } }',
    "contract C { } /* dangling",
    "contract C {} function f() pure",
    'contract C { function f() public { s = "abc\n"; } }',
    "contract C { function f() public { s = 'abc",
    'contract C { function f() public { s = "abc\\',
    "contract C { /*/ }",
    "contract C { } /* a */ /* b",
    "\ufeffcontract C {\r\n function f() public {\r\n",
    "contract C { function f() public { x = %s; } }" % DEEP_EXPRESSIONS["parentheses"],
]


def _outcome(function, *args):
    """What ``function(*args)`` returns, or the (message, line, column) it raises."""
    try:
        return function(*args)
    except SoliditySyntaxError as err:
        return str(err).split(": ", 1)[1], err.line, err.column


def _mutated(rng: random.Random, texts: list, count: int) -> list:
    alphabet = list('{}"\'/*\\\n\r é') + ["/*", "*/", "//"]
    out = []
    for _ in range(count):
        chars = list(rng.choice(texts))
        for _ in range(rng.randrange(1, 6)):
            at = rng.randrange(len(chars) + 1)
            if rng.randrange(2) or not chars:
                chars.insert(at, rng.choice(alphabet))
            else:
                del chars[min(at, len(chars) - 1)]
        out.append("".join(chars))
    return out


def _texts_against_oracles(scanned_sources) -> list:
    texts = [text for files in scanned_sources.values() for _path, text in files]
    texts += list(_LEXING_EDGE_CASES.values()) + _PINNED_ERRORS
    small = list(_LEXING_EDGE_CASES.values()) + [text for text, _ in _BRACE_ERRORS]
    return texts + _mutated(random.Random(19), small, 3000)


def test_strip_comments_and_outline_match_their_regex_oracles(scanned_sources):
    """Same text or same error, on every compared input, the edge cases and
    random edits of them that insert or delete quotes, slashes, stars,
    backslashes, braces, line ends and non-ASCII characters."""
    outcomes = Counter()
    for text in _texts_against_oracles(scanned_sources):
        stripped = _outcome(strip_comments, text, "p.sol")
        assert stripped == _outcome(regex_strip_comments, text, "p.sol"), text
        if isinstance(stripped, str):
            result = _outcome(outline, stripped, "p.sol")
            assert result == _outcome(regex_outline, stripped, "p.sol"), text
            stripped = result
        outcomes[stripped[0] if isinstance(stripped, tuple) else "outlined"] += 1
    assert min(outcomes.values()) > 100 and len(outcomes) == 5, outcomes


def test_function_spans_and_syntax_errors_match_the_line_index_oracle(scanned_sources,
                                                                       monkeypatch):
    """A function's span counts newlines; a file parsed with the regex passes
    raises the same message at the same line and column, or parses the same."""
    def fields(text):
        unit = _outcome(parse_text, text, "p.sol")
        if isinstance(unit, tuple):
            return unit
        return [(fn.contract, fn.name, fn.span, fn.start, fn.end, fn.body_start, fn.body_names)
                for fn in unit.functions]

    texts = _texts_against_oracles(scanned_sources)
    new = [fields(text) for text in texts]
    with monkeypatch.context() as patch:
        patch.setattr(parser_module, "strip_comments", regex_strip_comments)
        patch.setattr(parser_module, "outline", regex_outline)
        assert [fields(text) for text in texts] == new
    errors = {text: result for text, result in zip(texts, new) if isinstance(result, tuple)}
    assert all(text in errors for text in _PINNED_ERRORS)
    spans = 0
    for text in texts:
        if text not in errors:
            for fn in parse_text(text).functions:
                assert fn.span == line_index_span(fn), (fn.name, text)
                spans += 1
    assert spans > 6000


def test_line_and_column_count_every_character_before_them():
    """CRLF, a byte-order mark and non-ASCII text before a function count as
    characters, as a line index of the file counts them."""
    for name in ("CRLF line ends", "non-ASCII before a function", "byte-order mark"):
        text = _LEXING_EDGE_CASES[name]
        unit = parse_text(text)
        assert [fn.span for fn in unit.functions] == [line_index_span(fn) for fn in unit.functions]
        assert all("line_index" not in vars(fn.file) for fn in unit.functions)
    assert [fn.span for fn in parse_text(_LEXING_EDGE_CASES["CRLF line ends"]).functions] == [
        (3, 5), (8, 8)]
    assert _syntax_error("\ufeffcontract C {\r\n function f() public {\r\n") == (
        "unclosed '{'", 2, 22)
    assert _syntax_error('// ☃\ncontract C { s = "é\n"; }') == ("unterminated string", 2, 18)


def test_contains_identifier_matches_the_lookbehind_regex():
    def regex(text, name):
        if re.fullmatch(r"[A-Za-z_$][A-Za-z0-9_$]*", name):
            return re.search(r"(?<![A-Za-z0-9_$])" + re.escape(name) + r"(?![A-Za-z0-9_$])",
                             text) is not None
        return name in text

    rng = random.Random(23)
    alphabet = "ab_$1 .(é\n["
    names = ["a", "ab", "_a", "$", "a1", "b$", "1a", "a.b", "", "a[", "é"]
    for _ in range(4000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 12)))
        name = rng.choice(names)
        assert contains_identifier(text, name) == regex(text, name), (text, name)
