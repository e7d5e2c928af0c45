import glob
import os
import random
import re

import pytest

from solscout.errors import SoliditySyntaxError
from solscout.frontend import SourceFile, enumerate_functions, parse_source, parse_text, strip_comments
from solscout.frontend import parser as parser_module
from solscout.frontend.lexer import Token, tokenize
from solscout.frontend.parser import BINARY_LEVELS, Parser, _Backtrack

from conftest import fixture_path
from corpus import build_corpus, filler_source


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


def test_unbalanced_braces_error_positions():
    with pytest.raises(SoliditySyntaxError):
        parse_text("contract C { function f() public { }")
    with pytest.raises(SoliditySyntaxError):
        parse_text("contract C { } }")


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
    """Raw text sliced by span equals the parser-recorded raw text."""
    for parts in (("first_deposit", "contracts", "Vault.sol"), ("checkpoint_order", "contracts", "StakerVault.sol")):
        text = read_fixture(*parts)
        unit = parse_text(text)
        for fn in enumerate_functions(unit):
            assert text[fn.start:fn.end] == fn.source()
            for stmt in fn.statements():
                assert text[stmt.start:stmt.end] == stmt.raw
                for expr in stmt.expressions():
                    for node in expr.walk():
                        if node is not None:
                            assert text[node.start:node.end] == node.raw


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


def test_totality_fuzz_never_crashes():
    """The parser returns a unit or raises SoliditySyntaxError for any input.

    ``Parser`` is called directly: ``parse_source`` turns every other
    exception into a SoliditySyntaxError and would hide a crash.
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
            tokens.append(Token(m.lastgroup, m.group(0), m.start(), m.end()))
            pos = m.end()
        else:
            tokens.append(Token("punct", stripped[pos], pos, pos + 1))
            pos += 1
    tokens.append(Token("eof", "", length, length))
    return tokens


def _stream(tokens: list) -> list:
    return [(t.type, t.value, t.start, t.end) for t in tokens]


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
        assert _stream(tokenize(text)) == _stream(_oracle_tokenize(text)), text


def test_tokenize_ends_in_one_eof_on_the_acceptance_corpus():
    for case in build_corpus(3):
        text = strip_comments(case.source)
        tokens = tokenize(text)
        assert [t.type for t in tokens].count("eof") == 1, case.filename
        assert tokens[-1] == Token("eof", "", len(text), len(text))
        assert len(tokens) == len(_oracle_tokenize(text))


def test_every_token_boundary_prefix_parses_or_is_a_syntax_error(monkeypatch):
    """Cutting a file after any token puts eof under every lookahead the parser makes.

    The up-front brace check is turned off: it rejects most prefixes
    before the parser would see them.
    """
    monkeypatch.setattr(parser_module, "check_braces", lambda *args: None)
    texts = [
        read_fixture("first_deposit", "contracts", "Vault.sol"),
        next(case.source for case in build_corpus(1) if case.filename == "StakeVul0.sol"),
        # call options look two tokens ahead
        "contract C { function f() public { (bool ok, ) = to.call{value: v}(hex\"00\"); } }",
    ]
    for text in texts:
        cuts = sorted({offset for tok in tokenize(strip_comments(text))
                       for offset in (tok.start, tok.end)})
        for cut in cuts:
            try:
                Parser(SourceFile(path="cut.sol", text=text[:cut])).parse()
            except SoliditySyntaxError:
                pass


def test_parser_calls_the_module_tokenize_once_per_file(monkeypatch):
    """Benchmark tracing wraps ``parser.tokenize`` by name to count tokens."""
    texts = [read_fixture("first_deposit", "contracts", "Vault.sol"),
             read_fixture("checkpoint_order", "contracts", "StakerVault.sol")]
    lengths = []

    def counting_tokenize(stripped, path=""):
        tokens = tokenize(stripped, path)
        lengths.append(len(tokens))
        return tokens

    monkeypatch.setattr(parser_module, "tokenize", counting_tokenize)
    for i, text in enumerate(texts):
        parse_source(SourceFile(path=f"f{i}.sol", text=text))
    assert lengths == [len(tokenize(strip_comments(text))) for text in texts]


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

    def __init__(self, src):
        super().__init__(src)
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
        self.answers.append((answer, parses, self.tokens[saved].start))
        return answer


def test_declaration_lookahead_agrees_with_a_full_declaration_parse():
    starts = 0
    for source in _sources_with_statements():
        parser = _ClassifyingParser(SourceFile(path="c.sol", text=source))
        parser.parse()
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
    assert (stmt.kind, stmt.decl_names) == ("expression", [])
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
