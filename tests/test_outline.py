"""The outline pattern (``parser._read_outline``) against the token walk (``Parser``).

The token walk is the reference: on every file the pattern reads, the two
give equal units, field by field and entry-point body by body, or raise
the same error, and a file the pattern does not read goes through the
token walk alone.
"""

import glob
import os
import random
import sys
from collections import Counter

from solscout.errors import SoliditySyntaxError
from solscout.frontend import SourceFile, parse_source
from solscout.frontend import parser as parser_module
from solscout.frontend.lexer import tokenize
from solscout.frontend.parser import Parser, _outline, _read_outline
from solscout.pipeline import prepare_scan

from conftest import fixture_path
from corpus import build_corpus
from helpers import replay_config, walk_expression
from test_frontend import _expression_tree

DEEP = "(" * 1500 + "a" + ")" * 1500

# name -> (text, whether the pattern reads it)
HAZARDS = {
    "function and ;{ in strings": (
        'contract C {\n    string s = "function f() public {";\n    string t = \';{\';\n'
        '    function g() public { h("function k() {;"); }\n}\n', True),
    "import with braces": (
        'pragma solidity ^0.8.0;\nimport {A, B as C} from "./x.sol";\nimport "./y.sol";\n'
        "contract D is A { function f() external {} }\n", True),
    "dotted and array types": (
        "contract C {\n    function f(L.S memory s, uint[2][] calldata a, I . J x, uint [ 3 ] b)"
        " external returns (L.S[] memory) {}\n    function g(address payable to, address payable[]"
        " memory all, address payable) public {}\n}\n", True),
    "override and named returns": (
        "abstract contract C is A, B . D {\n    function f() public view virtual override(A, B)"
        " returns (uint a, uint b) {}\n    function g(uint) internal virtual;\n}\n", True),
    "modifier arguments": (
        "contract C { function f(uint a) external onlyRole(ADMIN, a) nonReentrant {} }\n", True),
    "modifier argument with a string": (
        'contract C { function f() public only("admin") {} }\n', True),
    "modifier argument with parentheses": (
        "contract C { function f() public onlyRole(keccak256(x)) {} }\n", True),
    "base with arguments": ("contract C is A(1) { function f() public {} }\n", True),
    "free function": (
        "function free(uint x) pure returns (uint) { return x; }\n"
        "contract C { function f() public {} }\n", True),
    "interface": ("interface I {\n    function f(uint a) returns (uint);\n"
                  "    function g() external view;\n}\n", True),
    "constructor by name": ("contract Old {\n    function Old(uint a) { }\n"
                            "    function f() { }\n}\n", True),
    "fallback, receive and constructor": (
        "contract C {\n    fallback() external payable {}\n    receive() external payable {}\n"
        "    constructor(uint a) public {}\n}\n", True),
    "members": (
        "contract C {\n    struct S { uint a; }\n    enum E { A, B }\n"
        "    event Ev(address indexed a);\n    error Er(uint b);\n    using L for uint;\n"
        "    modifier m(uint x) { _; }\n    S public s = S({a: 1});\n"
        "    uint[3] public arr = [1, 2, 3];\n    mapping(address => uint[]) internal lists;\n"
        "    function f() public {}\n}\n", True),
    "nested mapping": ("contract C {\n    mapping(address => mapping(address => uint)) allowed;\n"
                       "    function f() public {}\n}\n", True),
    "CRLF and non-ASCII": (
        'contract C {\r\n    string s = "héllo ☃";\r\n    function f() public {\r\n'
        '        g("ü");\r\n    }\r\n    function g(string memory) internal {}\r\n}\r\n', True),
    "braces at column 1": (
        "contract C {\nfunction f() public {\ng();\n}\nfunction g() internal {\n}\n}\n", True),
    "byte-order mark": ("\ufeffcontract C {\n    function f() public { g(); }\n"
                        "    function g() internal {}\n}\n", True),
    "function-type state variable": (
        "contract C {\n    function (uint256) external returns (uint256) public handler;\n"
        "    function f() public {}\n}\n", False),
    "old-style fallback": ("contract C {\n    function() external payable { }\n}\n", True),
    "bodiless old-style fallback": ("interface I {\n    function() external payable;\n}\n", False),
    "nameless free function": ("function (uint a) pure { }\ncontract C {}\n", True),
    "pre-0.5 contract": (
        "pragma solidity ^0.4.24;\ncontract Old {\n    function Old() public { }\n"
        "    function () public payable { deposit(); }\n"
        "    function deposit() public payable { }\n}\n", True),
    "visibility with parentheses": ("contract C { function f() public(x) {} }\n", False),
    "parameter list without commas": (
        "contract C { function f(uint a uint b) public {} }\n", True),
    "trailing comma": ("contract C { function f(uint a,) public {} }\n", True),
    "function-type parameter": ("contract C { function f(function x) public {} }\n", True),
    "mapping parameter": (
        "contract C { function f(mapping(uint => uint) storage m) internal {} }\n", True),
    "header without a body": ("contract C { function f() public }\n", False),
    "unclosed parameter list": ("contract C { function f(uint a public {} }\n", False),
    "deep entry body": ("contract C {\n    function g() internal {}\n    function f() public {\n"
                        "        x = %s;\n    }\n}\n" % DEEP, True),
    "real-code shapes": (
        'import "@oz/ERC20.sol";\nerror Unauthorized(address account);\ntype Price is uint256;\n'
        "using L for Price global;\n"
        "function toPrice(uint256 v) pure returns (Price) { return Price.wrap(v); }\n"
        'contract Token is ERC20("Token (T)", "T"), Ownable(msg.sender), A.B(f(g(1), "x")) {\n'
        "    mapping(address => mapping(address => mapping(uint256 => bool))) private deep;\n"
        "    mapping(address account => uint256) private named;\n"
        '    bytes32 public constant ROLE = keccak256(abi.encode(keccak256("R(x)"), 1));\n'
        "    uint256[] private list = [uint256(1), uint256(f(2))];\n"
        "    modifier onlyRole(bytes32 role) { _; }\n"
        '    constructor() ERC20("Name", "SYM") Ownable(msg.sender) {}\n'
        '    function mint(address to) public onlyRole(keccak256("MINTER")) returns (bool) {\n'
        "        deep[to][to][1] = true;\n    }\n"
        "    function get(mapping(bytes32 => Info) storage self, address owner, int24 lower)"
        " internal view returns (Info storage position) {}\n"
        "    function apply(function(uint256) pure returns (uint256) op, uint256 x) internal {}\n"
        "    function keyed(mapping(address user => uint256 amount) storage m) private {}\n"
        "}\nfunction Token() { }\nfunction visible() public { }\n", True),
    "free constructor": ("constructor() {}\ncontract C { function f() public {} }\n", False),
    "brackets nested five deep": (
        "contract C {\n    uint x = f(g[h(i[j(1)])]);\n"
        '    function f() public m(a(b(c(d("(", 1))))) {}\n}\n', True),
    "brackets nested six deep in a member": (
        "contract C {\n    uint x = f(g[h(i[j(k(1))])]);\n    function f() public {}\n}\n", False),
    "parentheses nested six deep in a modifier": (
        "contract C { function f() public m(a(b(c(d(e(1)))))) {} }\n", False),
    "a parameter list the token walk leaves early": (
        "contract C { function f(uint[(] a)) public {} }\n", False),
    "a salvaged parameter": ("contract C { function f(uint a = 1, ) public {} }\n", True),
    "salvaged parameters that differ only in blanked blocks": (
        "contract C {\n    function f(S s = S({a: 1})) public {}\n"
        "    function g(S s = S({b: 2})) public {}\n}\n", True),
    "empty": ("", True),
    "whitespace": (" \n\t\n", True),
    "contract, library and pragma": (
        "pragma solidity ^0.8.0;\ncontract A {}\n"
        "library L { function f(uint a) internal pure returns (uint) {} }\n", True),
}


def _sample_files(sample_projects) -> list:
    """``(path, text)`` of every Solidity file under the sample project roots."""
    files = []
    for root in sample_projects:
        for path in sorted(glob.glob(os.path.join(root, "**", "*.sol"), recursive=True)):
            with open(path, encoding="utf-8") as fh:
                files.append((path, fh.read()))
    return files


def _real_shapes() -> list:
    """``(path, text)`` of each file shaped like widely deployed code."""
    return _sample_files([fixture_path("real_shapes")])


def _statement_rows(body: tuple) -> list:
    return [(s.kind, s.start, s.end, s.decl_names, len(s.children),
             [_expression_tree(e) for e in (s.condition, *s.exprs, s.post_expr)])
            for s in body]


def _unit_rows(unit, src) -> tuple:
    """Every field of the unit's contracts and functions, entry-point bodies included."""
    index = {id(contract): i for i, contract in enumerate(unit.contracts)}
    return ([(c.name, c.kind, c.bases) for c in unit.contracts],
            [(fn.name, fn.kind, fn.params, fn.visibility, fn.modifiers, fn.span, fn.start, fn.end,
              fn.body_start, fn.contract, index[id(fn.contract_def)], fn.file is src,
              None if fn.parsed_body is None else _statement_rows(fn.parsed_body))
             for fn in unit.functions])


def _rows_or_error(parse, src) -> tuple | list | None:
    """The rows of the unit ``parse()`` returns, None for none, or the (message,
    line, column) it raises."""
    try:
        unit = parse()
    except SoliditySyntaxError as err:
        return str(err), err.line, err.column
    return None if unit is None else _unit_rows(unit, src)


def _read_and_walked(path: str, text: str):
    """The pattern's outcome of the file, None if it declines; and the token walk's
    outcome of a file the pattern reads. An outcome is rows or an error."""
    src = SourceFile(path=path, text=text)
    outline = _outline(src)
    read = _rows_or_error(lambda: _read_outline(src, outline), src)
    if read is None:
        return None, None
    return read, _rows_or_error(lambda: Parser(src, tokenize(outline, path)).parse(), src)


def test_the_pattern_reads_each_file_as_the_token_walk_does_or_declines_it(sample_projects,
                                                                          scanned_sources):
    files = _sample_files(sample_projects)
    files += [(path, text) for project in scanned_sources.values() for path, text in project]
    for path, text in files:
        read, walked = _read_and_walked(path, text)
        assert read is not None, path
        assert read == walked, path
    declined = []
    for path, text in _real_shapes():
        read, walked = _read_and_walked(path, text)
        if read is None:
            declined.append(os.path.basename(path))
        else:
            assert read == walked, path
    assert declined == ["Checkpoints.sol"]  # a state variable of function type
    read_hazards = set()
    for name, (text, _) in HAZARDS.items():
        read, walked = _read_and_walked(name + ".sol", text)
        if read is not None:
            assert read == walked, name
            read_hazards.add(name)
    assert read_hazards == {name for name, (_, read) in HAZARDS.items() if read}


def test_the_pattern_reads_dotted_and_array_types_as_their_tokens_joined():
    src = SourceFile(path="t.sol", text=HAZARDS["dotted and array types"][0])
    f, g = _read_outline(src, _outline(src)).functions
    assert f.params == [("L.S", "s"), ("uint[2][]", "a"), ("I.J", "x"), ("uint[3]", "b")]
    assert g.params == [("address", "to"), ("address[]", "all"), ("address", "")]
    assert f.modifiers == g.modifiers == []


def test_a_scan_of_the_samples_lexes_no_outline_and_each_parsed_body_once(sample_projects,
                                                                         monkeypatch):
    """The pattern declines no sample file, so ``tokenize`` lexes only bodies: each
    range once, and exactly the bodies the scan parsed."""
    lexed, declined = [], []

    def recording_tokenize(*args):
        lexed.append(args[2:])
        return tokenize(*args)

    def recording_read(src, text):
        unit = _read_outline(src, text)
        if unit is None:
            declined.append(src.path)
        return unit

    monkeypatch.setattr(parser_module, "tokenize", recording_tokenize)
    monkeypatch.setattr(parser_module, "_read_outline", recording_read)
    parsed = 0
    for root in sample_projects:
        lexed.clear()
        prepared = prepare_scan(replay_config(root, ""))
        bodies = [fn for fn in prepared.functions if fn.parsed_body is not None]
        assert all(len(range_) == 2 for range_ in lexed), root
        assert Counter(lexed) == Counter((fn.body_start, fn.end) for fn in bodies), root
        parsed += len(bodies)
    assert declined == []
    assert parsed > 100


def _stored_strings(unit) -> list:
    """Every name, type, modifier and base the unit stores, its bodies' names included."""
    strings = [text for c in unit.contracts for text in (c.name, c.kind, *c.bases)]
    for fn in unit.functions:
        strings += [fn.name, fn.kind, fn.visibility, fn.contract, *fn.modifiers]
        strings += [text for param in fn.params for text in param]
        for stmt in fn.body or ():
            strings += stmt.decl_names
            strings += [node.name for expr in stmt.expressions() for node in walk_expression(expr)]
    return strings


def test_every_stored_name_type_modifier_and_base_is_interned_on_both_paths(sample_projects):
    texts = [text for _, text in _sample_files(sample_projects) + _real_shapes()]
    texts += [text for text, read in HAZARDS.values() if read and "(((" not in text]
    checked = Counter()
    for text in texts:
        src = SourceFile(path="i.sol", text=text)
        walked = SourceFile(path="i.sol", text=text)
        for path, unit in (("pattern", _read_outline(src, _outline(src))),
                           ("token walk", Parser(walked).parse())):
            if unit is None:
                continue  # declined
            strings = _stored_strings(unit)
            assert [s for s in strings if sys.intern(s) is not s] == [], (path, text[:80])
            checked[path] += len(strings)
    assert min(checked.values()) > 5000


# ----------------------------------------------------------------------
# mutated headers

_HEADER_STARTS = {"function", "constructor", "fallback", "receive", "contract", "interface",
                  "library", "abstract"}
_TOKENS = ["(", ")", "[", "]", ",", ".", "=", ";", "{", "}", "=>", "x", "uint", "address",
           "payable", "memory", "public", "view", "virtual", "returns", "override", "is",
           "function", "mapping", '"s"', "1", "A.B"]


def _mutant(rng: random.Random, text: str) -> str:
    """``text`` with one token of one header inserted, deleted or nested in brackets."""
    tokens = tokenize(_outline(SourceFile(path="m.sol", text=text)))
    headers = [i for i, value in enumerate(tokens) if value in _HEADER_STARTS]
    first = rng.choice(headers)
    last = first
    while tokens[last] not in ("{", ";", ""):
        last += 1
    k = rng.randrange(first, last + 1)
    start, end = tokens.starts[k], tokens.ends[k]
    op = rng.randrange(3)
    if op == 0:
        return text[:start] + rng.choice(_TOKENS) + " " + text[start:]
    if op == 1:
        return text[:start] + text[end:]
    opening, closing = rng.choice(["()", "[]"])
    return text[:start] + opening + text[start:end] + closing + text[end:]


def _outcome(text: str, path: str = "m.sol"):
    """``parse_source``'s rows of ``text``, or the (message, line, column) it raises."""
    src = SourceFile(path=path, text=text)
    return _rows_or_error(lambda: parse_source(src), src)


def test_mutated_headers_parse_or_fail_as_the_token_walk_does(monkeypatch):
    """Each mutant gives ``parse_source`` the same unit, or the same error, with the
    pattern as with the token walk alone."""
    seeds = [text for text, read in HAZARDS.values() if text.strip() and "(((" not in text]
    for parts in [("first_deposit", "contracts", "Vault.sol"),
                  ("checkpoint_order", "contracts", "StakerVault.sol")]:
        with open(fixture_path(*parts), encoding="utf-8") as fh:
            seeds.append(fh.read())
    seeds += [case.source for case in build_corpus(1)]
    seeds += [text for _, text in _real_shapes()]
    rng = random.Random(30)
    mutants = [_mutant(rng, rng.choice(seeds)) for _ in range(1500)]
    read = []

    def recording_read(src, text):
        unit = _read_outline(src, text)
        read.append(unit is not None)
        return unit

    with monkeypatch.context() as patch:
        patch.setattr(parser_module, "_read_outline", recording_read)
        with_pattern = [_outcome(text) for text in mutants]
    with monkeypatch.context() as patch:
        patch.setattr(parser_module, "_read_outline", lambda src, text: None)
        walked = [_outcome(text) for text in mutants]
    for text, left, right in zip(mutants, with_pattern, walked):
        assert left == right, text
    failed = sum(isinstance(outcome[0], str) for outcome in walked)
    assert read.count(True) > 150 and failed > 300, (read.count(True), failed)


def test_an_entry_body_that_nests_too_deep_fails_its_file_on_both_paths():
    """The pattern reads the file, and it and the token walk raise the same
    error, at the first character of the entry point that holds the body."""
    text = HAZARDS["deep entry body"][0]
    error = ("d.sol:3:5: nesting too deep", 3, 5)
    assert _read_and_walked("d.sol", text) == (error, error)
    assert _outcome(text, "d.sol") == error
