import random

from solscout.filters import apply_filters, candidates_for_rule, directive_passes
from solscout.frontend import strip_comments
from solscout.rules import ContextPolicy, parse_rule

from conftest import fixture_path
from helpers import parse_text


def rule_with(filters, rule_id="t"):
    return parse_rule("mem", {
        "schema": 1,
        "id": rule_id,
        "title": rule_id,
        "scenarios": ["s"],
        "property": "p",
        "filters": filters,
    })


def fn_from(src, name=None):
    fns = parse_text(src).functions
    if name is None:
        return fns[0]
    return next(f for f in fns if f.name == name)


def test_fcce_matches_first_deposit_deposit_body():
    with open(fixture_path("first_deposit", "contracts", "Vault.sol"), encoding="utf-8") as fh:
        src = fh.read()
    deposit = fn_from(src, "deposit")
    rule = rule_with([{"kind": "FCCE", "combinations": [["total", "supply"], ["total", "liquidity"]]}])
    assert apply_filters(deposit, rule) is None


def test_payloads_are_normalized_when_the_rule_loads():
    rule = rule_with([
        {"kind": "FNK", "keywords": ["DoTransfer"]},
        {"kind": "FCE", "expressions": ["TotalSupply"]},
        {"kind": "FCCE", "combinations": [["Total", "SUPPLY"]]},
        {"kind": "FPT", "types": ["UInt 256", "ADDRESS"]},
    ])
    assert [d.payload for d in rule.filters] == [
        ["dotransfer"], ["totalsupply"], [["total", "supply"]], ["uint256", "address"],
    ]
    fn = fn_from("contract C { function doTransfer(address payable to, uint256 a) public "
                 "{ x = totalSupply(); } }")
    assert apply_filters(fn, rule) is None


def test_fnk_fails_without_keyword():
    fn = fn_from("contract C { function swap() public { } }")
    rule = rule_with([{"kind": "FNK", "keywords": ["transfer", "mint"]}])
    assert apply_filters(fn, rule) == ("FNK", ["transfer", "mint"])


def test_fce_ignores_comments():
    """Oracle: strip comments first, then brute-force substring search."""
    src = """contract C {
        function f() public {
            // totalSupply in comment only
            x = 1;
        }
    }"""
    fn = fn_from(src)
    stripped_body = fn.body_text().lower()
    assert ("totalsupply" in stripped_body) is False  # independent substring oracle
    rule = rule_with([{"kind": "FCE", "expressions": ["totalSupply"]}])
    assert apply_filters(fn, rule) is not None

    live = src.replace("// totalSupply in comment only", "y = totalSupply();")
    assert apply_filters(fn_from(live), rule) is None


def test_fnk_matches_name_not_body():
    fn = fn_from("contract C { function doTransferHelper() public { swap(); } }")
    assert directive_passes(fn, "FNK", ["transfer"], set())
    assert not directive_passes(fn, "FNK", ["swap"], set())


def test_fce_matches_body_not_name_or_modifiers():
    fn = fn_from("contract C { function transferAll() public onlyRole { x = 1; } }")
    assert not directive_passes(fn, "FCE", ["transfer"], set())
    assert not directive_passes(fn, "FCE", ["onlyrole"], set())


def test_fpt_contains_all_types():
    fn = fn_from("contract C { function f(address to, uint256 amount) public {} }")
    assert directive_passes(fn, "FPT", ["address"], set())
    assert directive_passes(fn, "FPT", ["address", "uint256"], set())
    assert not directive_passes(fn, "FPT", ["bytes32"], set())


def test_fpnc_requires_public():
    pub = fn_from("contract C { function f() public {} }")
    ext = fn_from("contract C { function f() external {} }")
    assert directive_passes(pub, "FPNC", None, set())
    assert not directive_passes(ext, "FPNC", None, set())


def test_fnm_rejects_acl_modifiers():
    fn = fn_from("contract C { function f() public onlyOwner {} }")
    assert not directive_passes(fn, "FNM", None, {"onlyOwner"})
    assert directive_passes(fn, "FNM", None, {"onlyAdmin"})


def test_directives_and_semantics_first_failure_recorded():
    fn = fn_from("contract C { function mint(address to) public { x = 1; } }")
    rule = rule_with([
        {"kind": "FNK", "keywords": ["mint"]},
        {"kind": "FCE", "expressions": ["nothere"]},
        {"kind": "FPT", "types": ["bytes32"]},
    ])
    assert apply_filters(fn, rule) == ("FCE", ["nothere"])


def test_order_independence_of_passed():
    fn = fn_from("contract C { function mint(address to) public { x = 1; } }")
    directives = [
        {"kind": "FNK", "keywords": ["mint"]},
        {"kind": "FCE", "expressions": ["nothere"]},
    ]
    a = apply_filters(fn, rule_with(directives)) is None
    b = apply_filters(fn, rule_with(list(reversed(directives)))) is None
    assert a == b is False


def test_candidates_preserve_source_order_and_policy():
    src = """
        contract C {
            function a() public { checkpoint(); }
            function b() public { nothing(); }
            function c() public { userCheckpoint(x); }
        }
    """
    fns = parse_text(src).functions
    rule = rule_with([{"kind": "FCE", "expressions": ["checkpoint"]}, {"kind": "CFN"}])
    picked = candidates_for_rule(fns, rule)
    assert [fn.name for fn in picked] == ["a", "c"]
    assert rule.context_policy == ContextPolicy(False, True)


def test_candidates_empty_input():
    rule = rule_with([{"kind": "FCE", "expressions": ["x"]}])
    assert candidates_for_rule([], rule) == []


def test_candidates_synthetic_bruteforce():
    """Oracle: brute-force substring scan over 10 synthetic functions."""
    bodies = [
        "a = totalSupply();",          # total+supply
        "b = total + supply;",         # total+supply
        "c = totalAmount;",            # total only
        "d = supplyCap;",              # supply only
        "e = liquidity;",              # neither
        "f = tot; g = sup;",           # neither
        "h = theTotalSupplyOf;",       # total+supply
        "i = 1;",
        "j = totals;",
        "k = resupply;",
    ]
    src = "contract C {" + "".join(
        f"function f{i}() public {{ {body} }}" for i, body in enumerate(bodies)
    ) + "}"
    fns = parse_text(src).functions
    rule = rule_with([{"kind": "FCCE", "combinations": [["total", "supply"]]}])

    stripped = [strip_comments(body).lower() for body in bodies]
    expected = [f"f{i}" for i, body in enumerate(stripped)
                if "total" in body and "supply" in body]
    assert expected == ["f0", "f1", "f6"]
    picked = [fn.name for fn in candidates_for_rule(fns, rule)]
    assert picked == expected


def _random_body(rng):
    words = ["total", "supply", "liquidity", "swap", "x", "tot", "alpha", "supplyCap"]
    parts = [rng.choice(words) for _ in range(rng.randrange(0, 6))]
    return " ".join(f"{w} = 1;" for w in parts)


def test_fcce_fcnce_de_morgan_randomized():
    """FCCE(S) passes iff FCNCE(S) fails, for >= 1000 random cases."""
    rng = random.Random(1234)
    vocabulary = ["total", "supply", "liq", "swap", "zz", "min"]
    for _ in range(1000):
        body = _random_body(rng)
        fn = fn_from("contract C { function f() public { %s } }" % body)
        combos = [
            [rng.choice(vocabulary) for _ in range(rng.randrange(1, 3))]
            for _ in range(rng.randrange(1, 4))
        ]
        fcce = directive_passes(fn, "FCCE", combos, set())
        fcnce = directive_passes(fn, "FCNCE", combos, set())
        assert fcce != fcnce, (body, combos)
