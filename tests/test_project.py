import itertools
import random

import pytest

from solscout.config import shipped_whitelist_path
from solscout.errors import SoliditySyntaxError, SolscoutError
from solscout.frontend import enumerate_functions, index_contracts, parse_source, parse_text
from solscout.project import (
    DEFAULT_EXCLUDED_SEGMENTS,
    SignatureSet,
    canonical_signature,
    discover_sources,
    filter_openzeppelin,
    inherited_names,
    load_signature_set,
)

from helpers import whitelist_survivors


def make_tree(tmp_path, files):
    for rel, content in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")
    return str(tmp_path)


def test_discover_excludes_vendored_dirs(tmp_path):
    root = make_tree(tmp_path, {
        "src/A.sol": "contract A {}",
        "node_modules/B.sol": "contract B {}",
    })
    layout = discover_sources(root)
    assert [s.path for s in layout.included] == ["src/A.sol"]
    assert layout.excluded == [("node_modules/B.sol", "node_modules")]


def test_discover_empty_directory(tmp_path):
    layout = discover_sources(str(tmp_path))
    assert layout.included == []
    assert layout.excluded == []


def test_discover_test_segment(tmp_path):
    root = make_tree(tmp_path, {"contracts/test/T.sol": "contract T {}"})
    layout = discover_sources(root)
    assert layout.excluded == [("contracts/test/T.sol", "test")]


def test_discover_is_case_insensitive_and_partitions(tmp_path):
    root = make_tree(tmp_path, {
        "contracts/Core.sol": "contract Core {}",
        "contracts/Mocks/Fake.sol": "contract Fake {}",
        "LIB/Vendored.sol": "contract V {}",
        "contracts/util.sol": "contract U {}",
        "contracts/notsol.txt": "ignore me",
    })
    layout = discover_sources(root)
    sol_count = 4
    assert len(layout.included) + len(layout.excluded) == sol_count
    assert {p for p, _ in layout.excluded} == {"contracts/Mocks/Fake.sol", "LIB/Vendored.sol"}


def test_discover_strips_utf8_bom(tmp_path):
    bad = tmp_path / "Bom.sol"
    bad.write_bytes(b"\xef\xbb\xbfcontract Bom { function f() public {} }")
    layout = discover_sources(str(tmp_path))
    assert [s.path for s in layout.included] == ["Bom.sol"]
    assert layout.included[0].text.startswith("contract")
    (fn,) = enumerate_functions(parse_source(layout.included[0]))
    assert fn.source() == "function f() public {}"


def test_discover_unreadable_file(tmp_path):
    root = make_tree(tmp_path, {"A.sol": "contract A {}"})
    bad = tmp_path / "B.sol"
    bad.write_bytes(b"\xff\xfe\x00 invalid \xff utf8")
    layout = discover_sources(root)
    assert ("B.sol", "io-error") in layout.excluded


def test_discover_missing_root():
    with pytest.raises(IOError):
        discover_sources("/nonexistent/definitely/missing")


def _fn(src, name):
    return next(f for f in enumerate_functions(parse_text(src)) if f.name == name)


def test_canonical_signature_paper_example():
    fn = _fn("contract ERC20 { function transfer(address to, uint256 amount) public {} }",
             "transfer")
    assert canonical_signature(fn, "ERC20") == "public ERC20.transfer(address,uint256)"


def test_canonical_signature_private_and_arrays():
    fn = _fn("contract C { function f() private {} }", "f")
    assert canonical_signature(fn, "C") == "private C.f()"
    fn = _fn("contract D is Base { function g(uint256[] memory a) external {} }", "g")
    assert canonical_signature(fn, "Base") == "external Base.g(uint256[])"


def test_whitelist_file_roundtrip(tmp_path):
    path = tmp_path / "wl.txt"
    path.write_text(
        "# comment\n\npublic ERC20.transfer(address,uint256)\n"
        "internal SafeMath.add(uint256,uint256)\n",
        encoding="utf-8",
    )
    wl = load_signature_set(str(path))
    assert len(wl) == 2
    assert "public ERC20.transfer(address,uint256)" in wl


def test_whitelist_rejects_bad_lines(tmp_path):
    path = tmp_path / "wl.txt"
    path.write_text("not a signature\n", encoding="utf-8")
    with pytest.raises(SolscoutError):
        load_signature_set(str(path))


def parsed(src):
    unit = parse_text(src)
    return enumerate_functions(unit), index_contracts([unit])


def test_filter_removes_exact_whitelisted():
    fns, index = parsed(
        "contract ERC20 { function transfer(address to, uint256 a) public {} }"
    )
    wl = SignatureSet(entries={"public ERC20.transfer(address,uint256)"})
    assert filter_openzeppelin(fns, wl, index) == []


def test_filter_empty_whitelist_is_identity():
    fns, index = parsed("contract C { function f() public {} function g() public {} }")
    assert filter_openzeppelin(fns, SignatureSet(entries=set()), index) == fns


def test_filter_matches_via_inherited_base_name():
    """Oracle: enumerate all (contract, base) signature pairs by brute force."""
    src = """
        contract MyToken is ERC20 {
            function transfer(address to, uint256 amount) public {}
            function custom(uint256 x) public {}
        }
    """
    fns, index = parsed(src)
    wl = SignatureSet(entries={"public ERC20.transfer(address,uint256)"})

    # independent oracle: brute-force all (fn, name) pairs
    all_names = {"MyToken", "ERC20"}
    expected_dropped = {
        fn.name
        for fn, name in itertools.product(fns, all_names)
        if canonical_signature(fn, name) in wl.entries
    }
    assert expected_dropped == {"transfer"}

    survivors = filter_openzeppelin(fns, wl, index)
    assert [f.name for f in survivors] == ["custom"]


def test_filter_transitive_base_chain():
    src = """
        contract Mid is ERC20 { function helper() public {} }
        contract Leaf is Mid { function transfer(address t, uint256 a) public {} }
    """
    fns, index = parsed(src)
    wl = SignatureSet(entries={"public ERC20.transfer(address,uint256)"})
    survivors = filter_openzeppelin(fns, wl, index)
    assert [f.name for f in survivors] == ["helper"]


def test_filter_idempotent_and_monotone():
    src = """
        contract ERC20 {
            function transfer(address to, uint256 a) public {}
            function mine() public {}
            function extra(uint256 x) public {}
        }
    """
    fns, index = parsed(src)
    small = SignatureSet(entries={"public ERC20.transfer(address,uint256)"})
    large = SignatureSet(entries={
        "public ERC20.transfer(address,uint256)",
        "public ERC20.extra(uint256)",
    })
    once = filter_openzeppelin(fns, small, index)
    assert filter_openzeppelin(once, small, index) == once
    assert set(f.name for f in filter_openzeppelin(fns, large, index)) <= set(f.name for f in once)


def test_default_exclusion_set_contents():
    assert {"node_modules", "test", "tests", "mock", "mocks",
            "lib", "openzeppelin", "uniswap", "pancakeswap"} == set(DEFAULT_EXCLUDED_SEGMENTS)


def test_whitelist_keeps_what_the_per_function_check_keeps(scanned_sources):
    """Building signatures only for whitelisted names drops the same functions
    as building every named function's, with the shipped whitelist and with
    one that lists a sample of each project's own functions."""
    shipped = load_signature_set(shipped_whitelist_path())
    rng = random.Random(5)
    dropped = 0
    for name, files in scanned_sources.items():
        units = []
        for path, text in files:
            try:
                units.append(parse_text(text, path))
            except SoliditySyntaxError:
                pass
        fns = [fn for unit in units for fn in enumerate_functions(unit)]
        index = index_contracts(units)
        sample = {canonical_signature(fn, rng.choice(sorted(inherited_names(fn, index))))
                  for fn in rng.sample(fns, min(40, len(fns)))}
        # a name another function has under another contract, and no name at all
        sample |= {"public Elsewhere.deposit(uint256)", "public ERC20.()"}
        for whitelist in (shipped, SignatureSet(entries=sample)):
            survivors = filter_openzeppelin(fns, whitelist, index)
            assert survivors == whitelist_survivors(fns, whitelist, index), name
            dropped += len(fns) - len(survivors)
    assert dropped > 100
