"""A miniature multi-file project exercising the whole static front half."""

import os

from solscout.filters import candidates_for_rule
from solscout.pipeline import prepare_scan, scan
from helpers import ScriptedAnswers, replay_config, rule_for_id, write_transcript

FILES = {
    "contracts/interfaces/IStrategy.sol": """
pragma solidity ^0.8.0;

interface IStrategy {
    function harvest() external returns (uint256);
    function want() external view returns (address);
}
""",
    "contracts/Token.sol": """
pragma solidity ^0.8.0;

contract GovToken is ERC20 {
    string public name = "Gov";
    mapping(address => uint256) public balanceOf;
    uint256 public totalSupply;

    // inlined library copy: whitelisted via the inherited base name
    function transfer(address to, uint256 amount) public returns (bool) {
        balanceOf[msg.sender] -= amount;
        balanceOf[to] += amount;
        return true;
    }

    function votePower(address who) public view returns (uint256) {
        uint256 voteAmount = balanceOf[who];
        return voteAmount;
    }
}
""",
    "contracts/VaultBase.sol": """
pragma solidity ^0.8.0;

contract VaultBase {
    uint256 public totalSupply;
    uint256 internal poolBalance;
    address public owner;

    modifier onlyOwner() {
        require(msg.sender == owner, "owner");
        _;
    }

    function _sweep(address token) internal {
        poolBalance = poolBalance + 1;
    }

    function rescue(address token) public onlyOwner {
        _sweep(token);
    }
}
""",
    "contracts/Vault.sol": """
pragma solidity ^0.8.0;

import "./VaultBase.sol";

contract Vault is VaultBase {
    mapping(address => uint256) public shares;

    function deposit(uint256 amount) public {
        uint256 minted = 0;
        if (totalSupply == 0) {
            minted = amount;
        } else {
            minted = amount * totalSupply / poolBalance;
        }
        shares[msg.sender] += minted;
        totalSupply += minted;
    }
}
""",
    "node_modules/@openzeppelin/ERC20.sol": "contract ERC20 { not even valid solidity (",
    "test/VaultTest.sol": "contract VaultTest { function testAll() public {} }",
}


def write_project(tmp_path):
    for rel, content in FILES.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")
    return str(tmp_path)


def test_static_front_half(tmp_path):
    root = write_project(tmp_path / "proj")
    config = replay_config(root, str(tmp_path / "t.jsonl"), project_name="mini")
    prepared = prepare_scan(config)

    # discovery: vendored + test dirs never reach the parser
    included = {src.path for src in prepared.layout.included}
    assert included == {
        "contracts/interfaces/IStrategy.sol",
        "contracts/Token.sol",
        "contracts/Vault.sol",
        "contracts/VaultBase.sol",
    }
    excluded = dict(prepared.layout.excluded)
    assert excluded["node_modules/@openzeppelin/ERC20.sol"] == "node_modules"
    assert excluded["test/VaultTest.sol"] == "test"
    assert prepared.parse_failures == []

    # whitelist: the inlined ERC20-compatible transfer never becomes a node
    survivor_ids = {prepared.graph.id_of(fn) for fn in prepared.survivors}
    assert "GovToken.transfer" not in survivor_ids
    assert "GovToken.votePower" in survivor_ids

    # reachability: onlyOwner gate blocks rescue and its internal helper
    assert "VaultBase.rescue" in prepared.reach.blocked
    scannable_ids = {prepared.graph.id_of(fn) for fn in prepared.scannable}
    assert "VaultBase._sweep" not in scannable_ids
    assert "Vault.deposit" in scannable_ids
    # interface declarations have no body and are never scanned
    assert not any(fid.startswith("IStrategy.") for fid in scannable_ids)

    # per-rule filtering finds the expected candidates
    rfd = rule_for_id(prepared.rules, "risky-first-deposit")
    rfd_candidates = {
        prepared.graph.id_of(fn)
        for fn in candidates_for_rule(prepared.scannable, rfd, set(config.acl_modifiers))
    }
    assert "Vault.deposit" in rfd_candidates
    assert "GovToken.votePower" not in rfd_candidates


def test_full_scan_with_scripted_yes_for_vault(tmp_path):
    root = write_project(tmp_path / "proj")
    transcript_path = str(tmp_path / "t.jsonl")
    config = replay_config(root, transcript_path, project_name="mini")

    answers = ScriptedAnswers(default_scenario=False)
    key = ("risky-first-deposit", "Vault.deposit")
    answers.scenario[key] = True
    answers.property[key] = True
    answers.recognition[key] = {
        "VariableA": ("minted", "shares minted to the depositor"),
        "VariableB": ("totalSupply", "supply compared against zero"),
        "VariableC": ("amount", "the deposit amount"),
    }
    write_transcript(config, answers, transcript_path)
    config.validate()
    result = scan(config)

    assert [f.rule_id for f in result.confirmed] == ["risky-first-deposit"]
    finding = result.confirmed[0]
    assert finding.function_id == "Vault.deposit"
    assert finding.file == "contracts/Vault.sol"
    report = result.report("json")
    assert '"confirmed": 1' in report
