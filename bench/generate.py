"""Seeded benchmark inputs with known truth.

Each workload gets a project directory, an oracle transcript authored
with the pipeline's own prompt builders (``tests/helpers.build_transcript``)
and a ``truth.json`` listing the (rule, function, verdict) triple every
scan must report. The same seed always gives byte-identical files; a
different seed changes constants, names and order but never the amount
of work, so timings of different seeds are comparable.

Run as a script to generate one workload::

    python3 bench/generate.py --workload dense-graph --seed 3 --out /tmp/in
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import use_checkout  # noqa: E402

WORKLOADS = ("wide-parse", "dense-graph", "record-latency")

FILLER_FUNCTIONS = 20  # per filler file, as in the acceptance corpus
WIDE_FILLER_FILES = 300  # 5x the acceptance corpus's 60
RECORD_FILLER_FILES = 60  # the acceptance corpus at 1x
DENSE_FILES = 240
DENSE_KINDS = (  # (kind, vulnerable) of each file's public functions
    ("deposit", True), ("deposit", False), ("stake", True), ("stake", False),
) * 2

# Same token shape as tests/corpus.FILLER_FUNCTION; constants are seeded
# but of fixed width so every seed lexes and parses the same work.
FILLER_FUNCTION = """    function shuffle{j}(uint256 seed) internal returns (uint256) {{
        uint256 acc = seed + {a};
        for (uint256 i = 0; i < {b}; i++) {{
            acc = acc * {c} + i;
        }}
        if (acc > {d}) {{
            acc = acc % {e};
        }}
        return acc;
    }}
"""


def _num(rng: random.Random) -> int:
    return rng.randrange(100, 1000)


def filler_source(index: int, rng: random.Random) -> str:
    order = list(range(FILLER_FUNCTIONS))
    rng.shuffle(order)
    body = "".join(
        FILLER_FUNCTION.format(j=j, a=_num(rng), b=rng.randrange(2, 10),
                               c=_num(rng), d=_num(rng), e=_num(rng))
        for j in order
    )
    return f"pragma solidity ^0.8.0;\n\ncontract Filler{index} {{\n{body}}}\n"


def _write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ----------------------------------------------------------------------
# dense call graph: public functions each calling three shared helpers

DENSE_HEADER = """pragma solidity ^0.8.0;

contract Dense{i} {{
    uint256 public totalSupply;
    uint256 internal lastSync;
    uint256 internal conversion = {conv};
    mapping(address => uint256) public stakes;
    mapping(address => uint256) internal balances;
    mapping(address => uint256) internal lastTouch;

    function checkpoint(address user) internal {{
        lastTouch[user] = block.number;
    }}

    function _sync(uint256 value) internal returns (uint256) {{
        lastSync = block.number;
        return value / {div};
    }}

    function _credit(address account, uint256 value) internal {{
        balances[account] += value;
    }}
"""

DEPOSIT_VULNERABLE = """
    function deposit{j}(uint256 amount) public {{
        checkpoint(msg.sender);
        uint256 pool = _sync(amount + {k});
        uint256 shares = 0;
        if (totalSupply == 0) {{
            shares = amount;
        }} else {{
            shares = amount * totalSupply / pool;
        }}
        _credit(msg.sender, shares);
    }}
"""

DEPOSIT_SAFE = """
    function deposit{j}(uint256 amount) public {{
        checkpoint(msg.sender);
        uint256 pool = _sync(amount + {k});
        uint256 supplyCache = totalSupply;
        uint256 shares = amount * conversion + pool;
        _credit(msg.sender, shares);
    }}
"""

STAKE_VULNERABLE = """
    function withdraw{j}(uint256 amount) public {{
        stakes[msg.sender] -= amount;
        checkpoint(msg.sender);
        uint256 fee = _sync(amount + {k});
        _credit(msg.sender, amount - fee);
    }}
"""

STAKE_SAFE = """
    function withdraw{j}(uint256 amount) public {{
        checkpoint(msg.sender);
        stakes[msg.sender] -= amount;
        uint256 fee = _sync(amount + {k});
        _credit(msg.sender, amount - fee);
    }}
"""

DEPOSIT_RECOGNITION = {
    "VariableA": ("shares", "total minted share"),
    "VariableB": ("totalSupply", "total supply checked for zero"),
    "VariableC": ("amount", "deposit amount"),
}
STAKE_RECOGNITION = {
    "CheckpointStatement": ("checkpoint", "invokes the user checkpoint"),
    "UpdateStatement": ("stakes[msg.sender] -= amount;", "stake update"),
}
TEMPLATES = {
    ("deposit", True): DEPOSIT_VULNERABLE,
    ("deposit", False): DEPOSIT_SAFE,
    ("stake", True): STAKE_VULNERABLE,
    ("stake", False): STAKE_SAFE,
}


def dense_project(root: str, rng: random.Random) -> list:
    """Write the dense corpus; returns (rule, fid, vulnerable, recognition) cases."""
    cases = []
    for i in range(DENSE_FILES):
        kinds = list(DENSE_KINDS)
        rng.shuffle(kinds)
        parts = [DENSE_HEADER.format(i=i, conv=rng.randrange(2, 10), div=_num(rng))]
        for j, (kind, vulnerable) in enumerate(kinds):
            parts.append(TEMPLATES[kind, vulnerable].format(j=j, k=_num(rng)))
            if kind == "deposit":
                cases.append(("risky-first-deposit", f"Dense{i}.deposit{j}",
                              vulnerable, DEPOSIT_RECOGNITION))
            else:
                cases.append(("wrong-checkpoint-order", f"Dense{i}.withdraw{j}",
                              vulnerable, STAKE_RECOGNITION))
        parts.append("}\n")
        _write(os.path.join(root, "contracts", f"Dense{i}.sol"), "".join(parts))
    return cases


# ----------------------------------------------------------------------


def _author(root: str, cases: list, transcript_path: str) -> None:
    """Oracle transcript: Yes for seeded cases, scenario No for the rest."""
    from helpers import ScriptedAnswers, replay_config, write_transcript

    answers = ScriptedAnswers(default_scenario=False)
    for rule_id, fid, _vulnerable, recognition in cases:
        answers.scenario[rule_id, fid] = True
        answers.property[rule_id, fid] = True
        answers.recognition[rule_id, fid] = recognition
    write_transcript(replay_config(root, transcript_path), answers, transcript_path)


def generate(workload: str, seed: int, out: str) -> dict:
    """Write ``out/project``, ``out/transcript.jsonl`` and ``out/truth.json``."""
    use_checkout()
    from corpus import build_corpus, write_corpus

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    root = os.path.join(out, "project")
    transcript_path = os.path.join(out, "transcript.jsonl")

    if workload == "dense-graph":
        cases = dense_project(root, rng)
        _author(root, cases, transcript_path)
    else:
        cases = [(c.rule_id, c.fid, c.vulnerable, c.recognition)
                 for c in build_corpus(variants=3)]
        write_corpus(root, build_corpus(variants=3))
        # Fillers hold only uncalled internal functions: they add no
        # candidates and no call edges, so the oracle is authored before
        # they are written. A scan that disagrees fails the truth gate.
        _author(root, cases, transcript_path)
        fillers = WIDE_FILLER_FILES if workload == "wide-parse" else RECORD_FILLER_FILES
        for i in range(fillers):
            _write(os.path.join(root, "contracts", f"Filler{i}.sol"), filler_source(i, rng))

    truth = {
        "workload": workload,
        "seed": seed,
        "verdicts": sorted(
            [rule_id, fid, "confirmed" if vulnerable else "rejected"]
            for rule_id, fid, vulnerable, _rec in cases
        ),
    }
    _write(os.path.join(out, "truth.json"), json.dumps(truth, indent=1) + "\n")
    return truth


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    truth = generate(args.workload, args.seed, args.out)
    print(json.dumps({"verdicts": len(truth["verdicts"])}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
