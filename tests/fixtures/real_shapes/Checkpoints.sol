// SPDX-License-Identifier: MIT
pragma solidity ^0.8.0;

library Checkpoints {
    struct Checkpoint {
        uint32 fromBlock;
        uint224 votes;
    }

    function push(
        Checkpoint[] storage ckpts,
        function(uint256, uint256) view returns (uint256) op,
        uint256 delta
    ) internal returns (uint256 oldWeight, uint256 newWeight) {
        uint256 pos = ckpts.length;
        oldWeight = pos == 0 ? 0 : ckpts[pos - 1].votes;
        newWeight = op(oldWeight, delta);
        ckpts.push(Checkpoint({fromBlock: uint32(block.number), votes: uint224(newWeight)}));
    }
}

contract Votes {
    using Checkpoints for Checkpoints.Checkpoint[];

    mapping(address => Checkpoints.Checkpoint[]) private _checkpoints;
    function(uint256, uint256) pure returns (uint256) internal combine = _add;

    function _add(uint256 a, uint256 b) private pure returns (uint256) {
        return a + b;
    }

    function delegate(address to, uint256 amount) external {
        _checkpoints[to].push(_add, amount);
    }
}
