// SPDX-License-Identifier: MIT
pragma solidity ^0.8.20;

import {ERC4626} from "@openzeppelin/contracts/token/ERC20/extensions/ERC4626.sol";
import {ERC20} from "@openzeppelin/contracts/token/ERC20/ERC20.sol";
import {IERC20, SafeERC20} from "@openzeppelin/contracts/token/ERC20/utils/SafeERC20.sol";
import {Ownable} from "@openzeppelin/contracts/access/Ownable.sol";
import {Math} from "@openzeppelin/contracts/utils/math/Math.sol";

contract Vault is ERC4626, Ownable {
    using SafeERC20 for IERC20;
    using Math for uint256;

    struct Strategy {
        address target;
        uint96 debtRatio;
        uint128 totalDebt;
        uint64 lastReport;
    }

    mapping(address => Strategy) public strategies;
    mapping(address => mapping(address => uint256)) public pendingWithdrawals;
    address[] public queue;
    uint256 public constant MAX_BPS = 10_000;
    uint256 public performanceFee = 1_000;

    event StrategyAdded(address indexed strategy, uint256 debtRatio);
    event Harvested(address indexed strategy, uint256 gain, uint256 loss);

    constructor(IERC20 asset_, address owner_)
        ERC4626(asset_)
        ERC20(string(abi.encodePacked("Vault ", ERC20(address(asset_)).name())), string.concat("v", "1"))
        Ownable(owner_)
    {}

    function totalAssets() public view override returns (uint256 assets) {
        assets = IERC20(asset()).balanceOf(address(this));
        for (uint256 i = 0; i < queue.length; i++) {
            assets += strategies[queue[i]].totalDebt;
        }
    }

    function addStrategy(address strategy, uint96 debtRatio) external onlyOwner {
        require(strategies[strategy].target == address(0), "exists");
        strategies[strategy] = Strategy({target: strategy, debtRatio: debtRatio, totalDebt: 0, lastReport: uint64(block.timestamp)});
        queue.push(strategy);
        emit StrategyAdded(strategy, debtRatio);
    }

    function harvest(address strategy, uint256 gain, uint256 loss) external onlyOwner {
        Strategy storage s = strategies[strategy];
        if (gain > 0) {
            uint256 fee = gain.mulDiv(performanceFee, MAX_BPS);
            _mint(owner(), convertToShares(fee));
        }
        if (loss > 0) {
            s.totalDebt -= uint128(loss);
        }
        s.lastReport = uint64(block.timestamp);
        emit Harvested(strategy, gain, loss);
    }

    function requestWithdrawal(address token, uint256 amount) external {
        pendingWithdrawals[msg.sender][token] += amount;
    }

    function sweep(address token, address to) external onlyOwner {
        require(token != asset(), "asset");
        IERC20(token).safeTransfer(to, IERC20(token).balanceOf(address(this)));
    }
}
