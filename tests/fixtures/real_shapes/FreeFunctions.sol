// SPDX-License-Identifier: MIT
pragma solidity ^0.8.19;

type UD60x18 is uint256;

error PRBMath_MulDiv_Overflow(uint256 x, uint256 y, uint256 denominator);

uint256 constant UNIT = 1e18;
uint256 constant MAX_UD60x18 = 115792089237316195423570985008687907853269984665640564039457584007913129639935;

using {add, mul} for UD60x18 global;

function wrap(uint256 x) pure returns (UD60x18 result) {
    result = UD60x18.wrap(x);
}

function unwrap(UD60x18 x) pure returns (uint256 result) {
    result = UD60x18.unwrap(x);
}

function add(UD60x18 x, UD60x18 y) pure returns (UD60x18 result) {
    result = wrap(x.unwrap() + y.unwrap());
}

function mul(UD60x18 x, UD60x18 y) pure returns (UD60x18 result) {
    result = wrap(mulDiv18(x.unwrap(), y.unwrap()));
}

function mulDiv18(uint256 x, uint256 y) pure returns (uint256 result) {
    uint256 prod0;
    uint256 prod1;
    assembly ("memory-safe") {
        let mm := mulmod(x, y, not(0))
        prod0 := mul(x, y)
        prod1 := sub(sub(mm, prod0), lt(mm, prod0))
    }
    if (prod1 == 0) {
        unchecked {
            return prod0 / UNIT;
        }
    }
    if (prod1 >= UNIT) {
        revert PRBMath_MulDiv_Overflow(x, y, UNIT);
    }
    result = prod0;
}

contract Calculator {
    function scale(uint256 x) external pure returns (uint256) {
        return mul(wrap(x), wrap(2e18)).unwrap();
    }
}
