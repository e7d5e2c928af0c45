// SPDX-License-Identifier: MIT
pragma solidity ^0.8.20;

import "@openzeppelin/contracts/token/ERC20/ERC20.sol";
import "@openzeppelin/contracts/access/AccessControl.sol";
import "@openzeppelin/contracts/security/Pausable.sol";
import "@openzeppelin/contracts/security/ReentrancyGuard.sol";

/// @title Mintable, pausable token with roles
contract Token is ERC20("Token", "TK"), AccessControl, Pausable, ReentrancyGuard {
    bytes32 public constant MINTER_ROLE = keccak256("MINTER_ROLE");
    bytes32 public constant PAUSER_ROLE = keccak256("PAUSER_ROLE");
    bytes32 private constant PERMIT_TYPEHASH =
        keccak256("Permit(address owner,address spender,uint256 value,uint256 nonce,uint256 deadline)");
    bytes32 public immutable DOMAIN_SEPARATOR = keccak256(abi.encode(keccak256("EIP712Domain(string name,uint256 chainId)"), keccak256(bytes("Token")), block.chainid));

    mapping(address => uint256) public nonces;
    mapping(address => mapping(uint256 => bool)) public usedClaims;
    uint256 public cap = 1_000_000 ether;

    event Claimed(address indexed account, uint256 indexed id, uint256 amount);
    error CapExceeded(uint256 requested, uint256 cap);

    constructor(address admin) {
        _grantRole(DEFAULT_ADMIN_ROLE, admin);
        _grantRole(MINTER_ROLE, admin);
        _grantRole(PAUSER_ROLE, admin);
    }

    function mint(address to, uint256 amount) external onlyRole(MINTER_ROLE) whenNotPaused {
        if (totalSupply() + amount > cap) revert CapExceeded(amount, cap);
        _mint(to, amount);
    }

    function pause() external onlyRole(keccak256("PAUSER_ROLE")) {
        _pause();
    }

    function unpause() external onlyRole(PAUSER_ROLE) {
        _unpause();
    }

    function claim(uint256 id, uint256 amount, bytes calldata signature) external nonReentrant whenNotPaused {
        require(!usedClaims[msg.sender][id], "claimed");
        bytes32 digest = keccak256(abi.encodePacked("\x19\x01", DOMAIN_SEPARATOR, keccak256(abi.encode(msg.sender, id, amount))));
        require(_recover(digest, signature) != address(0), "bad signature");
        usedClaims[msg.sender][id] = true;
        _mint(msg.sender, amount);
        emit Claimed(msg.sender, id, amount);
    }

    function _recover(bytes32 digest, bytes memory signature) internal pure returns (address signer) {
        bytes32 r;
        bytes32 s;
        uint8 v;
        assembly {
            r := mload(add(signature, 0x20))
            s := mload(add(signature, 0x40))
            v := byte(0, mload(add(signature, 0x60)))
        }
        signer = ecrecover(digest, v, r, s);
    }

    function supportsInterface(bytes4 interfaceId) public view virtual override(AccessControl) returns (bool) {
        return super.supportsInterface(interfaceId);
    }

    function _beforeTokenTransfer(address from, address to, uint256 amount) internal virtual whenNotPaused {
        from; to; amount;
    }
}
