"""Project discovery and well-known-library function exclusion.

Finds a project's own ``.sol`` files (vendored/test directories are
skipped by path segment), and drops functions whose canonical signature
matches a whitelist of audited library APIs so they are never flagged.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field

from .errors import SolscoutError
from .frontend import FunctionRecord, SourceFile

DEFAULT_EXCLUDED_SEGMENTS = frozenset({
    "node_modules", "test", "tests", "mock", "mocks",
    "lib", "openzeppelin", "uniswap", "pancakeswap",
})

_SIGNATURE_RE = re.compile(
    r"^(public|external|internal|private)\s+[A-Za-z_$][\w$]*\.[\w$]*\([^()]*\)$"
)

_LOCATION_RE = re.compile(r"\b(memory|storage|calldata|payable)\b")


@dataclass
class ProjectLayout:
    root: str
    included: list = field(default_factory=list)  # SourceFile
    excluded: list = field(default_factory=list)  # (relpath, reason)


@dataclass
class SignatureSet:
    entries: set
    source: str = ""

    def __contains__(self, sig: str) -> bool:
        return sig in self.entries

    def __len__(self) -> int:
        return len(self.entries)


def discover_sources(root: str, excluded_segments=DEFAULT_EXCLUDED_SEGMENTS) -> ProjectLayout:
    """Collect every .sol file under root into included/excluded lists.

    A file is excluded when any directory segment of its path (relative
    to root, case-insensitive) is in ``excluded_segments``; the matched
    segment is recorded as the reason. Unreadable files get "io-error".
    """
    if not os.path.isdir(root):
        raise IOError(f"project root not readable: {root}")
    segments = {s.lower() for s in excluded_segments}
    layout = ProjectLayout(root=root)
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for fname in sorted(filenames):
            if not fname.endswith(".sol"):
                continue
            full = os.path.join(dirpath, fname)
            rel = os.path.relpath(full, root).replace(os.sep, "/")
            reason = _excluded_segment(rel, segments)
            if reason is not None:
                layout.excluded.append((rel, reason))
                continue
            try:
                # utf-8-sig: a leading BOM never reaches the lexer
                with open(full, "r", encoding="utf-8-sig") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError):
                layout.excluded.append((rel, "io-error"))
                continue
            layout.included.append(SourceFile(path=rel, text=text))
    return layout


def _excluded_segment(relpath: str, segments: set) -> str | None:
    parts = relpath.split("/")[:-1]  # directory segments only
    for part in parts:
        if part.lower() in segments:
            return part.lower()
    return None


def canonical_signature(fn: FunctionRecord, as_contract: str) -> str:
    """``<visibility> <Contract>.<name>(<type>,<type>)`` — no param names."""
    types = ",".join(_canonical_type(t) for t, _ in fn.params)
    return f"{fn.visibility} {as_contract}.{fn.name}({types})"


def _canonical_type(type_text: str) -> str:
    cleaned = _LOCATION_RE.sub(" ", type_text)
    return re.sub(r"\s+", "", cleaned)


def load_signature_set(path: str) -> SignatureSet:
    """Whitelist file format: one canonical signature per line, # comments."""
    entries = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if not _SIGNATURE_RE.match(line):
                raise SolscoutError(
                    f"{path}:{lineno}: bad whitelist signature: {line!r}"
                )
            entries.add(line)
    return SignatureSet(entries=entries, source=path)


def inherited_names(fn: FunctionRecord, contracts_by_name: dict) -> set[str]:
    """The function's own contract name plus every (transitive) base name.

    ``contracts_by_name`` is ``frontend.index_contracts``'s index; a name
    declared more than once follows its first definition. Bases not
    defined in the project still contribute their literal name, which is
    exactly what catches inlined library code: a project contract
    ``MyToken is ERC20`` matches whitelist entries written against ERC20.
    """
    names = set()
    stack = [fn.contract]
    while stack:
        name = stack.pop()
        if name in names:
            continue
        names.add(name)
        defs = contracts_by_name.get(name)
        if defs:
            stack.extend(defs[0].bases)
    return names


def filter_openzeppelin(functions: list, whitelist: SignatureSet,
                        contracts_by_name: dict) -> list:
    """Drop functions whose signature (under any inherited name) is whitelisted.

    A signature is built only for a function whose name some whitelist
    entry has; no other function can match one.
    """
    if not whitelist.entries:
        return list(functions)
    # '<visibility> <Contract>.<name>(...)': a contract name holds no '.'
    names = {entry.partition(".")[2].partition("(")[0] for entry in whitelist.entries}
    names.discard("")  # constructors/fallbacks have no API signature
    return [fn for fn in functions
            if fn.name not in names or not any(
                canonical_signature(fn, name) in whitelist
                for name in inherited_names(fn, contracts_by_name))]
