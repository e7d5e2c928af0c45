"""Every function, class, method and property in ``src/solscout`` has a reader.

A definition counts as read when its name is referred to outside its own
body somewhere in ``src/``, ``bench/`` or ``demo/``, or in
``tests/helpers.py``, through which the bench and the demo author their
transcripts. A reference is a name, an attribute, or a string that is a
(dotted) identifier, as in a dispatch table or a traced layer's name.
Imports and ``__all__`` entries are not references: code that only the
other tests call belongs in ``tests/helpers.py``.
"""

import ast
import os
import re
from collections import Counter

from conftest import ROOT

PACKAGE = os.path.join(ROOT, "src", "solscout")
READERS = [os.path.join(ROOT, name) for name in ("src", "bench", "demo", "tests/helpers.py")]

# definitions only the standard library calls, by protocol
CALLED_BY_THE_STANDARD_LIBRARY = {
    # io.BufferedReader reads a raw stream through these, and http.client
    # asks its socket for makefile()
    "transport._NestedTls.readable",
    "transport._NestedTls.readinto",
    "transport._NestedTls.makefile",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _python_files(top):
    if os.path.isfile(top):
        yield top
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith((".", "__")))
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def _references(tree) -> Counter:
    """How often each name is referred to in ``tree``."""
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(id(n) for n in ast.walk(node.value))
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            counts[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in exported and _DOTTED.fullmatch(node.value)):
            counts.update(node.value.split("."))
    return counts


def _definitions(tree, module):
    """(qualified name, name, node) of each module-level def and class, and their members."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield f"{module}.{node.name}.{member.name}", member.name, member


def _unread(package=PACKAGE, readers=READERS):
    """The qualified names of the definitions in ``package`` that ``readers`` never refer to."""
    everywhere = Counter()
    for top in readers:
        for path in _python_files(top):
            everywhere += _references(_parse(path))
    unread = []
    for path in _python_files(package):
        module = os.path.splitext(os.path.relpath(path, package))[0].replace(os.sep, ".")
        for qualified, name, node in _definitions(_parse(path), module):
            if name.startswith("__") and name.endswith("__"):
                continue  # called by the language
            if everywhere[name] - _references(node)[name] <= 0:
                unread.append(qualified)
    return unread


def test_every_definition_in_the_package_has_a_reader():
    unread = _unread()
    assert sorted(set(unread) - CALLED_BY_THE_STANDARD_LIBRARY) == []
    # an allow-list entry that is read after all, or gone, is taken out
    assert sorted(CALLED_BY_THE_STANDARD_LIBRARY - set(unread)) == []


def test_a_definition_read_only_by_itself_or_an_import_is_found(tmp_path):
    package = tmp_path / "solscout"
    package.mkdir()
    (package / "m.py").write_text(
        "__all__ = ['exported']\n"
        "def used(): return recursive(1)\n"
        "def recursive(n): return recursive(n - 1) if n else 0\n"
        "def exported(): pass\n"
        "class K:\n"
        "    def method(self): return self.method()\n"
        "    def by_name(self): pass\n"
        "TABLE = {'x': 'by_name'}\n", encoding="utf-8")
    reader = tmp_path / "reader.py"
    reader.write_text("from solscout.m import exported, used\nused()\n", encoding="utf-8")
    assert _unread(str(package), [str(package), str(reader)]) == \
        ["m.exported", "m.K", "m.K.method"]
