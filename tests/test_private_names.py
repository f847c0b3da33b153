"""Every private module-level name of the package has a reader.

A rewrite tends to leave a helper, or one branch's helper, with no caller
(a ``_node_minor`` or a ``_pivot`` once a loop takes its step inline).
This reads every module's syntax tree with the standard library's ``ast``
and fails on any module-level function, class or assigned name starting
with ``_`` that nothing in the package reads outside its own definition.
Public names are exempt: the package exports them.
"""

import ast
from collections import Counter
from pathlib import Path

import pmfiber

MODULES = sorted(Path(pmfiber.__file__).parent.glob("*.py"))


def _defined(stmt):
    """The private names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def _read(node):
    """Names read anywhere under ``node``: as a name, or as an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute)
    )


def _unread_private_names(sources):
    """(module, line, name) for each private top-level name of the modules
    in ``sources`` (name -> text) that no statement but its own reads."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    reads = Counter()
    for tree in trees.values():
        for stmt in tree.body:
            reads.update(_read(stmt))
    unread = []
    for module, tree in trees.items():
        for stmt in tree.body:
            own = _read(stmt)
            unread += [(module, stmt.lineno, name) for name in _defined(stmt) if reads[name] == own[name]]
    return sorted(unread)


def test_every_private_name_has_a_reader():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert _unread_private_names(sources) == []


def test_an_unread_private_name_is_found():
    sources = {
        "a.py": "def _used():\n    return _used\n\ndef _called():\n    pass\n\n_TABLE = 1\n_LEFT = 2\n",
        "b.py": "from a import _called\n\nx = _called() + _TABLE\n",
    }
    assert _unread_private_names(sources) == [("a.py", 1, "_used"), ("a.py", 8, "_LEFT")]
