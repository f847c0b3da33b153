"""Every module of the package uses each name it imports.

A deletion tends to leave an import behind (``suppress``, ``compress``,
``itemgetter``); this reads each module's syntax tree with the standard
library's ``ast`` and fails on any imported name the module never reads.
``__init__`` is exempt: it imports names to re-export them, so its
``__all__`` must list exactly the names it imports, each once.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import pmfiber

MODULES = sorted(p for p in Path(pmfiber.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = {
        (alias.asname or alias.name).split(".")[0]: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "from itertools import chain, compress\nimport re as _re\n\nprint(list(chain([1])))\n"
    assert _unused_imports(source) == [(1, "compress"), (2, "_re")]


def _export_problems(source: str):
    """(imported but not in __all__, in __all__ but not imported, listed twice)."""
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    (listed,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["__all__"]
    ]
    twice = sorted({name for name in listed if listed.count(name) > 1})
    return sorted(set(imported) - set(listed)), sorted(set(listed) - set(imported)), twice


def test_package_exports_exactly_what_it_imports():
    source = (Path(pmfiber.__file__).parent / "__init__.py").read_text(encoding="utf-8")
    assert _export_problems(source) == ([], [], [])


def test_a_stale_or_missing_export_is_found():
    source = "from .a import kept, unlisted\n\n__all__ = ['kept', 'gone', 'kept']\n"
    assert _export_problems(source) == (["unlisted"], ["gone"], ["kept"])


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """``import pmfiber.cli`` in a fresh isolated interpreter adds neither
    ``dataclasses`` nor ``inspect`` (with ``ast``, ``dis`` and ``tokenize``
    behind it) to ``sys.modules``: every command is one process, and that
    import alone costs it about 8 ms of start-up.  Modules loaded before
    the import (whatever ``site`` brings) do not count."""
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); import pmfiber.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    src = str(Path(pmfiber.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-I", "-c", probe, src], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
