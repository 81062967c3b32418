"""Every module of ``src/bxkit`` reads each name it imports.

A name imported and never read is what a deleted concept leaves behind.
A name counts as read where it appears as a name node anywhere in the
module, annotations included.  ``__init__.py`` imports to re-export and
``from __future__`` imports are directives, so neither is checked.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bxkit"

# (module, name) -> why the name is imported although the module never reads it.
ALLOWED = {
    ("laws.py", "diff"): "bench/tracing.py hooks bxkit.laws.diff to count the diffs of a run",
    ("classify.py", "LawReport"): "named only in string annotations, imported under TYPE_CHECKING",
}


def _unread_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def _modules():
    return sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def test_the_check_finds_an_unread_import():
    source = "from __future__ import annotations\nimport os, os.path as p\nimport a.b\nfrom x import y, z as w\n"
    assert _unread_imports(source + "a.b.c(y)\n") == {"os", "p", "w"}
    assert _unread_imports(source + "def f(v: w) -> p: return os, a, y\n") == set()


@pytest.mark.parametrize("path", _modules(), ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_reads(path):
    unread = _unread_imports(path.read_text(encoding="utf-8"))
    assert {name for name in unread if (path.name, name) not in ALLOWED} == set()


def test_each_allowed_unread_import_is_still_unread():
    assert len(_modules()) > len(ALLOWED)
    for module, name in ALLOWED:
        assert name in _unread_imports((SRC / module).read_text(encoding="utf-8")), (module, name)
