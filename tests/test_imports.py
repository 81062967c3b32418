"""Every module of ``src/bxkit`` reads each name it imports, and the
modules keep their layers.

A name imported and never read is what a deleted concept leaves behind.
A name counts as read where it appears as a name node anywhere in the
module, annotations included.  ``__init__.py`` imports to re-export and
``from __future__`` imports are directives, so neither is checked.

The layers: ``values`` imports no bxkit module and ``scheme`` only
``values``, imports inside functions included, so the algebra knows
nothing of laws, verdicts or text.  Only ``laws`` builds a
``Counterexample``.
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


def _bxkit_imports(source: str) -> set[str]:
    """The bxkit modules that ``source`` imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module.split(".")[0]] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bxkit."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("bxkit."))
    return found


def _constructs(source: str, name: str) -> bool:
    """Whether ``source`` calls ``name``, bare or as an attribute."""
    return any(
        isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == name or getattr(node.func, "attr", None) == name)
        for node in ast.walk(ast.parse(source))
    )


def test_the_layer_checks_find_a_crossing():
    source = "from .values import a\nimport bxkit.grammar\n"
    source += "def f():\n    from . import verdict\n    return v.Counterexample()\n"
    assert _bxkit_imports(source) == {"values", "grammar", "verdict"}
    assert _constructs(source, "Counterexample") and not _constructs(source, "Fails")


@pytest.mark.parametrize("module, allowed", [("values.py", set()), ("scheme.py", {"values"})])
def test_the_algebra_imports_only_the_layers_below_it(module, allowed):
    assert _bxkit_imports((SRC / module).read_text(encoding="utf-8")) <= allowed


def test_only_the_law_checker_builds_a_counterexample():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert {name for name, source in sources.items() if _constructs(source, "Counterexample")} == {"laws.py"}
