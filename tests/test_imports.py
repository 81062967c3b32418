"""Every module of ``src/bxkit`` reads each name it imports, and the
modules keep their layers.

A name imported and never read is what a deleted concept leaves behind.
A name counts as read where it appears as a name node anywhere in the
module, annotations included.  ``__init__.py`` imports to re-export and
``from __future__`` imports are directives, so neither is checked.

Every public module-level function and class of ``src/bxkit`` is read
somewhere in ``src/bxkit``, ``demos/`` or ``bench/``, besides its own
definition and its export from ``__init__.py``: one that only tests read
repeats an operator or is left over.  The entry points tests call by
design are listed with their reasons.

The layers: ``values`` imports no bxkit module and ``scheme`` only
``values``, imports inside functions included, so the algebra knows
nothing of laws, verdicts or text.  Only ``laws`` builds a
``Counterexample``.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bxkit"

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


# Public definition -> why nothing in src/bxkit, demos/ or bench/ reads it.
_PINNED = "a per-law entry point whose signature and docstring tests/golden_verdicts.txt pins"
UNREAD_ALLOWED = {
    **{f"check_{law}": _PINNED for law in (
        "stability", "invertibility", "undoability", "history_ignorance", "correctness",
        "hippocraticness", "least_update", "totality", "safety", "convergence",
    )},
    "audit_incidence": "the incidence audit's entry point, exported for callers of the library",
    "parse_path": "the path grammar's parser, exported beside parse_value, parse_update and parse_trace",
}


def _unread_definitions(sources: dict[str, str], defining: set[str]) -> set[str]:
    """The public functions and classes defined at module level in the
    modules named in ``defining`` that no statement of ``sources`` reads as
    a name or an attribute, other than the definition itself."""
    defined, read = set(), set()
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            own = None
            if module in defining and isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                own = statement.name
                if not own.startswith("_"):
                    defined.add(own)
            for node in ast.walk(statement):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name is not None and name != own:
                    read.add(name)
    return defined - read


def _readers() -> dict[str, str]:
    paths = _modules() + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    return {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8") for path in paths}


def test_the_check_finds_an_unread_definition():
    sources = {
        "a.py": "class A: pass\ndef f(): return f()\ndef g(): return A\ndef _h(): pass\n",
        "b.py": "import a\na.g()\ndef f(): pass\n",
    }
    assert _unread_definitions(sources, {"a.py"}) == {"f"}
    assert _unread_definitions(sources, {"a.py", "b.py"}) == {"f"}
    assert _unread_definitions({**sources, "c.py": "x = f"}, {"a.py"}) == set()


def test_every_public_definition_is_read_outside_the_tests():
    readers = _readers()
    defining = {name for name in readers if name.startswith("src/")}
    assert len(defining) == len(_modules())
    assert _unread_definitions(readers, defining) == set(UNREAD_ALLOWED)


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
