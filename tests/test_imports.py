"""Every name that a module imports is read by it, and every private name the package defines is read.

No linter is a dependency, so this stands in for the unused-import check:
a name bound by ``import`` or ``from ... import`` in a package module, a
script or a test module must be read somewhere in its module. Names listed
in ``__all__`` count as read, and ``from __future__ import ...`` is exempt.
It also stands in for the unused-name check: a module-level ``_name`` of
the package (a function, class or assignment) must be read somewhere in
the package, so a dead helper cannot stay.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/entrisk/*.py"), *ROOT.glob("scripts/*.py"),
                  *ROOT.glob("tests/*.py")])


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, each with the line of its import."""
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(elt.value for elt in node.value.elts)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import inf, pi\n"
        "from .risk import AlignedRisks\n"
        "__all__ = ['AlignedRisks']\n"
        "x = np.zeros(1) + pi\n"
    )
    assert unused_imports(source) == ["os (line 2)", "inf (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_names(sources: dict[str, str]) -> tuple[dict[str, str], set[str]]:
    """Each module-level ``_name`` of ``sources`` (module to text) with its module, and every name read."""
    defined: dict[str, str] = {}
    read: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined.update((name, module) for name in names
                           if name.startswith("_") and not name.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return defined, read


def unused_private_names(sources: dict[str, str]) -> list[str]:
    defined, read = private_names(sources)
    return [f"{module}.{name}" for name, module in defined.items() if name not in read]


def test_the_check_finds_an_unused_private_name():
    sources = {
        "a": "_LIMIT = 3\n_A, _B = 1, 2\ndef _helper():\n    return _LIMIT\nclass _Dead:\n    pass\n",
        "b": "from .a import _helper\nx = _helper() + a._A\n",
    }
    assert unused_private_names(sources) == ["a._B", "a._Dead"]


def test_package_reads_every_private_name_it_defines():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(ROOT.glob("src/entrisk/*.py"))}
    assert len(private_names(sources)[0]) > 40
    assert unused_private_names(sources) == []
