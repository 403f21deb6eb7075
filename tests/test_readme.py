"""The README runs, and every check, threshold and name it cites is the code's."""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import re
import tokenize
from pathlib import Path

import entrisk
from entrisk import experiment, logrisk, type2

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = README.parent / "src" / "entrisk"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("__"))


def section(heading: str) -> str:
    """The README's text under ``## heading``, up to the next heading of level two."""
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def quick_start() -> str:
    """The fenced Python block under the README's "## Library quick start" heading."""
    return re.search(r"```python\n(.*?)```", section("Library quick start"), re.DOTALL).group(1)


def test_quick_start_prints_its_commented_values():
    code = quick_start()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[:2] == ["0.7071067811865475", "[0.70710678 0.29289322]"]
    # The comments state the same values.
    assert "# 0.7071067811865475\n" in code and "# [0.70710678 0.29289322]\n" in code
    assert abs(float(lines[3])) < 1e-15  # the Theorem-2 gap, "~1e-16"


#: A row of the README's invariant table: its name and its bound.
TABLE_ROW = re.compile(r"^\| `([^`]+)` \| ([^|]+?) \| ", re.MULTILINE)


def test_invariant_table_lists_every_check_with_its_threshold():
    rows = experiment.invariant_checks([], 0.0) + experiment.optimality_checks(None, "x")
    # A floored check reports its smallest value ("min=..."); every other bounded one is capped.
    expected = [(c.name, None if c.threshold is None else
                 ("> " if c.detail.startswith("min") else "≤ ", c.threshold)) for c in rows]
    expected += [("type2.DEFAULT_TOL", ("≤ ", type2.DEFAULT_TOL)),
                 ("logrisk.NORMALIZATION_TOL", ("≤ ", logrisk.NORMALIZATION_TOL))]
    table = []
    for name, bound in TABLE_ROW.findall(section("Invariants")):
        if bound == "—":
            table.append((name, None))
        else:
            assert bound[:2] in ("≤ ", "> "), bound
            table.append((name, (bound[:2], float(bound[2:]))))
    assert table == expected


#: The first cell of a row of the README's config schema table.
SCHEMA_KEYS = re.compile(r"^\| (`[^|]+`) \| ", re.MULTILINE)


def test_config_schema_names_every_key_once():
    schema = section("Command line").split("\n### Config schema\n", 1)[1].split("\n### ", 1)[0]
    names = [name for cell in SCHEMA_KEYS.findall(schema) for name in re.findall(r"`(\w+)`", cell)]
    assert sorted(names) == sorted(experiment._KNOWN_KEYS)


#: A backticked ``module.name`` of the package, as the README cites it.
README_CITE = re.compile(r"`(%s)\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)" % "|".join(MODULES))

#: A cross-reference role of a docstring or ``#:`` comment.
ROLE = re.compile(r":(?:func|data|class|meth):`~?([\w.]+)`")


def resolves(target: str, *scopes) -> bool:
    """Whether the dotted ``target`` names an attribute of one of ``scopes``, or of ``entrisk``."""
    parts = target.split(".")
    if parts[0] == "entrisk":
        scopes, parts = (entrisk,), parts[1:]
    for scope in scopes:
        obj = scope
        for part in parts:
            obj = getattr(obj, part, None)
        if obj is not None:
            return True
    return False


def test_readme_cites_only_names_that_exist():
    cites = [(mod, name) for mod, name in README_CITE.findall(README.read_text(encoding="utf-8"))
             if name != "py"]  # a file name such as `cli.py`
    assert len(cites) > 30
    missing = [f"{mod}.{name}" for mod, name in cites
               if not resolves(name, importlib.import_module(f"entrisk.{mod}"))]
    assert missing == []


def docstring_targets(path: Path):
    """Each role target in ``path``'s docstrings and comments, with the scopes it may resolve in.

    A target inside a class resolves in that class too, as ``:meth:`scores```
    does in a method of ``PredictorSpec``.
    """
    module = importlib.import_module(f"entrisk.{path.stem}")
    source = path.read_text(encoding="utf-8")

    def visit(node, scopes):
        if isinstance(node, ast.ClassDef) and isinstance(scopes[0], type(entrisk)):
            scopes = (getattr(module, node.name),) + scopes
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            for target in ROLE.findall(ast.get_docstring(node, clean=False) or ""):
                yield target, scopes
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scopes)

    yield from visit(ast.parse(source), (module,))
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            for target in ROLE.findall(token.string):
                yield target, (module,)


def test_docstring_cross_references_resolve():
    targets = [(path.name, target, scopes) for path in sorted(PACKAGE.glob("*.py"))
               if path.stem != "__main__" for target, scopes in docstring_targets(path)]
    assert len(targets) > 100
    assert [f"{name}: {target}" for name, target, scopes in targets
            if not resolves(target, *scopes)] == []


def test_golden_regeneration_runs_existing_tests():
    block = re.search(r"\*\*Regenerating goldens\.\*\*.*?```bash\n(.*?)```",
                      README.read_text(encoding="utf-8"), re.DOTALL).group(1)
    node_ids = [word for line in block.splitlines() if line.startswith("pytest")
                for word in line.split() if "::" in word]
    assert node_ids
    for node_id in node_ids:
        path, *names = node_id.split("::")
        scope = ast.parse((README.parent / path).read_text(encoding="utf-8"))
        for name in names:
            scope = next((n for n in scope.body if getattr(n, "name", None) == name), None)
            assert scope is not None, node_id
