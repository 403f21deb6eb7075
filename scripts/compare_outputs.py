"""Compare the outputs of two entrisk checkouts, run by run.

Usage:
    python scripts/compare_outputs.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are checkouts holding ``src/entrisk`` and
``scripts/``, or their ``src`` directories. Every run of a fixed list runs once per checkout, in a fresh
``python`` process with that checkout's ``src`` on ``PYTHONPATH`` and in a
temporary directory of its own, so neither checkout is written to:

* the golden fixtures' configs (``tests/fixtures/*_config.json``): ``sweep``,
  ``verify`` and ``solve`` in both directions at ``lambda_min``;
* ``scripts/demo_sweep.py`` and ``scripts/misspecified_reference.py``, each
  checkout's own;
* the configs of ``perfbench/workloads.json`` at seeds 1001, 7 and 4242:
  ``sweep`` and ``verify``, and on the workloads of :data:`SOLVE_WORKLOADS`
  also ``solve`` in both directions at ``lambda_min``.

The fixtures and the workloads are read, never written, from CHANGE_SRC, so
both checkouts get the same inputs. A run's outputs are its exit code,
standard output and error, and every file it writes. The report names each
run whose outputs are byte-identical; for any other, the largest absolute
and relative difference of each CSV column (with the data row of the
largest) and JSON key that moved, and every output line that changed. The exit code is 0 when every run is
byte-identical, 1 otherwise.
The script itself imports only the standard library.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (1001, 7, 4242)
SCRIPTS = ("demo_sweep", "misspecified_reference")

#: Workloads whose ``solve`` runs are compared too: zero-one risks tie there,
#: so ``sweep`` and ``verify`` solve on the risk histogram while ``solve``
#: stays per atom.
SOLVE_WORKLOADS = ("verify-misspecified",)


def run_list(change: Path) -> list[tuple[str, dict | None, list[str]]]:
    """(name, config or None for a script, command arguments) of every run."""
    runs = []
    for path in sorted((change / "tests" / "fixtures").glob("*_config.json")):
        raw = json.loads(path.read_text(encoding="utf-8"))
        if "csv_path" in raw:
            raw["csv_path"] = str(path.parent / raw["csv_path"])
        name = path.name.removesuffix("_config.json")
        for label, command in _commands(raw, solve=True):
            runs.append((f"fixture/{name}/{label}", raw, command))
    for script in SCRIPTS:
        runs.append((f"script/{script}", None, [script]))
    spec = json.loads((change / "perfbench" / "workloads.json").read_text(encoding="utf-8"))
    for workload, entry in spec["workloads"].items():
        for seed in SEEDS:
            raw = dict(entry["config"], **{key: seed for key in spec["seed_fields"]})
            for label, command in _commands(raw, solve=workload in SOLVE_WORKLOADS):
                runs.append((f"workload/{workload}/{seed}/{label}", raw, command))
    return runs


def _commands(raw: dict, solve: bool) -> list[tuple[str, list[str]]]:
    """(label, command arguments): ``sweep``, ``verify`` and, with ``solve``, both directions."""
    lam = repr(float(raw["lambda_min"]))
    commands = [("sweep", ["sweep"]), ("verify", ["verify"])]
    if solve:
        commands += [(f"solve{t}", ["solve", "--lambda", lam, "--type", t]) for t in "12"]
    return commands


def execute(tree: Path, config: dict | None, command: list[str]) -> dict[str, bytes]:
    """Every output of one run on ``tree``, by name, in a fresh process and directory."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        if config is None:  # the script's ROOT is the directory its scripts/ sits in
            (work / "scripts").mkdir()
            shutil.copy(tree / "scripts" / f"{command[0]}.py", work / "scripts")
            (work / "src").symlink_to(tree / "src")
            argv = [sys.executable, str(work / "scripts" / f"{command[0]}.py")]
        else:
            raw = dict(config, output_csv="sweep.csv", output_json="summary.json")
            (work / "config.json").write_text(json.dumps(raw), encoding="utf-8")
            argv = [sys.executable, "-m", "entrisk", command[0], "--config", "config.json",
                    *command[1:]]
        done = subprocess.run(argv, cwd=work, env=env, capture_output=True, timeout=600)
        outputs = {"exit code": str(done.returncode).encode(), "stdout": done.stdout,
                   "stderr": done.stderr}
        for path in sorted(work.rglob("*")):
            if path.is_file() and not path.is_symlink() and path.suffix in (".csv", ".json") \
                    and path.name != "config.json" and "src" not in path.relative_to(work).parts:
                outputs[str(path.relative_to(work))] = path.read_bytes()
        return outputs


def _number(text) -> float | None:
    if isinstance(text, bool):
        return None
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def _moved(a, b) -> tuple[float, float] | None:
    """(absolute, relative) difference of two numeric values; None if not both numbers."""
    x, y = _number(a), _number(b)
    if x is None or y is None:
        return None
    if math.isnan(x) and math.isnan(y) or x == y:
        return 0.0, 0.0
    diff = abs(x - y)
    scale = max(abs(x), abs(y))
    return diff, (diff / scale if scale and math.isfinite(scale) else math.inf)


def _flatten(value, prefix: str = "") -> dict[str, object]:
    if isinstance(value, dict):
        return {k: v for key in sorted(value) for k, v in
                _flatten(value[key], f"{prefix}.{key}" if prefix else str(key)).items()}
    if isinstance(value, list):
        return {k: v for i, item in enumerate(value) for k, v in
                _flatten(item, f"{prefix}[{i}]").items()}
    return {prefix: value}


def _table(fields: dict[str, list]) -> list[str]:
    """One report line per field whose values moved."""
    lines = []
    for field, pairs in fields.items():
        changed = [(a, b) for a, b in pairs if a != b]
        if not changed:
            continue
        moves = [_moved(a, b) for a, b in pairs]
        if all(m is not None for m in moves):
            row = max(range(len(moves)), key=lambda i: moves[i][0])
            where = f" (row {row + 1})" if len(pairs) > 1 else ""
            lines.append(f"{field}: moved on {len(changed)} of {len(pairs)}: "
                         f"max abs {moves[row][0]:.3g}{where}, "
                         f"max rel {max(m[1] for m in moves):.3g}")
        else:
            lines.append(f"{field}: changed on {len(changed)} of {len(pairs)}")
    return lines


def describe(name: str, old: bytes, new: bytes) -> list[str]:
    """What moved between two versions of one output."""
    if name == "exit code":
        return [f"exit code {old.decode()} -> {new.decode()}"]
    old_text, new_text = old.decode("utf-8", "replace"), new.decode("utf-8", "replace")
    if name.endswith(".csv"):
        a, b = (list(csv.reader(io.StringIO(t))) for t in (old_text, new_text))
        if a[:1] != b[:1] or len(a) != len(b):
            return [f"{name}: header or row count changed ({len(a)} -> {len(b)} lines)"]
        return [f"{name}: column {line}" for line in
                _table({col: [(r[i], s[i]) for r, s in zip(a[1:], b[1:])]
                        for i, col in enumerate(a[0])})]
    try:
        a, b = json.loads(old_text), json.loads(new_text)
    except ValueError:
        a = b = None
    if a is not None or b is not None:
        flat_a, flat_b = _flatten(a), _flatten(b)
        keys = sorted(set(flat_a) | set(flat_b))
        return [f"{name}: key {line}" for line in
                _table({k: [(flat_a.get(k), flat_b.get(k))] for k in keys})]
    diff = difflib.unified_diff(old_text.splitlines(), new_text.splitlines(), lineterm="", n=0)
    return [f"{name}: {line}" for line in diff
            if line[:1] in "-+" and line[:3] not in ("---", "+++")]


def compare(parent: Path, change: Path, runs: list) -> bool:
    """Run ``runs`` (from :func:`run_list`) on both checkouts, print the report; all identical?"""
    identical = 0
    for name, config, command in runs:
        old, new = execute(parent, config, command), execute(change, config, command)
        if old == new:
            identical += 1
            print(f"identical  {name}")
            continue
        print(f"differs    {name}")
        for output in sorted(set(old) | set(new)):
            if output not in old or output not in new:
                print(f"  {output}: written by one side only")
            elif old[output] != new[output]:
                for line in describe(output, old[output], new[output]):
                    print(f"  {line}")
    print(f"{identical} of {len(runs)} runs byte-identical")
    return identical == len(runs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    parent, change = (p.parent if (p / "entrisk").is_dir() else p
                      for p in (args.parent.resolve(), args.change.resolve()))
    return 0 if compare(parent, change, run_list(change)) else 1


if __name__ == "__main__":
    sys.exit(main())
