"""scripts/compare_outputs.py: byte-identical runs and a planted last-bit change."""

from __future__ import annotations

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = "fixture/grid10_restricted/sweep"


def load():
    spec = importlib.util.spec_from_file_location("compare_outputs",
                                                  ROOT / "scripts" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def compare(parent: Path, change: Path, capsys) -> tuple[bool, list[str]]:
    """Whether the harness finds the one run :data:`RUN` identical, and its report lines."""
    harness = load()
    identical = harness.compare(parent, change, [r for r in harness.run_list(ROOT) if r[0] == RUN])
    return identical, capsys.readouterr().out.splitlines()


def test_run_list_covers_fixtures_scripts_and_workloads():
    names = [name for name, _, _ in load().run_list(ROOT)]
    assert len(names) == len(set(names)) == 3 * 4 + 2 + 4 * 3 * 2 + 3 * 2
    assert RUN in names and "script/demo_sweep" in names
    assert "workload/verify-misspecified/4242/verify" in names
    # solve on the workload whose risks tie, per atom while verify bins them.
    solves = [name for name in names if name.startswith("workload/") and "/solve" in name]
    assert solves == [f"workload/verify-misspecified/{seed}/solve{t}"
                      for seed in (1001, 7, 4242) for t in "12"]


def test_tree_against_itself_is_identical(capsys):
    identical, lines = compare(ROOT, ROOT, capsys)
    assert identical and lines == [f"identical  {RUN}", "1 of 1 runs byte-identical"]


def test_planted_last_bit_change_names_its_column(tmp_path, capsys):
    # k_bar_type2 one ulp up on every row: the CSV reports that column only,
    # and the summary the one key read from it.
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    source = tmp_path / "src" / "entrisk" / "experiment.py"
    text = source.read_text(encoding="utf-8")
    assert text.count("k_bar_type2=sol2.k_bar,") == 1
    source.write_text(text.replace("k_bar_type2=sol2.k_bar,",
                                   "k_bar_type2=math.nextafter(sol2.k_bar, math.inf),"),
                      encoding="utf-8")
    identical, lines = compare(tmp_path, ROOT, capsys)
    assert not identical
    assert lines[0] == f"differs    {RUN}" and lines[-1] == "0 of 1 runs byte-identical"
    columns = [line for line in lines if "sweep.csv" in line]
    assert len(columns) == 1 and columns[0].startswith("  sweep.csv: column k_bar_type2: moved on")
    assert float(columns[0].rsplit("max rel ", 1)[1]) <= 2.0**-52
    keys = {line.split(": ")[1] for line in lines[1:-1] if "sweep.csv" not in line}
    assert keys == {"key invariant_values.k_bar_above_pole.worst"}
