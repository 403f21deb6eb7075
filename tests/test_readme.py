"""The README's library quick start runs against the current API and prints what it says."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    """The fenced Python block under the README's "## Library quick start" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library quick start\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


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
