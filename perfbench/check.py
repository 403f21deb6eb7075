"""Correctness checks on the outputs of one benchmark run.

Sweep runs are checked three ways: the command's JSON summary (every
invariant flag true, ``rows_ok == rows == lambda_count``), and every CSV row
recomputed here in plain numpy from the instance arrays: the Type-1 log
normalizer as a log-sum-exp, the Type-2 normalization residual
``|sum q*lam/(k_bar+L) - 1|``, and the Type-2 mean risk against both the
recomputed weights and ``lam - k_bar``. Verify runs are checked by their
check lines, which must all read ``pass``.

Each check uses a tolerance the package's own invariant suite uses
(``THRESHOLDS``); ``recompute_rows`` documents the one place where a
rounding allowance is added on top.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

#: Invariant thresholds of the package's sweep summary and verify command.
THRESHOLDS = {
    "identity_gap": 1e-9,
    "theorem2_gap": 1e-9,
    "residual": 1e-12,
    "bound_margin": 0.0,
}

#: The verify command's check lines, all of which must be present and pass.
VERIFY_CHECKS = (
    "residual_le_1e-12",
    "identity_gap_le_1e-9",
    "bound_margin_positive",
    "theorem2_gap_le_1e-9",
    "k_bar_strictly_increasing",
    "support_collapse",
    "type1_optimality_fuzz",
    "type2_optimality_fuzz",
)


def check_sweep_summary(stdout: str, lambda_count: int) -> list[str]:
    """Problems with a sweep's JSON summary line; empty when it is correct."""
    lines = stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
        flags, rows, rows_ok = summary["invariants"], summary["rows"], summary["rows_ok"]
    except (IndexError, ValueError, KeyError, TypeError):
        return ["sweep printed no JSON summary"]
    problems = [f"invariant {name} is false" for name, ok in sorted(flags.items()) if ok is not True]
    if not rows == rows_ok == lambda_count:
        problems.append(f"rows={rows} rows_ok={rows_ok} lambda_count={lambda_count}")
    return problems


def parse_verify(stdout: str) -> dict[str, tuple[bool, str]]:
    """Check name -> (passed, detail) from the verify command's output."""
    checks = {}
    for line in stdout.splitlines():
        marker, _, rest = line.partition(" ")
        if marker in ("pass", "FAIL"):
            name, _, detail = rest.partition(" ")
            checks[name] = (marker == "pass", detail.strip("()"))
    return checks


def check_verify(stdout: str) -> list[str]:
    """Problems with a verify run's check lines; empty when all pass."""
    checks = parse_verify(stdout)
    problems = [f"check {name} missing" for name in VERIFY_CHECKS if name not in checks]
    problems += [f"check {name} failed" for name, (ok, _) in checks.items() if not ok]
    return problems


def parse_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def recompute_rows(
    rows: list[dict[str, str]], q_weights: np.ndarray, risks: np.ndarray, lambdas: np.ndarray
) -> list[str]:
    """Recompute every sweep CSV row from the instance arrays.

    ``q_weights`` and ``risks`` are the reference weights and per-atom risks
    in support order. Returns one problem string per failed check.

    The CSV stores ``k_bar`` rounded to a double, so ``k_bar + delta_star``
    (the solver's pole gap) is known here only to about two ulps of the
    larger of the two. The recomputed residual may therefore exceed the 1e-12
    threshold by ``|g'(k_bar)|`` times that error, plus a few ulps of 1 for
    rounding the weights. The log normalizer is compared at the identity
    tolerance, relative to its magnitude when above 1.
    """
    problems = []
    if len(rows) != len(lambdas):
        return [f"CSV has {len(rows)} rows, expected {len(lambdas)}"]
    log_q = np.log(q_weights)
    delta_star = float(risks.min())
    shifted = risks - delta_star
    for i, (row, lam) in enumerate(zip(rows, lambdas), start=1):
        where = f"row {i}"
        if row["status"] != "ok":
            problems.append(f"{where}: status {row['status']}")
            continue
        got_lam = float(row["lambda"])
        if abs(got_lam - lam) > 1e-12 * lam:
            problems.append(f"{where}: lambda {got_lam} != {lam}")
        k1, k_bar = float(row["k_type1"]), float(row["k_bar_type2"])
        risk2 = float(row["risk_type2"])

        logits = log_q - risks / got_lam
        top = float(logits.max())
        k1_ref = top + math.log(float(np.exp(logits - top).sum()))
        if not abs(k1 - k1_ref) <= THRESHOLDS["identity_gap"] * max(1.0, abs(k1_ref)):
            problems.append(f"{where}: k_type1 {k1!r} != log-sum-exp {k1_ref!r}")

        pole_gap = k_bar + delta_star
        if not pole_gap > 0.0:
            problems.append(f"{where}: k_bar {k_bar!r} at or below the pole {-delta_star!r}")
            continue
        denom = pole_gap + shifted
        weights = q_weights * got_lam / denom
        residual = abs(math.fsum(weights) - 1.0)
        slope = float((weights / denom).sum())
        rounding = 2.0 * math.ulp(max(abs(k_bar), delta_star, pole_gap))
        allowed = THRESHOLDS["residual"] + slope * rounding + 8.0 * math.ulp(1.0)
        if not residual <= allowed:
            problems.append(f"{where}: residual {residual:.3g} above {allowed:.3g}")

        risk2_ref = float((weights * risks).sum() / weights.sum())
        tol = THRESHOLDS["identity_gap"]
        if not abs(risk2 - risk2_ref) <= tol:
            problems.append(f"{where}: risk_type2 {risk2!r} != recomputed {risk2_ref!r}")
        if not abs(risk2 - (got_lam - k_bar)) <= tol:
            problems.append(f"{where}: risk_type2 {risk2!r} != lambda - k_bar")
    return problems


def invariant_worst(rows: list[dict[str, str]]) -> dict[str, float]:
    """Worst value of each invariant over the CSV rows (max gaps, min margin)."""
    def column(name: str) -> list[float]:
        return [float(r[name]) for r in rows]

    return {
        "identity_gap": max(column("identity_gap")),
        "theorem2_gap": max(column("theorem2_gap")),
        "residual": max(column("residual")),
        "bound_margin": min(column("bound_margin")),
    }


def verify_worst(stdout: str) -> dict[str, float]:
    """The same worst values, as the verify command prints them (3 digits)."""
    details = {name: detail for name, (_, detail) in parse_verify(stdout).items()}
    worst = {}
    for key, check in (("identity_gap", "identity_gap_le_1e-9"),
                       ("theorem2_gap", "theorem2_gap_le_1e-9"),
                       ("residual", "residual_le_1e-12"),
                       ("bound_margin", "bound_margin_positive")):
        _, _, value = details.get(check, "").partition("=")
        if value:
            worst[key] = float(value)
    return worst
