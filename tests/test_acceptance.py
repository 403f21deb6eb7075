"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

from __future__ import annotations

import json
import math
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from entrisk.cli import cli_main
from entrisk.experiment import (
    ExperimentConfig,
    generate_instance,
    grid_argmin_outside_support,
    outside_profile,
)
from entrisk.logrisk import log_risk_profile, verify_theorem2
from entrisk.measures import exact_row_sums, tv_rows
from entrisk.type1 import solve_type1, type1_objective_rows
from entrisk.type2 import solve_type2, support_escape_slope, type2_objective_rows

from conftest import (
    random_pipeline_instance,
    random_solver_instance,
    three_atom_instance,
    two_atom_instance,
)

FIXTURES = Path(__file__).parent / "fixtures"

LAMBDA_SWEEP = np.logspace(-3.0, 3.0, 20)
LAMBDA_SWEEP[0] = 1e-3
LAMBDA_SWEEP[-1] = 1e3


def report(number: int, description: str, ok: bool) -> None:
    marker = "PASS" if ok else "FAIL"
    print(f"[{marker}] criterion {number}: {description}")


@pytest.fixture(scope="module")
def sweep_results():
    """Shared 200-instance x 20-factor sweep used by criteria 3 through 6."""
    rng = np.random.default_rng(424242)
    rows = []
    start = time.perf_counter()
    for i in range(200):
        scale = 20.0 if i % 4 == 0 else 5.0
        q, prof = random_solver_instance(rng, max_atoms=40, risk_scale=scale)
        risks = prof.aligned(q)
        delta_star = float(risks.min())
        max_risk = float(risks.max())
        k_prev = -math.inf
        for lam in LAMBDA_SWEEP:
            lam = float(lam)
            sol = solve_type2(q, prof, lam)
            risk = math.fsum((sol.weights * risks).tolist())
            rows.append(
                {
                    "lam": lam,
                    "delta_star": delta_star,
                    "max_risk": max_risk,
                    "k_bar": sol.k_bar,
                    "k_prev": k_prev,
                    "residual": sol.residual,
                    "risk": risk,
                    "identity_gap": abs(risk - (lam - sol.k_bar)),
                }
            )
            k_prev = sol.k_bar
    elapsed = time.perf_counter() - start
    return rows, elapsed


def test_criterion_01_two_atom_quadratic_oracle():
    q, prof = two_atom_instance()
    analytic_root = math.sqrt(0.5)  # positive root of 2 b^2 = 1
    sol = solve_type2(q, prof, 1.0)
    k_ok = abs(sol.k_bar - analytic_root) <= 1e-9
    w_ok = (
        abs(float(sol.weights[0]) - 0.707107) <= 1e-6
        and abs(float(sol.weights[1]) - 0.292893) <= 1e-6
    )
    for _ in range(5):  # warm-up
        solve_type2(q, prof, 1.0)
    runtime = math.inf
    for _ in range(20):
        t0 = time.perf_counter()
        solve_type2(q, prof, 1.0)
        runtime = min(runtime, time.perf_counter() - t0)
    time_ok = runtime < 1e-3
    ok = k_ok and w_ok and time_ok
    report(1, f"two-atom k_bar/weights/runtime ({runtime * 1e6:.0f} us)", ok)
    assert k_ok and w_ok
    assert time_ok, f"single solve took {runtime:.6f}s"


def test_criterion_02_three_atom_cubic_oracle():
    q, prof = three_atom_instance()
    f = lambda b: 3.0 * b**3 + 6.0 * b**2 - 2.0
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    oracle = 0.5 * (lo + hi)
    sol = solve_type2(q, prof, 1.0)
    ok = abs(sol.k_bar - oracle) <= 1e-9
    report(2, f"three-atom k_bar vs cubic bisection (|diff|={abs(sol.k_bar - oracle):.2e})", ok)
    assert ok


def test_criterion_03_mean_risk_identity(sweep_results):
    rows, elapsed = sweep_results
    worst = max(r["identity_gap"] for r in rows)
    ok = worst <= 1e-9 and elapsed < 10.0
    report(3, f"identity gap <= 1e-9 on 200x20 sweep (worst {worst:.2e}, {elapsed:.2f}s)", ok)
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_04_risk_bound_strict(sweep_results):
    rows, _ = sweep_results
    ok = all(r["risk"] < r["lam"] + r["delta_star"] for r in rows)
    margin = min(r["lam"] + r["delta_star"] - r["risk"] for r in rows)
    report(4, f"strict bound risk < lam + delta_star (min margin {margin:.2e})", ok)
    assert ok


def test_criterion_05_normalizer_monotone_and_continuous(sweep_results):
    rows, _ = sweep_results
    increasing = all(
        r["k_bar"] > r["k_prev"] for r in rows if math.isfinite(r["k_prev"])
    )
    rng = np.random.default_rng(997)
    continuous = True
    worst_rel = 0.0
    for _ in range(20):
        q, prof = random_solver_instance(rng, max_atoms=30)
        for lam in LAMBDA_SWEEP:
            lam = float(lam)
            a = solve_type2(q, prof, lam).k_bar
            b = solve_type2(q, prof, lam * (1.0 + 1e-6)).k_bar
            bound = 1e-4 * (1.0 + abs(a))
            worst_rel = max(worst_rel, abs(b - a) / bound)
            continuous = continuous and abs(b - a) <= bound
    ok = increasing and continuous
    report(5, f"k_bar strictly increasing; finite-difference continuity (worst ratio {worst_rel:.2e})", ok)
    assert increasing
    assert continuous


def test_criterion_06_normalizer_range(sweep_results):
    rows, _ = sweep_results
    above_pole = all(r["k_bar"] > -r["delta_star"] for r in rows)
    # Closed-interval range check; 1e-12-scaled slack absorbs the one-ulp
    # difference between the solver's and the test's rounding of lam - max L.
    def slack(x: float) -> float:
        return 1e-12 * (1.0 + abs(x))

    in_interval = all(
        r["lam"] - r["max_risk"] - slack(r["k_bar"]) <= r["k_bar"] <= r["lam"] - r["delta_star"] + slack(r["k_bar"])
        for r in rows
    )
    ok = above_pole and in_interval
    report(6, "every solve succeeded; k_bar above pole and inside [lam-maxL, lam-delta*]", ok)
    assert above_pole
    assert in_interval


def test_criterion_07_equivalence_of_directions():
    rng = np.random.default_rng(31337)
    worst_gap = 0.0
    worst_logz = 0.0
    for _ in range(50):
        q, _, prof = random_pipeline_instance(rng)
        lam = float(10.0 ** rng.uniform(-2.0, 2.0))
        sol = solve_type2(q, prof, lam)
        _, gap = verify_theorem2(q, prof, sol)
        worst_gap = max(worst_gap, gap)
        values = log_risk_profile(q, prof, sol)
        log_total = math.log(lam * math.fsum(q.weights * np.exp(-values)))
        worst_logz = max(worst_logz, abs(log_total))
    ok = worst_gap <= 1e-9 and worst_logz <= 1e-10
    report(
        7,
        f"cross-solver weight gap <= 1e-9 (worst {worst_gap:.2e}); "
        f"log-partition identity <= 1e-10 (worst {worst_logz:.2e})",
        ok,
    )
    assert worst_gap <= 1e-9
    assert worst_logz <= 1e-10


def test_criterion_08_optimality_against_random_measures():
    rng = np.random.default_rng(777)
    ok = True
    for _ in range(20):
        q, prof = random_solver_instance(rng, max_atoms=8)
        lam = float(10.0 ** rng.uniform(-1.5, 1.5))
        risks = prof.aligned(q)
        # One block of 1,000 draws takes the stream of 1,000 single draws, and
        # each row is normalized as make_measure normalizes a single draw.
        draws = rng.dirichlet(np.ones(q.num_atoms), size=1000)
        draws /= exact_row_sums(draws)[:, None]
        for sol, objective_rows in ((solve_type2(q, prof, lam), type2_objective_rows),
                                    (solve_type1(q, prof, lam), type1_objective_rows)):
            best = objective_rows(sol.weights[None], q.weights, risks, lam)[0]
            far = tv_rows(draws, sol.weights) > 1e-9
            ok = ok and bool(np.all(objective_rows(draws[far], q.weights, risks, lam) > best))
        if not ok:
            break
    report(8, "solutions strictly beat 1000 random measures per instance, both directions", ok)
    assert ok


def test_criterion_09_support_escape_slope():
    cfg = ExperimentConfig.from_dict(
        {
            "predictor": "linear_regression",
            "loss": "squared",
            "grid_min": [-1.0],
            "grid_max": [1.0],
            "grid_resolution": [21],
            "reference": "restricted",
            "reference_box_min": [-1.0],
            "reference_box_max": [0.0],
            "dataset": "synthetic",
            "true_model": [0.8],
            "noise": 0.05,
            "n": 30,
            "data_seed": 12,
            "lambda_min": 1.0,
            "lambda_max": 1.0,
            "lambda_count": 1,
            "seed": 0,
        }
    )
    q, data, profile = generate_instance(cfg)
    misspecified = grid_argmin_outside_support(cfg, q, data, profile)

    # The atoms outside supp(Q) carry the risks escaped mass would pay.
    sol = solve_type2(q, profile, 1.0)
    slope = support_escape_slope(outside_profile(cfg, q, data), sol)
    collapse = bool(np.all(sol.weights > 0.0))
    ok = misspecified and slope > 0.0 and collapse
    report(9, f"escape strictly penalized (slope {slope:.6f} > 0); support collapses", ok)
    assert misspecified, "constructed instance must have its grid argmin outside supp(Q)"
    assert slope > 0.0
    assert collapse


def test_criterion_10_reproducible_sweep(tmp_path):
    for name in ("two_atom_config.json", "two_atom_data.csv"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    cfg_path = str(tmp_path / "two_atom_config.json")
    assert cli_main(["sweep", "--config", cfg_path]) == 0
    first = (tmp_path / "two_atom_sweep.csv").read_bytes()
    assert cli_main(["sweep", "--config", cfg_path]) == 0
    second = (tmp_path / "two_atom_sweep.csv").read_bytes()
    identical = first == second
    golden = first == (FIXTURES / "two_atom_sweep_golden.csv").read_bytes()
    ok = identical and golden
    report(10, "sweep CSV byte-identical across runs and equal to committed golden", ok)
    assert identical
    assert golden
