"""Demonstrate support collapse under a misspecified reference.

The reference is restricted to a sub-box that excludes the data-generating
model, so the whole-grid empirical risk minimizer falls outside supp(Q). Both
regularization directions still place all of their mass on supp(Q), and every
mixture that escapes the support pays a strictly positive objective penalty.

Usage:
    python scripts/misspecified_reference.py
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from entrisk.experiment import ExperimentConfig, generate_instance, grid_profile
from entrisk.measures import check_abs_continuity
from entrisk.type2 import solve_type2, support_escape_penalty

CONFIG = {
    "predictor": "linear_regression",
    "loss": "squared",
    "grid_min": [-1.0],
    "grid_max": [1.0],
    "grid_resolution": [41],
    "reference": "restricted",
    "reference_box_min": [-1.0],
    "reference_box_max": [0.0],
    "dataset": "synthetic",
    "true_model": [0.8],
    "noise": 0.05,
    "n": 50,
    "data_seed": 7,
    "lambda_min": 1.0,
    "lambda_max": 1.0,
    "lambda_count": 1,
    "seed": 0,
}


def main() -> None:
    cfg = ExperimentConfig.from_dict(CONFIG, base_dir=ROOT)
    q, data, profile = generate_instance(cfg)

    # Whole-grid risks: supp(Q) risks come from the instance's profile, only
    # the atoms outside supp(Q) are evaluated.
    full = grid_profile(cfg, q, data, profile)
    argmin_atoms = sorted(full.coords[sorted(full.argmin_set), 0].tolist())
    print(f"reference support: {q.num_atoms} atoms in [-1, 0]")
    print(f"whole-grid risk minimizer(s) at theta = {argmin_atoms} (outside supp Q)")

    lam = 1.0
    sol = solve_type2(q, full, lam)
    print(f"solution support == supp(Q): {check_abs_continuity(sol.measure, q).mutually}")
    top = int(sol.measure.weights.argmax())
    theta, weight = sol.measure.coords[top, 0], sol.measure.weights[top]
    print(f"heaviest solution atom: theta = {theta:+.3f}, weight {weight:.4f}")

    best, optimal = support_escape_penalty(q, full, lam, alpha_grid=1000)
    print(f"optimal objective on supp(Q):        {optimal:.6f}")
    print(f"best escaped-mixture objective:      {best:.6f}")
    print(f"escape penalty (strictly positive):  {best - optimal:.3e}")


if __name__ == "__main__":
    main()
