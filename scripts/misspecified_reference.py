"""Demonstrate support collapse under a misspecified reference.

The reference is restricted to a sub-box that excludes the data-generating
model, so the whole-grid empirical risk minimizer falls outside supp(Q). Both
regularization directions still place all of their mass on supp(Q). Moving
mass to an atom outside supp(Q) changes the reversed-direction objective at
the rate min_out L + k_bar: at this instance's factor the slope is positive
and escaping raises the objective, but below the threshold factor lambda*
(type2.escape_threshold, printed last) it turns negative and escaping lowers
it.

Usage:
    python scripts/misspecified_reference.py
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from entrisk.experiment import ExperimentConfig, generate_instance
from entrisk.type2 import (
    escape_threshold,
    solve_type2,
    support_escape_slope,
    type2_objective_rows,
)

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
    q, _, aligned = generate_instance(cfg)

    # The instance record holds the risks of the atoms outside supp(Q): on
    # this instance the whole-grid risk minimizers lie among them.
    outside = aligned.outside
    argmin_atoms = outside.coords[outside.risks == outside.delta_star, 0].tolist()
    print(f"reference support: {q.num_atoms} atoms in [-1, 0]")
    print(f"whole-grid risk minimizer(s) at theta = {argmin_atoms} (outside supp Q)")

    lam = 1.0
    sol = solve_type2(aligned, lam)
    # The solution's weights are aligned with q's: it charges all of supp(Q)
    # exactly when every weight is positive.
    print(f"solution support == supp(Q): {bool((sol.weights > 0.0).all())}")
    top = int(sol.weights.argmax())
    theta, weight = q.coords[top, 0], sol.weights[top]
    print(f"heaviest solution atom: theta = {theta:+.3f}, weight {weight:.4f}")

    slope = support_escape_slope(outside, sol)
    objective = type2_objective_rows(sol.weights[None], aligned.q_weights, aligned.risks, lam)[0]
    print(f"optimal objective on supp(Q):        {objective:.6f}")
    print(f"escape slope (min_out L + k_bar):    {slope:.3e}")
    print(f"escape pays below lambda* =          {escape_threshold(aligned, outside):.6f}")


if __name__ == "__main__":
    main()
