"""Run a full sweep on a gaussian-reference regression instance.

Writes results/demo_sweep.csv and results/demo_sweep.json, then prints a
compact per-factor table of both solutions' mean risks and the identities
that tie them together.

Usage:
    python scripts/demo_sweep.py
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from entrisk.experiment import (
    ExperimentConfig,
    emit_csv,
    emit_summary_json,
    generate_instance,
    lambda_grid,
    sweep_records,
    sweep_summary,
)

CONFIG = {
    "predictor": "linear_regression",
    "loss": "squared",
    "grid_min": [-1.5],
    "grid_max": [1.5],
    "grid_resolution": [61],
    "reference": "gaussian",
    "reference_mean": [0.0],
    "reference_scale": 0.5,
    "dataset": "synthetic",
    "true_model": [0.9],
    "noise": 0.15,
    "n": 40,
    "data_seed": 2024,
    "lambda_min": 1e-3,
    "lambda_max": 1e3,
    "lambda_count": 13,
    "output_csv": "results/demo_sweep.csv",
    "output_json": "results/demo_sweep.json",
    "seed": 0,
}


def main() -> None:
    cfg = ExperimentConfig.from_dict(CONFIG, base_dir=ROOT)
    (ROOT / "results").mkdir(exist_ok=True)
    q, data, profile = generate_instance(cfg)
    records = sweep_records(q, profile, lambda_grid(cfg))
    emit_csv(records, ROOT / CONFIG["output_csv"])
    summary = sweep_summary(cfg, records, q, data, profile)
    emit_summary_json(summary, ROOT / CONFIG["output_json"])

    print(f"instance: {q.num_atoms} atoms, {data.n} data points")
    print(f"{'lambda':>10} {'risk_1':>10} {'risk_2':>10} {'k_bar':>12} "
          f"{'identity':>9} {'margin':>9} {'t2 gap':>9}")
    for r in records:
        print(f"{r.lam:10.4g} {r.risk_type1:10.5f} {r.risk_type2:10.5f} "
              f"{r.k_bar_type2:12.6f} {r.identity_gap:9.1e} "
              f"{r.bound_margin:9.2e} {r.theorem2_gap:9.1e}")
    print("invariants:", {k: v for k, v in summary["invariants"].items()})
    print(f"wrote {CONFIG['output_csv']} and {CONFIG['output_json']}")


if __name__ == "__main__":
    main()
