"""Command-line front end.

Subcommands
-----------
``sweep --config PATH``
    Run the configured sweep, write the CSV report and a JSON summary.
``solve --config PATH --lambda V --type {1,2}``
    Solve one direction at one factor and print atoms and weights as JSON.
``verify --config PATH``
    Run the sweep on the configured instance, print one ``pass``/``FAIL``
    line per row of its invariant table (the rows the sweep summary reports)
    and per direction of an optimality fuzz; exit 0 iff all pass.

Exit codes: 0 success, 1 validation error, 2 solver failure, 3 I/O error.
Diagnostics go to standard error; results go to standard output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

from .errors import (
    BracketFailure,
    ConfigError,
    DimensionMismatch,
    EntriskError,
    InstanceGenerationFailure,
    InvariantViolation,
    MalformedHeader,
    NonFiniteCell,
    NonPositiveArgument,
    NonPositiveLambda,
    RowArity,
    ToleranceNotReached,
)
from .experiment import (
    ExperimentConfig,
    Invariant,
    emit_csv,
    emit_summary_json,
    generate_instance,
    grid_argmin_outside_support,
    invariant_checks,
    lambda_grid,
    optimality_fuzz,
    sweep_records,
    sweep_summary,
)
from .type1 import solve_type1
from .type2 import solve_type2

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_IO = 3

_VALIDATION_ERRORS = (
    ConfigError,
    NonPositiveLambda,
    DimensionMismatch,
    MalformedHeader,
    RowArity,
    NonFiniteCell,
)
_SOLVER_ERRORS = (
    BracketFailure,
    ToleranceNotReached,
    InvariantViolation,
    NonPositiveArgument,
    InstanceGenerationFailure,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entrisk",
        description="Entropy-regularized ERM solvers and experiment sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run the configured sweep and write reports")
    p_sweep.add_argument("--config", required=True, help="path to the JSON config")

    p_solve = sub.add_parser("solve", help="solve one direction at one factor")
    p_solve.add_argument("--config", required=True, help="path to the JSON config")
    p_solve.add_argument("--lambda", dest="lam", required=True, type=float,
                         help="regularization factor (> 0)")
    p_solve.add_argument("--type", dest="direction", required=True, choices=("1", "2"),
                         help="1: divergence of solution from reference; 2: reversed")

    p_verify = sub.add_parser("verify", help="run the invariant suite on the instance")
    p_verify.add_argument("--config", required=True, help="path to the JSON config")
    return parser


def _cmd_sweep(cfg: ExperimentConfig) -> int:
    if not cfg.output_csv:
        raise ConfigError("field 'output_csv': required by the sweep command")
    q, data, profile = generate_instance(cfg)
    records = sweep_records(q, profile, lambda_grid(cfg))
    # The summary evaluates the grid outside supp(Q), which can still fail
    # validation; nothing is written before it.
    summary = sweep_summary(cfg, records, q, data, profile)
    emit_csv(records, cfg.base_dir / cfg.output_csv)
    if cfg.output_json:
        emit_summary_json(summary, cfg.base_dir / cfg.output_json)
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK if summary["invariants"]["all_rows_ok"] else EXIT_SOLVER


def _cmd_solve(cfg: ExperimentConfig, lam: float, direction: str) -> int:
    if not lam > 0.0:
        raise NonPositiveLambda(f"field '--lambda': must be > 0, got {lam}")
    if not math.isfinite(lam):
        raise ConfigError(f"field '--lambda': must be finite, got {lam}")
    q, _, profile = generate_instance(cfg)
    if direction == "1":
        sol = solve_type1(q, profile, lam)
        extra = {"log_partition": sol.log_partition_at_minus_inv_lambda}
    else:
        sol = solve_type2(q, profile, lam)
        extra = {"k_bar": sol.k_bar, "residual": sol.residual, "iterations": sol.iterations}
    # A Gibbs tilt can underflow atoms to zero weight; those are left out,
    # so the support printed is the solution's, not all of Q's.
    charged = sol.weights > 0.0
    out = {
        "lambda": lam,
        "type": int(direction),
        "support": q.coords[charged].tolist(),
        "weights": sol.weights[charged].tolist(),
        **extra,
    }
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def _cmd_verify(cfg: ExperimentConfig) -> int:
    q, data, profile = generate_instance(cfg)
    lambdas = lambda_grid(cfg)
    records = sweep_records(q, profile, lambdas)
    checks = invariant_checks(records, float(profile.aligned(q).min()))

    # Optimality spot check at the median factor, both directions. A failed
    # solve there fails both checks and leaves the other lines to be printed.
    lam = float(lambdas[len(lambdas) // 2])
    try:
        ok1, ok2 = optimality_fuzz(q, profile, lam, cfg.seed)
        reason = ""
    except EntriskError as exc:
        ok1 = ok2 = False
        reason = type(exc).__name__
    checks.append(Invariant("type1_optimality_fuzz", None, None, ok1, reason))
    checks.append(Invariant("type2_optimality_fuzz", None, None, ok2, reason))

    print(f"info grid_argmin_outside_support: {grid_argmin_outside_support(cfg, q, data, profile)}")
    for check in checks:
        suffix = f" ({check.detail})" if check.detail else ""
        print(f"{'pass' if check.holds else 'FAIL'} {check.name}{suffix}")
    return EXIT_OK if all(check.holds for check in checks) else EXIT_SOLVER


def cli_main(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        # argparse exits on --help (code 0) and on usage errors (code 2).
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION

    try:
        cfg = ExperimentConfig.from_json_file(args.config)
        if args.command == "sweep":
            return _cmd_sweep(cfg)
        if args.command == "solve":
            return _cmd_solve(cfg, args.lam, args.direction)
        return _cmd_verify(cfg)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except _SOLVER_ERRORS as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except EntriskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
