"""Command-line front end.

Subcommands
-----------
``sweep --config PATH``
    Run the configured sweep, write the CSV report and a JSON summary.
``solve --config PATH --lambda V --type {1,2}``
    Solve one direction at one factor and print atoms and weights as JSON.
``verify --config PATH``
    Run the sweep's invariant checks, support collapse and an optimality fuzz
    on the configured instance; exit 0 iff all pass.

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
    emit_csv(records, cfg.base_dir / cfg.output_csv)
    summary = sweep_summary(cfg, records, q, data, profile)
    if cfg.output_json:
        emit_summary_json(summary, cfg.base_dir / cfg.output_json)
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK if summary["invariants"]["all_rows_ok"] else EXIT_SOLVER


def _cmd_solve(cfg: ExperimentConfig, lam: float, direction: str) -> int:
    if not lam > 0.0:
        raise NonPositiveLambda(f"field '--lambda': must be > 0, got {lam}")
    q, _, profile = generate_instance(cfg)
    if direction == "1":
        sol = solve_type1(q, profile, lam)
        extra = {"log_partition": sol.log_partition_at_minus_inv_lambda}
    else:
        sol = solve_type2(q, profile, lam)
        extra = {"k_bar": sol.k_bar, "residual": sol.residual, "iterations": sol.iterations}
    # A Gibbs tilt can underflow atoms to zero weight; those leave the
    # measure, so the support comes from the solution, not from Q.
    out = {
        "lambda": lam,
        "type": int(direction),
        "support": sol.measure.coords.tolist(),
        "weights": sol.measure.weights.tolist(),
        **extra,
    }
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def _cmd_verify(cfg: ExperimentConfig) -> int:
    q, data, profile = generate_instance(cfg)
    delta_star = float(profile.aligned(q).min())
    lambdas = lambda_grid(cfg)
    records = sweep_records(q, profile, lambdas)
    ok_rows = [r for r in records if r.status == "ok"]
    checks = [
        ("k_bar_above_pole", False, f"lam={r.lam}")
        for r in ok_rows if not r.k_bar_type2 > -delta_star
    ]
    checks += [(name, ok, detail) for name, (ok, detail) in invariant_checks(records).items()]
    # supp(P2) is a subset of supp(Q) by construction, so a finite D(Q || P2)
    # means the two supports coincide.
    checks.append(
        ("support_collapse", all(math.isfinite(r.kl_q_p_type2) for r in ok_rows), "")
    )

    # Optimality spot check at the median factor, both directions. A failed
    # solve there fails both checks and leaves the other lines to be printed.
    lam = float(lambdas[len(lambdas) // 2])
    try:
        ok1, ok2 = optimality_fuzz(q, profile, lam, cfg.seed)
        reason = ""
    except EntriskError as exc:
        ok1 = ok2 = False
        reason = type(exc).__name__
    checks.append(("type1_optimality_fuzz", ok1, reason))
    checks.append(("type2_optimality_fuzz", ok2, reason))

    info_flag = grid_argmin_outside_support(cfg, q, data, profile)
    print(f"info grid_argmin_outside_support: {info_flag}")
    all_ok = True
    for name, ok, detail in checks:
        marker = "pass" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"{marker} {name}{suffix}")
        all_ok = all_ok and ok
    return EXIT_OK if all_ok else EXIT_SOLVER


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
