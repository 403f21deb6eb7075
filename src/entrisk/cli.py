"""Command-line front end.

Subcommands
-----------
``sweep --config PATH``
    Run the configured sweep, write the CSV report and a JSON summary.
``solve --config PATH --lambda V --type {1,2}``
    Solve one direction at one factor and print atoms and weights as JSON.
``verify --config PATH``
    Run the sweep on the configured instance, print one ``pass``/``FAIL``
    line per row of its invariant table and per direction of
    :func:`entrisk.experiment.optimality_checks`; exit 0 iff all pass.

The README states the option syntax and the exit-code rule; :func:`cli_main`
applies the rule. Diagnostics go to standard error, results to standard output.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Sequence

from .errors import ConfigError, EntriskError
from .experiment import (
    ExperimentConfig,
    binned_if_tied,
    emit_csv,
    emit_summary_json,
    generate_instance,
    grid_argmin_outside_support,
    invariant_checks,
    optimality_checks,
    sweep_records,
    sweep_summary,
)
from .type1 import solve_type1
from .type2 import solve_type2

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_IO = 3


_USAGE = """\
usage: entrisk sweep  --config PATH
       entrisk solve  --config PATH --lambda V --type {1,2}
       entrisk verify --config PATH
"""

_HELP = _USAGE + """
Entropy-regularized ERM solvers and experiment sweeps.

commands:
  sweep          run the configured sweep and write reports
  solve          solve one direction at one factor
  verify         run the invariant suite on the instance

options (each one required by the commands that take it):
  --config PATH  path to the JSON config
  --lambda V     regularization factor (> 0)
  --type {1,2}   1: divergence of solution from reference; 2: reversed
  -h, --help     show this help and exit"""


class _UsageError(Exception):
    """A command line that names no command, an unknown option or a bad value."""


def _direction(text: str) -> str:
    if text not in ("1", "2"):
        raise ValueError(text)
    return text


#: Each command's options: option -> (result key, parser of its value).
#: Every option a command takes is required. A table instead of argparse: the
#: parser loads neither argparse nor gettext nor locale, which saves about
#: 3.5 ms of cold start on every run.
_OPTIONS = {
    "sweep": {"--config": ("config", str)},
    "solve": {
        "--config": ("config", str),
        "--lambda": ("lam", float),
        "--type": ("direction", _direction),
    },
    "verify": {"--config": ("config", str)},
}


def _parse_args(argv: Sequence[str]) -> tuple[str, dict] | None:
    """The command and its option values, or None when help is asked for.

    An option's value is the rest of its token after ``=`` or else the next
    token, which may not start with ``--``; a repeated option keeps its last
    value. Raises _UsageError.
    """
    if "-h" in argv or "--help" in argv:
        return None
    if not argv:
        raise _UsageError("a command is required: sweep, solve or verify")
    command, *rest = argv
    options = _OPTIONS.get(command)
    if options is None:
        raise _UsageError(f"unknown command {command!r}: choose sweep, solve or verify")
    values = {}
    tokens = iter(rest)
    for token in tokens:
        name, eq, text = token.partition("=")
        if name not in options:
            raise _UsageError(f"{command}: unrecognized argument {token!r}")
        if not eq:
            text = next(tokens, None)
            if text is None or text.startswith("--"):
                raise _UsageError(f"{command}: option {name} expects a value")
        key, parse = options[name]
        try:
            values[key] = parse(text)
        except ValueError:
            raise _UsageError(f"{command}: option {name}: invalid value {text!r}") from None
    missing = [name for name, (key, _) in options.items() if key not in values]
    if missing:
        raise _UsageError(f"{command}: required option(s) missing: {', '.join(missing)}")
    return command, values


def _check_sweep_paths(cfg: ExperimentConfig, config: str) -> None:
    """Raise ConfigError if a sweep output names the config, the dataset or the other output.

    Paths are compared resolved, the outputs and ``csv_path`` against
    ``cfg.base_dir`` and ``config`` against the working directory.
    """
    named = {Path(config).resolve(): "config"}
    if cfg.dataset == "csv":
        named[(cfg.base_dir / cfg.csv_path).resolve()] = "csv_path"
    for key, name in (("output_csv", cfg.output_csv), ("output_json", cfg.output_json)):
        if name:
            path = (cfg.base_dir / name).resolve()
            if path in named:
                raise ConfigError(f"field {key!r}: names the same file as {named[path]!r}")
            named[path] = key


def _cmd_sweep(cfg: ExperimentConfig, config: str) -> int:
    if not cfg.output_csv:
        raise ConfigError("field 'output_csv': required by the sweep command")
    _check_sweep_paths(cfg, config)
    # The instance build evaluates the risks of every grid atom, outside
    # supp(Q) too, so a risk that overflows fails validation there, before
    # anything is solved or written.
    q, data, aligned = generate_instance(cfg)
    aligned = binned_if_tied(cfg, aligned)
    records, _ = sweep_records(aligned, cfg.lambdas)
    summary = sweep_summary(cfg, records, q, data, aligned)
    emit_csv(records, cfg.base_dir / cfg.output_csv)
    if cfg.output_json:
        emit_summary_json(summary, cfg.base_dir / cfg.output_json)
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK if summary["invariants"]["all_rows_ok"] else EXIT_SOLVER


def _cmd_solve(cfg: ExperimentConfig, lam: float, direction: str) -> int:
    if not lam > 0.0:
        raise ConfigError(f"field '--lambda': must be > 0, got {lam}")
    if not math.isfinite(lam):
        raise ConfigError(f"field '--lambda': must be finite, got {lam}")
    q, _, aligned = generate_instance(cfg)
    if direction == "1":
        sol = solve_type1(aligned, lam)
        extra = {"log_partition": sol.log_partition_at_minus_inv_lambda}
    else:
        sol = solve_type2(aligned, lam)
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
    _, _, aligned = generate_instance(cfg)
    aligned = binned_if_tied(cfg, aligned)
    records, median = sweep_records(aligned, cfg.lambdas)
    checks = invariant_checks(records, aligned.delta_star) + optimality_checks(aligned, median)
    print(f"info grid_argmin_outside_support: {grid_argmin_outside_support(aligned)}")
    for check in checks:
        suffix = f" ({check.detail})" if check.detail else ""
        print(f"{'pass' if check.holds else 'FAIL'} {check.name}{suffix}")
    return EXIT_OK if all(check.holds for check in checks) else EXIT_SOLVER


def cli_main(argv: Sequence[str]) -> int:
    try:
        parsed = _parse_args(argv)
    except _UsageError as exc:
        print(f"{_USAGE}error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if parsed is None:
        print(_HELP)
        return EXIT_OK
    command, options = parsed

    try:
        cfg = ExperimentConfig.from_json_file(options["config"])
        if command == "sweep":
            return _cmd_sweep(cfg, options["config"])
        if command == "solve":
            return _cmd_solve(cfg, options["lam"], options["direction"])
        return _cmd_verify(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except EntriskError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
