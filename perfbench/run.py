"""entrisk benchmark: one workload, one seed, one measured run.

Usage::

    python3 perfbench/run.py --workload sweep-path --seed 1 --seconds 30 --trace 0

Run it in a checkout that holds ``src/entrisk``. The workload's config comes
from ``perfbench/workloads.json`` with the seed written into ``data_seed`` and
``seed``. The run starts fresh child processes (``perfbench/child.py``) one
after another, closed loop, until the next one would end after
``--seconds``. Each child times set-up and one in-process
``entrisk.cli.cli_main`` call, and runs on whichever CPU a short probe finds
fastest when it starts (see ``run_child``). With ``--trace 1`` untraced and
traced children alternate, and the traced ones record a span per call into
the package's modules (``perfbench/spantrace.py``).

The command's time is reported as ``wall_per_ref``: its mean wall time over
the run's children, divided by the mean time of a fixed reference kernel,
timed on each child's CPU just before the child starts and just after it
ends (``perfbench/cpuspeed.py``). On a shared host a CPU runs at one of a
few speeds, down to a quarter of its best, switching every few seconds and
staying slow for spells longer than a whole run. A command's time adds up
the speeds it ran at, and so does a total over many short kernel runs, so
the ratio of the two means cancels the host's speed, while a change to the
package moves the command's time and not the kernel's. Medians do not
cancel it: a kernel run samples one speed, the median command a mixture.
The raw wall time, ``rows_per_s`` and the kernel's own time are printed in
the readable report and kept in the saved report, but are not part of the
result line.

Every child's output is checked (``perfbench/check.py``). A readable report
goes to standard output and, with the raw samples, to
``.perfbench/reports/``. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics with ``--trace 1``. Every other timing is the median over the run's
children.

Exit codes: 0 when a result was printed, correct or not; 2 when the run could
not start, for example because ``src/entrisk`` is missing.
"""

from __future__ import annotations

import os

from child import THREAD_PINS

os.environ.update(THREAD_PINS)  # before this process loads numpy for the check

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import check  # noqa: E402
from cpuspeed import fastest_cpu, time_reference  # noqa: E402
from spantrace import layer_totals  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

#: Every child must have ended this long after the run started, which leaves
#: time for the check within the three-minute limit on one run.
CHILD_DEADLINE_S = 150.0

#: Per-layer metrics built from counters: metric -> (span, counter, reduction).
COUNTER_METRICS = {
    "risk.loss_evals": ("risk.risk_profile", "risk.loss_evals", sum),
    "type2.kbar_iterations_total": ("type2.solve_k_bar", "type2.kbar_iterations", sum),
    "type2.kbar_iterations_max": ("type2.solve_k_bar", "type2.kbar_iterations", max),
    "experiment.emit_csv.bytes": ("experiment.emit_csv", "experiment.emit_csv.bytes", sum),
}

#: Per-layer metrics holding each invariant's worst value: metric -> invariant.
INVARIANT_METRICS = {
    "invariants.identity_gap.max": "identity_gap",
    "invariants.theorem2_gap.max": "theorem2_gap",
    "invariants.residual.max": "residual",
    "invariants.bound_margin.min": "bound_margin",
}


class SetupError(Exception):
    """The run cannot start; reported on standard error with exit code 2."""


def load_workload(name: str, seed: int) -> tuple[dict, dict, dict]:
    """(BENCHMARK.json, workload entry, config with the seed filled in)."""
    if not (ROOT / "src" / "entrisk" / "__init__.py").is_file():
        raise SetupError(f"no entrisk package at {ROOT / 'src' / 'entrisk'}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    if name not in spec["workloads"]:
        raise SetupError(f"unknown workload {name!r}; known: {', '.join(spec['workloads'])}")
    if seed < 0:
        raise SetupError("--seed must be >= 0")
    workload = spec["workloads"][name]
    config = dict(workload["config"], **{key: seed for key in spec["seed_fields"]})
    return bench, workload, config


def run_child(run_dir: Path, argv: list[str], trace: bool, index: int, deadline: float) -> dict:
    """Run one child process and return its result, with ``error`` on failure.

    The child stays on the CPU that probes fastest when it starts, and the
    reference kernel is timed on that CPU just before and just after it
    (``perfbench/cpuspeed.py``). The child is single-threaded, so pinning
    changes nothing it computes.
    """
    cpu = fastest_cpu()
    before = time_reference(cpu)
    spec = {
        "root": str(ROOT),
        "config": str(run_dir / "config.json"),
        "argv": argv,
        "trace": trace,
        "run_id": f"{run_dir.name}-{index}",
        "spans_path": str(run_dir / f"spans-{index}.json"),
        "cpu": cpu,
    }
    spec_path = run_dir / f"child-{index}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    csv_path = run_dir / "sweep.csv"
    csv_path.unlink(missing_ok=True)
    result: dict = {"trace": trace, "cpu": cpu}
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(spec_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=run_dir,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        result["error"] = "child timed out"
        return result
    finally:
        if proc.poll() is None:  # timed out, or the runner is being stopped
            proc.kill()
            proc.communicate()
    result["reference_reps"] = before + time_reference(cpu)
    try:
        result.update(json.loads(stdout.strip().splitlines()[-1]))
    except (IndexError, ValueError):
        result["error"] = f"child exited {proc.returncode}: {stderr.strip()[-2000:]}"
        return result
    if trace:
        result["spans_path"] = spec["spans_path"]
    output = csv_path.read_bytes() if csv_path.is_file() else result["stdout"].encode()
    result["output_sha256"] = hashlib.sha256(output).hexdigest()
    return result


def measure(run_dir: Path, argv: list[str], seconds: float, trace: bool) -> list[dict]:
    """Closed loop: start rounds of children until the next would overrun ``seconds``.

    A round is one untraced child, then one traced child when tracing. At
    least one round runs. The last sweep child's CSV stays for the check.
    """
    children: list[dict] = []
    start = time.perf_counter()
    deadline = start + CHILD_DEADLINE_S
    last_round = 0.0
    while not children or time.perf_counter() - start + last_round <= seconds:
        round_start = time.perf_counter()
        for traced in (False, True) if trace else (False,):
            if time.perf_counter() >= deadline:
                return children
            children.append(run_child(run_dir, argv, traced, len(children), deadline))
        last_round = time.perf_counter() - round_start
    return children


def check_children(children: list[dict], workload: dict, config: dict) -> tuple[int, int]:
    """Record each child's problems in place; return (attempted, failed) operations.

    An operation is a lambda row for sweep and a check line for verify. A
    child with any problem counts all its operations as failed.
    """
    sweep = workload["command"] == "sweep"
    ops = config["lambda_count"] if sweep else len(check.VERIFY_CHECKS)
    reference_sha = next((c["output_sha256"] for c in children if "output_sha256" in c), None)
    attempted = failed = 0
    for child in children:
        if "error" in child:
            problems = [child["error"]]
        elif child["exit_code"] != 0:
            problems = [f"exit code {child['exit_code']}: {child['stderr'].strip()[-500:]}"]
        elif sweep:
            problems = check.check_sweep_summary(child["stdout"], config["lambda_count"])
        else:
            problems = check.check_verify(child["stdout"])
        if "output_sha256" in child and child["output_sha256"] != reference_sha:
            problems.append("output differs from the first child's")
        child["problems"] = problems
        attempted += ops
        failed += ops if problems else 0
    return attempted, failed


def recompute_csv(run_dir: Path, config: dict) -> tuple[list[str], dict[str, float]]:
    """Recompute the kept sweep CSV from the instance; (problems, invariant worst)."""
    csv_path = run_dir / "sweep.csv"
    if not csv_path.is_file():
        return ["no sweep CSV to recompute"], {}
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from entrisk.experiment import ExperimentConfig, generate_instance

    q, _, profile = generate_instance(ExperimentConfig.from_json_file(run_dir / "config.json"))
    lambdas = np.geomspace(config["lambda_min"], config["lambda_max"], config["lambda_count"])
    rows = check.parse_csv(csv_path.read_text(encoding="utf-8"))
    problems = check.recompute_rows(rows, np.asarray(q.weights), np.asarray(profile.risks), lambdas)
    worst = check.invariant_worst(rows) if rows and not problems else {}
    return problems, worst


#: Raw timings printed after the end-to-end metrics but left out of the
#: result line, because the host's speed swings move them more than any bound.
RAW_TIMINGS = {"wall_s": "s", "rows_per_s": "1/s", "reference_s": "s"}


def end_to_end(children: list[dict], config: dict) -> dict[str, list[float]]:
    """Samples of each end-to-end metric and raw timing over the untraced children.

    ``wall_per_ref`` is one value per run, a ratio of two means over the
    run; the other metrics have one sample per child.
    """
    plain = [c for c in children if not c["trace"] and "wall_s" in c]
    if not plain:
        return {}
    reference = [t for c in plain for t in c["reference_reps"]]
    return {
        "wall_per_ref": [statistics.fmean(c["wall_s"] for c in plain) / statistics.fmean(reference)],
        "setup_s": [c["setup_s"] for c in plain],
        "peak_rss_mb": [c["peak_rss_mb"] for c in plain],
        "wall_s": [c["wall_s"] for c in plain],
        "rows_per_s": [config["lambda_count"] / c["wall_s"] for c in plain],
        "reference_s": reference,
    }


def layer_metrics(trace: dict, lambda_count: int) -> dict[str, float]:
    """Per-layer metrics of one traced child; names whose source is absent are left out."""
    totals = layer_totals(trace)
    metrics = {
        f"{name}.{key}": value for name, entry in totals.items() for key, value in entry.items()
    }
    counts = trace["counts"]
    for metric, (span, counter, reduce) in COUNTER_METRICS.items():
        if counter in counts:
            metrics[metric] = reduce(counts[counter])
        elif totals.get(span, {}).get("calls") == 0:
            metrics[metric] = 0
    if "risk.loss_evals" in metrics and "instance.atoms" in counts and "instance.n" in counts:
        per_instance = counts["instance.atoms"][0] * counts["instance.n"][0]
        metrics["risk.evals_per_atom"] = metrics["risk.loss_evals"] / per_instance
    if "type2.solve_type2" in totals:
        metrics["type2.solves_per_row"] = totals["type2.solve_type2"]["calls"] / lambda_count
    return metrics


def per_layer(children: list[dict], config: dict, worst: dict[str, float]) -> dict[str, list[float]]:
    """Samples of each per-layer metric over the traced children.

    The tracing overhead is one value per run: the traced children's mean
    ``cli_main`` time against the untraced children's mean wall time, each
    taken relative to the reference kernel timed around the same children,
    as for ``wall_per_ref``.
    """
    samples: dict[str, list[float]] = {}
    traced_s, traced_ref = [], []
    for child in children:
        if not child["trace"] or "spans_path" not in child:
            continue
        trace = json.loads(Path(child["spans_path"]).read_text(encoding="utf-8"))
        metrics = layer_metrics(trace, config["lambda_count"])
        if "cli.cli_main.s" in metrics:
            traced_s.append(metrics["cli.cli_main.s"])
            traced_ref += child["reference_reps"]
        for name, value in metrics.items():
            samples.setdefault(name, []).append(value)
    plain = end_to_end(children, config)
    if traced_s and plain:
        traced_per_ref = statistics.fmean(traced_s) / statistics.fmean(traced_ref)
        samples["cli.trace_overhead_frac"] = [traced_per_ref / plain["wall_per_ref"][0] - 1.0]
    for metric, invariant in INVARIANT_METRICS.items():
        if invariant in worst:
            samples[metric] = [worst[invariant]]
    return samples


def environment() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # Stopped with SIGTERM, unwind so that the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        bench, workload, config = load_workload(args.workload, args.seed)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = WORK / "runs" / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    (run_dir / "config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
    cli_argv = [workload["command"], "--config", str(run_dir / "config.json")]

    children = measure(run_dir, cli_argv, args.seconds, bool(args.trace))
    attempted, failed = check_children(children, workload, config)
    problems = [p for c in children for p in c["problems"]]
    worst: dict[str, float] = {}
    if workload["command"] == "sweep" and not problems:
        recompute_problems, worst = recompute_csv(run_dir, config)
        problems += recompute_problems
        if recompute_problems:
            failed = attempted
    elif not problems:
        worst = check.verify_worst(children[0]["stdout"])

    if args.trace:
        declared = bench["per_layer"]
        samples = per_layer(children, config, worst)
    else:
        declared = bench["end_to_end"]
        samples = end_to_end(children, config)
    metrics = {
        m["name"]: {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]}
        for m in declared if samples.get(m["name"])
    }

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(children)} children, {workload['command']} command")
    shown = {m["name"]: m["unit"] for m in declared}
    if not args.trace:
        shown.update(RAW_TIMINGS)
    for name, unit in shown.items():
        values = samples.get(name)
        if values:
            q1, q2, q3 = quartiles(values)
            print(f"  {name:<48} {q2:>14.6g} {unit:<6} "
                  f"(median of {len(values)}; quartiles {q1:.6g} .. {q3:.6g})")
        else:
            print(f"  {name:<48} {'absent':>14}")
    print(f"  fail_frac {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    for name, value in worst.items():
        print(f"  invariant {name}: worst {value:.3g} (threshold {check.THRESHOLDS[name]:g})")
    shas = sorted({c["output_sha256"] for c in children if "output_sha256" in c})
    print(f"  output sha256: {', '.join(shas) or 'none'}")
    for problem in problems[:20]:
        print(f"  problem: {problem}")

    reports = WORK / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    last_spans = [c["spans_path"] for c in children if "spans_path" in c]
    if last_spans:
        shutil.copyfile(last_spans[-1], reports / f"{tag}-spans.json")
    for child in children:
        child.pop("spans_path", None)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "config": config, "environment": environment(), "output_sha256": shas,
        "invariant_worst": worst, "thresholds": check.THRESHOLDS,
        "samples": samples, "children": children, "problems": problems,
    }
    (reports / f"{tag}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    shutil.rmtree(run_dir, ignore_errors=True)

    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
