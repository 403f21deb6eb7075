"""One measured invocation of the entrisk CLI in a fresh, single-threaded process.

Usage: ``python3 perfbench/child.py SPEC.json``

The spec names the package root, the config file, the CLI arguments,
whether to trace and the CPU to run on. The child times set-up
(``ExperimentConfig.from_json_file`` plus ``generate_instance``) once, then
times ``entrisk.cli.cli_main`` called in-process, so interpreter start-up
stays out of both numbers. The command's own standard output and error
are captured and returned. The child prints one JSON object on its standard
output and nothing else.
"""

from __future__ import annotations

import os

#: Thread pins set before numpy loads, so BLAS/OpenMP stay single-threaded.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

os.environ.update(THREAD_PINS)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

#: Package modules that the traced run wraps; they are the benchmark's layers.
LAYERS = ("measures", "risk", "type1", "type2", "logrisk", "experiment", "cli")

#: Methods traced besides the modules' public functions.
TRACED_METHODS = (("risk", "EmpiricalRiskProfile", "aligned"),)

#: Counters recorded at layer boundaries, keyed by span name.
COUNTER_HOOKS = {
    "risk.risk_profile": lambda a, k, r: {"risk.loss_evals": len(r.risks) * a[1].n},
    "experiment.generate_instance": lambda a, k, r: {
        "instance.atoms": r[0].num_atoms, "instance.n": r[1].n
    },
    "type2.solve_k_bar": lambda a, k, r: {"type2.kbar_iterations": r.iterations},
    "experiment.emit_csv": lambda a, k, r: {
        "experiment.emit_csv.bytes": Path(a[1]).stat().st_size
    },
}


def peak_rss_mb() -> float:
    """The peak resident set of this process, in MiB.

    ``ru_maxrss`` also counts the resident set of the parent at the moment it
    spawned this process, so where Linux's ``/proc`` is there this reads the
    high-water mark of this process's own memory instead.
    """
    try:
        for line in Path("/proc/self/status").read_text(encoding="ascii").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(spec: dict) -> dict:
    os.sched_setaffinity(0, {spec["cpu"]})
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    import entrisk.cli
    from entrisk.experiment import ExperimentConfig, generate_instance

    start = time.perf_counter()
    generate_instance(ExperimentConfig.from_json_file(spec["config"]))
    setup_s = time.perf_counter() - start

    recorder = None
    if spec["trace"]:
        from spantrace import SpanRecorder

        recorder = SpanRecorder(spec["run_id"])
        recorder.instrument("entrisk", LAYERS, TRACED_METHODS, COUNTER_HOOKS)

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        exit_code = entrisk.cli.cli_main(spec["argv"])
        wall_s = time.perf_counter() - start
    if recorder is not None:
        recorder.dump(Path(spec["spans_path"]))
    return {
        "exit_code": exit_code,
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }


if __name__ == "__main__":
    result = run(json.loads(Path(sys.argv[1]).read_text(encoding="utf-8")))
    print(json.dumps(result))
