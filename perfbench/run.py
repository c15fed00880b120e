"""Benchmark entry point: one workload, one seed, one result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload query --seed 3 --seconds 30 --trace 0

Each run generates its inputs from ``--seed`` in one process, times
set-up in fresh set-up-only processes, then runs the workload in one more
process that also times its own set-up.  ``setup_s`` is the median of
these set-ups.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
full result, with the machine and thread settings, is kept under
``perfbench/results/``.  Uses the standard library only, so this process
stays small beside the workload it measures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train", "catalog", "query")
# Set-ups timed per run, each in a fresh process; setup_s is their median.
# The query set-up reads a 27 MB index, so it is timed fewer times.
SETUP_RUNS = {"train": 5, "catalog": 5, "query": 3}
# One BLAS thread: the program's runs are bit-reproducible on one thread,
# and a second thread on a small shared machine mostly adds noise.
BLAS_THREADS = "1"
# Every run must end within 180 s; its helpers share this budget.
RUN_BUDGET_S = 175


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    return env


def run_child(script: str, args: list[str], deadline: float) -> None:
    """Run a helper with stdout sent to our stderr; fail on non-zero or
    past ``deadline`` (a ``time.monotonic()`` value)."""
    cmd = [sys.executable, os.path.join(HERE, script)] + args
    proc = subprocess.Popen(cmd, stdout=sys.stderr, env=child_env(),
                            cwd=ROOT)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{script} ran past the run's time budget")
    finally:  # also when this process is told to stop
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise SystemExit(f"{script} {' '.join(args)} exited {code}")


def metrics(result: dict, setups: list[float], trace: int) -> dict:
    """The figures BENCHMARK.json names, with the units it gives them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if trace else "end_to_end"]
    if trace:
        values = result["layers"]
    else:
        latencies_ms = [t * 1e3 for t in result["latencies_s"]]
        values = {
            "setup_s": statistics.median(setups),
            "throughput_per_s": result["work"] / result["elapsed_s"],
            "p50_ms": statistics.median(latencies_ms),
            "p90_ms": nearest_rank(latencies_ms, 0.9),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    return {m["name"]: {"value": values.get(m["name"], 0.0),
                        "unit": m["unit"]} for m in spec}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny is for the smoke test")
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_BUDGET_S
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "simembed",
                                       "__init__.py")):
        print(f"error: no simembed sources under {ROOT}/src",
              file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    inputs = os.path.join(HERE, "inputs", f"{tag}-{os.getpid()}")
    results = os.path.join(HERE, "results")
    os.makedirs(inputs)
    os.makedirs(results, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--size", args.size]
    try:
        run_child("gen.py", common + ["--out", inputs], deadline)
        setups = []
        # set-up is reported from untraced runs only
        for i in range(0 if args.trace else SETUP_RUNS[args.workload] - 1):
            probe = os.path.join(inputs, f"setup-{i}.json")
            run_child("workload.py", common + [
                "--inputs", inputs, "--result", probe, "--setup-only"],
                deadline)
            with open(probe, encoding="utf-8") as fh:
                setups.append(json.load(fh)["setup_s"])
        result_path = os.path.join(results, f"{tag}.json")
        run_child("workload.py", common + [
            "--inputs", inputs, "--result", result_path,
            "--seconds", str(args.seconds), "--trace", str(args.trace)],
            deadline)
        with open(result_path, encoding="utf-8") as fh:
            main_result = json.load(fh)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    setups.append(main_result["setup_s"])

    line = {"correct": main_result["correct"],
            "attempted": main_result["attempted"],
            "failed": main_result["failed"],
            "metrics": metrics(main_result, setups, args.trace)}
    main_result.update({
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "setup_runs_s": setups, "result": line,
        "machine": dict(main_result["machine"], nproc=os.cpu_count(),
                        usable_cpus=len(os.sched_getaffinity(0)),
                        runner_python=platform.python_version(),
                        blas_threads=BLAS_THREADS)})
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(main_result, fh, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
