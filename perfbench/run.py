"""Benchmark of the wavemlp package; run from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--quick]

Each workload runs in its own process (``worker.py``) with BLAS threads
capped at the number of usable CPUs and ``./src`` on the import path. With
``--trace 0`` the workload is set up ``SETUPS`` times, the last process also
measuring, and the end-to-end metrics are printed; with ``--trace 1`` one
process prints the per-layer metrics. The last line of output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it holds the details (environment, every sample, failures).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from metrics import END_TO_END, PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pilot_train", "t224_infer", "t224_train", "count_presets")
SETUPS = 3
# Every run ends within this many seconds or fails.
DEADLINE_S = 170
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(Exception):
    pass


def worker_env(src: str) -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    env.update({name: threads for name in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, mode: str, env: dict, deadline: float) -> dict:
    """Start one workload process, wait for it, and return its JSON and start time."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
    ]
    if args.quick:
        cmd.append("--quick")
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=max(deadline - started, 1)
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process of {args.workload} ran past the deadline") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{mode} process of {args.workload} exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready_monotonic"] - started
    return out


def git_commit() -> str:
    if not os.path.isdir(".git"):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def source_lines(src: str) -> int:
    """Non-blank lines of the package's Python sources."""
    total = 0
    for dirpath, _dirs, files in os.walk(os.path.join(src, "wavemlp")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    total += sum(1 for line in fh if line.strip())
    return total


def metric_values(names, values: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in names}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument(
        "--quick", action="store_true", help="smaller iterations and one set-up, for the smoke test"
    )
    args = p.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "wavemlp", "__init__.py")):
        print("error: no ./src/wavemlp; run from the root of a wavemlp checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = worker_env(src)
    try:
        if args.trace:
            out = run_worker(args, "trace", env, deadline)
            metrics = metric_values(PER_LAYER, out["per_layer"])
            setups = []
        else:
            setups = [
                run_worker(args, "setup", env, deadline)["setup_s"]
                for _ in range(0 if args.quick else SETUPS - 1)
            ]
            out = run_worker(args, "measure", env, deadline)
            setups.append(out["setup_s"])
            out["setup_s"] = statistics.median(setups)
            metrics = metric_values(END_TO_END, out)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = len(out["failures"])
    correct = failed == 0 and not out.get("run_failures")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setups_s": setups,
        "fail_frac": failed / out["attempted"],
        **{k: v for k, v in out.items() if k not in ("per_layer", "ready_monotonic")},
        "env": {**out["env"], "git_commit": git_commit(), "src_lines": source_lines(src)},
    }
    if args.workload == "pilot_train" and not args.trace:
        detail["train_samples_per_s"] = out["items_per_s"]
    print(json.dumps(detail))
    print(json.dumps(
        {"correct": correct, "attempted": out["attempted"], "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
