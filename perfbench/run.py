"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a fresh worker
process (``worker.py``) on the checkout's own ``src/`` tree.  An
untraced run (``--trace 0``) also starts the worker twice more for set
up only, and reports the median of the three set-up times.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics untraced, per-layer
metrics traced).  Human-readable lines before it repeat each metric
with its unit, plus ``error_ratio``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

WORKLOADS = ("fig4-paper", "online-sharded", "serve-closed")
#: Set-up samples of an untraced run (the measured run is one of them).
SETUP_SAMPLES = 3
#: A worker that outlives this is killed and the run fails, so that
#: every run exits within three minutes.
WORKER_TIMEOUT = 170.0
#: Thread pools of numpy/BLAS/HiGHS are held to one thread, so the
#: benchmark adds no threads beyond the two CPUs it plans for.
SINGLE_THREADED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                   "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                   "VECLIB_MAXIMUM_THREADS")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    for name in SINGLE_THREADED:
        env[name] = "1"
    return env


def wait_group_gone(pgid: int, limit: float = 5.0) -> None:
    """Wait until no process of group ``pgid`` is left."""
    end = time.monotonic() + limit
    while time.monotonic() < end:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_worker(args, env: dict, *, setup_only: bool,
               deadline: float) -> dict:
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        command.append("--setup-only")
    command += ["--spawned-at", repr(time.monotonic())]
    timeout = max(1.0, deadline - time.monotonic())
    # Its own process group, so that a worker that overruns is stopped
    # together with any service process it started.
    worker = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                              text=True, start_new_session=True)
    try:
        out, _ = worker.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(worker.pid, signal.SIGKILL)
        worker.communicate()
        wait_group_gone(worker.pid)
        fail(f"worker exceeded {timeout:.0f}s")
    lines = out.strip().splitlines()
    if worker.returncode != 0 or not lines:
        fail(f"worker exited with code {worker.returncode}")
    return json.loads(lines[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        fail(f"no src/repro package under {root}; run from the root "
             f"of a checkout of the repository")
    deadline = time.monotonic() + WORKER_TIMEOUT
    env = worker_env(root)

    calibration = [common.calibration_ms()]
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_worker(args, env, setup_only=True,
                                     deadline=deadline)["setup_s"])
    outcome = run_worker(args, env, setup_only=False, deadline=deadline)
    calibration.append(common.calibration_ms())
    setups.append(outcome["setup_s"])

    metrics = dict(outcome["metrics"])
    if args.trace:
        metrics["calibration_ms"] = common.median(calibration)
        names = common.PER_LAYER
    else:
        metrics["setup_s"] = common.median(setups)
        names = common.END_TO_END
    errors = outcome["errors"]
    attempted = max(1, int(outcome["attempted"]))
    failed = min(attempted, len(errors))
    for error in errors[:20]:
        print(f"error: {error}", file=sys.stderr)
    for name in names:
        print(f"{args.workload} {name} = {metrics[name]:.6g} "
              f"{common.UNITS[name]}")
    print(f"{args.workload} error_ratio = {failed / attempted:.6g} ratio")
    if not args.trace:
        print(f"{args.workload} passes = {outcome['passes']} (diagnostic)")
        print(f"{args.workload} calibration_ms = "
              f"{common.median(calibration):.6g} ms (diagnostic)")
    common.emit({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name],
                           "unit": common.UNITS[name]}
                    for name in names},
    })


if __name__ == "__main__":
    main()
