"""collusion-lab benchmark: four CLI workloads and a traced per-module run.

    python3 perfbench/run.py --workload {sweep,falsify,simulate,game}
        --seed N --seconds T --trace {0,1}

Each workload is about forty ``collusion_lab.cli.main`` jobs generated
from the seed, run in process with stdout captured, by one client in a
closed loop (each job starts when the previous one ends):

    sweep     short scans over n, p_h and p_h_given_h plus three 5000-row
              n-sweeps: cli, thresholds, prior and scoring, no search
    falsify   the setting falsifier at k* (exhaustive, exit 1) and k* + 1
              (certificate, re-verified): checker.find_setting_deviation
              and the mechanism utilities
    simulate  Monte Carlo with no, identical and distinct deviators, one job
              at 4e7 agent-trials: mechanism.simulate, numpy and memory
    game      game-check on explicit games, n = 3..10: bne_check and the
              finite-game einsum search (checker.find_deviation)

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
measured untraced: setup_s (median CPU time of seven fresh set-ups:
import collusion_lab, generate and write the inputs), cpu_s (the
whole job list once, as the sum of each job's median run over the
passes), job_p50_cpu_s and job_tail_cpu_s (over those per-job times; the
tail is the highest percentile with ten jobs beyond it) and peak_rss_mb.
Times are CPU seconds, which leave out the time a shared host's
hypervisor runs other guests, scaled to a reference host speed by a
probe timed between jobs (see hostspeed.py): each job by the factor
around it, the set-ups by the run's factor.  The
workers are single threaded, so CPU time is the time a user waits on an
unshared machine.  The unscaled CPU and wall times and the host factor
are in the detail line.  ``--trace 1`` reports the per-layer metrics of
one traced pass instead, in unscaled wall time.  The line before the
result is that detail record: fail_ratio, the sample counts, the stdout
SHA-256 and the environment.

The environment is pinned for every worker: COLLUSION_LAB_THREADS unset,
BLAS and OpenMP pools at one thread, one fresh process per set-up and per
measured run.  Inputs, the timing samples of the last run and the spans
go to perfbench/.work/<workload>/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "collusion_lab")
WORKLOADS = ("sweep", "falsify", "simulate", "game")
SETUP_RUNS = 7
TIMEOUT_S = 170


def _env() -> dict:
    env = dict(os.environ)
    env.pop("COLLUSION_LAB_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args, mode: str, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode, "--workdir", os.path.join(HERE, ".work", args.workload)]
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        sys.stderr.write(f"no collusion_lab sources under {PACKAGE}\n")
        return 2

    # Set-ups run half before and half after the measured run, so their
    # median does not rest on one stretch of a shared host's speed.
    extra_setups = 0 if args.trace else SETUP_RUNS - 1
    try:
        setups = [_worker(args, "setup", TIMEOUT_S) for _ in range(extra_setups // 2)]
        result = _worker(args, "run", TIMEOUT_S)
        setups.append(result)
        setups += [_worker(args, "setup", TIMEOUT_S)
                   for _ in range(extra_setups - extra_setups // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "fail_ratio": {"value": result["failed"] / result["attempted"], "unit": "ratio"},
        "failures": result["failures"],
        "setup_cpu_samples_s": [r["setup_s"] for r in setups],
        "setup_wall_samples_s": [r["setup_wall_s"] for r in setups],
        **{key: result[key] for key in ("wall_s", "unscaled_cpu_s", "host_factor",
                                        "probe_samples",
                                        "pass_walls_s", "passes", "job_samples", "job_cpu_s",
                                        "job_tail_percentile", "stdout_sha256")},
        "env": {"commit": _commit(), "source_sha256": _source_sha256(),
                "python": platform.python_version(), "numpy": result["numpy"],
                "nproc": len(os.sched_getaffinity(0))},
    }
    if args.trace:
        metrics = result["layers"]
    else:
        metrics = {
            # The set-ups run just before and after the measured run, in
            # fresh processes, so the run's host factor scales them too.
            "setup_s": (statistics.median(r["setup_s"] for r in setups)
                        * result["host_factor"], "s"),
            "cpu_s": (result["cpu_s"], "s"),
            "job_p50_cpu_s": (result["job_p50_cpu_s"], "s"),
            "job_tail_cpu_s": (result["job_tail_cpu_s"], "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
