"""One fresh process per workload: set up, then run the job list in a closed loop.

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1
        --mode setup|run --workdir DIR

``setup`` times importing collusion_lab plus generating and writing the
inputs, in CPU and wall time, and exits.  ``run`` sets up the same way
and then runs whole passes over the job list, one job after another on
this thread, until the next pass would end after T seconds.  Jobs are
timed in CPU time, and the probe (``hostspeed``) before every job; each
job's CPU time is scaled by the host factor around it, and a job's time
is the median of its scaled runs over the passes.  cpu_s is their sum,
the whole job list once; the unscaled CPU and wall times are reported
beside it.  Oracles judge the first pass outside the timed region; later
passes must reproduce its exit codes and stdout byte for byte.  With
``--trace 1`` the untraced passes fill half of T and one traced pass
follows, without the probe.  The result is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _setup(workload: str, seed: int, workdir: str):
    """Returns the jobs and the set-up's (wall, CPU) seconds."""
    t0, c0 = time.perf_counter(), time.process_time()
    sys.path.insert(0, SRC)
    import collusion_lab  # noqa: F401  (timed: part of set-up)
    import workloads
    jobs = workloads.build(workload, seed, workdir)
    return jobs, (time.perf_counter() - t0, time.process_time() - c0)


def _run_pass(jobs, main, probe=None, tracer=None):
    """Run every job once.

    Returns the pass's wall seconds, each job's (start, wall, CPU) seconds,
    the exit codes and the stdouts.
    """
    times, codes, outs = [], [], []
    t_pass = time.perf_counter()
    for job_id, job in enumerate(jobs):
        if tracer is not None:
            tracer.job_id = job_id
        if probe is not None:
            probe.sample()
        buf, err = io.StringIO(), io.StringIO()
        t0, c0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            try:
                code = main(job.argv)
            except Exception as exc:  # a crash is a failed job, not a failed run
                code = f"raised {type(exc).__name__}: {exc}"
        times.append((t0, time.perf_counter() - t0, time.process_time() - c0))
        codes.append(code)
        outs.append(buf.getvalue())
    return time.perf_counter() - t_pass, times, codes, outs


def _check(jobs, codes, outs, reference, failures):
    """Oracles on the first pass; byte-identical replay on every later one."""
    failed = 0
    for job, code, out, ref in zip(jobs, codes, outs, reference or [None] * len(jobs)):
        if ref is None:
            try:
                reason = job.oracle(code, out)
            except Exception as exc:  # a malformed output is a failed job
                reason = f"oracle raised {type(exc).__name__}: {exc}"
        else:
            reason = None if (code, out) == ref else "output differs from the first pass"
        if reason:
            failed += 1
            failures.append(f"{job.name}: {reason}")
    return failed


def _tail_percentile(count: int) -> int:
    """The highest whole percentile with at least ten samples beyond it."""
    return max(0, (100 * (count - 10)) // count)


def _nearest_rank(values, pct: int) -> float:
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1]


def run(args) -> dict:
    jobs, (setup_wall, setup_cpu) = _setup(args.workload, args.seed, args.workdir)
    import numpy as np
    import hostspeed
    from collusion_lab import cli

    probe = hostspeed.Probe()
    budget = args.seconds / 2 if args.trace else args.seconds
    walls, per_job, failures = [], [[] for _ in jobs], []
    reference, attempted, failed, digest = None, 0, 0, None
    while True:
        wall, times, codes, outs = _run_pass(jobs, cli.main, probe)
        attempted += len(jobs)
        failed += _check(jobs, codes, outs, reference, failures)
        if reference is None:
            reference = list(zip(codes, outs))
            digest = hashlib.sha256("".join(outs).encode()).hexdigest()
        walls.append(wall)
        for bucket, t in zip(per_job, times):
            bucket.append(t)
        if sum(walls) + wall > budget:
            break
    probe.sample()

    # A job's time is the median over the passes of its CPU time scaled by
    # the host factor around it.  CPU time leaves out the time the
    # hypervisor gave the vCPU to others; the factor removes the phases in
    # which the host ran every instruction slower; the median drops the
    # runs that a short burst still slowed.
    wall_s = [statistics.median(w for _, w, _ in runs) for runs in per_job]
    cpu_s = [statistics.median(c for _, _, c in runs) for runs in per_job]
    job_s = [statistics.median(c * probe.factor(t0, t0 + w) for t0, w, c in runs)
             for runs in per_job]
    with open(os.path.join(args.workdir, "samples.json"), "w", encoding="utf-8") as fh:
        json.dump({"jobs": per_job, "probe_stamps": probe.stamps,
                   "probe_samples": probe.samples}, fh)
    tail_pct = _tail_percentile(len(jobs))
    result = {
        "setup_s": setup_cpu,
        "setup_wall_s": setup_wall,
        "cpu_s": sum(job_s),
        "unscaled_cpu_s": sum(cpu_s),
        "wall_s": sum(wall_s),
        "host_factor": probe.run_factor(),
        "probe_samples": len(probe.samples),
        "pass_walls_s": walls,
        "job_p50_cpu_s": statistics.median(job_s),
        "job_tail_cpu_s": _nearest_rank(job_s, tail_pct),
        "job_tail_percentile": tail_pct,
        "job_samples": len(jobs),
        "job_cpu_s": job_s,
        "passes": len(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stdout_sha256": digest,
        "numpy": np.__version__,
    }
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
        _, times, codes, outs = _run_pass(jobs, cli.main, tracer=tracer)
        attempted += len(jobs)
        failed += _check(jobs, codes, outs, reference, failures)
        traced = sum(w for _, w, _ in times)
        layers = tracer.metrics(traced)
        layers["trace.wall_s"] = (traced, "s")
        layers["trace.untraced_wall_s"] = (sum(wall_s), "s")
        layers["trace.overhead_s"] = (traced - sum(wall_s), "s")
        tracer.write(os.path.join(args.workdir, "spans.tsv"))
        result["layers"] = layers
    result.update(attempted=attempted, failed=failed, failures=failures[:20])
    return result


def _setup_only(args) -> dict:
    _, (setup_wall, setup_cpu) = _setup(args.workload, args.seed, args.workdir)
    return {"setup_s": setup_cpu, "setup_wall_s": setup_wall}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    if args.mode == "setup":
        result = _setup_only(args)
    else:
        result = run(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
