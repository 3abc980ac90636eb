"""Benchmark entry point: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload generate --seed 0 --seconds 30 --trace 0

Run from the repository root. The workload runs in its own fresh child
process (perfbench/child.py) against the sources under src/, with the
BLAS/OpenMP thread pools capped at the number of usable cores. With
``--trace 0`` the result carries the end-to-end metrics; set-up time is
the median over several fresh processes. With ``--trace 1`` it carries
the per-layer metrics of a traced run. The last line of standard output
is the result object; the line before it holds the run's provenance.
A failed output check makes ``correct`` false; a benchmark that cannot
run at all exits nonzero without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import jobs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 5  # fresh processes whose set-up time is measured per untraced run
CHILD_TIMEOUT_S = 170


NPROC = len(os.sched_getaffinity(0))
THREAD_CAPS = {var: str(NPROC) for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def _child_env() -> dict:
    env = dict(os.environ, **THREAD_CAPS)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(args, workdir: str, deadline: float, setup_only: bool = False) -> dict:
    flags = ["--setup-only"] if setup_only else []
    cmd = [sys.executable, os.path.join(HERE, "child.py"), args.workload, str(args.seed),
           str(args.seconds), str(args.trace), repr(time.monotonic()), workdir, *flags]
    proc = subprocess.Popen(cmd, env=_child_env(), cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"workload process exceeded {CHILD_TIMEOUT_S} s") from None
    if code != 0:
        raise RuntimeError(f"workload process exited with code {code}")
    with open(os.path.join(workdir, "result.json")) as fh:
        return json.load(fh)


def _round_s(rounds: list[dict]) -> float:
    """Length of a typical round in reference-speed seconds: the sum over
    jobs of each job's median across rounds."""
    return sum(statistics.median(t) for t in zip(*(x["job_s"] for x in rounds)))


def run(args) -> tuple[dict, dict]:
    """Run one workload; returns (result line, provenance)."""
    base = os.path.join(ROOT, ".bench_build", "perfbench")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    workdir = os.path.join(base, tag)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    os.makedirs(base, exist_ok=True)
    try:
        child = _spawn(args, workdir, deadline)
        setups = [child["setup_s"]]
        if not args.trace:
            for k in range(SETUP_SAMPLES - 1):
                setups.append(_spawn(args, f"{workdir}-setup{k}", deadline, True)["setup_s"])
    finally:
        for k in range(SETUP_SAMPLES - 1):
            shutil.rmtree(f"{workdir}-setup{k}", ignore_errors=True)
        shutil.rmtree(workdir, ignore_errors=True)

    checks = child["checks"]
    failed = [c for c in checks if not c["ok"]]
    for c in failed:
        print(f"check failed: {c['name']}: {c['detail']}", file=sys.stderr)
    plain = _round_s([x for x in child["rounds"] if not x["traced"]])
    if args.trace:
        values = dict(child["layers"])
        values["fail_share"] = len(failed) / len(checks)
        values["trace.run_s"] = _round_s([x for x in child["rounds"] if x["traced"]])
        values["trace.untraced_run_s"] = plain
        values["trace.overhead_ratio"] = values["trace.run_s"] / values["trace.untraced_run_s"]
        units = tracing.UNITS
    else:
        values = {
            "run_s": plain,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": child["peak_rss_mb"],
        }
        units = END_TO_END
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    provenance = dict(child["provenance"], workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace, nproc=NPROC,
                      thread_caps=THREAD_CAPS,
                      rounds_wall_s=[x["wall_s"] for x in child["rounds"]],
                      rounds_traced=[x["traced"] for x in child["rounds"]],
                      setup_samples=setups)
    return result, provenance


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "incflow", "cli.py")):
        print(f"no incflow sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        result, provenance = run(args)
    except (RuntimeError, OSError, ValueError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
