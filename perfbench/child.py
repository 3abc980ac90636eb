"""One workload in one fresh process: set up, run timed rounds, check.

Usage (run.py starts this; it is not meant to be run by hand):

    python3 perfbench/child.py WORKLOAD SEED SECONDS TRACE T0 WORKDIR [--setup-only]

T0 is the parent's ``time.monotonic()`` just before it started this
process, so set-up time covers interpreter start, imports and input
generation. A round runs the workload's fixed job list once through
``incflow.cli.main``; rounds repeat while another one fits in SECONDS.
With TRACE=1 one untraced round runs first, then traced rounds, so the
tracing overhead is measured in the same process. Job times are also
given in reference-speed seconds (speed.py). The result is written to
WORKDIR/result.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time

import numpy
import scipy
from incflow import cli

import jobs as J
import speed
import tracing
import w1_oracle


def _hash_tree(path: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def _run_job(job, workdir) -> int:
    if job["command"] == "verify":
        argv = ["verify", os.path.join(workdir, job["manifest_of"], "manifest.json")]
    else:
        argv = [job["command"], os.path.join(workdir, job["name"] + ".json")]
    try:
        with contextlib.redirect_stdout(io.StringIO()):  # verify prints its checks
            return cli.main(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    except Exception as e:  # a crashing job is a failed check, not a dead benchmark
        print(f"job {job['name']} raised {type(e).__name__}: {e}", file=sys.stderr)
        return 1


def _run_rounds(job_list, workdir, seconds, trace, rounds, checks):
    """Run rounds until another one would overrun ``seconds``; returns the tracer."""
    tracer = None
    start = time.monotonic()
    while True:
        traced = trace and bool(rounds)
        if traced and tracer is None:
            tracer = tracing.Tracer()
            tracer.install()
        r = len(rounds)
        codes, spans = [], []
        for k, job in enumerate(job_list):
            if tracer is not None:
                tracer.job = r * len(job_list) + k
            t = time.monotonic()
            codes.append(_run_job(job, workdir))
            spans.append((t, time.monotonic()))
        wall = sum(b - a for a, b in spans)
        hashes, nbytes = {}, 0
        for job, code in zip(job_list, codes):
            checks.append((f"round{r}.{job['name']}.exit", code == 0, f"exit code {code}"))
            if job["config"] is not None and os.path.isdir(os.path.join(workdir, job["name"])):
                path = os.path.join(workdir, job["name"])
                hashes[job["name"]] = _hash_tree(path)
                nbytes += _tree_bytes(path)
        if rounds:
            same = hashes == rounds[0]["sha256"]
            checks.append((f"round{r}.artifacts_repeat", same,
                           "artifacts differ from round 0" if not same else ""))
        rounds.append({"wall_s": wall, "jobs": spans, "traced": traced, "sha256": hashes,
                       "artifact_bytes": nbytes})
        elapsed = time.monotonic() - start
        if trace and not any(x["traced"] for x in rounds):
            continue
        walls = [x["wall_s"] for x in rounds if x["traced"] == trace]
        if elapsed + statistics.median(walls) > seconds:
            break
    return tracer


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, t0, workdir = argv[:6]
    seed, seconds, trace, t0 = int(seed), float(seconds), trace == "1", float(t0)
    setup_only = "--setup-only" in argv[6:]

    os.makedirs(workdir, exist_ok=True)
    job_list = J.build_jobs(workload, seed)
    for job in job_list:
        if job["config"] is not None:
            cfg = dict(job["config"], out_dir=os.path.join(workdir, job["name"]))
            with open(os.path.join(workdir, job["name"] + ".json"), "w") as fh:
                json.dump(cfg, fh)
    setup_s = (time.monotonic() - t0) * speed.factor_now()
    if setup_only:
        with open(os.path.join(workdir, "result.json"), "w") as fh:
            json.dump({"setup_s": setup_s}, fh)
        return 0

    checks: list[tuple[str, bool, str]] = []
    rounds: list[dict] = []
    with speed.Sampler() as sampler:
        tracer = _run_rounds(job_list, workdir, seconds, trace, rounds, checks)
    samples = numpy.array(sampler.samples).reshape(-1, 2)
    for x in rounds:
        x["job_s"] = [speed.scale(samples, a, b) for a, b in x["jobs"]]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        tracer.uninstall()
        spans = tracer.arrays()
        per_round = []
        for r, x in enumerate(rounds):
            if not x["traced"]:
                continue
            ids = range(r * len(job_list), (r + 1) * len(job_list))
            m = tracing.layer_metrics(spans, ids)
            m["cli.artifact_bytes"] = x["artifact_bytes"]
            per_round.append(m)
        layers = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        counts_repeat = all(m[k] == per_round[0][k] for m in per_round for k in tracing.COUNTS)
        checks.append(("trace.counts_repeat", counts_repeat, ""))
        for name in J.HEAVY[workload]:
            checks.append((f"trace.heavy.{name}", layers[name] != 0,
                           f"{name} reads 0 on {workload}" if layers[name] == 0 else ""))
        labels = [f"round{r}.{job['name']}" for r in range(len(rounds)) for job in job_list]
        tracer.save(os.path.join(os.path.dirname(workdir), f"spans-{workload}.npz"), labels)

    checks += w1_oracle.check(seed)

    result = {
        "setup_s": setup_s,
        "rounds": [{k: x[k] for k in ("wall_s", "job_s", "traced", "artifact_bytes")}
                   for x in rounds],
        "peak_rss_mb": peak_rss_mb,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "layers": layers,
        "provenance": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "jobs": {job["name"]: job["config"] for job in job_list},
            "artifact_sha256": rounds[0]["sha256"],
            "spans_recorded": len(tracer.start) if tracer is not None else 0,
            "bindings_patched": tracer.patched if tracer is not None else {},
            "targets_missing": tracer.missing if tracer is not None else [],
        },
    }
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
