"""Workload definitions: the fixed list of CLI jobs each workload runs.

A workload is built from its seed alone; the program receives only the
generated config documents. The same seed gives the same documents, so
the same artifacts, byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("generate", "certify", "probe")


def _job(name, command, cfg=None, manifest_of=None):
    """One CLI invocation. ``verify`` jobs name the job whose manifest they read."""
    return {"name": name, "command": command, "config": cfg, "manifest_of": manifest_of}


def _generate(rng):
    jobs = []
    for k in range(3):
        jobs.append(_job(f"generate{k}", "generate", {
            "generator": {"builtin": "counterexample"},
            "noise": {"kind": "uniform", "dim": 2},
            "target": {"kind": "uniform", "dim": 2},
            "M": 1024,
            # 1024 % 16 == 0 and 1024 % 256 == 0: replication path;
            # 48 does not divide 1024: HiGHS LP; 1024: plain assignment
            "N_list": [16, 48, 256, 1024],
            "trials": 2,
            "delta": 0.1,
            "seed": int(rng.integers(2**31)),
        }))
    return jobs


def _certify(rng):
    rate = float(math.pi * rng.uniform(0.75, 1.25))
    amplitude = float(rng.uniform(0.15, 0.25))
    jobs = [
        _job("flow2", "approx-flow", {
            "stages": [
                {"id": "squeeze_clipped"},
                {"id": "rotation_clipped", "params": {"rate": rate}},
            ],
            "n": 8, "steps": 256, "eval_grid": 33,
        }),
        _job("flow1", "approx-flow", {
            "stages": [{"id": "sin_bump", "params": {"amplitude": amplitude}}],
            "n": 16, "steps": 256, "eval_grid": 33,
        }),
        _job("lift_componentwise", "lift-approx", {
            "function": {"id": "abs2x1"}, "n": 16, "mode": "componentwise",
        }),
        _job("lift_joint", "lift-approx", {
            "function": {"id": "affine_pair"}, "n": 16, "mode": "joint",
        }),
    ]
    out = []
    for job in jobs:
        out += [job, _job(f"verify_{job['name']}", "verify", manifest_of=job["name"])]
    return out


def _probe(rng):
    return [_job("probe", "probe-flowability", {
        "seed": int(rng.integers(2**31)),
        "grid_n": 17,
        "k_max": 2,
        "fit": {"enabled": True, "budget": 2000},
    })]


_BUILDERS = {"generate": _generate, "certify": _certify, "probe": _probe}


def build_jobs(workload: str, seed: int) -> list[dict]:
    """The workload's job list for ``seed``; configs lack ``out_dir``."""
    return _BUILDERS[workload](np.random.default_rng([seed, WORKLOADS.index(workload)]))


# Per-layer metrics the README's layer table calls heavy on each workload. A traced
# run fails when one of them reads zero there, so a wrapper that stopped
# binding after a refactor cannot silently report 0.
HEAVY = {
    "generate": (
        "cli.generate_s", "cli.artifact_bytes",
        "transport.w1_calls", "transport.w1_s", "transport.w1_self_s",
        "transport.lsa_calls", "transport.lsa_cells", "transport.lsa_s",
        "transport.lp_calls", "transport.lp_vars", "transport.lp_s",
        "transport.pushforward_points", "transport.pushforward_s",
        "flow.apply_calls", "flow.point_steps",
        "fields.eval_calls", "fields.eval_rows", "fields.eval_s",
    ),
    "certify": (
        "cli.approx_flow_s", "cli.lift_approx_s", "cli.verify_s", "cli.artifact_bytes",
        "fields.eval_calls", "fields.eval_rows", "fields.eval_s", "fields.idle_row_share",
        "fields.grid_interp_rows", "fields.grid_interp_s",
        "fields.grid_realize_calls", "fields.grid_realize_s",
        "fields.grid_to_mlp_s", "fields.lipschitz_linf_s",
        "mlp.dense_weights", "mlp.nonzeros", "mlp.compose_calls", "mlp.compose_s",
        "flow.apply_calls", "flow.apply_s", "flow.point_steps",
        "flow.approximate_generator_s", "flow.save_generator_s", "flow.verify_manifest_s",
        "lift.approximate_s", "lift.apply_s", "lift.save_lifted_s", "lift.verify_s",
    ),
    "probe": (
        "cli.probe_s", "cli.artifact_bytes",
        "probe.detect_periodic_s", "probe.map_applies", "probe.map_rows",
        "probe.contraction_audit_s", "probe.fit_single_flow_s",
        "probe.fit_evaluations", "probe.period2_found",
        "flow.apply_calls", "flow.point_steps",
    ),
}
