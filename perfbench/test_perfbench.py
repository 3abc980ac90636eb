"""The benchmark's own tests.

    python3 -m pytest perfbench -q

The traced-run test runs every workload twice and takes a few minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import jobs  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import w1_oracle  # noqa: E402

LAYER_METRICS = (
    "cli.generate_s", "cli.approx_flow_s", "cli.lift_approx_s", "cli.probe_s",
    "cli.verify_s", "cli.artifact_bytes",
    "fields.eval_calls", "fields.eval_rows", "fields.eval_s", "fields.idle_row_share",
    "fields.grid_interp_rows", "fields.grid_interp_s", "fields.grid_realize_calls",
    "fields.grid_realize_s", "fields.grid_to_mlp_s", "fields.lipschitz_linf_s",
    "mlp.dense_weights", "mlp.nonzeros", "mlp.nonzero_share", "mlp.compose_calls",
    "mlp.compose_s",
    "flow.apply_calls", "flow.apply_s", "flow.point_steps", "flow.evals_per_step",
    "flow.approximate_generator_s", "flow.save_generator_s", "flow.verify_manifest_s",
    "lift.approximate_s", "lift.apply_s", "lift.save_lifted_s", "lift.verify_s",
    "transport.w1_calls", "transport.w1_s", "transport.w1_self_s", "transport.lsa_calls",
    "transport.lsa_cells", "transport.lsa_s", "transport.lp_calls", "transport.lp_vars",
    "transport.lp_s", "transport.cell_inflation", "transport.pushforward_points",
    "transport.pushforward_s", "transport.marginal_residual_max",
    "probe.detect_periodic_s", "probe.map_applies", "probe.map_rows",
    "probe.contraction_audit_s", "probe.fit_single_flow_s", "probe.fit_evaluations",
    "probe.period2_found",
)
# the counts that must repeat exactly, and the workload each is heavy on
REPEATING = {
    "generate": ("flow.point_steps", "fields.eval_rows", "transport.lsa_cells"),
    "certify": ("flow.point_steps", "fields.eval_rows", "mlp.dense_weights"),
    "probe": ("probe.map_applies", "probe.fit_evaluations"),
}


def test_benchmark_json_lists_exactly_the_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(jobs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert list(run.END_TO_END) == ["run_s", "setup_s", "peak_rss_mb"]
    per_layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert per_layer == tracing.UNITS
    extra = {"fail_share", "trace.run_s", "trace.untraced_run_s", "trace.overhead_ratio"}
    assert set(per_layer) == set(LAYER_METRICS) | extra
    for workload, names in jobs.HEAVY.items():
        assert set(names) <= set(LAYER_METRICS), workload


def test_seed_determines_inputs():
    for workload in jobs.WORKLOADS:
        assert jobs.build_jobs(workload, 0) == jobs.build_jobs(workload, 0)
        assert jobs.build_jobs(workload, 0) != jobs.build_jobs(workload, 1)


def test_w1_oracle_passes_and_catches_a_wrong_value(monkeypatch):
    results = w1_oracle.check(0)
    assert {r[0].split(".")[1] for r in results} == {"assignment", "replication", "lp"}
    assert all(ok for _, ok, _ in results), results

    import incflow.transport as T

    exact = T.w1_exact

    def off_by_a_little(mu, nu):
        rep = exact(mu, nu)
        rep.w1 += 1e-8
        return rep

    monkeypatch.setattr(T, "w1_exact", off_by_a_little)
    assert not any(ok for _, ok, _ in w1_oracle.check(0))


def test_tracer_binds_every_lookup_and_unbinds():
    import incflow.cli as cli
    import incflow.fields as F
    import incflow.flow as FL
    import incflow.lift as LI
    import incflow.transport as TR

    before = {
        "lift.grid_realize": LI.grid_realize,
        "flow.grid_relu_approximate": FL.grid_relu_approximate,
        "transport.lsa": TR.linear_sum_assignment,
        "transport.linprog": TR.linprog,
        "FlowMap.apply": FL.FlowMap.apply,
        "FlowMap.__call__": FL.FlowMap.__call__,
        "VectorField.eval": F.VectorField.eval,
        "GridInterpolant.__call__": F.GridInterpolant.__call__,
        "cli command table": cli._COMMANDS["generate"],
    }
    tr = tracing.Tracer()
    tr.install()
    try:
        after = {
            "lift.grid_realize": LI.grid_realize,
            "flow.grid_relu_approximate": FL.grid_relu_approximate,
            "transport.lsa": TR.linear_sum_assignment,
            "transport.linprog": TR.linprog,
            "FlowMap.apply": FL.FlowMap.apply,
            "FlowMap.__call__": FL.FlowMap.__call__,
            "VectorField.eval": F.VectorField.eval,
            "GridInterpolant.__call__": F.GridInterpolant.__call__,
            "cli command table": cli._COMMANDS["generate"],
        }
        assert not tr.missing
        for key in before:
            assert after[key] is not before[key], key
            assert after[key].__wrapped__ is before[key], key
        tr.job = 0
        field = F.builtin_field("rotation_clipped")
        pts = np.random.default_rng(0).random((10, 2))
        FL.FlowMap(field, steps=3)(pts)
    finally:
        tr.uninstall()
    assert FL.FlowMap.apply is before["FlowMap.apply"]
    assert cli._COMMANDS["generate"] is before["cli command table"]
    m = tracing.layer_metrics(tr.arrays(), [0])
    assert m["flow.apply_calls"] == 1
    assert m["flow.point_steps"] == 30
    assert m["flow.evals_per_step"] == 4.0
    # radial clips evaluate their inner field: only the outer call counts
    assert m["fields.eval_calls"] == 12
    assert m["fields.eval_rows"] == 120


def test_self_time_subtracts_child_spans():
    sid = tracing.SPAN_NAMES.index
    spans = {
        "name": np.array([sid("transport.w1"), sid("transport.lsa"), sid("transport.lsa")]),
        "parent": np.array([-1, 0, 0]),
        "job": np.array([3, 3, 3]),
        "outer": np.array([True, True, True]),
        "start": np.array([0.0, 1.0, 4.0]),
        "end": np.array([10.0, 3.0, 5.0]),
        "n": np.array([12, 6, 6]),
        "m": np.zeros(3, dtype=np.int64),
        "v": np.zeros(3),
    }
    m = tracing.layer_metrics(spans, [3])
    assert m["transport.w1_s"] == 10.0
    assert m["transport.w1_self_s"] == 7.0
    assert m["transport.lsa_cells"] == 12
    assert m["transport.cell_inflation"] == 1.0
    assert tracing.layer_metrics(spans, [4])["transport.w1_calls"] == 0


def test_scale_counts_work_at_reference_speed():
    ref = speed.REF_CHUNK_S
    samples = np.array([[0.0, ref], [1.0, ref], [2.0, 2 * ref], [3.0, 2 * ref]])
    assert speed.scale(samples, 0.0, 1.5) == 1.5  # box at reference speed
    assert speed.scale(samples, 1.9, 3.1) == pytest.approx(0.6)  # box at half speed
    assert speed.scale(samples, 1.2, 1.3) == pytest.approx(0.1)  # nearest sample
    with speed.Sampler() as sampler:
        end = time.monotonic() + 0.2
        while time.monotonic() < end:
            sum(range(1000))
    assert len(sampler.samples) >= 5


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_traced_counts_repeat_and_heavy_layers_are_nonzero(workload):
    ns = argparse.Namespace(workload=workload, seed=11, seconds=1.0, trace=1)
    first, _ = run.run(ns)
    second, _ = run.run(ns)
    assert first["correct"] and second["correct"]
    a, b = first["metrics"], second["metrics"]
    for name in tracing.COUNTS:
        assert a[name]["value"] == b[name]["value"], name
    for name in REPEATING[workload]:
        assert a[name]["value"] > 0, name
