"""Span tracer that wraps incflow's functions from outside the package.

``Tracer.install`` replaces every binding of each target function with a
recording wrapper: the defining module's attribute, every copy made by
``from ... import`` in another incflow module, entries of module-level
dicts (the CLI's command table) and class attributes, aliases such as
``__call__ = apply`` included. Each call records one span (name, start,
end, parent span, job id) plus up to three sizes measured on the
arguments and the result. Spans live in flat arrays in memory and are
written out once, at the end of the run; ``layer_metrics`` derives the
per-layer metrics from them.
"""

from __future__ import annotations

import array
import functools
import sys
import time

import numpy as np


def _rows(x) -> int:
    shape = np.shape(x)
    return 1 if len(shape) < 2 else shape[0]


def _eval_rows(args, result):
    field, x = args[0], args[1]
    box = field.support_box
    if box is None:
        return _rows(x), 0, 0.0
    X = np.atleast_2d(np.asarray(x, dtype=float))
    idle = np.count_nonzero(((X < box[0]) | (X > box[1])).any(axis=1))
    return X.shape[0], idle, 0.0


def _arg_rows(args, result):
    return _rows(args[1]), 0, 0.0


def _flow_rows(args, result):
    return _rows(args[1]), args[0].steps, 0.0


def _net_size(args, result):
    dense = sum(W.size + b.size for W, b in result.layers)
    return dense, result.nonzeros, 0.0


def _cells(args, result):
    return np.size(args[0]), 0, 0.0


def _w1(args, result):
    return args[0].n * args[1].n, 0, result.marginal_residual


def _points(args, result):
    return args[1].n, 0, 0.0


def _evaluations(args, result):
    return result.evaluations, 0, 0.0


def _period2(args, result):
    hits = sum(r.classification == "periodic" and r.period == 2 for r in result)
    return hits, 0, 0.0


# (span name, defining module, attribute path, size measure or None)
TARGETS = (
    ("cli.approx_flow", "incflow.cli", "cmd_approx_flow", None),
    ("cli.lift_approx", "incflow.cli", "cmd_lift_approx", None),
    ("cli.generate", "incflow.cli", "cmd_generate", None),
    ("cli.probe", "incflow.cli", "cmd_probe", None),
    ("cli.verify", "incflow.cli", "cmd_verify", None),
    ("fields.eval", "incflow.fields", "VectorField.eval", _eval_rows),
    ("fields.grid_interp", "incflow.fields", "GridInterpolant.__call__", _arg_rows),
    ("fields.lipschitz_linf", "incflow.fields", "GridInterpolant.lipschitz_linf", None),
    ("fields.grid_realize", "incflow.fields", "grid_realize", None),
    ("fields.grid_relu_approximate", "incflow.fields", "grid_relu_approximate", None),
    ("fields.grid_to_mlp", "incflow.fields", "grid_to_mlp", _net_size),
    ("mlp.compose", "incflow.mlp", "compose", _net_size),
    ("flow.apply", "incflow.flow", "FlowMap.apply", _flow_rows),
    ("flow.generator_apply", "incflow.flow", "IncrementalGenerator.apply", _arg_rows),
    ("flow.approximate_generator", "incflow.flow", "approximate_generator", None),
    ("flow.save_generator", "incflow.flow", "save_generator", None),
    ("flow.verify_manifest", "incflow.flow", "verify_manifest", None),
    ("lift.approximate", "incflow.lift", "approximate_lipschitz_function", None),
    ("lift.apply", "incflow.lift", "LiftedApproximator.apply", None),
    ("lift.apply", "incflow.lift", "JointLiftedApproximator.apply", None),
    ("lift.save_lifted", "incflow.lift", "save_lifted", None),
    ("lift.verify", "incflow.lift", "verify_lifted_manifest", None),
    ("transport.w1", "incflow.transport", "w1_exact", _w1),
    ("transport.lsa", "incflow.transport", "linear_sum_assignment", _cells),
    ("transport.lp", "incflow.transport", "linprog", _cells),
    ("transport.pushforward", "incflow.transport", "pushforward", _points),
    ("probe.detect_periodic", "incflow.probe", "detect_periodic", _period2),
    ("probe.contraction_audit", "incflow.probe", "contraction_audit", None),
    ("probe.fit_single_flow", "incflow.probe", "fit_single_flow", _evaluations),
    ("probe.fit_gap_experiment", "incflow.probe", "fit_gap_experiment", None),
)

SPAN_NAMES = tuple(dict.fromkeys(t[0] for t in TARGETS))


def _lookup(module_name: str, path: str):
    obj = sys.modules[module_name]
    for part in path.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


class Tracer:
    """Records spans of the wrapped incflow functions in flat arrays."""

    def __init__(self):
        self.job = -1
        self.name = array.array("i")
        self.parent = array.array("i")
        self.job_id = array.array("i")
        self.outer = array.array("b")  # 1 unless nested in a span of its own name
        self.start = array.array("d")
        self.end = array.array("d")
        self.n = array.array("q")
        self.m = array.array("q")
        self.v = array.array("d")
        self.patched: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._depth = [0] * len(SPAN_NAMES)
        self._undo: list[tuple] = []

    def _wrap(self, sid: int, fn, measure):
        depth, stack = self._depth, self._stack
        name, parent, job_id, outer = self.name, self.parent, self.job_id, self.outer
        start, end, n, m, v = self.start, self.end, self.n, self.m, self.v
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            top = depth[sid] == 0
            name.append(sid)
            parent.append(stack[-1] if stack else -1)
            job_id.append(self.job)
            outer.append(top)
            end.append(0.0)
            n.append(0)
            m.append(0)
            v.append(0.0)
            stack.append(idx)
            depth[sid] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                depth[sid] -= 1
                stack.pop()
            if top and measure is not None:
                n[idx], m[idx], v[idx] = measure(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of every target in the loaded incflow modules."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "incflow" or key.startswith("incflow.")]
        for span, module_name, path, measure in TARGETS:
            label = f"{module_name}.{path}"
            try:
                orig = _lookup(module_name, path)
            except (KeyError, AttributeError):
                self.missing.append(label)
                continue
            wrapper = self._wrap(SPAN_NAMES.index(span), orig, measure)
            self.patched[label] = self._rebind(modules, orig, wrapper)

    def _rebind(self, modules, orig, wrapper) -> int:
        count = 0
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, key, wrapper, orig)
                    count += 1
                elif isinstance(val, dict):
                    for k2, v2 in list(val.items()):
                        if v2 is orig:
                            val[k2] = wrapper
                            self._undo.append((val.__setitem__, k2, orig))
                            count += 1
                elif isinstance(val, type) and val.__module__.startswith("incflow"):
                    for k2, v2 in list(vars(val).items()):
                        if v2 is orig:
                            self._set(val, k2, wrapper, orig)
                            count += 1
        return count

    def _set(self, owner, key, wrapper, orig) -> None:
        setattr(owner, key, wrapper)
        self._undo.append((functools.partial(setattr, owner), key, orig))

    def uninstall(self) -> None:
        while self._undo:
            setter, key, orig = self._undo.pop()
            setter(key, orig)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "job": np.array(self.job_id, dtype=np.int32),
            "outer": np.array(self.outer, dtype=bool),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "n": np.array(self.n, dtype=np.int64),
            "m": np.array(self.m, dtype=np.int64),
            "v": np.array(self.v),
        }

    def save(self, path, job_labels: list[str]) -> None:
        np.savez(path, span_names=np.array(SPAN_NAMES), job_labels=np.array(job_labels),
                 **self.arrays())


PROBE_SPANS = ("probe.detect_periodic", "probe.contraction_audit",
               "probe.fit_single_flow", "probe.fit_gap_experiment")

# per-layer metric name -> unit; layer_metrics computes all but
# cli.artifact_bytes (child.py), fail_share and the trace.* figures (run.py)
UNITS = {
    "cli.generate_s": "s", "cli.approx_flow_s": "s", "cli.lift_approx_s": "s",
    "cli.probe_s": "s", "cli.verify_s": "s", "cli.artifact_bytes": "bytes",
    "fields.eval_calls": "count", "fields.eval_rows": "count", "fields.eval_s": "s",
    "fields.idle_row_share": "share", "fields.grid_interp_rows": "count",
    "fields.grid_interp_s": "s", "fields.grid_realize_calls": "count",
    "fields.grid_realize_s": "s", "fields.grid_to_mlp_s": "s",
    "fields.lipschitz_linf_s": "s",
    "mlp.dense_weights": "count", "mlp.nonzeros": "count", "mlp.nonzero_share": "share",
    "mlp.compose_calls": "count", "mlp.compose_s": "s",
    "flow.apply_calls": "count", "flow.apply_s": "s", "flow.point_steps": "count",
    "flow.evals_per_step": "evals/step", "flow.approximate_generator_s": "s",
    "flow.save_generator_s": "s", "flow.verify_manifest_s": "s",
    "lift.approximate_s": "s", "lift.apply_s": "s", "lift.save_lifted_s": "s",
    "lift.verify_s": "s",
    "transport.w1_calls": "count", "transport.w1_s": "s", "transport.w1_self_s": "s",
    "transport.lsa_calls": "count", "transport.lsa_cells": "count",
    "transport.lsa_s": "s", "transport.lp_calls": "count", "transport.lp_vars": "count",
    "transport.lp_s": "s", "transport.cell_inflation": "ratio",
    "transport.pushforward_points": "count", "transport.pushforward_s": "s",
    "transport.marginal_residual_max": "mass",
    "probe.detect_periodic_s": "s", "probe.map_applies": "count",
    "probe.map_rows": "count", "probe.contraction_audit_s": "s",
    "probe.fit_single_flow_s": "s", "probe.fit_evaluations": "count",
    "probe.period2_found": "count",
    "fail_share": "share",
    "trace.run_s": "s", "trace.untraced_run_s": "s", "trace.overhead_ratio": "ratio",
}

# metrics that are exact counts of work, so they repeat across runs of a seed
COUNTS = tuple(k for k, u in UNITS.items() if u == "count")


def _ratio(a, b) -> float:
    return float(a) / float(b) if b else 0.0


def layer_metrics(spans: dict[str, np.ndarray], jobs) -> dict[str, float]:
    """Per-layer metrics over the spans of the given job ids.

    A span's self time is its duration minus that of its direct child
    spans. Timings and counts use outermost spans only, so recursion and
    fields nested inside fields are not counted twice.
    """
    name, parent, outer = spans["name"], spans["parent"], spans["outer"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                                  minlength=dur.size)
    sid = {s: k for k, s in enumerate(SPAN_NAMES)}
    in_probe = np.isin(name, [sid[s] for s in PROBE_SPANS])
    while True:  # inherit the flag down the parent chains
        grown = in_probe | (has_parent & in_probe[np.maximum(parent, 0)])
        if np.array_equal(grown, in_probe):
            break
        in_probe = grown
    keep = outer & np.isin(spans["job"], list(jobs))
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

    def sel(span, extra=None):
        mask = keep & (name == sid[span])
        return mask if extra is None else mask & extra

    def calls(span, extra=None):
        return int(sel(span, extra).sum())

    def secs(span):
        return float(dur[sel(span)].sum())

    def total(span, col="n", extra=None):
        return int(spans[col][sel(span, extra)].sum())

    flow_sel = sel("flow.apply")
    steps = int(spans["m"][flow_sel].sum())
    dense = total("fields.grid_to_mlp") + total("mlp.compose")
    nonzero = total("fields.grid_to_mlp", "m") + total("mlp.compose", "m")
    w1_cells = total("transport.w1")
    lsa_cells, lp_vars = total("transport.lsa"), total("transport.lp")
    eval_rows = total("fields.eval")
    w1_sel = sel("transport.w1")
    return {
        "cli.generate_s": secs("cli.generate"),
        "cli.approx_flow_s": secs("cli.approx_flow"),
        "cli.lift_approx_s": secs("cli.lift_approx"),
        "cli.probe_s": secs("cli.probe"),
        "cli.verify_s": secs("cli.verify"),
        "fields.eval_calls": calls("fields.eval"),
        "fields.eval_rows": eval_rows,
        "fields.eval_s": secs("fields.eval"),
        "fields.idle_row_share": _ratio(total("fields.eval", "m"), eval_rows),
        "fields.grid_interp_rows": total("fields.grid_interp"),
        "fields.grid_interp_s": secs("fields.grid_interp"),
        "fields.grid_realize_calls": calls("fields.grid_realize"),
        "fields.grid_realize_s": secs("fields.grid_realize"),
        "fields.grid_to_mlp_s": secs("fields.grid_to_mlp"),
        "fields.lipschitz_linf_s": secs("fields.lipschitz_linf"),
        "mlp.dense_weights": dense,
        "mlp.nonzeros": nonzero,
        "mlp.nonzero_share": _ratio(nonzero, dense),
        "mlp.compose_calls": calls("mlp.compose"),
        "mlp.compose_s": secs("mlp.compose"),
        "flow.apply_calls": int(flow_sel.sum()),
        "flow.apply_s": float(dur[flow_sel].sum()),
        "flow.point_steps": int((spans["n"][flow_sel] * spans["m"][flow_sel]).sum()),
        "flow.evals_per_step": _ratio(
            calls("fields.eval", parent_name == sid["flow.apply"]), steps),
        "flow.approximate_generator_s": secs("flow.approximate_generator"),
        "flow.save_generator_s": secs("flow.save_generator"),
        "flow.verify_manifest_s": secs("flow.verify_manifest"),
        "lift.approximate_s": secs("lift.approximate"),
        "lift.apply_s": secs("lift.apply"),
        "lift.save_lifted_s": secs("lift.save_lifted"),
        "lift.verify_s": secs("lift.verify"),
        "transport.w1_calls": int(w1_sel.sum()),
        "transport.w1_s": float(dur[w1_sel].sum()),
        "transport.w1_self_s": float(self_time[w1_sel].sum()),
        "transport.lsa_calls": calls("transport.lsa"),
        "transport.lsa_cells": lsa_cells,
        "transport.lsa_s": secs("transport.lsa"),
        "transport.lp_calls": calls("transport.lp"),
        "transport.lp_vars": lp_vars,
        "transport.lp_s": secs("transport.lp"),
        "transport.cell_inflation": _ratio(lsa_cells + lp_vars, w1_cells),
        "transport.pushforward_points": total("transport.pushforward"),
        "transport.pushforward_s": secs("transport.pushforward"),
        "transport.marginal_residual_max": float(spans["v"][w1_sel].max(initial=0.0)),
        "probe.detect_periodic_s": secs("probe.detect_periodic"),
        "probe.map_applies": calls("flow.generator_apply", in_probe),
        "probe.map_rows": total("flow.generator_apply", "n", in_probe),
        "probe.contraction_audit_s": secs("probe.contraction_audit"),
        "probe.fit_single_flow_s": secs("probe.fit_single_flow"),
        "probe.fit_evaluations": total("probe.fit_single_flow"),
        "probe.period2_found": total("probe.detect_periodic"),
    }
