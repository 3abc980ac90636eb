"""Every exported name exists, every name a demo imports from incflow
resolves, every demo call to such a name binds to its signature, every
function the benchmark's tracer wraps is still where it looks, and the
benchmark's job configs run. The demos are parsed, not run: running them
takes tens of seconds."""

import ast
import importlib
import importlib.util
import inspect
import json
import pathlib
import pkgutil

import numpy as np
import pytest

import incflow

MODULES = ["incflow"] + [f"incflow.{m.name}" for m in pkgutil.iter_modules(incflow.__path__)]
ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_is_defined(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names undefined: {missing}"


def test_demo_imports_from_incflow_resolve():
    assert DEMOS, "no demo scripts found"
    for path in DEMOS:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "incflow":
                mod = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(mod, alias.name), f"{path.name}: {node.module}.{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "incflow":
                        importlib.import_module(alias.name)


def test_demo_calls_bind_to_incflow_signatures():
    # a demo passing a removed keyword fails here, not only when it is run
    checked = 0
    for path in DEMOS:
        tree = ast.parse(path.read_text(), str(path))
        names = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "incflow":
                mod = importlib.import_module(node.module)
                for alias in node.names:
                    names[alias.asname or alias.name] = getattr(mod, alias.name)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in names):
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) or any(
                    k.arg is None for k in node.keywords):
                continue
            sig = inspect.signature(names[node.func.id])
            try:
                sig.bind(*node.args, **{k.arg: k.value for k in node.keywords})
            except TypeError as e:
                pytest.fail(f"{path.name}:{node.lineno}: {node.func.id}{sig}: {e}")
            checked += 1
    assert checked, "no demo calls to incflow names found"


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_job_configs_run(tmp_path, capsys):
    # the benchmark runs these configs through the CLI; a change that breaks
    # one (a key it sets dropped, an id renamed) fails here before a benchmark run
    from incflow.cli import main

    jobs = _load_perfbench("jobs")
    runs = (jobs.build_jobs("certify", 0) + jobs.build_jobs("probe", 0)
            + jobs.build_jobs("generate", 0)[:1])
    for job in runs:
        if job["command"] == "verify":
            argv = ["verify", str(tmp_path / job["manifest_of"] / "manifest.json")]
        else:
            cfg = tmp_path / f"{job['name']}.json"
            cfg.write_text(json.dumps(dict(job["config"], out_dir=str(tmp_path / job["name"]))))
            argv = [job["command"], str(cfg)]
        assert main(argv) == 0, (job["name"], capsys.readouterr().err)
    assert len(runs) == 10  # 8 certify jobs (4 runs, 4 verifies), 1 probe, 1 generate


def test_trace_targets_resolve():
    # a traced benchmark run fails on a target it cannot find; a rename fails here first
    tracing = _load_perfbench("tracing")
    assert tracing.TARGETS
    for _, module_name, path, _ in tracing.TARGETS:
        importlib.import_module(module_name)
        assert callable(tracing._lookup(module_name, path)), f"{module_name}.{path}"


def test_trace_field_measure_reads_every_field_kind():
    # the tracer's fields.eval measure reads each field's support box; a
    # field kind the CLI evaluates that lost the attribute fails here first
    from incflow.fields import (
        GridInterpolant, builtin_field, grid_field, lift_field,
        radial_bump_clip, rotation_field,
    )

    measure = _load_perfbench("tracing")._eval_rows
    rng = np.random.default_rng(0)
    X = rng.uniform(-0.5, 1.5, size=(40, 2))
    grid = grid_field(GridInterpolant((2, 2), rng.standard_normal((9, 2))))
    boxed = {
        "builtin": builtin_field("sin_bump"),
        "radial_clip": radial_bump_clip(rotation_field(), (0.5, 0.5), 0.1, 0.2,
                                        max_abs=0.2 * np.pi),
    }
    boxless = {
        "grid": grid,
        "lift": lift_field([lambda P: P[:, 0]], 1, [1.0]),
        "x_grid_lift": lift_field(grid_field(GridInterpolant((2,), rng.standard_normal((3, 1)))), 1),
    }
    for name, f in {**boxed, **boxless}.items():
        rows, idle, _ = measure((f, X), f.eval(X))
        assert rows == len(X), name
        if name in boxless:
            assert f.support_box is None and idle == 0, name
        else:
            lo, hi = f.support_box
            assert idle == np.count_nonzero(((X < lo) | (X > hi)).any(axis=1)) > 0, name


def test_trace_flow_measure_reads_the_flow_steps():
    # the tracer's flow.apply measure reads FlowMap.steps, the constant 1 of
    # an exact flow; a FlowMap that lost the attribute fails here first
    from incflow.fields import builtin_field
    from incflow.flow import FlowMap

    X = np.random.default_rng(0).random((10, 2))
    fl = FlowMap(builtin_field("rotation_clipped"), "backward")
    assert _load_perfbench("tracing")._flow_rows((fl, X), fl.apply(X)) == (10, 1, 0.0)
