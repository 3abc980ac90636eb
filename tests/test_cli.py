import copy
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import no_child_left, no_fork

import incflow
from incflow.cli import _REQUIRED, _SCHEMAS, ConfigError, _check, _write_csv, main
from incflow.fields import BUILTIN_FIELDS, GridInterpolant, _rotation_field, builtin_field, lattice
from incflow.flow import (
    ErrorCertificate,
    FlowMap,
    IncrementalGenerator,
    ManifestError,
    builtin_generator,
    load_generator,
    save_generator,
)
from incflow.lift import load_lifted

_SRC = os.path.dirname(os.path.dirname(incflow.__file__))
_README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
# what a manifest written with box_clip stage or lift fields is refused for
_OLD_FORMAT = "before stages and lifts became flows of grid fields"
# what a manifest flow stating an integrator other than exact/1 is refused for
_NOT_EXACT = "before every flow was exact"


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_approx_flow_happy_path(tmp_path):
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, "cfg.json", {
        "stages": [{"id": "squeeze_clipped"}],
        "n": 4, "eval_grid": 9, "out_dir": str(out),
    })
    assert main(["approx-flow", cfg]) == 0
    assert (out / "manifest.json").exists()
    assert (out / "metrics.csv").exists()
    acc = json.loads((out / "acceptance.json").read_text())
    assert acc["certificate_dominates"] is True
    assert acc["measured_sup_error"] <= acc["certificate_total"]


def test_approx_flow_zero_field_identity(tmp_path):
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, "cfg.json", {
        "stages": [{"id": "zero"}], "n": 4, "eval_grid": 5, "out_dir": str(out),
    })
    assert main(["approx-flow", cfg]) == 0
    acc = json.loads((out / "acceptance.json").read_text())
    assert acc["certificate_total"] == 0.0
    assert acc["measured_sup_error"] == 0.0


def test_malformed_config_exits_2_without_artifacts(tmp_path):
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, "cfg.json", {"stages": [{"id": "zero"}], "out_dir": str(out)})
    assert main(["approx-flow", cfg]) == 2  # missing n
    assert not out.exists()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["approx-flow", str(bad)]) == 2
    assert main(["approx-flow", str(tmp_path / "missing.json")]) == 2
    cfg = write_cfg(tmp_path, "cfg2.json", {
        "stages": [{"id": "nope"}], "n": 4, "out_dir": str(out)})
    assert main(["approx-flow", cfg]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command,cfg", [
    ("generate", {"generator": {"builtin": "identity2"}, "seed": 0, "M": 0}),
    ("generate", {"generator": {"builtin": "identity2"}, "seed": 0, "trials": 0}),
    ("probe-flowability", {"steps": 0}),
    ("probe-flowability", {"k_max": 0}),
    ("probe-flowability", {"grid_n": 1}),
    ("approx-flow", {"stages": [{"id": "zero"}], "n": 4, "steps": 0}),
    ("approx-flow", {"stages": [{"id": "zero"}], "n": 4, "eval_grid": 0}),
    # JSON parsing accepts NaN and Infinity; a float key must be finite
    ("probe-flowability", {"contraction_radius": float("inf")}),
    # the fit sub-config is checked before the orbit scan starts
    ("probe-flowability", {"grid_n": 3, "k_max": 1,
                           "fit": {"enabled": True, "budget": 0}}),
    ("probe-flowability", {"fit": {"enabled": True, "n_grid": 0}}),
    ("probe-flowability", {"fit": {"enabled": 1}}),
    ("probe-flowability", {"fit": {"enabled": True, "budget": True}}),
    # N_list: a nonempty, strictly increasing list of ints >= 1
    *[("generate", {"generator": {"builtin": "identity2"}, "seed": 0, "M": 8,
                    "trials": 1, "N_list": N_list})
      for N_list in ([0], [64, 16], [16, 16], ["a"], [], [True], [16.0])],
    ("lift-approx", {"function": {"id": "abs2x1"}, "n": 2, "test_points": 0}),
    ("generate", {"generator": {"builtin": "identity2"}, "seed": 0, "delta": -1.0}),
    ("generate", {"generator": {"builtin": "identity2"}, "seed": 0,
                  "noise": {"kind": "uniform", "dim": 2.0}}),
    ("generate", {"generator": {"builtin": "identity2"}, "seed": 0,
                  "target": {"kind": "uniform", "dim": 0}}),
    ("probe-flowability", {"contraction_radius": 0.0}),
    ("probe-flowability", {"contraction_radius": -0.01}),
    ("generate", {"generator": {"builtin": "identity2"}, "seed": 0, "C": float("nan")}),
    ("generate", {"generator": {"builtin": "identity2"}, "seed": 0, "delta": float("inf")}),
    # stage fields the library rejects, checked before any approximation
    ("approx-flow", {"stages": [{"id": "sin_bump", "params": {"amplitude": "x"}}], "n": 2}),
    ("approx-flow", {"stages": [{"id": "zero", "params": {"dim": 0}}], "n": 2}),
    ("approx-flow", {"stages": [{"id": "rotation_clipped", "params": {"center": [0.5]}}], "n": 2}),
    ("approx-flow", {"stages": [{"id": "rotation_clipped",
                                 "params": {"r_inner": 0.3, "r_outer": 0.2}}], "n": 2}),
    ("approx-flow", {"stages": [{"id": "squeeze_clipped", "params": {"center": [0.1, 0.1]}}],
                     "n": 2}),
    # the unclipped rotation and squeeze are no builtin ids
    ("approx-flow", {"stages": [{"id": "rotation"}], "n": 2}),
    ("approx-flow", {"stages": [{"id": "squeeze"}], "n": 2}),
    ("approx-flow", {"stages": [{"id": "zero", "params": {"dim": 3}}, {"id": "sin_bump"}],
                     "n": 2}),
    ("generate", {"generator": {"builtin": "identity2"}, "seed": 0, "M": 8, "trials": 1,
                  "N_list": [4], "target": {"kind": "uniform", "dim": 3}}),
    # stage params: an object of finite values
    ("approx-flow", {"stages": [{"id": "zero", "params": 5}], "n": 2}),
    ("approx-flow", {"stages": [{"id": "sin_bump", "params": {"amplitude": float("nan")}}],
                     "n": 2}),
    ("approx-flow", {"stages": [{"id": "rotation_clipped", "params": {"rate": float("inf")}}],
                     "n": 2}),
    ("approx-flow", {"stages": [{"id": "rotation_clipped",
                                 "params": {"center": [0.5, float("nan")]}}], "n": 2}),
    # ids are strings; a list used to fail as an unhashable key
    ("approx-flow", {"stages": [{"id": ["zero"]}], "n": 2}),
    ("lift-approx", {"function": {"id": ["abs2x1"]}, "n": 2}),
    # every key is in its subcommand's table, so a misspelled one is an error too
    ("approx-flow", {"stages": [{"id": "zero"}], "n": 1, "steps": 1, "eval_grid": 2,
                     "bogus_key": 1}),
    ("probe-flowability", {"grid_n": 2, "k_max": 1, "fit": {"budgte": 5}}),
    # stage params are a builder's keyword arguments, numbers and not bools
    ("approx-flow", {"stages": [{"id": "squeeze_clipped", "params": {"bogus": 1}}], "n": 1,
                     "steps": 1, "eval_grid": 2}),
    ("approx-flow", {"stages": [{"id": "zero", "params": {"dim": True}}], "n": 1, "steps": 1,
                     "eval_grid": 2}),
    # exactly one source of the function and of the generator
    ("lift-approx", {"function": {"id": "abs2x1", "csv": "samples.csv"}, "n": 1,
                     "test_points": 2}),
    ("generate", {"generator": {"builtin": "identity2", "manifest": "manifest.json"},
                  "seed": 0, "M": 8, "trials": 1, "N_list": [4]}),
    # at most FL.DEFAULT_T_BUDGET = 16 stages
    ("approx-flow", {"stages": [{"id": "zero"}] * 17, "n": 1, "steps": 1, "eval_grid": 2}),
    # an int literal past the float range, where a float is due
    ("generate", {"generator": {"builtin": "identity2"}, "seed": 0, "M": 8, "trials": 1,
                  "N_list": [4], "delta": 10**400}),
    # a center of the wrong length
    ("approx-flow", {"stages": [{"id": "squeeze_clipped", "params": {"center": []}}], "n": 2}),
    # one evaluation per restart: the fit's least budget is 2
    ("probe-flowability", {"fit": {"enabled": True, "budget": 1}}),
])
def test_out_of_range_config_exits_2(tmp_path, capsys, command, cfg):
    out = tmp_path / "run"
    path = write_cfg(tmp_path, "cfg.json", dict(cfg, out_dir=str(out)))
    assert main([command, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("manifest", [True, 0, 5])
def test_generate_non_string_manifest_exits_2(tmp_path, manifest):
    # a separate process, because open() takes an int or a bool as a file
    # descriptor: True read, and on closing lost, the process's stdout and
    # 0 its stdin
    out = tmp_path / "run"
    path = write_cfg(tmp_path, "cfg.json", {
        "generator": {"manifest": manifest}, "seed": 0, "out_dir": str(out)})
    script = ("import sys; from incflow.cli import main; "
              f"code = main(['generate', {path!r}]); print('stdout open'); sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", script], stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=_SRC))
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: config key 'manifest' must be")
    assert proc.stdout == "stdout open\n"
    assert not out.exists()


def test_artifacts_are_byte_deterministic(tmp_path):
    cfgs = []
    for k in (1, 2):
        out = tmp_path / f"run{k}"
        cfgs.append(write_cfg(tmp_path, f"cfg{k}.json", {
            "stages": [{"id": "sin_bump"}], "n": 4, "eval_grid": 9, "out_dir": str(out),
        }))
    assert main(["approx-flow", cfgs[0]]) == 0
    assert main(["approx-flow", cfgs[1]]) == 0
    for name in ("manifest.json", "metrics.csv", "acceptance.json", "stage0_grid.bin"):
        a = (tmp_path / "run1" / name).read_bytes()
        b = (tmp_path / "run2" / name).read_bytes()
        assert a == b, name


def test_verify_roundtrip_and_tamper(tmp_path):
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, "cfg.json", {
        "stages": [{"id": "squeeze_clipped"}], "n": 4, "eval_grid": 5, "out_dir": str(out),
    })
    assert main(["approx-flow", cfg]) == 0
    manifest = out / "manifest.json"
    assert main(["verify", str(manifest)]) == 0
    saved = manifest.read_text()
    doc = json.loads(saved)
    doc["lipschitz_bound"] *= 2
    manifest.write_text(json.dumps(doc))
    assert main(["verify", str(manifest)]) == 4
    doc = json.loads(saved)
    doc["certificate"]["lipschitz_product"] = 1.0
    manifest.write_text(json.dumps(doc))
    assert main(["verify", str(manifest)]) == 4
    assert main(["verify", str(tmp_path / "none.json")]) == 2
    not_object = tmp_path / "list.json"
    not_object.write_text("[]")
    assert main(["verify", str(not_object)]) == 2


@pytest.mark.parametrize("damage", ["missing", "truncated", "header_only"])
def test_verify_bad_grid_payload_exits_2(tmp_path, capsys, damage):
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, "cfg.json", {
        "stages": [{"id": "squeeze_clipped"}], "n": 4, "eval_grid": 5, "out_dir": str(out),
    })
    assert main(["approx-flow", cfg]) == 0
    payload = out / "stage0_grid.bin"
    raw = payload.read_bytes()
    if damage == "missing":
        payload.unlink()
    else:
        payload.write_bytes(raw[:-8] if damage == "truncated" else raw[:12])
    assert main(["verify", str(out / "manifest.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "Traceback" not in err


def test_lift_approx_happy_and_csv(tmp_path):
    out = tmp_path / "runlift"
    cfg = write_cfg(tmp_path, "cfg.json", {
        "function": {"id": "abs2x1"}, "n": 8, "test_points": 101,
        "out_dir": str(out),
    })
    assert main(["lift-approx", cfg]) == 0
    acc = json.loads((out / "acceptance.json").read_text())
    assert acc["within_certificate"] is True
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header == "x0,f0,fhat0,err0"

    samples = tmp_path / "samples.csv"
    xs = [float(x) for x in np.linspace(0, 1, 33)]
    samples.write_text(
        "x,f\n" + "\n".join(f"{x!r},{abs(2 * x - 1)!r}" for x in xs) + "\n"
    )
    out2 = tmp_path / "runlift2"
    cfg2 = write_cfg(tmp_path, "cfg2.json", {
        "function": {"csv": str(samples)},
        "n": 8, "test_points": 101, "out_dir": str(out2),
    })
    assert main(["lift-approx", cfg2]) == 0


def test_csv_cells_bytes(tmp_path):
    # a float, numpy's or Python's, is its shortest repr; an int, a string
    # and "" (the probe's missing period) are written as they are
    path = tmp_path / "cells.csv"
    _write_csv(str(path), ["a", "b", "c", "d"], [
        [np.float64(0.1), 0.1, np.float64(1e-05), 1e-05],
        [np.float64(1e16), 1e16, np.float64(-0.0), -0.0],
        [np.float64(2.0), 3, "periodic", ""],
    ])
    assert path.read_bytes() == (b"a,b,c,d\n0.1,0.1,1e-05,1e-05\n1e+16,1e+16,-0.0,-0.0\n"
                                 b"2.0,3,periodic,\n")


def test_verify_lift_manifest(tmp_path):
    out = tmp_path / "runlift"
    cfg = write_cfg(tmp_path, "cfg.json", {
        "function": {"id": "square"}, "n": 4, "test_points": 51,
        "out_dir": str(out),
    })
    assert main(["lift-approx", cfg]) == 0
    assert main(["verify", str(out / "manifest.json")]) == 0
    saved = (out / "manifest.json").read_text()
    for key in ("total_bound", "lipschitz_product"):
        doc = json.loads(saved)
        doc["certificates"][0][key] *= 3
        (out / "manifest.json").write_text(json.dumps(doc))
        assert main(["verify", str(out / "manifest.json")]) == 4, key


def test_every_lift_manifest_states_one_exact_step(tmp_path, capsys):
    # every lift, the signed sin_windowed too, is one exact step of the lift
    # of its x-grid field, whose payload the manifest names; an integrator
    # edited to the removed Euler method cannot be rebuilt
    for fid, mode in [("abs2x1", "componentwise"), ("affine_pair", "joint"),
                      ("sin_windowed", "componentwise")]:
        out = tmp_path / fid
        cfg = write_cfg(tmp_path, f"{fid}.json", {
            "function": {"id": fid}, "n": 4, "test_points": 11, "mode": mode,
            "out_dir": str(out),
        })
        assert main(["lift-approx", cfg]) == 0
        capsys.readouterr()
        assert main(["verify", str(out / "manifest.json")]) == 0, fid
        assert json.loads(capsys.readouterr().out)["ok"] is True
        doc = json.loads((out / "manifest.json").read_text())
        for k, c in enumerate(doc["components"]):
            assert c["integrator"] == {"method": "exact", "steps": 1}, fid
            assert c["field"] == {"backend": "lift", "d": 1, "inner": {
                "backend": "grid", "n": [4], "file": f"component{k}_grid.bin"}}, fid
        doc["components"][0]["integrator"]["method"] = "euler"
        (out / "manifest.json").write_text(json.dumps(doc))
        assert main(["verify", str(out / "manifest.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and len(err.splitlines()) == 1


@pytest.mark.parametrize("method,steps", [("euler", 1), ("rk4", 256)])
def test_lift_manifest_over_a_clipped_lift_grid_exits_2(tmp_path, capsys, method, steps):
    # the format before lifts were the flows of x-grids: a box_clip field over
    # a (d+D)-dim grid with one cell per lift axis, written here by hand
    out = tmp_path / "old"
    out.mkdir()
    GridInterpolant((4, 1), np.zeros((10, 2))).save(out / "component0_grid.bin")
    cert = ErrorCertificate.from_stages([(np.array([0.0, 0.5]), 2.0)], 4)
    doc = {"kind": "lifted_approximator", "d": 1, "D": 1, "certificates": [cert.to_dict()],
           "components": [{"direction": "forward",
                           "integrator": {"method": method, "steps": steps},
                           "field": {"backend": "box_clip", "box": [-1.0, 2.0], "delta": 0.2,
                                     "inner": {"backend": "grid", "n": [4, 1],
                                               "file": "component0_grid.bin"}}}]}
    path = out / "manifest.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and len(err.splitlines()) == 1
    assert _OLD_FORMAT in err
    with pytest.raises(ManifestError, match=_OLD_FORMAT):
        load_lifted(str(path))


@pytest.mark.parametrize("mode", ["componentwise", "joint"])
def test_verify_lift_manifest_with_edited_D_exits_2(tmp_path, capsys, mode):
    out = tmp_path / "runlift"
    cfg = write_cfg(tmp_path, "cfg.json", {
        "function": {"id": "affine_pair"}, "n": 2, "test_points": 11, "mode": mode,
        "out_dir": str(out),
    })
    assert main(["lift-approx", cfg]) == 0
    doc = json.loads((out / "manifest.json").read_text())
    doc["D"] = 3
    (out / "manifest.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(out / "manifest.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "Traceback" not in err


@pytest.mark.parametrize("command,cfg,cert", [
    ("approx-flow", {"stages": [{"id": "squeeze_clipped"}], "n": 4, "eval_grid": 5},
     lambda doc: doc["certificate"]),
    ("lift-approx", {"function": {"id": "square"}, "n": 4, "test_points": 11},
     lambda doc: doc["certificates"][0]),
], ids=["generator", "lift"])
def test_verify_certificate_that_overflows_exits_2(tmp_path, capsys, command, cfg, cert):
    # e^1000 leaves float range: the program could not have written this
    # manifest, since building its certificate would have overflowed
    out = tmp_path / "run"
    assert main([command, write_cfg(tmp_path, "cfg.json", dict(cfg, out_dir=str(out)))]) == 0
    doc = json.loads((out / "manifest.json").read_text())
    cert(doc)["per_stage"][0]["lipschitz"] = 1000.0
    (out / "manifest.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(out / "manifest.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and len(err.splitlines()) == 1


def test_lift_approx_config_errors(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cfg.json", {
        "function": {"csv": "nope.csv"}, "n": 8, "out_dir": str(tmp_path / "x")})
    assert main(["lift-approx", cfg]) == 2  # a samples file that cannot be read
    cfg = write_cfg(tmp_path, "cfg2.json", {
        "function": {"id": "abs2x1"}, "n": 8, "mode": "weird",
        "out_dir": str(tmp_path / "x")})
    assert main(["lift-approx", cfg]) == 2
    # the samples CSV is a path; np.loadtxt would read a list as inline CSV lines
    cfg = write_cfg(tmp_path, "cfg3.json", {
        "function": {"csv": ["x,y", "0,0", "1,1"]}, "n": 8,
        "out_dir": str(tmp_path / "x")})
    assert main(["lift-approx", cfg]) == 2
    # every lift axis has one grid cell, so there is no y resolution to choose
    cfg = write_cfg(tmp_path, "cfg4.json", {
        "function": {"id": "abs2x1"}, "n": 8, "collapse_y": True,
        "out_dir": str(tmp_path / "x")})
    assert main(["lift-approx", cfg]) == 2
    # a non-finite sample would reach the grid and fail at integration step 0
    for k, value in enumerate(["nan", "inf"]):
        samples = tmp_path / f"samples_{value}.csv"
        samples.write_text(f"x,f\n0.0,0.5\n0.5,{value}\n1.0,0.5\n")
        cfg = write_cfg(tmp_path, f"cfg{5 + k}.json", {
            "function": {"csv": str(samples)}, "n": 8,
            "out_dir": str(tmp_path / "x")})
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["lift-approx", cfg]) == 2, value
        err = capsys.readouterr().err
        assert err.startswith("config error") and len(err.splitlines()) == 1, value
    assert not (tmp_path / "x").exists()


def test_int_literal_too_long_to_parse_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"stages": [{"id": "zero"}], "n": 1' + "0" * 5000 + "}")
    assert main(["approx-flow", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and len(err.splitlines()) == 1


def test_config_path_that_is_a_directory_exits_2(tmp_path, capsys):
    assert main(["approx-flow", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and len(err.splitlines()) == 1


# the cheapest run of each subcommand that reaches its output directory
_CHEAP_RUNS = {
    "approx-flow": {"stages": [{"id": "zero"}], "n": 1, "eval_grid": 2, "steps": 1},
    "lift-approx": {"function": {"id": "abs2x1"}, "n": 1, "test_points": 2},
    "generate": {"generator": {"builtin": "identity2"}, "seed": 0, "M": 8, "trials": 1,
                 "N_list": [4]},
    "probe-flowability": {"grid_n": 2, "k_max": 1},
}


# the computation each subcommand starts once its config is checked
_COMPUTE = {
    "approx-flow": "incflow.flow.approximate_generator",
    "lift-approx": "incflow.lift.approximate_lipschitz_function",
    "generate": "incflow.transport.concentration_experiment",
    "probe-flowability": "incflow.probe.detect_periodic",
}


@pytest.mark.parametrize("command", sorted(_CHEAP_RUNS))
@pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
def test_out_dir_that_cannot_be_created_exits_2(tmp_path, capsys, monkeypatch, command, under):
    def unreached(*args, **kwargs):
        raise AssertionError("the run started before its out_dir was made")

    monkeypatch.setattr(_COMPUTE[command], unreached)
    taken = tmp_path / "taken"
    taken.write_text("keep")
    out = taken / "run" if under else taken
    path = write_cfg(tmp_path, "cfg.json", dict(_CHEAP_RUNS[command], out_dir=str(out)))
    assert main([command, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and len(err.splitlines()) == 1
    assert taken.read_text() == "keep"  # nothing written


_LINE = "x,f\n0.0,1.0\n1.0,0.0\n"


# a CSV's Lipschitz constant is its interpolant's largest slope, so a config
# that still states one, whatever its value, names an unknown key
@pytest.mark.parametrize("extra,rows", [
    ({"lipschitz": "abc"}, _LINE),
    ({"lipschitz": -2.0}, _LINE),
    ({}, "x\n0.0\n0.5\n1.0\n"),
    ({}, "x,f\n0.5,0.2\n"),
    ({}, "x,f\n0.0,a\n1.0,b\n"),
    ({"lipschitz": float("inf")}, _LINE),
    ({}, "x,f\n0.0,0.3\n0.5,1.0\n0.5,0.0\n1.0,0.3\n"),
], ids=["lipschitz_not_a_number", "lipschitz_negative", "one_column", "one_row", "not_numbers",
        "lipschitz_infinite", "repeated_x"])
def test_lift_approx_bad_samples_csv_exits_2(tmp_path, capsys, extra, rows):
    samples = tmp_path / "samples.csv"
    samples.write_text(rows)
    out = tmp_path / "run"
    path = write_cfg(tmp_path, "cfg.json", {
        "function": {"csv": str(samples), **extra}, "n": 4,
        "out_dir": str(out)})
    assert main(["lift-approx", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command,cfg", [
    ("approx-flow", {"stages": [{"id": "rotation_clipped", "params": {"rate": 1000}}],
                     "n": 1, "steps": 1, "eval_grid": 2}),
    ("approx-flow", {"stages": [{"id": "sin_bump", "params": {"amplitude": 1e300}}],
                     "n": 1, "steps": 1, "eval_grid": 2}),
    ("lift-approx", {"function": {"csv": "steep.csv"}, "n": 1, "test_points": 2}),
    ("lift-approx", {"function": {"csv": "steeper.csv"}, "n": 1, "test_points": 2}),
    ("generate", {"generator": {"builtin": "identity2"}, "seed": 0, "M": 8, "trials": 1,
                  "N_list": [4], "delta": 1e300}),
], ids=["rotation_rate", "sin_bump_amplitude", "csv_lipschitz", "csv_slope",
        "generate_delta"])
def test_overflow_is_a_numeric_failure(tmp_path, capsys, monkeypatch, command, cfg):
    # exp(L) of a certificate, a CSV's slope (its L), or delta**2 of the
    # concentration bound leaves float range
    monkeypatch.chdir(tmp_path)
    (tmp_path / "steep.csv").write_text("x,f\n0.0,0.0\n1.0,1e308\n")
    (tmp_path / "steeper.csv").write_text("x,f\n0.0,0.0\n1e-300,1e300\n")
    path = write_cfg(tmp_path, "cfg.json", dict(cfg, out_dir="run"))
    assert main([command, path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure") and len(err.splitlines()) == 1


def test_failed_transport_lp_is_a_numeric_failure(tmp_path, capsys, monkeypatch):
    # 48 does not divide 1024, so the W1 solve takes the LP, whose HiGHS call fails
    from scipy.optimize import OptimizeResult

    import incflow.transport as T

    monkeypatch.setattr(T, "linprog", lambda *args, **kwargs: OptimizeResult(
        success=False, message="stubbed solver failure"))
    path = write_cfg(tmp_path, "cfg.json", {
        "generator": {"builtin": "identity2"}, "seed": 0, "M": 1024, "trials": 1,
        "N_list": [48], "out_dir": str(tmp_path / "run")})
    assert main(["generate", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure") and len(err.splitlines()) == 1
    assert "stubbed solver failure" in err
    no_child_left()  # the W1 solves left no worker behind


def test_generate_without_a_worker_process_writes_the_same_bytes(tmp_path, monkeypatch, forks):
    # a fork that fails leaves every W1 solve to this process, to the same bits
    runs = []
    for k in range(2):
        if k:
            monkeypatch.setattr(os, "fork", no_fork)
        out = tmp_path / f"run{k}"
        assert main(["generate", write_cfg(tmp_path, f"gen{k}.json", {
            "generator": {"builtin": "counterexample"}, "seed": 5, "M": 64, "trials": 2,
            "N_list": [4, 6, 32], "out_dir": str(out)})]) == 0
        runs.append([(out / name).read_bytes()
                     for name in ("manifest.json", "metrics.csv", "acceptance.json")])
        no_child_left()
    assert len(forks) == 1
    assert runs[0] == runs[1]


def test_probe_without_a_worker_process_writes_the_same_bytes(tmp_path, monkeypatch, forks):
    # a fork that fails leaves both fits to this process, to the same bits
    runs = []
    for k in range(2):
        if k:
            monkeypatch.setattr(os, "fork", no_fork)
        out = tmp_path / f"run{k}"
        assert main(["probe-flowability", write_cfg(tmp_path, f"probe{k}.json", {
            "seed": 3, "grid_n": 9, "k_max": 2, "fit": {"enabled": True, "budget": 120},
            "out_dir": str(out)})]) == 0
        runs.append([(out / name).read_bytes()
                     for name in ("fitgap.json", "orbits.csv", "contraction.csv")])
        no_child_left()
    assert len(forks) == 1
    assert runs[0] == runs[1]


def test_main_keeps_no_state_between_calls(tmp_path, capsys):
    # the parser is built once; a second call does not see the first's --out-dir
    first, second = tmp_path / "first", tmp_path / "second"
    cfg = write_cfg(tmp_path, "flow.json", {
        "stages": [{"id": "sin_bump"}], "n": 4, "eval_grid": 5, "out_dir": str(tmp_path / "x")})
    assert main(["approx-flow", cfg, "--out-dir", str(first)]) == 0
    assert main(["generate", write_cfg(tmp_path, "gen.json", {
        "generator": {"builtin": "identity2"}, "seed": 0, "M": 8, "trials": 1, "N_list": [4],
        "out_dir": str(second)})]) == 0
    assert not (tmp_path / "x").exists()
    assert json.loads((first / "manifest.json").read_text())["kind"] == "incremental_generator"
    assert json.loads((second / "manifest.json").read_text())["kind"] == "generate_run"


def _damage_manifest(run, defect):
    manifest = run / "manifest.json"
    if defect == "truncated_payload":
        payload = run / "stage0_grid.bin"
        payload.write_bytes(payload.read_bytes()[:-8])
    elif defect == "not_an_object":
        manifest.write_text("[]")
    else:
        doc = json.loads(manifest.read_text())
        if defect == "unknown_backend":
            doc["stages"][0]["field"]["backend"] = "bogus"
        elif defect == "grid_ref_without_file":
            del doc["stages"][0]["field"]["file"]
        elif defect == "steps_float":
            doc["stages"][0]["integrator"]["steps"] = 2.5
        elif defect == "steps_bool":
            doc["stages"][0]["integrator"]["steps"] = True
        elif defect.startswith("rk4_steps_"):
            # every flow is exact: an RK4 record is refused whatever its steps
            doc["stages"][0]["integrator"] = {"method": "rk4",
                                              "steps": int(defect.split("_")[-1])}
        elif defect == "cert_product_missing":
            del doc["certificate"]["lipschitz_product"]
        # a number of another type, which a coercing reader would take
        elif defect == "cert_n_string":
            doc["certificate"]["n"] = str(doc["certificate"]["n"])
        elif defect == "cert_total_string":
            doc["certificate"]["total_bound"] = str(doc["certificate"]["total_bound"])
        elif defect == "cert_omega_strings":
            stage = doc["certificate"]["per_stage"][0]
            stage["omega"] = [str(w) for w in stage["omega"]]
        elif defect == "squeeze_clipped_line_x":
            # the clipped squeeze always squeezes onto its center line
            doc["stages"][0]["field"] = {"backend": "analytic", "id": "squeeze_clipped",
                                         "params": {"line_x": 0.45}}
        elif defect == "grid_n_edited":
            # the record's n disagrees with the payload's header
            doc["stages"][0]["field"]["n"] = [4, 7]
        # JSON parsing accepts NaN and Infinity; a manifest number must be finite
        elif defect == "rotation_center_nan":
            doc["stages"][0]["field"] = {"backend": "analytic", "id": "rotation_clipped",
                                         "params": {"center": [math.nan, 0.5]}}
        elif defect == "lipschitz_bound_infinity":
            doc["lipschitz_bound"] = -math.inf
        # a stage that leaves the cube, with the generator's Lipschitz bound
        # restated to match it: a builtin that approx-flow refuses, and the
        # unclipped rotation, which is no builtin id
        elif defect.startswith("off_cube_"):
            field = {"off_cube_rotation_clipped": {"id": "rotation_clipped",
                                                   "params": {"center": [0.1, 0.5]}},
                     "off_cube_rotation": {"id": "rotation",
                                           "params": {"center": [0.5, 0.5], "rate": 0.7}},
                     }[defect]
            build = {**BUILTIN_FIELDS, "rotation": _rotation_field}[field["id"]]
            doc["stages"][0]["field"] = dict(field, backend="analytic")
            doc["lipschitz_bound"] = math.exp(build(**field["params"]).lipschitz_bound)
        else:
            doc["stages"] = 5
        manifest.write_text(json.dumps(doc))
    return manifest


@pytest.mark.parametrize("command", ["verify", "generate"])
@pytest.mark.parametrize("defect", [
    "unknown_backend", "stages_not_a_list", "truncated_payload", "not_an_object",
    "grid_ref_without_file", "steps_float", "steps_bool", "rk4_steps_4097",
    "rk4_steps_1000000000", "cert_product_missing", "squeeze_clipped_line_x",
    "cert_n_string", "cert_total_string", "cert_omega_strings", "grid_n_edited",
    "rotation_center_nan", "lipschitz_bound_infinity", "off_cube_rotation_clipped",
    "off_cube_rotation"])
def test_malformed_manifest_exits_2_from_both_readers(tmp_path, capsys, command, defect):
    # sin_bump's grid is nonzero, so a reader that let a defect through
    # would move the generate half's rows
    run = tmp_path / "run"
    cfg = write_cfg(tmp_path, "cfg.json", {
        "stages": [{"id": "sin_bump"}], "n": 4, "eval_grid": 5, "out_dir": str(run)})
    assert main(["approx-flow", cfg]) == 0
    assert np.abs(GridInterpolant.load(run / "stage0_grid.bin").values).max() > 0
    manifest = _damage_manifest(run, defect)
    capsys.readouterr()
    out = tmp_path / "gen"
    if command == "verify":
        argv = ["verify", str(manifest)]
    else:
        argv = ["generate", write_cfg(tmp_path, "gen.json", {
            "generator": {"manifest": str(manifest)}, "seed": 0, "M": 8, "trials": 1,
            "N_list": [4], "out_dir": str(out)})]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and len(err.splitlines()) == 1
    assert not out.exists()
    if defect == "off_cube_rotation_clipped":
        assert "stage 0 (rotation_clipped)" in err
    elif defect == "off_cube_rotation":
        assert "unknown field id 'rotation'" in err


def test_exact_sin_bump_manifest_reads_as_its_closed_form(tmp_path, capsys):
    # sin_bump carries its closed-form flow, so a stage stating exact/1 for
    # it reads in both readers and applies that map
    f = builtin_field("sin_bump")
    path = save_generator(IncrementalGenerator([FlowMap(f)]), str(tmp_path / "gen"))
    assert json.loads(open(path).read())["stages"][0]["integrator"] == {
        "method": "exact", "steps": 1}
    assert main(["verify", path]) == 0
    (stage,) = load_generator(path).stages
    X = lattice([17, 17])
    assert np.array_equal(stage.apply(X), f.flow(X, 1.0))
    assert main(["generate", write_cfg(tmp_path, "gen.json", {
        "generator": {"manifest": path}, "seed": 0, "M": 8, "trials": 1, "N_list": [4],
        "out_dir": str(tmp_path / "run")})]) == 0


def _approx_flow_manifest(tmp_path):
    run = tmp_path / "run"
    assert main(["approx-flow", write_cfg(tmp_path, "cfg.json", {
        "stages": [{"id": "squeeze_clipped"}, {"id": "sin_bump"}], "n": 4, "eval_grid": 9,
        "out_dir": str(run)})]) == 0
    return run / "manifest.json"


def _generate_from(tmp_path, manifest):
    return main(["generate", write_cfg(tmp_path, "gen.json", {
        "generator": {"manifest": str(manifest)}, "seed": 0, "M": 8, "trials": 1,
        "N_list": [4], "out_dir": str(tmp_path / "gen")})])


def test_exact_grid_manifest_reads_as_its_closed_form(tmp_path, capsys):
    # every approx-flow stage is the exact flow of its grid field, stated
    # exact/1; both readers rebuild it as that field's closed form
    path = _approx_flow_manifest(tmp_path)
    doc = json.loads(path.read_text())
    assert [s["integrator"] for s in doc["stages"]] == [{"method": "exact", "steps": 1}] * 2
    assert main(["verify", str(path)]) == 0
    X = lattice([17, 17])
    for stage in load_generator(str(path)).stages:
        assert stage.field.ref["backend"] == "grid"
        assert np.array_equal(stage.apply(X), stage.field.flow(X, 1.0))
    assert _generate_from(tmp_path, path) == 0


def test_rk4_grid_manifest_exits_2(tmp_path, capsys):
    # a manifest whose grid stages state rk4/256, as approx-flow wrote them
    # before the stages were exact, is the old format: both readers refuse
    # it, whatever its steps, with one line that names the format change
    path = _approx_flow_manifest(tmp_path)
    doc = json.loads(path.read_text())
    for steps in (256, 4096, 1):
        for stage in doc["stages"]:
            stage["integrator"] = {"method": "rk4", "steps": steps}
        path.write_text(json.dumps(doc))
        for run in (lambda: main(["verify", str(path)]), lambda: _generate_from(tmp_path, path)):
            assert run() == 2, steps
            err = capsys.readouterr().err
            assert err.startswith("config error") and len(err.splitlines()) == 1
            assert _NOT_EXACT in err
    with pytest.raises(ManifestError, match=_NOT_EXACT):
        load_generator(str(path))


_SIN_BUMP_RUN = {"stages": [{"id": "sin_bump"}], "n": 4, "eval_grid": 5}
_PAIR_RUN = {"function": {"id": "affine_pair"}, "n": 4, "test_points": 11, "mode": "joint"}


@pytest.mark.parametrize("command, cfg, path, value", [
    ("approx-flow", _SIN_BUMP_RUN, ("lipschitz_bound",), "string"),
    ("lift-approx", _PAIR_RUN, ("d",), 1.5),
    ("lift-approx", _PAIR_RUN, ("d",), True),
    ("lift-approx", _PAIR_RUN, ("D",), 2.0),
    ("lift-approx", _PAIR_RUN, ("components", 0, "field", "d"), True),
    ("lift-approx", _PAIR_RUN, ("components", 0, "field", "d"), 1.0),
    ("lift-approx", _PAIR_RUN, ("components", 0, "field", "inner", "n"), [7]),
    ("lift-approx", _PAIR_RUN, ("components", 0, "field", "inner", "n"), [True]),
    ("counterexample", None, ("stages", 1, "field", "params", "center"), [True, 0.5]),
    ("counterexample", None, ("stages", 1, "field", "params", "rate"), True),
], ids=["lipschitz_bound_string", "d_float", "d_bool", "D_float", "field_d_bool",
        "field_d_float", "grid_n_edited", "grid_n_bool", "stage_center_bool",
        "stage_rate_bool"])
def test_manifest_number_of_another_type_exits_2(tmp_path, capsys, command, cfg, path, value):
    # a manifest number is read as it is: coerced, each of these edits
    # would read as the number the program wrote, and verify would pass.
    # An analytic stage's params (the saved builtin counterexample holds two
    # such stages) follow the config's rule, and a grid record's n is its payload's.
    run = tmp_path / "run"
    if command == "counterexample":
        save_generator(builtin_generator(command), str(run))
    else:
        assert main([command, write_cfg(tmp_path, "cfg.json", dict(cfg, out_dir=str(run)))]) == 0
    manifest = run / "manifest.json"
    doc = json.loads(manifest.read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = str(node[path[-1]]) if value == "string" else value
    manifest.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(manifest)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and len(err.splitlines()) == 1


def test_negative_sin_bump_amplitude_certifies(tmp_path):
    # the bound is |A| (2 pi + 8), and the flow runs for either sign of c = A q(y)
    run = tmp_path / "run"
    assert main(["approx-flow", write_cfg(tmp_path, "cfg.json", {
        "stages": [{"id": "sin_bump", "params": {"amplitude": -0.2}}], "n": 16,
        "out_dir": str(run)})]) == 0
    assert json.loads((run / "acceptance.json").read_text())["certificate_dominates"] is True
    assert main(["verify", str(run / "manifest.json")]) == 0


@pytest.mark.parametrize("defect, check", [
    ("drop_stage", "certificate_stages"),
    ("drop_lift_component", "certificates"),
    ("drop_lift_certificate", "certificates"),
])
def test_certificate_columns_must_match_the_stages(tmp_path, capsys, defect, check):
    # the n=4 squeeze grid is 0 at every vertex, so dropping that stage
    # leaves an e^0 column whose products still match; only the column
    # count against the stages (or components) shows the edit
    run = tmp_path / "run"
    if defect == "drop_stage":
        argv = ["approx-flow", write_cfg(tmp_path, "cfg.json", {
            "stages": [{"id": "squeeze_clipped"}, {"id": "sin_bump"}], "n": 4,
            "eval_grid": 5, "out_dir": str(run)})]
    else:
        argv = ["lift-approx", write_cfg(tmp_path, "cfg.json", {
            "function": {"id": "affine_pair"}, "n": 4, "test_points": 11,
            "out_dir": str(run)})]
    assert main(argv) == 0
    manifest = run / "manifest.json"
    assert main(["verify", str(manifest)]) == 0
    doc = json.loads(manifest.read_text())
    if defect == "drop_stage":
        del doc["stages"][0]
    elif defect == "drop_lift_component":
        del doc["components"][1]
        doc["D"] -= 1
    else:
        del doc["certificates"][1]
    manifest.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(manifest)]) == 4
    report = json.loads(capsys.readouterr().out)
    assert [k for k, c in report.items() if k != "ok" and not c["ok"]] == [check]


def test_builtin_generator_manifest_verifies_and_generates_alike(tmp_path, capsys):
    # a saved builtin generator states its exact stages and reads back as itself
    path = save_generator(builtin_generator("counterexample"), str(tmp_path / "gen"))
    assert main(["verify", path]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    runs = []
    for k, source in enumerate([{"builtin": "counterexample"}, {"manifest": path}]):
        out = tmp_path / f"run{k}"
        assert main(["generate", write_cfg(tmp_path, f"gen{k}.json", {
            "generator": source, "seed": 3, "M": 64, "trials": 2, "N_list": [4, 16],
            "out_dir": str(out)})]) == 0
        runs.append((out / "metrics.csv").read_text())
    assert runs[0] == runs[1]


def test_manifest_with_box_clipped_stages_exits_2(tmp_path, capsys):
    # the format before approx-flow stages dropped their cutoff: each stage
    # field a box_clip around its grid, written here by hand
    out = tmp_path / "old"
    out.mkdir()
    stages = []
    for k in range(2):
        GridInterpolant((4, 4), np.zeros((25, 2))).save(out / f"stage{k}_grid.bin")
        stages.append({"direction": "forward", "integrator": {"method": "rk4", "steps": 8},
                       "field": {"backend": "box_clip", "box": [0.0, 1.0], "delta": 0.2,
                                 "inner": {"backend": "grid", "n": [4, 4],
                                           "file": f"stage{k}_grid.bin"}}})
    cert = ErrorCertificate.from_stages([(np.full(2, 0.25), 1.0)] * 2, 4)
    path = out / "manifest.json"
    path.write_text(json.dumps({
        "kind": "incremental_generator", "dim": 2, "incrementality": 2,
        "lipschitz_bound": cert.lipschitz_product, "stages": stages,
        "certificate": cert.to_dict()}))
    for run in (lambda: main(["verify", str(path)]), lambda: _generate_from(tmp_path, path)):
        assert run() == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and len(err.splitlines()) == 1
        assert _OLD_FORMAT in err
    with pytest.raises(ManifestError, match=_OLD_FORMAT):
        load_generator(str(path))


@pytest.mark.parametrize("key,size", [("eval_grid", 257), ("n", 256)])
def test_approx_flow_lattice_past_the_point_bound_exits_2(tmp_path, capsys, key, size):
    # an 8-d zero stage: 257**8 or 1025**8 points, ~1e20 bytes, checked
    # before anything is allocated
    out = tmp_path / "run"
    cfg = {"stages": [{"id": "zero", "params": {"dim": 8}}], "n": 1, "eval_grid": 2,
           key: size, "out_dir": str(out)}
    assert main(["approx-flow", write_cfg(tmp_path, "cfg.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and len(err.splitlines()) == 1
    assert not out.exists()


def test_generate_run(tmp_path):
    out = tmp_path / "rungen"
    cfg = write_cfg(tmp_path, "cfg.json", {
        "generator": {"builtin": "identity2"}, "N_list": [8, 32],
        "trials": 4, "delta": 0.1, "seed": 5, "M": 64, "out_dir": str(out),
    })
    assert main(["generate", cfg]) == 0
    rows = (out / "metrics.csv").read_text().splitlines()
    assert rows[0] == "N,trial,w1,bound_rhs,prob_lhs"
    assert len(rows) == 1 + 2 * 4
    man = json.loads((out / "manifest.json").read_text())
    assert man["constant_C_verified"] is False
    assert main(["generate", write_cfg(tmp_path, "bad.json", {
        "generator": {"builtin": "nope"}, "seed": 0, "out_dir": str(out)})]) == 2


def test_probe_flowability_run(tmp_path):
    out = tmp_path / "runprobe"
    cfg = write_cfg(tmp_path, "cfg.json", {
        "seed": 0, "grid_n": 9, "k_max": 2,
        "fit": {"enabled": False}, "out_dir": str(out),
    })
    assert main(["probe-flowability", cfg]) == 0
    acc = json.loads((out / "acceptance.json").read_text())
    assert acc["period2_found_near_line"] is True
    assert acc["contraction_ok"] is True
    orbits = (out / "orbits.csv").read_text().splitlines()
    assert orbits[0] == "x0,x1,classification,period"
    assert (out / "contraction.csv").exists()


def _dotted(schema, prefix=""):
    """A config table's key names as the README writes them: a nested table
    by its keys (``fit.budget``), a list by its name and, for a list of
    tables, by its items' keys too (``stages[].id``)."""
    for key, (typ, *_) in schema.items():
        if isinstance(typ, dict):
            yield from _dotted(typ, f"{prefix}{key}.")
            continue
        yield prefix + key
        if isinstance(typ, list) and isinstance(typ[0][0], dict):
            yield from _dotted(typ[0][0], f"{prefix}{key}[].")


def _readme_tables():
    """{subcommand: {key: range column}} from the README's config tables; a
    table row goes to the last line before it that opens with a subcommand."""
    tables, command = {}, None
    with open(_README) as fh:
        for line in fh:
            head = re.match(r"`([a-z-]+)`", line)
            if head and head.group(1) in _SCHEMAS:
                command = head.group(1)
            elif line.startswith("| `"):
                cells = line.split("|")
                for key in re.findall(r"`([^`]+)`", cells[1]):
                    tables.setdefault(command, {})[key] = cells[4]
    return tables


def test_readme_config_tables_match_the_schemas():
    tables = _readme_tables()
    assert {cmd: set(rows) for cmd, rows in tables.items()} == {
        cmd: set(_dotted(schema)) for cmd, schema in _SCHEMAS.items()}


def test_readme_config_examples_each_pass_one_table():
    with open(_README) as fh:
        blocks = re.findall(r"```json\n(.*?)```", fh.read(), re.S)
    owners = []
    for block in blocks:
        cfg, passes = json.loads(block), []
        for cmd, schema in _SCHEMAS.items():
            try:
                _check(cfg, schema)
                passes.append(cmd)
            except ConfigError:
                pass
        assert len(passes) == 1, (block, passes)
        owners += passes
    assert sorted(owners) == sorted(_SCHEMAS)


def _rule_paths(path, rule):
    """Every (key path, rule) under a rule; a list's items sit at index 0."""
    yield path, rule
    typ = rule[0]
    if isinstance(typ, dict):
        for key, sub in typ.items():
            yield from _rule_paths(path + (key,), sub)
    elif isinstance(typ, list):
        yield from _rule_paths(path + (0,), typ[0])


_PATHS = {cmd: [pr for pr in _rule_paths((), (schema, _REQUIRED)) if pr[0]]
          for cmd, schema in _SCHEMAS.items()}
_JSON_VALUES = [None, "x", 2, 2.5, True, [], {}]
_NON_FINITE = "__non_finite__"


def _json_types(typ):
    """The JSON value types a rule's type accepts."""
    if isinstance(typ, (tuple, dict, list)):
        return {tuple: (str,), dict: (dict,), list: (list,)}[type(typ)]
    return (int, float) if typ is float else (typ,)


def _mutations(base, path, rule):
    """(name, value at path) pairs, or ("sibling", None), each a config error."""
    typ, default, lo, hi = (*rule, None, None)[:4]
    node = base
    for key in path[:-1]:
        node = node.get(key, {}) if isinstance(key, str) else node[key]
    present = isinstance(path[-1], int) or path[-1] in node
    value = node[path[-1]] if present else default
    if value is None or value is _REQUIRED:
        value = typ[0] if isinstance(typ, tuple) else 1 if typ in (int, float) else "x"
    out = [("wrong_type", v) for v in _JSON_VALUES if type(v) not in _json_types(typ)]
    out += [("wrapped", [value]), ("non_finite", _NON_FINITE)]
    if typ in (int, float):
        out += [("bool", True), ("bool", False)]
    if isinstance(typ, list):
        item = value[0]
        out += [("length", [item] * (lo - 1))] if lo is not None else []
        out += [("length", [item] * (hi + 1))] if hi is not None else []
    elif typ is float:
        out += [("bound", math.nextafter(lo, -math.inf))] if lo is not None else []
    elif typ is int:
        out += [("bound", lo - 1)] if lo is not None else []
        out += [("bound", hi + 1)] if hi is not None else []
    if isinstance(path[-1], str):
        out.append(("sibling", None))
    return out


def _set(cfg, path, name, value):
    node = cfg
    for key in path[:-1]:
        node = node.setdefault(key, {}) if isinstance(key, str) else node[key]
    if name == "sibling":
        node["bogus_key"] = 1
    else:
        node[path[-1]] = value


# every size key's maximum: (subcommand, key path, maximum)
_MAXIMA = [(cmd, path, rule[3]) for cmd, paths in _PATHS.items() for path, rule in paths
           if rule[0] is int and len(rule) > 3]


# the int keys that size a run's work (a sampler's dim must equal the generator's)
_SIZE_KEYS = {
    "approx-flow": [("n",), ("steps",), ("eval_grid",)],
    "lift-approx": [("n",), ("test_points",)],
    "generate": [("N_list", 0), ("trials",), ("M",)],
    "probe-flowability": [("grid_n",), ("k_max",), ("fit", "budget"), ("fit", "n_grid")],
}


def test_every_size_key_has_a_maximum_stated_in_the_readme():
    assert sorted((cmd, path) for cmd, path, _ in _MAXIMA) == sorted(
        (cmd, path) for cmd, paths in _SIZE_KEYS.items() for path in paths)
    tables = _readme_tables()
    for cmd, path, hi in _MAXIMA:
        # a list of ints states its items' range in the list's row
        key = "".join(f".{k}" if isinstance(k, str) else "[]" for k in path)[1:]
        assert re.search(rf"\b{hi}\b", tables[cmd][key.removesuffix("[]")]), (cmd, key, hi)


@pytest.mark.parametrize("command,path,hi", _MAXIMA, ids=str)
def test_one_past_each_maximum_exits_2(tmp_path, capsys, command, path, hi):
    out = tmp_path / "run"
    cfg = copy.deepcopy(dict(_CHEAP_RUNS[command], out_dir=str(out)))
    _set(cfg, path, "bound", hi)
    _check(cfg, _SCHEMAS[command])  # the maximum itself is accepted
    _set(cfg, path, "bound", hi + 1)
    assert main([command, write_cfg(tmp_path, "cfg.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"must be <= {hi}, got {hi + 1}" in err
    assert not out.exists()


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_config_mutation_exits_2(tmp_path, capsys, data):
    command = data.draw(st.sampled_from(sorted(_CHEAP_RUNS)), label="command")
    out = tmp_path / "run"
    cfg = copy.deepcopy(dict(_CHEAP_RUNS[command], out_dir=str(out)))
    path, rule = data.draw(st.sampled_from(_PATHS[command]), label="path")
    name, value = data.draw(st.sampled_from(_mutations(cfg, path, rule)), label="mutation")
    _set(cfg, path, name, value)
    literal = data.draw(st.sampled_from(["NaN", "Infinity", "-Infinity", "1e999"]))
    text = json.dumps(cfg).replace(json.dumps(_NON_FINITE), literal)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    capsys.readouterr()
    assert main([command, str(cfg_path)]) == 2, text
    err = capsys.readouterr().err
    assert err.startswith("config error") and len(err.splitlines()) == 1, (text, err)
    assert "Traceback" not in err
    assert not out.exists()
