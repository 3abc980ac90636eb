import json
import os
import subprocess
import sys

import numpy as np
import pytest

import incflow
from incflow.cli import main

_SRC = os.path.dirname(os.path.dirname(incflow.__file__))


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_approx_flow_happy_path(tmp_path):
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, "cfg.json", {
        "stages": [{"id": "squeeze_clipped"}],
        "n": 4, "eval_grid": 9, "seed": 0, "out_dir": str(out),
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
        "field": {"id": "zero"}, "n": 4, "eval_grid": 5,
        "seed": 0, "out_dir": str(out),
    })
    assert main(["approx-flow", cfg]) == 0
    acc = json.loads((out / "acceptance.json").read_text())
    assert acc["certificate_total"] == 0.0
    assert acc["measured_sup_error"] == 0.0


def test_malformed_config_exits_2_without_artifacts(tmp_path):
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, "cfg.json", {"field": {"id": "zero"}, "out_dir": str(out)})
    assert main(["approx-flow", cfg]) == 2  # missing n
    assert not out.exists()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["approx-flow", str(bad)]) == 2
    assert main(["approx-flow", str(tmp_path / "missing.json")]) == 2
    cfg = write_cfg(tmp_path, "cfg2.json", {
        "field": {"id": "nope"}, "n": 4, "out_dir": str(out)})
    assert main(["approx-flow", cfg]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command,cfg", [
    ("generate", {"generator": {"builtin": "identity2"}, "seed": 0, "M": 0}),
    ("generate", {"generator": {"builtin": "identity2"}, "seed": 0, "trials": 0}),
    ("probe-flowability", {"steps": 0}),
    ("probe-flowability", {"k_max": 0}),
    ("probe-flowability", {"grid_n": 1}),
    ("approx-flow", {"field": {"id": "zero"}, "n": 4, "steps": 0}),
    ("approx-flow", {"field": {"id": "zero"}, "n": 4, "eval_grid": 0}),
    # JSON parsing accepts NaN and Infinity; a float key must be finite
    ("probe-flowability", {"contraction_radius": float("inf")}),
    # the fit sub-config is checked before the orbit scan starts
    ("probe-flowability", {"grid_n": 3, "k_max": 1, "steps": 8,
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
    ("approx-flow", {"field": {"id": "sin_bump", "params": {"amplitude": "x"}}, "n": 2}),
    ("approx-flow", {"field": {"id": "zero", "params": {"dim": 0}}, "n": 2}),
    ("approx-flow", {"field": {"id": "rotation_clipped", "params": {"center": [0.5]}}, "n": 2}),
    ("approx-flow", {"field": {"id": "rotation_clipped",
                               "params": {"r_inner": 0.3, "r_outer": 0.2}}, "n": 2}),
    ("approx-flow", {"field": {"id": "squeeze_clipped", "params": {"center": [0.1, 0.1]}},
                     "n": 2}),
    ("approx-flow", {"field": {"id": "rotation"}, "n": 2}),
    ("approx-flow", {"field": {"id": "squeeze"}, "n": 2}),
    ("approx-flow", {"stages": [{"id": "zero", "params": {"dim": 3}}, {"id": "sin_bump"}],
                     "n": 2}),
    ("generate", {"generator": {"builtin": "identity2"}, "seed": 0, "M": 8, "trials": 1,
                  "N_list": [4], "target": {"kind": "uniform", "dim": 3}}),
    # stage params: an object of finite values
    ("approx-flow", {"field": {"id": "zero", "params": 5}, "n": 2}),
    ("approx-flow", {"field": {"id": "sin_bump", "params": {"amplitude": float("nan")}},
                     "n": 2}),
    ("approx-flow", {"field": {"id": "rotation_clipped", "params": {"rate": float("inf")}},
                     "n": 2}),
    ("approx-flow", {"field": {"id": "rotation_clipped",
                               "params": {"center": [0.5, float("nan")]}}, "n": 2}),
    # ids are strings; a list used to fail as an unhashable key
    ("approx-flow", {"stages": [{"id": ["zero"]}], "n": 2}),
    ("lift-approx", {"function": {"id": ["abs2x1"]}, "n": 2}),
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
            "stages": [{"id": "sin_bump"}], "n": 4, "eval_grid": 9,
            "seed": 3, "out_dir": str(out),
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
        "field": {"id": "squeeze_clipped"}, "n": 4, "eval_grid": 5,
        "seed": 0, "out_dir": str(out),
    })
    assert main(["approx-flow", cfg]) == 0
    manifest = out / "manifest.json"
    assert main(["verify", str(manifest)]) == 0
    doc = json.loads(manifest.read_text())
    doc["lipschitz_bound"] *= 2
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
        "field": {"id": "squeeze_clipped"}, "n": 4, "eval_grid": 5,
        "seed": 0, "out_dir": str(out),
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
        "function": {"csv": str(samples), "lipschitz": 2.0},
        "n": 8, "test_points": 101, "out_dir": str(out2),
    })
    assert main(["lift-approx", cfg2]) == 0


def test_verify_lift_manifest(tmp_path):
    out = tmp_path / "runlift"
    cfg = write_cfg(tmp_path, "cfg.json", {
        "function": {"id": "square"}, "n": 4, "test_points": 51,
        "out_dir": str(out),
    })
    assert main(["lift-approx", cfg]) == 0
    assert main(["verify", str(out / "manifest.json")]) == 0
    doc = json.loads((out / "manifest.json").read_text())
    doc["certificates"][0]["total_bound"] *= 3
    (out / "manifest.json").write_text(json.dumps(doc))
    assert main(["verify", str(out / "manifest.json")]) == 4


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


def test_lift_approx_config_errors(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json", {
        "function": {"csv": "nope.csv"}, "n": 8, "out_dir": str(tmp_path / "x")})
    assert main(["lift-approx", cfg]) == 2  # missing declared lipschitz
    cfg = write_cfg(tmp_path, "cfg2.json", {
        "function": {"id": "abs2x1"}, "n": 8, "mode": "weird",
        "out_dir": str(tmp_path / "x")})
    assert main(["lift-approx", cfg]) == 2
    # the samples CSV is a path; np.loadtxt would read a list as inline CSV lines
    cfg = write_cfg(tmp_path, "cfg3.json", {
        "function": {"csv": ["x,y", "0,0", "1,1"], "lipschitz": 1.0}, "n": 8,
        "out_dir": str(tmp_path / "x")})
    assert main(["lift-approx", cfg]) == 2
    assert not (tmp_path / "x").exists()


def test_config_path_that_is_a_directory_exits_2(tmp_path, capsys):
    assert main(["approx-flow", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and len(err.splitlines()) == 1


# the cheapest run of each subcommand that reaches its output directory
_CHEAP_RUNS = {
    "approx-flow": {"field": {"id": "zero"}, "n": 1, "eval_grid": 2, "steps": 1},
    "lift-approx": {"function": {"id": "abs2x1"}, "n": 1, "test_points": 2},
    "generate": {"generator": {"builtin": "identity2"}, "seed": 0, "M": 8, "trials": 1,
                 "N_list": [4]},
    "probe-flowability": {"grid_n": 2, "k_max": 1, "steps": 1},
}


@pytest.mark.parametrize("command", sorted(_CHEAP_RUNS))
@pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
def test_out_dir_that_cannot_be_created_exits_2(tmp_path, capsys, command, under):
    taken = tmp_path / "taken"
    taken.write_text("keep")
    out = taken / "run" if under else taken
    path = write_cfg(tmp_path, "cfg.json", dict(_CHEAP_RUNS[command], out_dir=str(out)))
    assert main([command, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and len(err.splitlines()) == 1
    assert taken.read_text() == "keep"  # nothing written


@pytest.mark.parametrize("lipschitz,rows", [
    ("abc", "x,f\n0.0,1.0\n1.0,0.0\n"),
    (-2.0, "x,f\n0.0,1.0\n1.0,0.0\n"),
    (2.0, "x\n0.0\n0.5\n1.0\n"),
    (2.0, "x,f\n0.5,0.2\n"),
    (2.0, "x,f\n0.0,a\n1.0,b\n"),
    (float("inf"), "x,f\n0.0,1.0\n1.0,0.0\n"),
], ids=["lipschitz_not_a_number", "lipschitz_negative", "one_column", "one_row", "not_numbers",
        "lipschitz_infinite"])
def test_lift_approx_bad_samples_csv_exits_2(tmp_path, capsys, lipschitz, rows):
    samples = tmp_path / "samples.csv"
    samples.write_text(rows)
    out = tmp_path / "run"
    path = write_cfg(tmp_path, "cfg.json", {
        "function": {"csv": str(samples), "lipschitz": lipschitz}, "n": 4,
        "out_dir": str(out)})
    assert main(["lift-approx", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "Traceback" not in err
    assert not out.exists()


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
            del doc["stages"][0]["field"]["inner"]["file"]
        else:
            doc["stages"] = 5
        manifest.write_text(json.dumps(doc))
    return manifest


@pytest.mark.parametrize("command", ["verify", "generate"])
@pytest.mark.parametrize("defect", [
    "unknown_backend", "stages_not_a_list", "truncated_payload", "not_an_object",
    "grid_ref_without_file"])
def test_malformed_manifest_exits_2_from_both_readers(tmp_path, capsys, command, defect):
    run = tmp_path / "run"
    cfg = write_cfg(tmp_path, "cfg.json", {
        "field": {"id": "squeeze_clipped"}, "n": 4, "eval_grid": 5, "out_dir": str(run)})
    assert main(["approx-flow", cfg]) == 0
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
    assert err.startswith("config error") and "Traceback" not in err
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
        "seed": 0, "steps": 256, "grid_n": 9, "k_max": 2,
        "fit": {"enabled": False}, "out_dir": str(out),
    })
    assert main(["probe-flowability", cfg]) == 0
    acc = json.loads((out / "acceptance.json").read_text())
    assert acc["period2_found_near_line"] is True
    assert acc["contraction_ok"] is True
    orbits = (out / "orbits.csv").read_text().splitlines()
    assert orbits[0] == "x0,x1,classification,period"
    assert (out / "contraction.csv").exists()
