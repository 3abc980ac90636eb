"""Command-line front end: deterministic experiment orchestration and
artifact emission.

Each run consumes a single JSON config document and writes a run
directory containing manifest.json, metrics.csv, and acceptance.json
(machine-readable pass/fail of the invariants checked during the run).
Exit codes: 0 ok, 2 config error, 3 numeric failure, 4 acceptance
failure. Same config and seed reproduce artifacts byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import fields as F
from . import flow as FL
from . import lift as LI
from . import probe as PR
from . import transport as TR

__all__ = ["main"]


class ConfigError(Exception):
    pass


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_constant=F.finite_float, parse_float=F.finite_float)
    except OSError as e:  # missing, a directory, unreadable
        raise ConfigError(f"cannot read config: {e}") from e
    except ValueError as e:  # not JSON, a non-finite number or an int literal too long to parse
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


# Each subcommand's whole config surface, one table each. A key's rule is
# (type, default[, minimum[, maximum]]), with _REQUIRED as the default of a key
# the config must set and None that of an optional key without one. A dict of
# rules is a nested table, the type dict any object, a tuple of strings an enum,
# and a one-item list [rule] a list whose items each follow that rule and whose
# length the bounds limit.
_REQUIRED = object()

_MAX_STEPS = 4096  # the unused approx-flow steps key's maximum
_MAX_LATTICE_POINTS = 1025 ** 2  # the finer check of a 2-d grid at the largest n, 256
# a stage's params are checked, as a manifest's are, by F.builtin_field
_STAGE = {"id": (tuple(F.BUILTIN_FIELDS), _REQUIRED), "params": (dict, {})}
_SAMPLER = {"kind": (("uniform",), "uniform"), "dim": (int, None, 1)}
_SCHEMAS = {
    "approx-flow": {
        "stages": ([(_STAGE, _REQUIRED)], _REQUIRED, 1, FL.DEFAULT_T_BUDGET),
        "n": (int, _REQUIRED, 1, 256),
        "steps": (int, 256, 1, _MAX_STEPS),  # accepted and unused: stages are exact
        "eval_grid": (int, 33, 1, 257),
        "out_dir": (str, _REQUIRED),
    },
    "lift-approx": {
        "function": ({"id": (tuple(LI.LIFT_FUNCTIONS), None), "csv": (str, None)}, _REQUIRED),
        "n": (int, _REQUIRED, 1, 1024),
        "mode": (("componentwise", "joint"), "componentwise"),
        "test_points": (int, 1001, 1, 1_000_000),
        "out_dir": (str, _REQUIRED),
    },
    "generate": {
        "generator": ({"builtin": (FL.BUILTIN_GENERATORS, None), "manifest": (str, None)},
                      _REQUIRED),
        "noise": (_SAMPLER, {}),
        "target": (_SAMPLER, {}),
        "N_list": ([(int, _REQUIRED, 1, 8192)], [16, 64, 256], 1),
        "trials": (int, 32, 1, 1024),
        "delta": (float, 0.1, 0.0),
        "seed": (int, _REQUIRED, 0),
        "M": (int, 4096, 1, 8192),
        "C": (float, 1.0),
        "out_dir": (str, _REQUIRED),
    },
    "probe-flowability": {
        "seed": (int, 0, 0),
        "grid_n": (int, 33, 2, 257),
        "k_max": (int, 4, 1, 16),
        "contraction_radius": (float, 0.01, math.ulp(0.0)),  # the least float > 0
        "fit": ({"enabled": (bool, False), "budget": (int, 20_000, 2, 1_000_000),
                 "n_grid": (int, 4, 1, 16)}, {}),
        "out_dir": (str, _REQUIRED),
    },
}


def _value(val, rule, key: str):
    """Check one config value against its rule; return it, an int made float
    where the rule asks for a float, a nested table's defaults filled in."""
    typ, _, lo, hi = (*rule, None, None)[:4]
    if typ is float and type(val) is int:
        try:
            val = F.finite_float(str(val))  # an int past the float range is not finite
        except ValueError as e:
            raise ConfigError(f"config key {key!r}: {e}") from e
    if isinstance(typ, tuple):
        ok, what = type(val) is str and val in typ, f"one of {list(typ)}"
    else:
        want = type(typ) if isinstance(typ, (dict, list)) else typ
        ok, what = type(val) is want, want.__name__
    if not ok:
        raise ConfigError(f"config key {key!r} must be {what}, got {val!r}")
    if isinstance(typ, dict):
        return _check(val, typ, key)
    if isinstance(typ, list):
        val = [_value(v, typ[0], key) for v in val]
    size, name = (len(val), f"the length of {key!r}") if isinstance(typ, list) else (
        val, f"config key {key!r}")
    if lo is not None and size < lo:
        raise ConfigError(f"{name} must be >= {lo}, got {size!r}")
    if hi is not None and size > hi:
        raise ConfigError(f"{name} must be <= {hi}, got {size!r}")
    return val


def _check(cfg: dict, schema: dict, where: str = "config") -> dict:
    """Check ``cfg`` against ``schema``; return a copy with the defaults filled in.
    An unknown key, a missing required one, a value of the wrong type (a bool is
    not a number) or one out of bounds is a ConfigError."""
    for key in cfg:
        if key not in schema:
            raise ConfigError(f"unknown config key {key!r} in {where}; known: {sorted(schema)}")
    out = {}
    for key, rule in schema.items():
        if key in cfg:
            out[key] = _value(cfg[key], rule, key)
        elif rule[1] is _REQUIRED:
            raise ConfigError(f"config key {key!r} is required")
        elif rule[1] is not None:
            out[key] = _value(rule[1], rule, key)
    return out


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(_cell, row)) + "\n" for row in rows)


def _cell(v) -> str:
    """A float, a numpy one too, as its shortest round-trip repr; else ``str``."""
    if type(v) is float:
        return repr(v)
    if isinstance(v, np.floating):
        return repr(float(v))
    return str(v)


# ---------------------------------------------------------------------------
# subcommands


def cmd_approx_flow(cfg: dict) -> int:
    cfg = _check(cfg, _SCHEMAS["approx-flow"])
    stages, n, out_dir = cfg["stages"], cfg["n"], cfg["out_dir"]
    try:
        flds = [F.builtin_field(s["id"], s["params"]) for s in stages]
        F.require_cube_stages(flds)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"stage field: {e}") from e
    if len({f.dim for f in flds}) > 1:
        raise ConfigError(f"stage dimensions disagree: {[f.dim for f in flds]}")
    # the lattices the run builds: the measurement and the grid approximant's
    # 4x finer check
    side, d = max(cfg["eval_grid"], 4 * n + 1), flds[0].dim
    if side ** d > _MAX_LATTICE_POINTS:
        raise ConfigError(f"max(eval_grid, 4n+1)**dim must be <= {_MAX_LATTICE_POINTS}, "
                          f"got {side}**{d}")
    os.makedirs(out_dir, exist_ok=True)

    gen = FL.approximate_generator(flds, n)
    cert = gen.certificate

    pts = F.lattice([cfg["eval_grid"]] * flds[0].dim)
    ref = FL.IncrementalGenerator([FL.FlowMap(f) for f in flds])(pts)
    approx = gen.apply(pts)
    err = np.abs(approx - ref).max(axis=1)

    FL.save_generator(gen, out_dir)
    _write_csv(
        os.path.join(out_dir, "metrics.csv"),
        [f"x{i}" for i in range(pts.shape[1])] + ["error_linf"],
        np.column_stack([pts, err]).tolist(),
    )
    measured = float(err.max())
    dominates = measured <= cert.total_bound + 1e-12
    F.write_json(
        os.path.join(out_dir, "acceptance.json"),
        {
            "certificate_total": cert.total_bound,
            "measured_sup_error": measured,
            "certificate_dominates": dominates,
            "lipschitz_product": cert.lipschitz_product,
            "n": n,
            "stages": [s["id"] for s in stages],
        },
    )
    return 0 if dominates else 4


def cmd_lift_approx(cfg: dict) -> int:
    cfg = _check(cfg, _SCHEMAS["lift-approx"])
    fn_cfg, n, mode, out_dir = cfg["function"], cfg["n"], cfg["mode"], cfg["out_dir"]
    if ("id" in fn_cfg) == ("csv" in fn_cfg):
        raise ConfigError("'function' needs exactly one of 'id' and 'csv'")
    if "id" in fn_cfg:
        comps, d, D, L = LI.lift_function(fn_cfg["id"])
    else:
        try:
            data = np.loadtxt(fn_cfg["csv"], delimiter=",", skiprows=1, ndmin=2)
        except (OSError, ValueError) as e:
            raise ConfigError(f"cannot read samples CSV: {e}") from e
        if data.shape[0] < 2 or data.shape[1] < 2 or not np.isfinite(data).all():
            raise ConfigError("samples CSV needs two columns, x and f(x), "
                              "and two rows of finite numbers")
        try:
            comps, d, D, L = LI.function_from_samples(data[:, 0], data[:, 1])
        except ValueError as e:
            raise ConfigError(f"samples CSV: {e}") from e
    os.makedirs(out_dir, exist_ok=True)

    approx, cert = LI.approximate_lipschitz_function(comps, n, d, D, L, mode=mode)
    pts = F.lattice([round(cfg["test_points"] ** (1.0 / d))] * d)
    truth = np.stack([np.asarray(g(pts), dtype=float).reshape(-1) for g in comps], axis=1)
    got = np.atleast_2d(approx.apply(pts))
    err = np.abs(got - truth)

    LI.save_lifted(approx, out_dir)
    header = [f"x{i}" for i in range(d)] + [
        f"{c}{i}" for i in range(D) for c in ("f", "fhat", "err")]
    # per component i the columns f, fhat and err
    cols = np.stack([truth, got, err], axis=2).reshape(len(pts), 3 * D)
    _write_csv(os.path.join(out_dir, "metrics.csv"), header,
               np.column_stack([pts, cols]).tolist())
    measured = float(err.max())
    within = measured <= cert.total_bound + 1e-12
    F.write_json(
        os.path.join(out_dir, "acceptance.json"),
        {
            "certificate_total": cert.total_bound,
            "measured_sup_error": measured,
            "within_certificate": within,
            "n": n,
            "mode": mode,
        },
    )
    return 0 if within else 4


def cmd_generate(cfg: dict) -> int:
    cfg = _check(cfg, _SCHEMAS["generate"])
    gen_cfg, N_list, out_dir = cfg["generator"], cfg["N_list"], cfg["out_dir"]
    if ("builtin" in gen_cfg) == ("manifest" in gen_cfg):
        raise ConfigError("'generator' needs exactly one of 'builtin' and 'manifest'")
    if any(a >= b for a, b in zip(N_list, N_list[1:])):
        raise ConfigError(f"'N_list' must be strictly increasing, got {N_list}")
    gen = (FL.builtin_generator(gen_cfg["builtin"]) if "builtin" in gen_cfg
           else FL.load_generator(gen_cfg["manifest"]))
    for key in ("noise", "target"):
        if cfg[key].get("dim", gen.dim) != gen.dim:
            raise ConfigError(f"{key} dim {cfg[key]['dim']} != generator dim {gen.dim}")
    os.makedirs(out_dir, exist_ok=True)

    def sampler(rng, k):  # noise and target alike: uniform on the generator's cube
        return rng.random((k, gen.dim))

    result = TR.concentration_experiment(gen, sampler, sampler, N_list, cfg["trials"],
                                         cfg["delta"], cfg["seed"], M=cfg["M"], C=cfg["C"])
    summary = TR.summarize_trials(result["rows"])

    _write_csv(
        os.path.join(out_dir, "metrics.csv"),
        ["N", "trial", "w1", "bound_rhs", "prob_lhs"],
        [
            [r["N"], r["trial"], r["w1"], r["bound_rhs"], r["prob_lhs"]]
            for r in result["rows"]
        ],
    )
    F.write_json(
        os.path.join(out_dir, "manifest.json"),
        {
            "kind": "generate_run",
            "generator": gen_cfg,  # as given: an optional key without a default is not filled
            "N_list": N_list,
            "trials": cfg["trials"],
            "delta": cfg["delta"],
            "seed": cfg["seed"],
            "M": cfg["M"],
            "constant_C": cfg["C"],
            "constant_C_verified": False,
            "epsilon": result["epsilon"],
            "lipschitz": result["lipschitz"],
            "proxy_error_estimate": result["proxy_error_estimate"],
            "vacuous_probability_bound": bool(
                result["rows"] and result["rows"][0]["vacuous"]
            ),
        },
    )
    F.write_json(
        os.path.join(out_dir, "acceptance.json"),
        {
            "medians": {str(k): v for k, v in summary["medians"].items()},
            "median_strictly_decreasing": summary["strictly_decreasing"],
        },
    )
    return 0


def cmd_probe(cfg: dict) -> int:
    cfg = _check(cfg, _SCHEMAS["probe-flowability"])
    out_dir, fit = cfg["out_dir"], cfg["fit"]
    os.makedirs(out_dir, exist_ok=True)

    gen = PR.build_counterexample()
    records = PR.detect_periodic(gen, grid_n=cfg["grid_n"], k_max=cfg["k_max"])

    period2 = [r for r in records if r.classification == "periodic" and r.period == 2]
    near_line = [r for r in period2 if abs(r.start[0] - 0.5) <= 1e-4]
    audit = None
    if near_line:
        target = min(near_line, key=lambda r: abs(r.start[1] - 0.5625))
        audit = PR.contraction_audit(gen, target, radius=cfg["contraction_radius"])

    _write_csv(
        os.path.join(out_dir, "orbits.csv"),
        ["x0", "x1", "classification", "period"],
        [
            [r.start[0], r.start[1], r.classification,
             r.period if r.period is not None else ""]
            for r in records
        ],
    )
    if audit:
        _write_csv(
            os.path.join(out_dir, "contraction.csv"),
            ["angle_rad", "r0", "r1", "ratio"],
            [
                [p["angle_rad"], p["radii"][0], p["radii"][1], p["ratios"][0]]
                for p in audit["probes"]
            ],
        )

    fit_summary = None
    if fit["enabled"]:
        fit_summary = PR.fit_gap_experiment(seed=cfg["seed"], budget=fit["budget"],
                                            n_grid=fit["n_grid"])
        F.write_json(os.path.join(out_dir, "fitgap.json"), fit_summary)
        if not fit_summary["margin_10x"]:
            print(
                "warning: single-flow fit gap below 10x "
                f"(ratio {fit_summary['gap_ratio']:.2f}); reported, not a failure",
                file=sys.stderr,
            )

    contraction_ok = audit is not None and audit["max_ratio"] <= 0.9
    F.write_json(
        os.path.join(out_dir, "acceptance.json"),
        {
            "period2_found_near_line": bool(near_line),
            "contraction_max_ratio": audit["max_ratio"] if audit else None,
            "contraction_ok": contraction_ok,
            "fit_gap_ratio": fit_summary["gap_ratio"] if fit_summary else None,
            "fit_margin_10x": fit_summary["margin_10x"] if fit_summary else None,
        },
    )
    return 0 if (near_line and contraction_ok) else 4


def cmd_verify(manifest_path: str) -> int:
    kind = FL.read_manifest(manifest_path, lambda doc, base_dir: doc.get("kind"))
    if kind in ("lifted_approximator", "joint_lifted_approximator"):
        checks = LI.verify_lifted_manifest(manifest_path)
    else:
        checks = FL.verify_manifest(manifest_path)
    print(json.dumps(checks, sort_keys=True, indent=2))
    return 0 if checks["ok"] else 4


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="incflow",
        description="certified incremental flow generators: build, evaluate, probe",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("approx-flow", "grid-approximate stage fields, certify, measure"),
        ("lift-approx", "approximate a Lipschitz function by lifted flows"),
        ("generate", "pushforward sampling with exact W1 scoring"),
        ("probe-flowability", "two-stage counterexample dynamics and fit gap"),
    ]:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("config", help="path to the JSON config document")
        sp.add_argument("--out-dir", help="override the config's out_dir")
    sv = sub.add_parser("verify", help="recheck a manifest's certificate")
    sv.add_argument("manifest", help="path to a generator or lift manifest")
    return p


# built once: each parse_args call fills a fresh namespace, so no call sees another's
_PARSER = _build_parser()


_COMMANDS = {
    "approx-flow": cmd_approx_flow,
    "lift-approx": cmd_lift_approx,
    "generate": cmd_generate,
    "probe-flowability": cmd_probe,
}


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.manifest)
        cfg = _load_config(args.config)
        if args.out_dir:
            cfg["out_dir"] = args.out_dir
        return _COMMANDS[args.command](cfg)
    except (ConfigError, FL.ManifestError, OSError) as e:  # OSError: out_dir not creatable
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (FL.FlowIntegrationError, ArithmeticError) as e:  # overflow included
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
