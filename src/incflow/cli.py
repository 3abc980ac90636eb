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
            cfg = json.load(fh)
    except FileNotFoundError as e:
        raise ConfigError(f"config not found: {path}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _require(cfg: dict, key: str, typ, default=None, required=False, minimum=None):
    if key not in cfg:
        if required:
            raise ConfigError(f"config key {key!r} is required")
        return default
    val = cfg[key]
    if typ is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if not isinstance(val, typ) or (typ is not bool and isinstance(val, bool)):
        raise ConfigError(f"config key {key!r} must be {typ}, got {type(val).__name__}")
    if typ is float and not math.isfinite(val):  # JSON parsing accepts NaN and Infinity
        raise ConfigError(f"{key!r} must be finite")
    if minimum is not None and val < minimum:
        raise ConfigError(f"{key!r} must be >= {minimum}")
    return val


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def _cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _resolve_stages(cfg: dict) -> list[dict]:
    if "stages" in cfg:
        stages = cfg["stages"]
    elif "field" in cfg:
        stages = [cfg["field"]]
    else:
        raise ConfigError("config needs 'field' or 'stages'")
    if not isinstance(stages, list) or not stages:
        raise ConfigError("'stages' must be a nonempty list")
    out = []
    for s in stages:
        if not isinstance(s, dict) or "id" not in s:
            raise ConfigError("each stage needs an 'id'")
        if _require(s, "id", str) not in F.BUILTIN_FIELDS:
            raise ConfigError(
                f"unknown field id {s['id']!r}; known: {sorted(F.BUILTIN_FIELDS)}"
            )
        params = s.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("stage 'params' must be an object")
        for key, val in params.items():
            for v in val if isinstance(val, list) else [val]:
                if isinstance(v, float) and not math.isfinite(v):
                    raise ConfigError(f"{key!r} must be finite")
        out.append({"id": s["id"], "params": params})
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_approx_flow(cfg: dict) -> int:
    stages = _resolve_stages(cfg)
    n = _require(cfg, "n", int, required=True, minimum=1)
    steps = _require(cfg, "steps", int, 256, minimum=1)
    eval_grid = _require(cfg, "eval_grid", int, 33, minimum=1)
    out_dir = _require(cfg, "out_dir", str, required=True)
    T_budget = _require(cfg, "T_budget", int, FL.DEFAULT_T_BUDGET)
    if len(stages) > T_budget:
        raise ConfigError(
            f"{len(stages)} stages exceed the incrementality budget T={T_budget}"
        )

    try:
        flds = [F.builtin_field(s["id"], s["params"]) for s in stages]
        for f in flds:
            F.require_cube_support(f)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"stage field: {e}") from e
    if len({f.dim for f in flds}) > 1:
        raise ConfigError(f"stage dimensions disagree: {[f.dim for f in flds]}")
    moduli = [F.LipschitzModulus(np.full(f.dim, f.lipschitz_bound)) for f in flds]
    gen, cert = FL.approximate_generator(flds, moduli, n, steps=steps)

    pts = F.lattice([eval_grid] * flds[0].dim)
    ref = pts
    for f in flds:
        ref = FL.reference_flow(f).apply(ref)
    approx = gen.apply(pts)
    err = np.abs(approx - ref).max(axis=1)

    os.makedirs(out_dir, exist_ok=True)
    FL.save_generator(gen, out_dir)
    _write_csv(
        os.path.join(out_dir, "metrics.csv"),
        [f"x{i}" for i in range(pts.shape[1])] + ["error_linf"],
        [list(p) + [e] for p, e in zip(pts, err)],
    )
    measured = float(err.max())
    dominates = measured <= cert.total_bound + 1e-12
    _write_json(
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
    fn_cfg = _require(cfg, "function", dict, required=True)
    n = _require(cfg, "n", int, required=True, minimum=1)
    collapse_y = _require(cfg, "collapse_y", bool, False)
    mode = _require(cfg, "mode", str, "componentwise")
    test_points = _require(cfg, "test_points", int, 1001, minimum=1)
    out_dir = _require(cfg, "out_dir", str, required=True)

    if "id" in fn_cfg:
        if _require(fn_cfg, "id", str) not in LI.LIFT_FUNCTIONS:
            raise ConfigError(
                f"unknown function id {fn_cfg['id']!r}; known: {sorted(LI.LIFT_FUNCTIONS)}"
            )
        comps, d, D, L = LI.lift_function(fn_cfg["id"])
    elif "csv" in fn_cfg:
        lipschitz = _require(fn_cfg, "lipschitz", float, required=True, minimum=0.0)
        try:
            data = np.loadtxt(fn_cfg["csv"], delimiter=",", skiprows=1, ndmin=2)
        except (OSError, ValueError) as e:
            raise ConfigError(f"cannot read samples CSV: {e}") from e
        if data.shape[0] < 2 or data.shape[1] < 2:
            raise ConfigError("samples CSV needs two columns, x and f(x), and two rows")
        comps, d, D, L = LI.function_from_samples(data[:, 0], data[:, 1], lipschitz)
    else:
        raise ConfigError("'function' needs an 'id' or a 'csv'")
    if mode not in ("componentwise", "joint"):
        raise ConfigError("'mode' must be 'componentwise' or 'joint'")

    approx, cert = LI.approximate_lipschitz_function(
        comps, n, d, D, L, mode=mode, collapse_y=collapse_y
    )
    pts = F.lattice([round(test_points ** (1.0 / d))] * d)
    truth = np.stack([np.asarray(g(pts), dtype=float).reshape(-1) for g in comps], axis=1)
    got = np.atleast_2d(approx.apply(pts))
    err = np.abs(got - truth)

    os.makedirs(out_dir, exist_ok=True)
    LI.save_lifted(approx, out_dir)
    header = [f"x{i}" for i in range(d)]
    for i in range(D):
        header += [f"f{i}", f"fhat{i}", f"err{i}"]
    rows = []
    for p, tr, gt, er in zip(pts, truth, got, err):
        row = list(p)
        for i in range(D):
            row += [tr[i], gt[i], er[i]]
        rows.append(row)
    _write_csv(os.path.join(out_dir, "metrics.csv"), header, rows)
    measured = float(err.max())
    within = measured <= cert.total_bound + 1e-12
    _write_json(
        os.path.join(out_dir, "acceptance.json"),
        {
            "certificate_total": cert.total_bound,
            "measured_sup_error": measured,
            "within_certificate": within,
            "n": n,
            "mode": mode,
            "collapse_y": collapse_y,
        },
    )
    return 0 if within else 4


def _sampler_from_cfg(cfg: dict, key: str, dim_default=2):
    sub = cfg.get(key, {"kind": "uniform", "dim": dim_default})
    if not isinstance(sub, dict) or sub.get("kind", "uniform") != "uniform":
        raise ConfigError(f"only uniform samplers are built in (config key {key!r})")
    dim = _require(sub, "dim", int, dim_default, minimum=1)

    def sampler(rng, k):
        return rng.random((k, dim))

    return sampler, dim


def cmd_generate(cfg: dict) -> int:
    gen_cfg = _require(cfg, "generator", dict, required=True)
    N_list = _require(cfg, "N_list", list, [16, 64, 256])
    if not N_list or any(type(N) is not int or N < 1 for N in N_list) or any(
        a >= b for a, b in zip(N_list, N_list[1:])
    ):
        raise ConfigError("'N_list' must be a nonempty, strictly increasing list of ints >= 1")
    trials = _require(cfg, "trials", int, 32, minimum=1)
    delta = _require(cfg, "delta", float, 0.1, minimum=0.0)
    seed = _require(cfg, "seed", int, required=True, minimum=0)
    M = _require(cfg, "M", int, 4096, minimum=1)
    C = _require(cfg, "C", float, 1.0)
    out_dir = _require(cfg, "out_dir", str, required=True)

    if "builtin" in gen_cfg:
        if gen_cfg["builtin"] not in FL.BUILTIN_GENERATORS:
            raise ConfigError(
                f"unknown builtin generator {gen_cfg['builtin']!r}; "
                f"known: {FL.BUILTIN_GENERATORS}"
            )
        gen = FL.builtin_generator(gen_cfg["builtin"])
    elif "manifest" in gen_cfg:
        # open() would take an int (or a bool) as a file descriptor
        gen = FL.load_generator(_require(gen_cfg, "manifest", str))
    else:
        raise ConfigError("'generator' needs 'builtin' or 'manifest'")

    noise_sampler, dim = _sampler_from_cfg(cfg, "noise", gen.dim)
    target_sampler, target_dim = _sampler_from_cfg(cfg, "target", gen.dim)
    if dim != gen.dim:
        raise ConfigError(f"noise dim {dim} != generator dim {gen.dim}")
    if target_dim != gen.dim:
        raise ConfigError(f"target dim {target_dim} != generator dim {gen.dim}")

    result = TR.concentration_experiment(
        gen, target_sampler, noise_sampler, N_list, trials, delta, seed, M=M, C=C
    )
    summary = TR.summarize_trials(result["rows"])

    os.makedirs(out_dir, exist_ok=True)
    _write_csv(
        os.path.join(out_dir, "metrics.csv"),
        ["N", "trial", "w1", "bound_rhs", "prob_lhs"],
        [
            [r["N"], r["trial"], r["w1"], r["bound_rhs"], r["prob_lhs"]]
            for r in result["rows"]
        ],
    )
    _write_json(
        os.path.join(out_dir, "manifest.json"),
        {
            "kind": "generate_run",
            "generator": gen_cfg,
            "N_list": N_list,
            "trials": trials,
            "delta": delta,
            "seed": seed,
            "M": M,
            "constant_C": C,
            "constant_C_verified": False,
            "epsilon": result["epsilon"],
            "lipschitz": result["lipschitz"],
            "proxy_error_estimate": result["proxy_error_estimate"],
            "vacuous_probability_bound": bool(
                result["rows"] and result["rows"][0]["vacuous"]
            ),
        },
    )
    _write_json(
        os.path.join(out_dir, "acceptance.json"),
        {
            "medians": {str(k): v for k, v in summary["medians"].items()},
            "median_strictly_decreasing": summary["strictly_decreasing"],
        },
    )
    return 0


def cmd_probe(cfg: dict) -> int:
    seed = _require(cfg, "seed", int, 0, minimum=0)
    steps = _require(cfg, "steps", int, PR.PROBE_STEPS, minimum=1)
    grid_n = _require(cfg, "grid_n", int, 33, minimum=2)
    k_max = _require(cfg, "k_max", int, 4, minimum=1)
    radius = _require(cfg, "contraction_radius", float, 0.01)
    if not radius > 0:
        raise ConfigError("'contraction_radius' must be > 0")
    out_dir = _require(cfg, "out_dir", str, required=True)
    fit_cfg = _require(cfg, "fit", dict, {})
    fit_enabled = _require(fit_cfg, "enabled", bool, False)
    fit_budget = _require(fit_cfg, "budget", int, 20_000, minimum=1)
    fit_n_grid = _require(fit_cfg, "n_grid", int, 4, minimum=1)

    gen = PR.build_counterexample(steps=steps)
    records = PR.detect_periodic(gen, grid_n=grid_n, k_max=k_max)

    period2 = [
        r for r in records if r.classification == "periodic" and r.period == 2
    ]
    near_line = [r for r in period2 if abs(r.start[0] - 0.5) <= 1e-4]
    audit = None
    if near_line:
        target = min(near_line, key=lambda r: abs(r.start[1] - 0.5625))
        audit = PR.contraction_audit(gen, target, radius=radius)

    os.makedirs(out_dir, exist_ok=True)
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
    if fit_enabled:
        fit_summary = PR.fit_gap_experiment(seed=seed, budget=fit_budget, n_grid=fit_n_grid)
        _write_json(os.path.join(out_dir, "fitgap.json"), fit_summary)
        if not fit_summary["margin_10x"]:
            print(
                "warning: single-flow fit gap below 10x "
                f"(ratio {fit_summary['gap_ratio']:.2f}); reported, not a failure",
                file=sys.stderr,
            )

    contraction_ok = audit is not None and audit["max_ratio"] <= 0.9
    _write_json(
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


_COMMANDS = {
    "approx-flow": cmd_approx_flow,
    "lift-approx": cmd_lift_approx,
    "generate": cmd_generate,
    "probe-flowability": cmd_probe,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.manifest)
        cfg = _load_config(args.config)
        if args.out_dir:
            cfg["out_dir"] = args.out_dir
        return _COMMANDS[args.command](cfg)
    except (ConfigError, FL.ManifestError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (FL.FlowIntegrationError, FloatingPointError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
