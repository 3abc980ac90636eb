"""Empirical dynamics probe: the rotation-after-squeeze two-stage map,
its non-fixed period-2 points, the transverse contraction around them,
and the single-flow fitting gap.

The two-stage map composes the time-1 flow of a squeeze field clipped to
a disc (stage 1) with the time-1 flow of a half-turn rotation field
clipped to the same disc (stage 2). Inside the disc's plateau region the
composite fixes the disc center, has period-2 points exactly on the
vertical center line, and contracts transverse displacements by e^-2 per
double application — the structure that no single time-1 flow
reproduces. The fitting gap is an experiment with pinned seeds and
budgets, reported, never asserted as a theorem.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .fields import GridInterpolant, VectorField, grid_field
from .flow import FlowMap, IncrementalGenerator, builtin_generator, integrate

__all__ = [
    "OrbitRecord",
    "FitResult",
    "build_counterexample",
    "classify_orbit",
    "detect_periodic",
    "contraction_audit",
    "fit_single_flow",
    "fit_gap_experiment",
]

PROBE_STEPS = 512  # finer than the default integrator: orbit tolerances are 1e-6
TOL_CLOSE = 1e-6
TOL_SEPARATE = 1e-2
_EDGE_TOL = 1e-12  # stopping width of a refined edge bracket
_EDGE_MAX_ROUNDS = 45  # ends brackets that float spacing keeps wider than _EDGE_TOL


def build_counterexample(steps: int = PROBE_STEPS) -> IncrementalGenerator:
    """Two-stage generator: clipped squeeze first, clipped half-turn second.

    Both fields vanish outside the disc of radius 1/4 around (1/2, 1/2)
    and are unscaled inside radius 1/8.
    """
    return builtin_generator("counterexample", steps=steps)


@dataclass
class OrbitRecord:
    start: np.ndarray
    iterates: np.ndarray  # shape (k_max + 1, d), iterates[0] == start
    classification: str  # fixed | periodic | contracting_toward | unclassified
    period: int | None = None
    data: dict = dataclass_field(default_factory=dict)

    def recompute_classification(self, tol_close=TOL_CLOSE, tol_separate=TOL_SEPARATE):
        return classify_orbit(self.iterates, tol_close, tol_separate)


def classify_orbit(iterates, tol_close=TOL_CLOSE, tol_separate=TOL_SEPARATE):
    """Classification from the iterate list alone.

    fixed: |F(s) - s| <= tol_close. periodic(k): smallest k >= 2 with
    |F^k(s) - s| <= tol_close while every earlier return stays
    >= tol_separate away. contracting_toward: consecutive displacements
    decay geometrically; the limit estimate and median decay rate ride in
    the data dict. Everything else: unclassified.
    """
    iterates = np.asarray(iterates, dtype=float)
    start = iterates[0]
    disp = np.abs(iterates[1:] - start).max(axis=1)
    if disp.size == 0:
        return "unclassified", None, {}
    if disp[0] <= tol_close:
        return "fixed", 1, {}
    for k in range(2, disp.size + 1):
        if disp[k - 1] <= tol_close and disp[: k - 1].min() >= tol_separate:
            return "periodic", k, {"separation": float(disp[: k - 1].min())}
    steps = np.abs(np.diff(iterates, axis=0)).max(axis=1)
    if steps.size >= 3 and np.all(steps[1:] > 0):
        ratios = steps[1:] / steps[:-1]
        rate = float(np.median(ratios))
        if rate < 0.95 and steps[-1] < steps[0]:
            return "contracting_toward", None, {
                "point": iterates[-1].tolist(),
                "rate": rate,
            }
    return "unclassified", None, {}


def _iterate(apply, seeds, k_max):
    its = [np.atleast_2d(np.asarray(seeds, dtype=float))]
    for _ in range(k_max):
        its.append(np.atleast_2d(apply(its[-1])))
    return np.stack(its, axis=0)  # (k_max+1, m, d)


def detect_periodic(
    mapping,
    region=((0.25, 0.25), (0.75, 0.75)),
    k_max: int = 4,
    tol_close: float = TOL_CLOSE,
    tol_separate: float = TOL_SEPARATE,
    grid_n: int = 33,
    refine: bool = True,
) -> list[OrbitRecord]:
    """Scan a seed lattice, classify orbits, refine periodic candidates.

    Refinement shrinks, by the batched secant rounds of ``_bisect_edges``,
    brackets on lattice edges where a component of F^k - id changes sign to
    below 1e-12, then classifies the refined point from its own iterates.
    Deterministic for fixed grid and tolerances; an empty result is allowed.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    lo = np.asarray(region[0], dtype=float)
    hi = np.asarray(region[1], dtype=float)
    d = lo.size
    axes = [np.linspace(lo[i], hi[i], grid_n) for i in range(d)]
    seeds = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    its = _iterate(mapping, seeds, k_max)

    records = []
    for m in range(seeds.shape[0]):
        cls, period, data = classify_orbit(its[:, m], tol_close, tol_separate)
        records.append(OrbitRecord(seeds[m], its[:, m], cls, period, data))

    if not refine:
        return records

    edges = []
    for k in range(2, k_max + 1):
        G = (its[k] - seeds).reshape((grid_n,) * d + (d,))
        for axis in range(d):
            ca = np.take(G[..., axis], np.arange(grid_n - 1), axis=axis)
            cb = np.take(G[..., axis], np.arange(1, grid_n), axis=axis)
            # refine only genuine crossings, not sign noise around zero
            flips = np.argwhere(
                (np.sign(ca) * np.sign(cb) < 0)
                & (np.maximum(np.abs(ca), np.abs(cb)) > tol_close)
            )
            for idx in flips[:512]:
                a = np.array([axes[i][idx[i]] for i in range(d)])
                b = a.copy()
                b[axis] = axes[axis][idx[axis] + 1]
                edges.append((a, b, axis, k, ca[tuple(idx)], cb[tuple(idx)]))

    if edges:
        edges = [np.array(col) for col in zip(*edges)]
        pts = 0.5 * np.add(*_bisect_edges(mapping, *edges))
        its_ref = _iterate(mapping, pts, k_max)
        seen = set()
        for m in range(pts.shape[0]):
            key = tuple(np.round(pts[m], 6))
            if key in seen:
                continue
            seen.add(key)
            cls, period, data = classify_orbit(its_ref[:, m], tol_close, tol_separate)
            if cls == "periodic":
                data = dict(data, refined=True, edge_axis=int(edges[2][m]))
                records.append(OrbitRecord(pts[m], its_ref[:, m], cls, period, data))
    return records


def _bisect_edges(apply, a, b, axis, k, g_a, g_b):
    """Shrink the sign-change brackets [a, b] of g = (F^k - id)[axis],
    given the nonzero, opposite-signed values g_a and g_b at their ends.

    Each round maps, in one batch, four points per edge still wider than
    ``_EDGE_TOL``: the midpoint, the secant point s and s +- ratio * width.
    The first sign-change interval of the sorted points is the new bracket,
    at most half as wide. ``ratio`` starts at 1/4, squares while the bracket
    lands inside s +- ratio * width and resets otherwise. After
    ``_EDGE_MAX_ROUNDS`` rounds the loop ends even for brackets stuck at
    the float spacing.
    """
    rows = np.arange(a.shape[0])
    x = np.stack([a[rows, axis], b[rows, axis]], axis=1)
    g = np.stack([g_a, g_b], axis=1).astype(float)
    ratio = np.full(rows.size, 0.25)
    for _ in range(_EDGE_MAX_ROUNDS):
        op = np.flatnonzero(x[:, 1] - x[:, 0] >= _EDGE_TOL)
        if op.size == 0:
            break
        (x0, x1), (g0, g1) = x[op].T, g[op].T
        # g0 is never 0: a probe with g = 0 can only become the upper end
        sec, off = x0 + g0 / (g0 - g1) * (x1 - x0), ratio[op] * (x1 - x0)
        probes = np.clip(np.stack([0.5 * (x0 + x1), sec, sec - off, sec + off], axis=1),
                         x0[:, None], x1[:, None])
        r4, ax4, k4 = np.arange(4 * op.size), np.repeat(axis[op], 4), np.repeat(k[op], 4)
        X = np.repeat(a[op], 4, axis=0)
        X[r4, ax4] = probes.ravel()
        g_p = (_iterate(apply, X, k4.max())[k4, r4, ax4] - X[r4, ax4]).reshape(-1, 4)
        xs = np.concatenate([x[op], probes], axis=1)
        order = np.argsort(xs, axis=1, kind="stable")
        xs = np.take_along_axis(xs, order, axis=1)
        gs = np.take_along_axis(np.concatenate([g[op], g_p], axis=1), order, axis=1)
        j = np.argmax(np.sign(gs[:, :-1]) * np.sign(gs[:, 1:]) <= 0, axis=1)[:, None]
        x[op] = np.take_along_axis(xs, np.hstack([j, j + 1]), axis=1)
        g[op] = np.take_along_axis(gs, np.hstack([j, j + 1]), axis=1)
        hit = (x[op, 0] >= probes[:, 2]) & (x[op, 1] <= probes[:, 3])
        ratio[op] = np.where(hit, ratio[op] ** 2, 0.25)
    a, b = a.astype(float), b.astype(float)
    a[rows, axis], b[rows, axis] = x[:, 0], x[:, 1]
    return a, b


def contraction_audit(
    mapping,
    center_orbit,
    radius: float = 0.01,
    n_probes: int = 8,
    n_iters: int = 1,
    max_angle_deg: float = 45.0,
) -> dict:
    """Radius ratios around a periodic point for transverse probes.

    Probes are placed off the invariant (vertical) line: the fan spans
    ``max_angle_deg`` degrees either side of the two horizontal
    directions. The probes go through the map as one batch, period-many
    times per double-iteration, and each records r_{m+1} / r_m with
    r_m = |F^{mk}(c) - q|_2; the worst ratio over probes and audited
    double-iterations is reported.
    """
    if isinstance(center_orbit, OrbitRecord):
        if center_orbit.classification != "periodic":
            raise ValueError("center_orbit must be a periodic orbit record")
        q = np.asarray(center_orbit.start, dtype=float)
        k = center_orbit.period
    else:
        q = np.asarray(center_orbit, dtype=float)
        k = 2
    half = max(1, n_probes // 2)
    base = np.linspace(-np.deg2rad(max_angle_deg), np.deg2rad(max_angle_deg), half)
    angles = np.concatenate([base, base + np.pi])[:n_probes]
    X = np.array([q + radius * np.array([np.cos(ang), np.sin(ang)]) for ang in angles])
    radii = [[float(np.linalg.norm(c - q))] for c in X]
    for _ in range(n_iters):
        for _ in range(k):
            X = mapping(X)
        for r, x in zip(radii, X):
            r.append(float(np.linalg.norm(x - q)))
    rows = [{"angle_rad": float(ang), "radii": r,
             "ratios": [r1 / r0 for r0, r1 in zip(r, r[1:])]}
            for ang, r in zip(angles, radii)]
    worst = max(max(p["ratios"]) for p in rows)
    return {"probes": rows, "max_ratio": worst, "radius": radius, "period": k}


@dataclass
class FitResult:
    candidate_field: VectorField
    residual_sup: float
    evaluations: int
    budget: int
    seed: int
    init_label: str
    eval_grid_n: int
    flow_steps: int

    def recompute_residual(self, target_values, eval_points) -> float:
        flow = FlowMap(self.candidate_field, steps=self.flow_steps)
        return float(np.abs(flow.apply(eval_points) - target_values).max())


def _grid_field_from_theta(theta, n_grid):
    return grid_field(GridInterpolant((n_grid, n_grid), theta.reshape(-1, 2)))


def _flow_theta_batch(thetas, pts, n_grid, steps):
    """Time-1 RK4 flows of a batch of grid fields, one per theta row.

    One batched interpolant evaluates every candidate's field on its own
    block of points and goes straight into ``FlowMap``'s step loop, so a
    full pattern-search poll is one integration.
    """
    B = thetas.shape[0]
    m = pts.shape[0]
    rhs = GridInterpolant((n_grid, n_grid), thetas.reshape(B, -1, 2))
    X = np.broadcast_to(pts, (B, m, 2)).reshape(B * m, 2)
    return integrate(rhs, X, steps).reshape(B, m, 2)


def _poll_search(poll, x0, budget, rng, step0=0.2, shrink=0.5, min_step=1e-9,
                 n_rand=16):
    """Pattern search with shrinking step and full batched polls.

    Each poll evaluates every +-step coordinate move plus a few seeded
    random l_inf-unit directions (these get the search off the corners of
    the sup-norm objective), takes the best improving candidate (or the
    sum of all improving moves when that is better), and halves the step
    after a failed poll.
    """
    x = x0.copy()
    fx = float(poll(x[None])[0])
    evals = 1
    step = step0
    P = x.size
    coord = np.vstack([np.eye(P), -np.eye(P)])
    while evals < budget and step > min_step:
        R = rng.standard_normal((n_rand, P))
        R /= np.abs(R).max(axis=1, keepdims=True)
        dirs = np.vstack([coord, R])
        cands = x[None] + step * dirs
        if evals + len(cands) > budget:
            cands = cands[: budget - evals]
        if len(cands) == 0:
            break
        f = poll(cands)
        evals += len(cands)
        i = int(np.argmin(f))
        if f[i] < fx:
            best_x, best_f = cands[i], float(f[i])
            improving = f < fx
            if improving.sum() > 1 and evals < budget:
                combo = x + step * dirs[: len(f)][improving].sum(axis=0)
                fc = float(poll(combo[None])[0])
                evals += 1
                if fc < best_f:
                    best_x, best_f = combo, fc
            x, fx = best_x, best_f
        else:
            step *= shrink
    return x, fx, evals


def fit_single_flow(
    target,
    n_grid: int = 4,
    budget: int = 20_000,
    seed: int = 0,
    eval_grid_n: int = 9,
    flow_steps: int = 16,
) -> FitResult:
    """Best single time-1 flow over grid-valued fields, derivative-free.

    Parameters are the 2 (n_grid+1)^2 vertex values of a planar grid
    field. The objective is the sup over an evaluation lattice of
    |Flow(candidate) - target|_inf, minimized by full-poll compass search
    with shrinking steps from two restarts: the zero field and the
    displacement chord x -> target(x) - x sampled at the vertices (a
    crude logarithm guess). Deterministic given the seed, which is pinned
    into the protocol record.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    axes = np.linspace(0.0, 1.0, eval_grid_n)
    pts = np.stack(np.meshgrid(axes, axes, indexing="ij"), axis=-1).reshape(-1, 2)
    target_vals = np.atleast_2d(target(pts))

    def poll(thetas):
        out = _flow_theta_batch(thetas, pts, n_grid, flow_steps)
        return np.abs(out - target_vals[None]).max(axis=(1, 2))

    nverts = (n_grid + 1) ** 2
    vaxes = np.linspace(0.0, 1.0, n_grid + 1)
    vpts = np.stack(np.meshgrid(vaxes, vaxes, indexing="ij"), axis=-1).reshape(-1, 2)
    chord = (np.atleast_2d(target(vpts)) - vpts).ravel()
    inits = [("zero", np.zeros(2 * nverts)), ("chord", chord)]

    best = None
    used = 0
    share = budget // len(inits)
    for restart, (label, x0) in enumerate(inits):
        this = budget - used if restart == len(inits) - 1 else share
        rng = np.random.default_rng([seed, restart])
        x, fx, ev = _poll_search(poll, x0, this, rng)
        used += ev
        if best is None or fx < best[1]:
            best = (x, fx, label)
    theta, residual, label = best
    return FitResult(
        candidate_field=_grid_field_from_theta(theta, n_grid),
        residual_sup=residual,
        evaluations=used,
        budget=budget,
        seed=seed,
        init_label=label,
        eval_grid_n=eval_grid_n,
        flow_steps=flow_steps,
    )


def fit_gap_experiment(
    seed: int = 0,
    budget: int = 20_000,
    n_grid: int = 4,
    eval_grid_n: int = 9,
    flow_steps: int = 16,
) -> dict:
    """Self-recovery vs composite-map fitting at equal budget and seeds.

    The self-recovery target is the flow of a grid field inside the
    search class: a scaled rotation with a wide clip (radii 0.2/0.45, so
    the fit lattice actually samples it; the tight counterexample clip
    vanishes at every n_grid=4 vertex) sampled at the fit lattice. Its
    residual floor reflects only the optimizer. The composite target is
    the two-stage map. The ratio is reported; it illustrates a
    topological statement and proves nothing by itself.
    """
    from .fields import radial_bump_clip, rotation_field

    rot = radial_bump_clip(
        rotation_field([0.5, 0.5], np.pi), [0.5, 0.5], 0.2, 0.45,
        max_abs=np.pi * 0.45,
    )
    vaxes = np.linspace(0.0, 1.0, n_grid + 1)
    vpts = np.stack(np.meshgrid(vaxes, vaxes, indexing="ij"), axis=-1).reshape(-1, 2)
    theta_star = 0.2 * rot.eval(vpts)
    in_class = _grid_field_from_theta(theta_star.ravel(), n_grid)
    self_target = FlowMap(in_class, steps=flow_steps)

    composite = build_counterexample(steps=256)

    fit_self = fit_single_flow(self_target, n_grid, budget, seed, eval_grid_n, flow_steps)
    fit_comp = fit_single_flow(composite, n_grid, budget, seed, eval_grid_n, flow_steps)
    denom = max(fit_self.residual_sup, 1e-12)
    gap = fit_comp.residual_sup / denom
    return {
        "seed": seed,
        "budget": budget,
        "n_grid": n_grid,
        "eval_grid_n": eval_grid_n,
        "flow_steps": flow_steps,
        "self_recovery_residual": fit_self.residual_sup,
        "self_recovery_init": fit_self.init_label,
        "composite_residual": fit_comp.residual_sup,
        "composite_init": fit_comp.init_label,
        "gap_ratio": gap,
        "margin_10x": bool(gap >= 10.0),
    }
