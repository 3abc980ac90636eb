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

from .fields import GridInterpolant, VectorField, grid_field, lattice
from .flow import IncrementalGenerator, builtin_generator, integrate

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

TOL_CLOSE = 1e-6
TOL_SEPARATE = 1e-2
_EDGE_TOL = 1e-12  # stopping width of a refined edge bracket
_EDGE_MAX_ROUNDS = 45  # ends brackets that float spacing keeps wider than _EDGE_TOL
FIT_EVAL_GRID_N = 9  # fit lattice points per axis
FIT_FLOW_STEPS = 16  # RK4 steps of every flow in the fit
FIT_SCREEN_ROWS = 8  # rows of x's largest residuals that screen a fit poll's candidates


def build_counterexample() -> IncrementalGenerator:
    """Two-stage generator: clipped squeeze first, clipped half-turn second.

    Both fields vanish outside the disc of radius 1/4 around (1/2, 1/2)
    and are unscaled inside radius 1/8. Each stage is its field's exact
    closed-form flow, so the orbit tolerances (1e-6) see no integration
    error.
    """
    return builtin_generator("counterexample")


@dataclass
class OrbitRecord:
    start: np.ndarray
    iterates: np.ndarray  # shape (k_max + 1, d), iterates[0] == start
    classification: str  # fixed | periodic | contracting_toward | unclassified
    period: int | None = None
    data: dict = dataclass_field(default_factory=dict)

    def recompute_classification(self):
        return classify_orbit(self.iterates)


def classify_orbit(iterates):
    """Classification from the iterate list alone.

    fixed: |F(s) - s| <= TOL_CLOSE. periodic(k): smallest k >= 2 with
    |F^k(s) - s| <= TOL_CLOSE while every earlier return stays
    >= TOL_SEPARATE away. contracting_toward: consecutive displacements
    decay geometrically; the limit estimate and median decay rate ride in
    the data dict. Everything else: unclassified.
    """
    iterates = np.asarray(iterates, dtype=float)
    start = iterates[0]
    disp = np.abs(iterates[1:] - start).max(axis=1)
    if disp.size == 0:
        return "unclassified", None, {}
    if disp[0] <= TOL_CLOSE:
        return "fixed", 1, {}
    for k in range(2, disp.size + 1):
        if disp[k - 1] <= TOL_CLOSE and disp[: k - 1].min() >= TOL_SEPARATE:
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
    k_max: int = 4,
    grid_n: int = 33,
    refine: bool = True,
) -> list[OrbitRecord]:
    """Scan a grid_n x grid_n seed lattice on [1/4, 3/4]^2, classify
    orbits, refine periodic candidates.

    Refinement shrinks, by the batched secant rounds of ``_bisect_edges``,
    brackets on lattice edges where a component of F^k - id changes sign to
    below 1e-12, then classifies the refined point from its own iterates.
    Deterministic for a fixed grid; an empty result is allowed.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    seeds = lattice((grid_n, grid_n), 0.25, 0.75)
    d = seeds.shape[1]
    its = _iterate(mapping, seeds, k_max)

    records = []
    for m in range(seeds.shape[0]):
        cls, period, data = classify_orbit(its[:, m])
        records.append(OrbitRecord(seeds[m], its[:, m], cls, period, data))

    if not refine:
        return records

    edges = []
    S = seeds.reshape((grid_n,) * d + (d,))
    for k in range(2, k_max + 1):
        G = (its[k] - seeds).reshape((grid_n,) * d + (d,))
        for axis in range(d):
            ca = np.take(G[..., axis], np.arange(grid_n - 1), axis=axis)
            cb = np.take(G[..., axis], np.arange(1, grid_n), axis=axis)
            # refine only genuine crossings, not sign noise around zero
            flips = np.argwhere(
                (np.sign(ca) * np.sign(cb) < 0)
                & (np.maximum(np.abs(ca), np.abs(cb)) > TOL_CLOSE)
            )
            for idx in flips[:512]:
                nxt = idx.copy()
                nxt[axis] += 1
                edges.append((S[tuple(idx)], S[tuple(nxt)], axis, k,
                              ca[tuple(idx)], cb[tuple(idx)]))

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
            cls, period, data = classify_orbit(its_ref[:, m])
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
    n_iters: int = 1,
) -> dict:
    """Radius ratios around a periodic point for transverse probes.

    Eight probes are placed off the invariant (vertical) line: four
    evenly spread over 45 degrees either side of each of the two
    horizontal directions. The probes go through the map as one batch,
    period-many times per double-iteration, and each records
    r_{m+1} / r_m with r_m = |F^{mk}(c) - q|_2; the worst ratio over
    probes and audited double-iterations is reported.
    """
    if isinstance(center_orbit, OrbitRecord):
        if center_orbit.classification != "periodic":
            raise ValueError("center_orbit must be a periodic orbit record")
        q = np.asarray(center_orbit.start, dtype=float)
        k = center_orbit.period
    else:
        q = np.asarray(center_orbit, dtype=float)
        k = 2
    base = np.linspace(-np.deg2rad(45.0), np.deg2rad(45.0), 4)
    angles = np.concatenate([base, base + np.pi])
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
        flow = integrate(self.candidate_field.eval, eval_points, self.flow_steps)
        return float(np.abs(flow - target_values).max())


def _grid_field_from_theta(theta, n_grid):
    return grid_field(GridInterpolant((n_grid, n_grid), theta.reshape(-1, 2)))


def _flow_theta_rows(thetas, block, X, n_grid, steps):
    """Time-1 RK4 flows of the rows of ``X``, row r under the grid field of
    ``thetas[block[r]]``, in one integration.

    One batched interpolant evaluates each row with its own candidate's
    vertex values and goes straight into the RK4 step loop.
    """
    rhs = GridInterpolant((n_grid, n_grid), thetas.reshape(len(thetas), -1, 2), block)
    return integrate(rhs, X, steps)


def _touched_flow(theta, pts, n_grid):
    """The fit flow of the grid field of ``theta`` from ``pts``, and the
    (row, vertex) mask of the hats that are nonzero at one of the row's
    RK4 stage points.

    The interpolant carries an identity block beside theta's two columns,
    so one hat-sum returns the field and every vertex's hat; each output
    column is summed on its own, so the field keeps its bits."""
    nverts = (n_grid + 1) ** 2
    gi = GridInterpolant((n_grid, n_grid), np.hstack([theta.reshape(-1, 2), np.eye(nverts)]))
    touched = np.zeros((len(pts), nverts), dtype=bool)

    def rhs(X):
        out = gi(X)
        touched[out[:, 2:] != 0] = True
        return out[:, :2]

    return integrate(rhs, pts, FIT_FLOW_STEPS), touched


def _sup_poll(pts, target_vals, n_grid):
    """The fit objective ``poll(cands, x)``: for each candidate row, the sup
    over ``pts`` of |Flow(candidate) - target|_inf, where the candidates
    are moves from the current parameters ``x``. The value is exact for a
    candidate whose sup is below x's own, ``fx``; any other candidate gets
    some value >= fx, and its remaining rows are never flowed.

    A candidate integrates only the rows it can change. A row whose flow
    under x keeps the hat of every vertex the candidate changed at 0, at
    all its RK4 stage points, gets the same bits under the candidate:
    each of those vertices' terms in the hat-sum is 0 * value = +-0, and
    adding +-0 to a running sum that starts at +0.0 changes no bit. Such a
    row keeps x's residual. The changed vertices are read as
    ``cands != x``, which is exact: a coordinate move leaves every other
    coordinate's bits alone.

    A candidate that cannot change one of the rows at fx keeps a sup of at
    least fx, and is not flowed at all. The others are flowed first on the
    screen, the ``FIT_SCREEN_ROWS`` rows of x's largest residuals (with
    every tie of the smallest of them, so the rows at fx are all in it),
    and on the other rows only while their sup stays below fx. A sup over
    some of the rows is a lower bound of the whole sup, so a candidate the
    screen stops is >= fx. ``_poll_search`` reads only which candidates
    fall below fx and the least of them, so its path keeps the bits of
    the exact objective. The flow of x, its row residuals, touched mask
    and screen are recomputed only when x changes.
    """
    key = base_res = touched = screen = None

    def poll(cands, x):
        nonlocal key, base_res, touched, screen
        if key != x.tobytes():
            base, touched = _touched_flow(x, pts, n_grid)
            base_res, key = np.abs(base - target_vals).max(axis=1), x.tobytes()
            screen = base_res >= np.sort(base_res)[-FIT_SCREEN_ROWS:][0]
        fx = base_res.max()
        changed = (cands != x).reshape(len(cands), -1, 2).any(axis=2)
        reach = (changed[:, None, :] & touched).any(axis=2)
        live = reach[:, base_res == fx].all(axis=1)
        res = np.tile(base_res, (len(cands), 1))
        for rows in (screen, ~screen):
            cand, row = np.nonzero(reach & rows & live[:, None])
            if cand.size:
                out = _flow_theta_rows(cands, cand, pts[row], n_grid, FIT_FLOW_STEPS)
                res[cand, row] = np.abs(out - target_vals[row]).max(axis=1)
            live &= res.max(axis=1) < fx
        return res.max(axis=1)

    return poll


def _poll_search(poll, x0, budget, rng):
    """Pattern search with shrinking step and full polls.

    Each poll evaluates every +-step coordinate move plus 16 seeded
    random l_inf-unit directions (these get the search off the corners of
    the sup-norm objective), takes the best improving candidate (or the
    sum of all improving moves when that is better), and halves the step
    after a failed poll. The step starts at 0.2; the search ends when the
    budget is spent or the step falls to 1e-9. ``poll(cands, x)`` scores
    candidates that are moves from the current point x, which it is
    given so that it can reuse x's flow. It must return the exact
    objective of every candidate below x's own value fx, and any value
    >= fx for the others: the search reads only ``argmin(f)``, ``f < fx``
    and ``fc < best_f`` (with best_f < fx), which such values decide as
    the exact ones do, so the path keeps its bits.
    """
    x = x0.copy()
    fx = float(poll(x[None], x)[0])
    evals = 1
    step = 0.2
    P = x.size
    coord = np.vstack([np.eye(P), -np.eye(P)])
    while evals < budget and step > 1e-9:
        R = rng.standard_normal((16, P))
        R /= np.abs(R).max(axis=1, keepdims=True)
        dirs = np.vstack([coord, R])
        cands = x[None] + step * dirs
        if evals + len(cands) > budget:
            cands = cands[: budget - evals]
        if len(cands) == 0:
            break
        f = poll(cands, x)
        evals += len(cands)
        i = int(np.argmin(f))
        if f[i] < fx:
            best_x, best_f = cands[i], float(f[i])
            improving = f < fx
            if improving.sum() > 1 and evals < budget:
                combo = x + step * dirs[: len(f)][improving].sum(axis=0)
                fc = float(poll(combo[None], x)[0])
                evals += 1
                if fc < best_f:
                    best_x, best_f = combo, fc
            x, fx = best_x, best_f
        else:
            step *= 0.5
    return x, fx, evals


def fit_single_flow(
    target,
    n_grid: int = 4,
    budget: int = 20_000,
    seed: int = 0,
) -> FitResult:
    """Best single time-1 flow over grid-valued fields, derivative-free.

    Parameters are the 2 (n_grid+1)^2 vertex values of a planar grid
    field. The objective is the sup over the FIT_EVAL_GRID_N^2 evaluation
    lattice of |Flow(candidate) - target|_inf, each candidate flowed with
    FIT_FLOW_STEPS RK4 steps, minimized by full-poll compass search
    with shrinking steps from two restarts: the zero field and the
    displacement chord x -> target(x) - x sampled at the vertices (a
    crude logarithm guess). A poll integrates only the (candidate, lattice
    point) pairs whose flow the candidate's changed vertices can reach,
    first on the lattice points where the current fit is worst and on the
    rest only for candidates still below it (``_sup_poll``). The search
    path, the residual and the field keep every bit of flowing all pairs.
    Deterministic given the seed, which is pinned into the protocol
    record.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    pts = lattice((FIT_EVAL_GRID_N, FIT_EVAL_GRID_N))
    target_vals = np.atleast_2d(target(pts))
    poll = _sup_poll(pts, target_vals, n_grid)

    nverts = (n_grid + 1) ** 2
    vpts = lattice((n_grid + 1, n_grid + 1))
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
        eval_grid_n=FIT_EVAL_GRID_N,
        flow_steps=FIT_FLOW_STEPS,
    )


def fit_gap_experiment(
    seed: int = 0,
    budget: int = 20_000,
    n_grid: int = 4,
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
    theta_star = 0.2 * rot.eval(lattice((n_grid + 1, n_grid + 1)))
    in_class = _grid_field_from_theta(theta_star.ravel(), n_grid)

    def self_target(X):  # the in-class field's flow as the fit computes it
        return integrate(in_class.eval, X, FIT_FLOW_STEPS)

    composite = build_counterexample()

    fit_self = fit_single_flow(self_target, n_grid, budget, seed)
    fit_comp = fit_single_flow(composite, n_grid, budget, seed)
    denom = max(fit_self.residual_sup, 1e-12)
    gap = fit_comp.residual_sup / denom
    return {
        "seed": seed,
        "budget": budget,
        "n_grid": n_grid,
        "eval_grid_n": FIT_EVAL_GRID_N,
        "flow_steps": FIT_FLOW_STEPS,
        "self_recovery_residual": fit_self.residual_sup,
        "self_recovery_init": fit_self.init_label,
        "composite_residual": fit_comp.residual_sup,
        "composite_init": fit_comp.init_label,
        "gap_ratio": gap,
        "margin_10x": bool(gap >= 10.0),
    }
