"""Empirical measures, pushforward through generators, and exact
Wasserstein-1 scoring with Euclidean ground cost.

The solver is exact. Uniform measures whose sizes divide evenly reduce to
a capacitated assignment: each atom of the larger measure goes to one atom
of the smaller, each of which takes k = max/min of them (the transportation
polytope has integral vertices, so this loses nothing). For k >= 8 it is
solved on the max x min cost by successive shortest paths with column
potentials (Ahuja, Magnanti & Orlin, Network Flows, 1993, ch. 9); for
k < 8, equal sizes included, by the Hungarian method on the square cost
after exact atom replication. Everything else is solved as the
transportation LP by column generation (Peyré & Cuturi, Computational
Optimal Transport, 2019, §3): HiGHS solves the LP restricted to a set of
arcs at tight feasibility tolerances, every arc is priced by its reduced
cost under the restricted duals, and the most negative arcs join the set
until none is negative. The start set holds a north-west-corner plan and
each source's cheapest arcs. For uniform sizes that do not divide, these
are cheapest by reduced cost under the column potentials of the same
problem with each atom of the smaller measure taking at most
ceil(max/min) atoms of the larger, which the shortest-path solver solves
exactly; that start is nearly optimal, so the LP mostly ends after one
pricing round. Weighted pairs start from the raw cost. The shortest-path
and LP paths report a certified gap: the cost minus the c-transform dual
of their column potentials, which is exactly feasible, so the gap bounds
the cost's distance from the optimum; the Hungarian path reports none.
Entropic approximations are out of scope.

The solves of a concentration experiment run in the process lanes of
``lanes.run``: neither solver releases the GIL, so threads cannot overlap
them, while a forked worker can. Every solve is deterministic, so the
results keep their bits whichever lane solves a pair.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog
from scipy.spatial.distance import cdist

from . import lanes

__all__ = [
    "EmpiricalMeasure",
    "TransportError",
    "TransportReport",
    "pushforward",
    "w1_exact",
    "cor_bound",
    "concentration_experiment",
    "summarize_trials",
]


class EmpiricalMeasure:
    """Weighted point cloud; weights are nonnegative and sum to one."""

    def __init__(self, points, weights=None):
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[:, None]
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("points must be a nonempty (N, d) array")
        if not np.all(np.isfinite(points)):
            raise ValueError("points must be finite")
        n = points.shape[0]
        if weights is None:
            weights = np.full(n, 1.0 / n)
        else:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != (n,):
                raise ValueError("weights must have one entry per point")
            if np.any(weights < 0):
                raise ValueError("weights must be nonnegative")
            if abs(weights.sum() - 1.0) > 1e-12:
                raise ValueError(f"weights sum to {weights.sum()!r}, expected 1")
        self.points = points
        self.weights = weights

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def uniform(self) -> bool:
        return bool(np.allclose(self.weights, 1.0 / self.n, rtol=0, atol=1e-14))


class TransportError(ArithmeticError):
    """The transport LP solver failed."""


class TransportReport:
    """Outcome of an exact W1 solve."""

    def __init__(self, w1, coupling_i, coupling_j, coupling_mass,
                 marginal_residual, gap):
        self.w1 = float(w1)
        self.coupling_i = np.asarray(coupling_i, dtype=np.int64)
        self.coupling_j = np.asarray(coupling_j, dtype=np.int64)
        self.coupling_mass = np.asarray(coupling_mass, dtype=float)
        self.marginal_residual = float(marginal_residual)
        # w1 minus a feasible dual value; None on the Hungarian path
        self.gap = None if gap is None else float(gap)

    @property
    def coupling(self):
        return list(zip(self.coupling_i.tolist(), self.coupling_j.tolist(),
                        self.coupling_mass.tolist()))


def pushforward(mapping, mu: EmpiricalMeasure) -> EmpiricalMeasure:
    """Apply a map to every support point; weights are untouched."""
    dim = getattr(mapping, "dim", None)
    if dim is not None and dim != mu.dim:
        raise ValueError(f"map expects dimension {dim}, measure has {mu.dim}")
    return EmpiricalMeasure(np.atleast_2d(mapping(mu.points)), mu.weights.copy())


def _marginal_residual(i, j, mass, wa, wb):
    ra = np.zeros_like(wa)
    np.add.at(ra, i, mass)
    rb = np.zeros_like(wb)
    np.add.at(rb, j, mass)
    return max(np.abs(ra - wa).max(), np.abs(rb - wb).max())


# Column generation: each source's arc set starts with its _CG_NEAREST arcs of
# least reduced cost under the start potentials (the nearest targets when they
# are 0), and each pricing round adds up to _CG_ADD of its arcs.
_CG_NEAREST = 4
_CG_ADD = 4


def _north_west_corner(wa, wb):
    """The arcs of the north-west-corner plan: a staircase from (0, 0) to
    (m - 1, n - 1) that steps to the next source where the cumulative source
    mass runs out first. It carries a feasible plan for any weights."""
    m = wa.size
    breaks = np.concatenate([np.cumsum(wa)[:-1], np.cumsum(wb)[:-1]])
    down = np.argsort(breaks, kind="stable") < m - 1
    return np.append(0, np.cumsum(down)), np.append(0, np.cumsum(~down))


def _solve_lp(cost, wa, wb, v0=0.0):
    """The transportation LP by column generation, started from each source's
    _CG_NEAREST least reduced costs c_ij - v0_j and the north-west corner.
    Returns the optimal coupling sorted by (i, j), its cost and its gap to the
    c-transform dual value of its column potentials."""
    m, n = cost.shape
    rows = np.arange(m)[:, None]
    inset = np.zeros((m, n), dtype=bool)
    inset[rows, np.argpartition(cost - v0, min(_CG_NEAREST, n) - 1, axis=1)[:, :_CG_NEAREST]] = True
    inset[_north_west_corner(wa, wb)] = True
    beq = np.concatenate([wa, wb])[:-1]  # last marginal constraint is redundant
    while True:
        arcs = np.flatnonzero(inset)  # sorted by (i, j)
        i, j = np.divmod(arcs, n)
        k = arcs.size
        A = sparse.csr_array(
            (np.ones(2 * k), (np.concatenate([i, j + m]), np.tile(np.arange(k), 2))),
            shape=(m + n, k),
        )[:-1]
        res = linprog(
            cost.ravel()[arcs],
            A_eq=A,
            b_eq=beq,
            bounds=(0, None),
            method="highs",
            options={
                "primal_feasibility_tolerance": 1e-10,
                "dual_feasibility_tolerance": 1e-10,
            },
        )
        if not res.success:
            raise TransportError(f"transport LP failed: {res.message}")
        # row and column potentials; the dropped row's is 0
        u, v = res.eqlin.marginals[:m], np.append(res.eqlin.marginals[m:], 0.0)
        cv = cost - v
        reduced = np.where(inset, np.inf, cv - u[:, None])  # arcs outside the set
        if not (reduced < 0).any():
            break
        # each source's most negative arcs join; the set only grows, so the loop ends
        add = np.argpartition(reduced, min(_CG_ADD, n) - 1, axis=1)[:, :_CG_ADD]
        inset[rows, add] |= reduced[rows, add] < 0
    keep = res.x > 1e-15
    i, j, mass = i[keep], j[keep], res.x[keep]
    w1 = float((cost[i, j] * mass).sum())
    # the c-transform u_i = min_j (c_ij - v_j) makes (u, v) exactly dual feasible
    return i, j, mass, w1, w1 - (wa @ cv.min(axis=1) + wb @ v)


# Uniform pairs whose sizes divide with at least this many replicas of each atom
# of the smaller measure take the shortest-path solver; the rest stay Hungarian.
_SSP_MIN_REPLICAS = 8


def _capacitated_assignment(cost, k):
    """Each of the m rows of ``cost`` assigned to one of its n columns, every
    column taking at most k rows (exactly k when m = n k), at least total cost,
    by successive shortest paths over the columns. Returns each row's column
    and the column potentials v <= 0, zero on every column with room left,
    under which every row's column minimizes c_ij - v_j."""
    m, n = cost.shape
    # start: each row takes its nearest column while that column has room, ties
    # by row index; with v = 0 every row then sits at its least reduced cost
    nearest = cost.argmin(axis=1)
    order = np.argsort(nearest, kind="stable")
    rank = np.arange(m) - np.searchsorted(nearest[order], nearest[order])
    placed = order[rank < k]
    col = np.full(m, -1)
    col[placed] = nearest[placed]
    count = np.bincount(nearest[placed], minlength=n)
    v = np.zeros(n)
    # a full column j passes one of its rows to j2 at real cost X[j, j2], through
    # row R[j, j2]: the cheapest exchange, cached until j's rows change
    X = np.zeros((n, n))
    R = np.zeros((n, n), dtype=np.int64)

    def cache(j):
        rows = np.flatnonzero(col == j)
        diff = cost[rows] - cost[rows, j][:, None]
        X[j], R[j] = diff.min(axis=0), rows[diff.argmin(axis=0)]

    for j in np.flatnonzero(count == k):
        cache(j)
    for i in np.flatnonzero(col < 0):
        # Dijkstra from row i over reduced costs, to the first column with room
        dist = cost[i] - v
        pred = np.full(n, -1)
        done = np.zeros(n, dtype=bool)
        while True:
            j = int(np.where(done, np.inf, dist).argmin())
            if count[j] < k:
                break
            done[j] = True
            alt = X[j] - v + (dist[j] + v[j])
            better = (alt < dist) & ~done
            dist[better], pred[better] = alt[better], j
        v[done] -= dist[j] - dist[done]
        # augment: each column on the path passes one row on, and j gains one
        count[j] += 1
        path = [j]
        while pred[j] >= 0:
            col[R[pred[j], j]] = j
            j = pred[j]
            path.append(j)
        col[i] = j
        for j in path:
            if count[j] == k:
                cache(j)
    return col, v


def w1_exact(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> TransportReport:
    """Exact W1(mu, nu) with Euclidean ground cost, plus an optimal coupling."""
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    if abs(mu.weights.sum() - nu.weights.sum()) > 1e-9:
        raise ValueError("total masses differ beyond 1e-9")

    if mu.uniform and nu.uniform:
        # every solver works on the larger measure's atoms as rows
        big, small, flip = (mu, nu, False) if mu.n >= nu.n else (nu, mu, True)
        k, rem = divmod(big.n, small.n)
        if rem:
            # sizes that do not divide: the LP, started from the potentials of the
            # same problem with each atom of the smaller measure taking at most
            # k + 1 whole atoms of the larger
            cost = cdist(big.points, small.points)
            v0 = _capacitated_assignment(cost, k + 1)[1]
            i, j, mass, w1, gap = _solve_lp(cost, big.weights, small.weights, v0)
        else:
            # each atom of the larger measure goes to one atom of the smaller,
            # which takes k of them; both solvers return each atom of the larger
            # measure once, in ascending order, so its pairs are sorted by (i, j)
            i = np.arange(big.n)
            mass = np.full(big.n, 1.0 / big.n)
            if k >= _SSP_MIN_REPLICAS:
                cost = cdist(big.points, small.points)
                c, v = _capacitated_assignment(cost, k)
                j = c
            else:
                # each atom of the smaller measure replicated k times makes the
                # problem a square assignment
                rep = np.repeat(np.arange(small.n), k)
                cost = cdist(big.points, small.points[rep])
                i, c = linear_sum_assignment(cost)
                j, v = rep[c], None  # the assignment solver returns no potentials
            w1 = float((cost[i, c] * mass).sum())
            # the c-transform u_i = min_j (c_ij - v_j) makes (u, v) exactly dual feasible
            gap = None if v is None else w1 - ((cost - v).min(axis=1).mean() + v.mean())
        if flip:
            i, j = j, i
            order = np.lexsort((j, i))
            i, j, mass = i[order], j[order], mass[order]
    else:
        cost = cdist(mu.points, nu.points)
        i, j, mass, w1, gap = _solve_lp(cost, mu.weights, nu.weights)

    resid = _marginal_residual(i, j, mass, mu.weights, nu.weights)
    return TransportReport(w1, i, j, mass, resid, gap)


def _w1_value(mu, nu) -> float:
    """The W1 value alone, which pickles, of one pair of a process lane."""
    return w1_exact(mu, nu).w1


def cor_bound(lipschitz: float, d: int, N: int, delta: float,
              C: float = 1.0, epsilon: float = 0.0) -> dict:
    """Concentration bound terms for pushforwards of N-sample noise.

    rhs = L sqrt(d) C / N^(1/d) + delta + epsilon, holding with
    probability at least 1 - 2 exp(-2 N delta^2 / (d L^2)). The constant
    C is user-supplied and flagged unverified; delta = 0 makes the
    probability bound vacuous (it degenerates to -1) and is flagged.
    """
    rhs = lipschitz * math.sqrt(d) * C / N ** (1.0 / d) + delta + epsilon
    prob = 1.0 - 2.0 * math.exp(-2.0 * N * delta**2 / (d * lipschitz**2))
    return {
        "bound_rhs": rhs,
        "success_probability_lhs": prob,
        "vacuous": prob <= 0.0,
        "terms": {
            "lipschitz": lipschitz,
            "N": N,
            "delta": delta,
            "epsilon": epsilon,
            "constant_C": C,
            "constant_C_verified": False,
        },
    }


def concentration_experiment(
    gen,
    target_sampler,
    noise_sampler,
    N_list,
    trials: int,
    delta: float,
    seed: int,
    M: int = 4096,
    C: float = 1.0,
) -> dict:
    """Push N-sample noise through the generator and score against a fixed
    M-sample proxy of the target, for each N and trial.

    The bound's epsilon is the generator certificate's total bound, or 0
    when the generator carries no certificate.

    The proxy replaces the continuous target (exact continuous W1 is
    unavailable); its own sampling error is estimated from two
    independent proxies and reported as a separate line item. Each
    trial's RNG stream derives from (seed, N, trial), so results do not
    depend on how trials are batched: every trial's noise is pushed
    through the generator in one call, which maps rows independently, and
    the W1 solves, the proxies' first, run in the process lanes of
    ``lanes.run``.
    """
    N_list = [int(N) for N in N_list]
    if any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ValueError("N_list must be strictly increasing")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if delta < 0:
        raise ValueError("delta must be >= 0")

    proxy = EmpiricalMeasure(target_sampler(np.random.default_rng([seed, 0]), M))
    proxy_b = EmpiricalMeasure(target_sampler(np.random.default_rng([seed, 1]), M))

    L = gen.lipschitz_bound
    epsilon = gen.certificate.total_bound if gen.certificate is not None else 0.0

    d = proxy.dim
    jobs = [(N, t) for N in N_list for t in range(trials)]
    noise = [EmpiricalMeasure(noise_sampler(np.random.default_rng([seed, N, t]), N))
             for N, t in jobs]
    pushed = pushforward(gen, EmpiricalMeasure(np.vstack([mu.points for mu in noise])))
    splits = np.cumsum([mu.n for mu in noise])[:-1]
    bounds = {N: cor_bound(L, d, N, delta, C, epsilon) for N in N_list}
    proxy_error, *w1 = lanes.run(_w1_value, [(proxy, proxy_b)] + [
        (proxy, EmpiricalMeasure(points, mu.weights))
        for mu, points in zip(noise, np.split(pushed.points, splits))])
    rows = []
    for (N, t), w in zip(jobs, w1):
        bound = bounds[N]
        rows.append(
            {
                "N": N,
                "trial": t,
                "w1": w,
                "bound_rhs": bound["bound_rhs"],
                "prob_lhs": bound["success_probability_lhs"],
                "vacuous": bound["vacuous"],
            }
        )
    return {
        "rows": rows,
        "proxy_error_estimate": proxy_error,
        "M": M,
        "constant_C": C,
        "constant_C_verified": False,
        "epsilon": epsilon,
        "lipschitz": L,
        "delta": delta,
        "seed": seed,
    }


def summarize_trials(rows) -> dict:
    """Median w1 per N, plus the monotone-decrease flag used in checks."""
    byN = {}
    for r in rows:
        byN.setdefault(r["N"], []).append(r["w1"])
    medians = {N: float(np.median(v)) for N, v in sorted(byN.items())}
    vals = list(medians.values())
    return {
        "medians": medians,
        "strictly_decreasing": all(b < a for a, b in zip(vals, vals[1:])),
    }
