"""Empirical measures, pushforward through generators, and exact
Wasserstein-1 scoring with Euclidean ground cost.

The solver is exact: uniform measures whose sizes divide evenly (equal
sizes included) reduce to an assignment problem (Hungarian) after exact
atom replication (the transportation polytope has integral vertices, so
replication loses nothing); everything else is solved as the
transportation LP with HiGHS at tight feasibility tolerances. Entropic
approximations are out of scope.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog
from scipy.spatial.distance import cdist

__all__ = [
    "EmpiricalMeasure",
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

    # CSV: d coordinate columns, optional trailing weight column
    def to_csv(self, path, include_weights: bool = False) -> None:
        header = ",".join(f"x{i}" for i in range(self.dim))
        rows = []
        if include_weights:
            header += ",weight"
        for k in range(self.n):
            cells = [repr(float(v)) for v in self.points[k]]
            if include_weights:
                cells.append(repr(float(self.weights[k])))
            rows.append(",".join(cells))
        with open(path, "w") as fh:
            fh.write(header + "\n")
            fh.write("\n".join(rows) + "\n")

    @classmethod
    def from_csv(cls, path) -> "EmpiricalMeasure":
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        if header[-1] == "weight":
            return cls(data[:, :-1], data[:, -1])
        return cls(data)


class TransportReport:
    """Outcome of an exact W1 solve."""

    def __init__(self, w1, coupling_i, coupling_j, coupling_mass,
                 marginal_residual):
        self.w1 = float(w1)
        self.coupling_i = np.asarray(coupling_i, dtype=np.int64)
        self.coupling_j = np.asarray(coupling_j, dtype=np.int64)
        self.coupling_mass = np.asarray(coupling_mass, dtype=float)
        self.marginal_residual = float(marginal_residual)

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


def _solve_lp(cost, wa, wb):
    m, n = cost.shape
    var = np.arange(m * n)
    row_idx = np.repeat(np.arange(m), n)
    col_idx = np.tile(np.arange(n), m) + m
    A = sparse.coo_matrix(
        (
            np.ones(2 * m * n),
            (np.concatenate([row_idx, col_idx]), np.concatenate([var, var])),
        ),
        shape=(m + n, m * n),
    ).tocsr()[:-1]  # last marginal constraint is redundant
    beq = np.concatenate([wa, wb])[:-1]
    res = linprog(
        cost.ravel(),
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
        raise RuntimeError(f"transport LP failed: {res.message}")
    flow = res.x.reshape(m, n)
    i, j = np.nonzero(flow > 1e-15)
    return i, j, flow[i, j]


def w1_exact(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> TransportReport:
    """Exact W1(mu, nu) with Euclidean ground cost, plus an optimal coupling."""
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    if abs(mu.weights.sum() - nu.weights.sum()) > 1e-9:
        raise ValueError("total masses differ beyond 1e-9")

    if mu.uniform and nu.uniform and (mu.n % nu.n == 0 or nu.n % mu.n == 0):
        # each atom of the smaller measure replicated k times makes the
        # problem a square assignment; it returns each atom of the larger
        # measure once, in ascending order, so its pairs are already sorted
        big, small, flip = (mu, nu, False) if mu.n >= nu.n else (nu, mu, True)
        rep = np.repeat(np.arange(small.n), big.n // small.n)
        cost = cdist(big.points, small.points[rep])
        i, c = linear_sum_assignment(cost)
        mass = np.full(big.n, 1.0 / big.n)
        w1 = float((cost[i, c] * mass).sum())
        j = rep[c]
        if flip:
            i, j = j, i
            order = np.lexsort((j, i))
            i, j, mass = i[order], j[order], mass[order]
    else:
        cost = cdist(mu.points, nu.points)
        i, j, mass = _solve_lp(cost, mu.weights, nu.weights)
        w1 = float((cost[i, j] * mass).sum())

    resid = _marginal_residual(i, j, mass, mu.weights, nu.weights)
    return TransportReport(w1, i, j, mass, resid)


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
    epsilon: float | None = None,
) -> dict:
    """Push N-sample noise through the generator and score against a fixed
    M-sample proxy of the target, for each N and trial.

    The proxy replaces the continuous target (exact continuous W1 is
    unavailable); its own sampling error is estimated from two
    independent proxies and reported as a separate line item. Each
    trial's RNG stream derives from (seed, N, trial), so results do not
    depend on how trials are batched.
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
    proxy_error = w1_exact(proxy, proxy_b).w1

    L = getattr(gen, "lipschitz_bound", 1.0)
    if epsilon is None:
        cert = getattr(gen, "certificate", None)
        epsilon = cert.total_bound if cert is not None else 0.0

    d = proxy.dim
    rows = []
    for N in N_list:
        bound = cor_bound(L, d, N, delta, C, epsilon)
        for t in range(trials):
            rng = np.random.default_rng([seed, N, t])
            noise = EmpiricalMeasure(noise_sampler(rng, N))
            pushed = pushforward(gen, noise)
            rep = w1_exact(proxy, pushed)
            rows.append(
                {
                    "N": N,
                    "trial": t,
                    "w1": rep.w1,
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
