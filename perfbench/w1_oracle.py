"""Independent check of ``incflow.transport.w1_exact`` on every solver path.

Each seeded instance is solved twice: by ``w1_exact`` and by a dense
transportation LP written here from scratch (every marginal row kept,
no replication, no assignment reduction; Peyre & Cuturi, Computational
Optimal Transport, 2019, section 3). The values must agree within 1e-9
and the coupling ``w1_exact`` returns must meet both marginals within
1e-12 and cost what it reports.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog
from scipy.spatial.distance import cdist

VALUE_TOL = 1e-9
MARGINAL_TOL = 1e-12

# (path, size of mu, size of nu): sizes pick the w1_exact solver path
INSTANCES = (
    ("assignment", 24, 24),
    ("assignment", 40, 40),
    ("replication", 36, 12),
    ("replication", 10, 50),
    ("lp", 30, 21),
    ("lp", 17, 40),
)


def dense_lp_w1(a: np.ndarray, b: np.ndarray, wa: np.ndarray, wb: np.ndarray) -> float:
    m, n = len(a), len(b)
    cost = cdist(a, b)
    rows = np.kron(np.eye(m), np.ones((1, n)))
    cols = np.kron(np.ones((1, m)), np.eye(n))
    res = linprog(
        cost.ravel(), A_eq=np.vstack([rows, cols]), b_eq=np.concatenate([wa, wb]),
        bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10},
    )
    if not res.success:
        raise RuntimeError(f"oracle LP failed: {res.message}")
    return float(res.fun)


def check(seed: int) -> list[tuple[str, bool, str]]:
    """Run every instance; returns (label, passed, detail) per instance."""
    from incflow.transport import EmpiricalMeasure, w1_exact

    rng = np.random.default_rng([seed, 7919])
    out = []
    for path, m, n in INSTANCES:
        a, b = rng.random((m, 2)), rng.random((n, 2))
        mu, nu = EmpiricalMeasure(a), EmpiricalMeasure(b)
        rep = w1_exact(mu, nu)
        ref = dense_lp_w1(a, b, mu.weights, nu.weights)
        ra = np.bincount(rep.coupling_i, weights=rep.coupling_mass, minlength=m)
        rb = np.bincount(rep.coupling_j, weights=rep.coupling_mass, minlength=n)
        resid = max(np.abs(ra - mu.weights).max(), np.abs(rb - nu.weights).max())
        paid = float((cdist(a, b)[rep.coupling_i, rep.coupling_j] * rep.coupling_mass).sum())
        ok = (abs(rep.w1 - ref) <= VALUE_TOL and resid <= MARGINAL_TOL
              and abs(paid - rep.w1) <= VALUE_TOL)
        detail = (f"w1={rep.w1!r} oracle={ref!r} marginal_residual={resid:.3g} "
                  f"coupling_cost={paid!r}")
        out.append((f"w1_oracle.{path}.{m}x{n}", ok, detail))
    return out
