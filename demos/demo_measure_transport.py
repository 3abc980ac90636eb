"""Push empirical measures through a generator and score the result with
exact Wasserstein-1 distances.

The solver is exact (Hungarian, successive shortest paths or the LP by
column generation, the last two with a certified duality gap; no entropic
smoothing), so the numbers below are
the transport distances themselves. The concentration table
shows the 1/N^(1/d) shrinkage of the sampling gap and the bound's
right-hand side L sqrt(d) C / N^(1/d) + delta + epsilon next to it; the
constant C is user-supplied and unverified.
"""

import numpy as np

from incflow import (
    EmpiricalMeasure,
    builtin_generator,
    concentration_experiment,
    pushforward,
    summarize_trials,
    w1_exact,
)

rng = np.random.default_rng(0)

mu = EmpiricalMeasure(rng.random((64, 2)))
nu = EmpiricalMeasure(rng.random((64, 2)))
rep = w1_exact(mu, nu)
print(f"W1 between two 64-point uniform clouds: {rep.w1:.4f}")
print(f"coupling size {len(rep.coupling)}, marginal residual {rep.marginal_residual:.1e}")

# random weights leave the assignment path: the transportation LP is solved
# by column generation and certified by the c-transform dual of its potentials
r = np.random.default_rng(1)
w = r.random(48)
weighted = EmpiricalMeasure(r.random((48, 2)), w / w.sum())
lp = w1_exact(weighted, nu)
print(f"W1 from a 48-point weighted cloud (LP path): {lp.w1:.4f}, "
      f"certified gap {lp.gap:.1e}")

gen = builtin_generator("counterexample")
pushed = pushforward(gen, mu)
print(f"\npushforward through the two-stage map moves W1(mu, F mu) = "
      f"{w1_exact(mu, pushed).w1:.4f}")
print(f"certified Lipschitz product of the generator: {gen.lipschitz_bound:.1f}")


def uniform(r, k):
    return r.random((k, 2))


print("\nconcentration experiment (identity generator, 16 trials, M=512):")
res = concentration_experiment(
    builtin_generator("identity2"), uniform, uniform,
    [16, 64, 256], trials=16, delta=0.1, seed=0, M=512,
)
summary = summarize_trials(res["rows"])
rhs = {r["N"]: r["bound_rhs"] for r in res["rows"]}
for N, med in summary["medians"].items():
    print(f"  N={N:4d}  median W1 = {med:.4f}   bound rhs = {rhs[N]:.4f}")
print(f"proxy sampling error estimate: {res['proxy_error_estimate']:.4f}")
print(f"strictly decreasing: {summary['strictly_decreasing']}")
