"""Acceptance checks, one test per criterion, each printing a PASS/FAIL
line with the measured numbers (run pytest with -s to see them inline).

Every tolerance is pinned here; the fit-gap margin (criterion 12) is the
one check that downgrades to a warning by design, since the claim it
shadows is qualitative.
"""

import itertools
import time
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from incflow.fields import (
    builtin_field,
    builtin_suite,
    grid_relu_approximate,
)
from incflow.flow import (
    FlowMap,
    approximate_generator,
    builtin_generator,
    empirical_lipschitz,
)
from incflow.lift import approximate_lipschitz_function, exact_lift, lift_function
from incflow.mlp import build_bump
from incflow.probe import (
    build_counterexample,
    contraction_audit,
    detect_periodic,
    fit_gap_experiment,
)
from incflow.transport import (
    EmpiricalMeasure,
    concentration_experiment,
    pushforward,
    summarize_trials,
    w1_exact,
)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion:2d}: {detail}")


def lattice(n_axis, dim=2):
    axes = [np.linspace(0.0, 1.0, n_axis) for _ in range(dim)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)


def bump_piecewise(x, delta):
    rise = 2.0 * x - delta / 2.0
    fall = (1.0 - 1.0 / delta) * x + (2.0 - delta) / (2.0 * delta)
    return np.select(
        [x < delta / 4.0, x <= delta / 2.0, x <= 1.0 - delta / 2.0],
        [0.0, rise, x],
        default=np.maximum(fall, 0.0),
    )


def test_criterion_01_bump_exactness():
    t0 = time.perf_counter()
    net = build_bump(0.4)
    x = np.linspace(-1.0, 2.0, 100_000)
    err = np.abs(net.eval(x[:, None])[:, 0] - bump_piecewise(x, 0.4)).max()
    elapsed = time.perf_counter() - t0
    ok = err <= 1e-12 and elapsed < 1.0
    report(1, ok, f"bump exactness max|diff|={err:.2e} (<=1e-12), {elapsed:.2f}s (<1s)")
    assert err <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_approximation_rate():
    t0 = time.perf_counter()
    f = builtin_field("sin_bump")
    L = f.lipschitz_bound
    pts = lattice(101)
    errs = {}
    for n in (4, 8, 16):
        vf = grid_relu_approximate(f, n)
        errs[n] = float(np.abs(vf.grid(pts) - f.eval(pts)).max())
        assert errs[n] <= L * 2 / (2 * n), (n, errs[n])
    halves = errs[16] <= 0.55 * errs[8]
    elapsed = time.perf_counter() - t0
    ok = halves and elapsed < 30.0
    report(
        2,
        ok,
        f"rate: err(4/8/16)={errs[4]:.3e}/{errs[8]:.3e}/{errs[16]:.3e}"
        f" bounds L*d/2n, err16/err8={errs[16] / errs[8]:.2f} (<=0.55), {elapsed:.1f}s (<30s)",
    )
    assert halves
    assert elapsed < 30.0


def test_criterion_03_certificate_domination():
    t0 = time.perf_counter()
    pts = lattice(33)
    worst = 0.0
    for name, f in builtin_suite().items():
        ref = FlowMap(f).apply(pts)
        for n in (4, 8, 16):
            gen = approximate_generator([f], n)
            flow, cert = gen.stages[0], gen.certificate
            measured = float(np.abs(flow.apply(pts) - ref).max())
            assert measured <= cert.total_bound + 1e-12, (name, n, measured)
            if cert.total_bound > 0:
                worst = max(worst, measured / cert.total_bound)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0
    report(
        3,
        ok,
        f"certificate domination on 4 fields x n in {{4,8,16}}: "
        f"worst measured/bound={worst:.2e}, {elapsed:.1f}s (<2min)",
    )
    assert elapsed < 120.0


def test_criterion_04_composition_certificate():
    t0 = time.perf_counter()
    flds = [builtin_field("squeeze_clipped"), builtin_field("rotation_clipped")]
    gen = approximate_generator(flds, n=8)
    cert = gen.certificate
    pts = lattice(33)
    ref = pts
    for f in flds:
        ref = FlowMap(f).apply(ref)
    measured = float(np.abs(gen.apply(pts) - ref).max())
    elapsed = time.perf_counter() - t0
    ok = measured <= cert.total_bound and elapsed < 120.0
    report(
        4,
        ok,
        f"T=2 composition: measured={measured:.3e} <= bound={cert.total_bound:.3e}, "
        f"{elapsed:.1f}s (<2min)",
    )
    assert measured <= cert.total_bound
    assert elapsed < 120.0


def test_criterion_05_lipschitz_audit():
    details = []
    for gid in ("identity2", "counterexample", "rotation_only", "squeeze_only"):
        gen = builtin_generator(gid)
        est = empirical_lipschitz(gen, samples=10_000, seed=0)
        assert est <= gen.lipschitz_bound, (gid, est, gen.lipschitz_bound)
        details.append(f"{gid}:{est:.2f}<={gen.lipschitz_bound:.2f}")
    report(5, True, "empirical Lipschitz <= certified product: " + " ".join(details))


def test_criterion_06_flow_inversion():
    rng = np.random.default_rng(0)
    X = rng.random((100, 2))
    worst = 0.0
    for name, f in builtin_suite().items():
        fl = FlowMap(f)
        back = fl.inverse().apply(fl.apply(X))
        worst = max(worst, float(np.abs(back - X).max()))
    ok = worst <= 1e-6
    report(6, ok, f"round trip over 100 points, all builtin fields: max={worst:.2e} (<=1e-6)")
    assert worst <= 1e-6


def test_criterion_07_lifting():
    # exact lifts: single-Euler-step exactness on 10^3 points
    rng = np.random.default_rng(1)
    xs = rng.random((1000, 1))
    square = exact_lift([lambda X: X[:, 0] ** 2], 1, 2.0)
    err_sq = np.abs(square.apply(xs)[:, 0] - xs[:, 0] ** 2).max()
    pair = exact_lift([lambda X: X[:, 0], lambda X: 1 - X[:, 0]], 1, [1.0, 1.0])
    err_pair = np.abs(
        pair.apply(xs) - np.stack([xs[:, 0], 1 - xs[:, 0]], axis=1)
    ).max()
    assert max(err_sq, err_pair) <= 1e-12

    # grid lift of |2x-1|: rate bound and halving (kink on-grid for even n,
    # so both errors sit at float noise; the halving check carries a floor)
    comps, d, D, L = lift_function("abs2x1")
    dense = np.linspace(0.0, 1.0, 1001)[:, None]
    truth = comps[0](dense)
    errs = {}
    for n in (8, 16):
        approx, _ = approximate_lipschitz_function(comps, n, d, D, L)
        errs[n] = float(np.abs(approx.apply(dense)[:, 0] - truth).max())
        assert errs[n] <= (d + 1) * L[0] / (2 * n), (n, errs[n])
    halves = errs[16] <= max(0.55 * errs[8], 1e-12)
    report(
        7,
        halves,
        f"lift: exact={max(err_sq, err_pair):.1e} (<=1e-12), "
        f"|2x-1| err8={errs[8]:.2e} err16={errs[16]:.2e} <= (d+1)L/2n, halving ok",
    )
    assert halves


def test_criterion_08_w1_solver_exactness():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        a, b = rng.random((n, 2)), rng.random((n, 2))
        got = w1_exact(EmpiricalMeasure(a), EmpiricalMeasure(b)).w1
        C = cdist(a, b)
        brute = min(
            C[np.arange(n), p].mean() for p in itertools.permutations(range(n))
        )
        worst = max(worst, abs(got - brute))
    assert worst <= 1e-10
    m = EmpiricalMeasure(rng.random((7, 2)))
    ident = w1_exact(m, m).w1
    diracs = w1_exact(
        EmpiricalMeasure(np.array([[0.0, 0.0]])),
        EmpiricalMeasure(np.array([[1.0, 0.0]])),
    ).w1
    ok = ident == 0.0 and diracs == pytest.approx(1.0, abs=1e-15)
    report(
        8,
        ok and worst <= 1e-10,
        f"W1 vs brute force on 50 instances: max|diff|={worst:.1e} (<=1e-10); "
        f"identical={ident}, diracs={diracs}",
    )
    assert ok


def test_criterion_09_pushforward_contraction():
    rng = np.random.default_rng(3)
    gen = builtin_generator("counterexample")
    L = gen.lipschitz_bound
    worst_excess = -np.inf
    for _ in range(20):
        mu = EmpiricalMeasure(rng.random((10, 2)))
        nu = EmpiricalMeasure(rng.random((10, 2)))
        lhs = w1_exact(pushforward(gen, mu), pushforward(gen, nu)).w1
        rhs = L * w1_exact(mu, nu).w1
        worst_excess = max(worst_excess, lhs - rhs)
        assert lhs <= rhs + 1e-9
    report(9, True, f"pushforward contraction on 20 pairs: max(lhs-rhs)={worst_excess:.2e} (<=1e-9)")


def test_criterion_10_concentration_trend():
    gen = builtin_generator("identity2")

    def uniform(rng, k):
        return rng.random((k, 2))

    res = concentration_experiment(
        gen, uniform, uniform, [16, 64, 256], trials=32, delta=0.1, seed=0, M=1024
    )
    summ = summarize_trials(res["rows"])
    med = summ["medians"]
    rhs = {r["N"]: r["bound_rhs"] for r in res["rows"]}
    ok = summ["strictly_decreasing"]
    report(
        10,
        ok,
        "W1 medians over 32 trials: "
        + " ".join(f"N={N}:{med[N]:.4f}(rhs={rhs[N]:.3f})" for N in (16, 64, 256))
        + " strictly decreasing; C=1.0 unverified",
    )
    assert ok


def test_criterion_11_counterexample_dynamics():
    gen = build_counterexample()
    records = detect_periodic(gen, grid_n=17, k_max=2)
    periodic = [
        r for r in records if r.classification == "periodic" and r.period == 2
    ]
    assert periodic, "no period-2 point found"
    near = [r for r in periodic if abs(r.start[0] - 0.5) <= 1e-4]
    assert near, "period-2 points not on the line x=1/2"
    q = min(near, key=lambda r: abs(r.start[1] - 0.5625))
    close = float(np.abs(q.iterates[2] - q.start).max())
    separate = float(np.abs(q.iterates[1] - q.start).max())
    assert close <= 1e-6
    assert separate >= 1e-2
    audit = contraction_audit(gen, q, radius=0.01)
    ok = audit["max_ratio"] <= 0.9
    report(
        11,
        ok,
        f"period-2 at x={q.start[0]:.6f} (|dx|<=1e-4), |F^2(q)-q|={close:.1e} (<=1e-6), "
        f"|F(q)-q|={separate:.3f} (>=1e-2), contraction max ratio={audit['max_ratio']:.3f} (<=0.9)",
    )
    assert ok


def test_criterion_12_fit_gap_experiment():
    res = fit_gap_experiment(seed=0, budget=20_000, n_grid=4)
    detail = (
        f"fit gap: self={res['self_recovery_residual']:.2e} "
        f"composite={res['composite_residual']:.2e} ratio={res['gap_ratio']:.1f}"
    )
    if not res["margin_10x"]:
        # the shadowed claim is topological, not quantitative: sub-10x
        # margins are reported, never failed
        warnings.warn(f"fit gap below 10x margin: {detail}")
    report(12, True, detail + (" (>=10x)" if res["margin_10x"] else " (WARNING <10x)"))
    assert res["self_recovery_residual"] >= 0
    assert res["composite_residual"] >= 0
    assert res["budget"] == 20_000
