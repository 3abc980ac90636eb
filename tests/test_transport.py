import itertools
import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from incflow.fields import rotation_field
from incflow.flow import FlowMap, builtin_generator
from incflow.transport import (
    EmpiricalMeasure,
    concentration_experiment,
    cor_bound,
    pushforward,
    summarize_trials,
    w1_exact,
)


def brute_force_w1(a, b):
    """Exhaustive permutation minimum for equal-size uniform measures."""
    C = cdist(a, b)
    n = len(a)
    return min(
        C[np.arange(n), perm].mean() for perm in itertools.permutations(range(n))
    )


def test_measure_validation():
    with pytest.raises(ValueError):
        EmpiricalMeasure(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        EmpiricalMeasure(np.array([[np.inf, 0.0]]))
    with pytest.raises(ValueError):
        EmpiricalMeasure(np.zeros((2, 2)), np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        EmpiricalMeasure(np.zeros((2, 2)), np.array([-0.5, 1.5]))
    m = EmpiricalMeasure(np.zeros((4, 2)))
    assert np.allclose(m.weights, 0.25)
    assert m.uniform


def test_pushforward_identity_and_zero_flow():
    rng = np.random.default_rng(0)
    mu = EmpiricalMeasure(rng.random((20, 2)))
    gen = builtin_generator("identity2")
    out = pushforward(gen, mu)
    assert np.array_equal(out.points, mu.points)
    assert np.array_equal(out.weights, mu.weights)


def test_pushforward_rotation_oracle():
    # four symmetric points around the center rotate onto each other
    c = np.array([0.5, 0.5])
    pts = c + np.array([[0.1, 0.0], [0.0, 0.1], [-0.1, 0.0], [0.0, -0.1]])
    mu = EmpiricalMeasure(pts)
    fl = FlowMap(rotation_field(c, math.pi / 2), steps=512)
    out = pushforward(fl, mu)
    expect = c + np.array([[0.0, 0.1], [-0.1, 0.0], [0.0, -0.1], [0.1, 0.0]])
    assert np.abs(out.points - expect).max() <= 1e-9
    assert np.array_equal(out.weights, mu.weights)


def test_pushforward_dim_mismatch():
    mu = EmpiricalMeasure(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        pushforward(builtin_generator("identity2"), mu)


def test_pushforward_through_lifted_approximator():
    from incflow.lift import exact_lift

    la = exact_lift([lambda X: X[:, 0], lambda X: 1 - X[:, 0]], 1, [1.0, 1.0])
    mu = EmpiricalMeasure(np.array([[0.2], [0.7]]))
    out = pushforward(la, mu)
    assert out.dim == 2
    assert np.allclose(out.points, [[0.2, 0.8], [0.7, 0.3]], atol=1e-12)
    assert np.array_equal(out.weights, mu.weights)


def test_w1_identical_measures():
    rng = np.random.default_rng(1)
    mu = EmpiricalMeasure(rng.random((10, 2)))
    assert w1_exact(mu, mu).w1 == 0.0


def test_w1_two_diracs():
    a = EmpiricalMeasure(np.array([[0.0, 0.0]]))
    b = EmpiricalMeasure(np.array([[1.0, 0.0]]))
    assert w1_exact(a, b).w1 == pytest.approx(1.0, abs=1e-15)


def test_w1_sorted_matching_1d():
    a = EmpiricalMeasure(np.array([[0.0], [1.0]]))
    b = EmpiricalMeasure(np.array([[0.25], [0.75]]))
    rep = w1_exact(a, b)
    assert rep.w1 == pytest.approx(0.25, abs=1e-15)
    # brute force over both couplings agrees
    assert rep.w1 == pytest.approx(brute_force_w1(a.points, b.points), abs=1e-15)


def test_w1_matches_brute_force_small_instances():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        a, b = rng.random((n, 2)), rng.random((n, 2))
        got = w1_exact(EmpiricalMeasure(a), EmpiricalMeasure(b)).w1
        assert got == pytest.approx(brute_force_w1(a, b), abs=1e-10)


def test_coupling_marginals_all_paths():
    rng = np.random.default_rng(3)
    # assignment path
    a = EmpiricalMeasure(rng.random((8, 2)))
    b = EmpiricalMeasure(rng.random((8, 2)))
    assert w1_exact(a, b).marginal_residual <= 1e-10
    # replication path
    big = EmpiricalMeasure(rng.random((24, 2)))
    small = EmpiricalMeasure(rng.random((6, 2)))
    assert w1_exact(big, small).marginal_residual <= 1e-10
    assert w1_exact(small, big).marginal_residual <= 1e-10
    # LP path
    wa = rng.random(7)
    wa /= wa.sum()
    mu = EmpiricalMeasure(rng.random((7, 2)), wa)
    nu = EmpiricalMeasure(rng.random((5, 2)))
    rep = w1_exact(mu, nu)
    assert rep.marginal_residual <= 1e-10
    # and the reported cost equals the coupling's cost
    C = cdist(mu.points, nu.points)
    recomputed = sum(m * C[i, j] for i, j, m in rep.coupling)
    assert rep.w1 == pytest.approx(recomputed, abs=1e-10)


@pytest.mark.parametrize("m,n", [(8, 8), (24, 6), (6, 24), (1, 3), (3, 1)])
def test_assignment_coupling_order(m, n):
    # uniform measures whose sizes divide: the coupling lists one pair per
    # atom of the larger measure, sorted by (i, j), each of mass 1/max(m, n)
    rng = np.random.default_rng([5, m, n])
    rep = w1_exact(EmpiricalMeasure(rng.random((m, 2))), EmpiricalMeasure(rng.random((n, 2))))
    i, j = rep.coupling_i, rep.coupling_j
    assert np.all(np.lexsort((j, i)) == np.arange(i.size))
    larger = i if m >= n else j
    assert np.array_equal(np.sort(larger), np.arange(max(m, n)))
    assert np.all(rep.coupling_mass == 1.0 / max(m, n))


def test_replication_path_agrees_with_lp():
    rng = np.random.default_rng(4)
    big = EmpiricalMeasure(rng.random((12, 2)))
    small = EmpiricalMeasure(rng.random((4, 2)))
    fast = w1_exact(big, small).w1
    # force the LP path with an epsilon-perturbed weight vector
    w = np.full(12, 1.0 / 12)
    lp = w1_exact(EmpiricalMeasure(big.points, w + 0.0), small)
    assert fast == pytest.approx(lp.w1, abs=1e-9)


def test_w1_triangle_inequality():
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = EmpiricalMeasure(rng.random((6, 2)))
        b = EmpiricalMeasure(rng.random((6, 2)))
        c = EmpiricalMeasure(rng.random((6, 2)))
        ab, bc, ac = (w1_exact(a, b).w1, w1_exact(b, c).w1, w1_exact(a, c).w1)
        assert ac <= ab + bc + 1e-9


def test_w1_errors():
    a = EmpiricalMeasure(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        w1_exact(a, EmpiricalMeasure(np.zeros((2, 3))))


def test_pushforward_contraction_certified_generator():
    rng = np.random.default_rng(6)
    gen = builtin_generator("counterexample")
    L = gen.lipschitz_bound
    for _ in range(5):
        mu = EmpiricalMeasure(rng.random((12, 2)))
        nu = EmpiricalMeasure(rng.random((12, 2)))
        lhs = w1_exact(pushforward(gen, mu), pushforward(gen, nu)).w1
        rhs = L * w1_exact(mu, nu).w1
        assert lhs <= rhs + 1e-9


def test_cor_bound_values():
    # delta = 0 makes the probability bound vacuous: 1 - 2 = -1
    b = cor_bound(1.0, 2, 16, 0.0)
    assert b["success_probability_lhs"] == pytest.approx(-1.0)
    assert b["vacuous"]
    # spec-pinned failure term at L=1, d=2, N=256, delta=0.2
    b = cor_bound(1.0, 2, 256, 0.2)
    assert 1.0 - b["success_probability_lhs"] == pytest.approx(
        2 * math.exp(-10.24), rel=1e-12
    )
    assert not b["vacuous"]
    assert b["bound_rhs"] == pytest.approx(
        math.sqrt(2) / 256 ** 0.5 + 0.2, rel=1e-12
    )
    assert b["terms"]["constant_C_verified"] is False


def _uniform(rng, k):
    return rng.random((k, 2))


def test_concentration_trend_and_determinism():
    gen = builtin_generator("identity2")
    kw = dict(N_list=[8, 32], trials=6, delta=0.1, seed=11, M=128)
    res1 = concentration_experiment(gen, _uniform, _uniform, **kw)
    res2 = concentration_experiment(gen, _uniform, _uniform, **kw)
    assert res1["rows"] == res2["rows"]
    summ = summarize_trials(res1["rows"])
    assert set(summ["medians"]) == {8, 32}
    assert res1["proxy_error_estimate"] > 0


def test_concentration_partition_invariance():
    # each trial's stream derives from (seed, N, trial): running N=32 alone
    # reproduces the same w1 values as running it inside a longer N_list
    gen = builtin_generator("identity2")
    full = concentration_experiment(
        gen, _uniform, _uniform, [8, 32], trials=3, delta=0.1, seed=12, M=64
    )
    alone = concentration_experiment(
        gen, _uniform, _uniform, [32], trials=3, delta=0.1, seed=12, M=64
    )
    got_full = [r["w1"] for r in full["rows"] if r["N"] == 32]
    got_alone = [r["w1"] for r in alone["rows"]]
    assert got_full == got_alone


def test_concentration_validation():
    gen = builtin_generator("identity2")
    with pytest.raises(ValueError):
        concentration_experiment(gen, _uniform, _uniform, [32, 8], 2, 0.1, 0)
    with pytest.raises(ValueError):
        concentration_experiment(gen, _uniform, _uniform, [8, 32], 0, 0.1, 0)
    with pytest.raises(ValueError):
        concentration_experiment(gen, _uniform, _uniform, [8, 32], 2, -0.1, 0)


def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    w = rng.random(5)
    w /= w.sum()
    mu = EmpiricalMeasure(rng.random((5, 3)), w)
    path = tmp_path / "measure.csv"
    mu.to_csv(path, include_weights=True)
    back = EmpiricalMeasure.from_csv(path)
    assert np.array_equal(back.points, mu.points)
    assert np.array_equal(back.weights, mu.weights)
    # without weights: uniform on reload
    mu.to_csv(path)
    back = EmpiricalMeasure.from_csv(path)
    assert np.array_equal(back.points, mu.points)
    assert back.uniform
