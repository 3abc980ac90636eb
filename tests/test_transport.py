import errno
import itertools
import math
import os
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment, linprog
from scipy.spatial.distance import cdist

from incflow.fields import builtin_field, lattice, rotation_field
from incflow.flow import (
    FlowMap, approximate_generator, builtin_generator, load_generator, save_generator,
)
import incflow.transport as T
from incflow.transport import (
    EmpiricalMeasure,
    TransportError,
    _capacitated_assignment,
    _solve_lp,
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
    fl = FlowMap(rotation_field(c, math.pi / 2))
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
    assert abs(rep.gap) <= 1e-12
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


@pytest.fixture
def solver_calls(monkeypatch):
    """Count the calls of each solver ``w1_exact`` can take."""
    import incflow.transport as T

    calls = dict.fromkeys(("linear_sum_assignment", "linprog"), 0)
    for name in calls:
        def counted(*args, _name=name, _real=getattr(T, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(T, name, counted)
    return calls


def test_replication_path_agrees_with_lp(solver_calls):
    rng = np.random.default_rng(4)
    big = EmpiricalMeasure(rng.random((12, 2)))
    small = EmpiricalMeasure(rng.random((4, 2)))
    fast = w1_exact(big, small)
    assert solver_calls == {"linear_sum_assignment": 1, "linprog": 0}
    assert fast.gap is None
    # the same measure with its first atom split into two halves: the
    # weights are not uniform, so the LP path solves it
    w = np.append(np.full(12, 1.0 / 12), 1.0 / 24)
    w[0] = 1.0 / 24
    split = EmpiricalMeasure(np.vstack([big.points, big.points[:1]]), w)
    lp = w1_exact(split, small)
    assert solver_calls["linear_sum_assignment"] == 1 and solver_calls["linprog"] >= 1
    assert fast.w1 == pytest.approx(lp.w1, abs=1e-9)
    assert abs(lp.gap) <= 1e-12


def dense_lp_w1(a, b, wa, wb):
    """The transportation LP over every arc, with every marginal row kept."""
    m, n = len(a), len(b)
    res = linprog(
        cdist(a, b).ravel(),
        A_eq=np.vstack([np.kron(np.eye(m), np.ones((1, n))), np.kron(np.ones((1, m)), np.eye(n))]),
        b_eq=np.concatenate([wa, wb]), bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.success, res.message
    return res.fun


def _weights(rng, k, zeros=0):
    w = rng.random(k)
    w[rng.choice(k, zeros, replace=False)] = 0.0
    return w / w.sum()


def _lp_instance(case):
    rng = np.random.default_rng(list(map(ord, case)))
    if case == "random":
        return rng.random((23, 2)), _weights(rng, 23), rng.random((17, 2)), _weights(rng, 17)
    if case == "zero_weights":
        return rng.random((15, 2)), _weights(rng, 15, 4), rng.random((11, 2)), _weights(rng, 11, 3)
    if case == "ties":  # duplicate points on both sides, uniform sizes that do not divide
        a, b = rng.random((4, 2)), rng.random((3, 2))
        a, b = a[rng.integers(0, 4, 14)], np.vstack([b[rng.integers(0, 3, 9)], a[:1]])
        return a, np.full(14, 1 / 14), b, np.full(10, 1 / 10)
    if case == "m1":
        return rng.random((1, 2)), np.ones(1), rng.random((9, 2)), _weights(rng, 9)
    if case == "n1":
        return rng.random((9, 2)), _weights(rng, 9), rng.random((1, 2)), np.ones(1)
    if case == "cg_rounds":  # more targets than the start's nearest arcs reach
        return rng.random((12, 2)), _weights(rng, 12), rng.random((40, 2)), _weights(rng, 40)
    if case in ("30x21", "21x30", "100x7", "7x100"):  # uniform sizes that do not divide
        m, n = map(int, case.split("x"))
        return rng.random((m, 2)), np.full(m, 1 / m), rng.random((n, 2)), np.full(n, 1 / n)
    raise ValueError(case)


@pytest.mark.parametrize("case", ["random", "zero_weights", "ties", "m1", "n1", "cg_rounds",
                                  "30x21", "21x30", "100x7", "7x100"])
def test_lp_path_against_dense_lp(case, solver_calls):
    a, wa, b, wb = _lp_instance(case)
    mu, nu = EmpiricalMeasure(a, wa), EmpiricalMeasure(b, wb)
    rep = w1_exact(mu, nu)
    assert solver_calls["linear_sum_assignment"] == 0 and solver_calls["linprog"] >= 1
    if case == "cg_rounds":  # the first restricted LP is not optimal
        assert solver_calls["linprog"] >= 2
    assert rep.w1 == pytest.approx(dense_lp_w1(a, b, wa, wb), abs=1e-10)
    i, j = rep.coupling_i, rep.coupling_j
    assert np.all(np.diff(i * len(b) + j) > 0)  # sorted by (i, j), one entry per arc
    ra = np.bincount(i, weights=rep.coupling_mass, minlength=len(a))
    rb = np.bincount(j, weights=rep.coupling_mass, minlength=len(b))
    assert np.abs(ra - wa).max() <= 1e-12 and np.abs(rb - wb).max() <= 1e-12
    assert abs(rep.gap) <= 1e-12
    again = w1_exact(mu, nu)
    for key in ("w1", "coupling_i", "coupling_j", "coupling_mass", "marginal_residual", "gap"):
        assert np.array_equal(getattr(again, key), getattr(rep, key)), key


@pytest.mark.parametrize("N,rounds", [(48, [(2, 4), (2, 4), (2, 4)]),
                                      (80, [(2, 3), (2, 4), (2, 4)])])
def test_lp_warm_start_takes_fewer_rounds(N, rounds, solver_calls):
    # seeded counterexample pushforwards scored against a uniform M=1024 proxy,
    # as generate scores its non-divisible pairs: (rounds started from the
    # potentials of the rounded-capacity assignment, rounds started from v = 0)
    proxy = EmpiricalMeasure(np.random.default_rng([31, 0]).random((1024, 2)))
    counted = []
    for t in range(len(rounds)):
        noise = EmpiricalMeasure(np.random.default_rng([31, N, t]).random((N, 2)))
        pushed = pushforward(builtin_generator("counterexample"), noise)
        warm = w1_exact(proxy, pushed)
        after_warm = solver_calls["linprog"]
        cold_w1 = _solve_lp(cdist(proxy.points, pushed.points), proxy.weights, pushed.weights)[3]
        counted.append((after_warm, solver_calls["linprog"] - after_warm))
        solver_calls["linprog"] = 0
        assert warm.w1 == pytest.approx(cold_w1, abs=1e-12)
    assert counted == rounds
    assert all(w <= c for w, c in counted) and sum(w for w, _ in counted) < sum(c for _, c in counted)


def _ssp_instance(m, n, tied):
    rng = np.random.default_rng([28, m, n, tied])
    if not tied:
        return rng.random((m, 2)), rng.random((n, 2))
    # both measures on one 5x5 lattice, with duplicate points: many equal costs
    grid = lattice((5, 5))
    return grid[rng.integers(0, 25, m)], grid[rng.integers(0, 25, n)]


@pytest.mark.parametrize("m,n,tied", [
    (8, 1, False), (1, 8, False), (64, 8, False), (8, 64, False), (96, 6, False),
    (6, 96, False), (128, 2, False), (2, 128, False), (256, 32, False),
    (96, 12, True), (12, 96, True), (64, 1, True), (256, 16, True),
])
def test_shortest_path_against_dense_lp(m, n, tied, solver_calls):
    # uniform sizes that divide with k = max/min >= 8: successive shortest paths
    a, b = _ssp_instance(m, n, tied)
    rep = w1_exact(EmpiricalMeasure(a), EmpiricalMeasure(b))
    assert solver_calls == {"linear_sum_assignment": 0, "linprog": 0}
    wa, wb = np.full(m, 1.0 / m), np.full(n, 1.0 / n)
    assert rep.w1 == pytest.approx(dense_lp_w1(a, b, wa, wb), abs=1e-10)
    assert rep.gap is not None and abs(rep.gap) <= 1e-12
    i, j = rep.coupling_i, rep.coupling_j
    assert np.all(np.diff(i * n + j) > 0)  # sorted by (i, j), one entry per arc
    larger = i if m >= n else j
    assert np.array_equal(np.sort(larger), np.arange(max(m, n)))
    assert np.all(rep.coupling_mass == 1.0 / max(m, n))
    ra = np.bincount(i, weights=rep.coupling_mass, minlength=m)
    rb = np.bincount(j, weights=rep.coupling_mass, minlength=n)
    assert np.abs(ra - wa).max() <= 1e-12 and np.abs(rb - wb).max() <= 1e-12
    assert rep.marginal_residual <= 1e-12
    assert rep.w1 == pytest.approx(float(cdist(a, b)[i, j] @ rep.coupling_mass), abs=1e-15)


@pytest.mark.parametrize("m,n,tied", [
    (1024, 48, False), (30, 21, False), (14, 10, False), (100, 7, False), (17, 5, False),
    (50, 49, False), (30, 7, True),
])
def test_capacitated_assignment_at_most_k(m, n, tied):
    # k = ceil(m / n) leaves room: every column takes at most k rows, as the
    # Hungarian assignment of the rows to k replicas of each column does
    a, b = _ssp_instance(m, n, tied)
    cost, k = cdist(a, b), -(-m // n)
    col, v = _capacitated_assignment(cost, k)
    replica = np.repeat(np.arange(n), k)
    r, c = linear_sum_assignment(cost[:, replica])
    assert abs(cost[np.arange(m), col].sum() - cost[r, replica[c]].sum()) <= 1e-12
    count = np.bincount(col, minlength=n)
    assert count.max() <= k
    assert np.all(v <= 0) and np.all(v[count < k] == 0)
    reduced = cost - v
    assert np.all(reduced[np.arange(m), col] <= reduced.min(axis=1) + 1e-12)


@pytest.mark.parametrize("m,n,path", [
    (56, 7, "shortest_path"), (7, 56, "shortest_path"), (49, 7, "hungarian"),
    (7, 49, "hungarian"), (16, 16, "hungarian"),
])
def test_replica_count_picks_the_solver(m, n, path, solver_calls):
    # k = max/min >= 8 takes the shortest-path solver and reports a gap;
    # k < 8, equal sizes included, stays one Hungarian assignment without one
    rng = np.random.default_rng([29, m, n])
    rep = w1_exact(EmpiricalMeasure(rng.random((m, 2))), EmpiricalMeasure(rng.random((n, 2))))
    hungarian = path == "hungarian"
    assert solver_calls == {"linear_sum_assignment": int(hungarian), "linprog": 0}
    assert (rep.gap is None) == hungarian


@pytest.mark.parametrize("N", [16, 32, 64])
def test_shortest_path_bits_equal_the_replicated_assignment(N, solver_calls):
    # seeded counterexample pushforwards scored against a uniform M=1024 proxy,
    # as generate scores them: the coupling and the w1 bits are those of the
    # Hungarian assignment on the replicated cost
    M = 1024
    proxy = EmpiricalMeasure(np.random.default_rng([30, 0]).random((M, 2)))
    noise = EmpiricalMeasure(np.random.default_rng([30, N]).random((N, 2)))
    pushed = pushforward(builtin_generator("counterexample"), noise)
    rep = w1_exact(proxy, pushed)
    flipped = w1_exact(pushed, proxy)
    assert solver_calls == {"linear_sum_assignment": 0, "linprog": 0}
    replica = np.repeat(np.arange(N), M // N)
    cost = cdist(proxy.points, pushed.points[replica])
    i, c = linear_sum_assignment(cost)
    assert np.array_equal(rep.coupling_i, i) and np.array_equal(rep.coupling_j, replica[c])
    assert rep.w1 == float((cost[i, c] * np.full(M, 1.0 / M)).sum())
    assert flipped.w1 == rep.w1
    order = np.lexsort((i, replica[c]))
    assert np.array_equal(flipped.coupling_i, replica[c][order])
    assert np.array_equal(flipped.coupling_j, i[order])


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


@pytest.mark.parametrize("source", ["builtin", "manifest"])
def test_concentration_pushes_every_trial_at_once(source, tmp_path):
    # one pushforward of every trial's noise gives each trial the rows of
    # its own pushforward: the generator maps rows independently
    if source == "builtin":
        gen = builtin_generator("counterexample")
    else:
        stages = [builtin_field("squeeze_clipped"), builtin_field("rotation_clipped")]
        gen = load_generator(save_generator(approximate_generator(stages, 8), str(tmp_path)))
        assert all(np.abs(s.field.grid.values).max() > 0 for s in gen.stages)
    kw = dict(N_list=[8, 32], trials=3, delta=0.1, seed=13, M=64)
    got = concentration_experiment(gen, _uniform, _uniform, **kw)["rows"]

    proxy = EmpiricalMeasure(_uniform(np.random.default_rng([13, 0]), 64))
    want = []
    for N in kw["N_list"]:
        for t in range(kw["trials"]):
            noise = EmpiricalMeasure(_uniform(np.random.default_rng([13, N, t]), N))
            want.append((N, t, w1_exact(proxy, pushforward(gen, noise)).w1))
    assert np.array_equal([(r["N"], r["trial"], r["w1"]) for r in got], want)


def test_concentration_validation():
    gen = builtin_generator("identity2")
    with pytest.raises(ValueError):
        concentration_experiment(gen, _uniform, _uniform, [32, 8], 2, 0.1, 0)
    with pytest.raises(ValueError):
        concentration_experiment(gen, _uniform, _uniform, [8, 32], 0, 0.1, 0)
    with pytest.raises(ValueError):
        concentration_experiment(gen, _uniform, _uniform, [8, 32], 2, -0.1, 0)


# M=64 against N in {4, 6, 32, 64} reaches every solver: shortest paths (k = 16),
# the LP (6 does not divide 64) and the Hungarian method (k = 2, k = 1, the proxies)
_LANE_KW = dict(N_list=[4, 6, 32, 64], trials=2, delta=0.1, seed=21, M=64)


def _lane_run():
    return concentration_experiment(builtin_generator("counterexample"), _uniform, _uniform,
                                    **_LANE_KW)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Two lanes whatever the core count, and the number of forks this process made."""
    monkeypatch.setattr(T, "_lane_count", lambda pairs: min(2, pairs))
    real, count = os.fork, []

    def fork():
        pid = real()
        if pid:
            count.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return count


def test_process_lanes_keep_every_bit(monkeypatch, forks, solver_calls):
    two = _lane_run()
    assert len(forks) == 1
    _no_child_left()
    monkeypatch.setattr(T, "_lane_count", lambda pairs: 1)
    one = _lane_run()
    assert len(forks) == 1
    assert solver_calls["linear_sum_assignment"] > 0 and solver_calls["linprog"] > 0
    assert two["rows"] == one["rows"]
    assert two["proxy_error_estimate"] == one["proxy_error_estimate"]
    assert [(r["N"], r["trial"]) for r in two["rows"]] == [
        (N, t) for N in _LANE_KW["N_list"] for t in range(2)]


def test_lane_count_is_at_most_two_and_the_cores():
    cores = len(os.sched_getaffinity(0))
    assert T._lane_count(17) == min(2, cores)
    assert T._lane_count(1) == 1


@pytest.mark.parametrize("solved", [0, 2])
def test_a_lane_without_a_worker_is_solved_here(monkeypatch, forks, solved):
    # the worker calls os._exit(1) after sending `solved` results; the caller
    # solves the rest of its lane
    want = _lane_run()
    parent, real, calls = os.getpid(), T.w1_exact, []

    def w1_exact(mu, nu):
        if os.getpid() != parent:
            if len(calls) == solved:
                os._exit(1)
            calls.append(1)
        return real(mu, nu)

    monkeypatch.setattr(T, "w1_exact", w1_exact)
    got = _lane_run()
    _no_child_left()
    assert len(forks) == 2
    assert got["rows"] == want["rows"]
    assert got["proxy_error_estimate"] == want["proxy_error_estimate"]


def test_a_fork_that_warns_still_gives_the_lanes(monkeypatch, forks):
    # Python >= 3.12 warns in the caller after forking a process with more
    # than one OS thread; under warnings-as-errors that warning must not lose
    # the worker
    want = _lane_run()
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            warnings.warn("This process is multi-threaded, use of fork() may lead "
                          "to deadlocks in the child.", DeprecationWarning)
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        got = _lane_run()
    _no_child_left()
    assert len(forks) == 2
    assert got["rows"] == want["rows"]
    assert got["proxy_error_estimate"] == want["proxy_error_estimate"]


@pytest.mark.parametrize("lanes", [1, 2])
@pytest.mark.parametrize("first", [1, 2, 5])
def test_the_first_failing_pair_is_raised(monkeypatch, forks, lanes, first):
    # every pair from `first` on fails, in both lanes, each lane with its own
    # type; the one raised is the one a serial solve stops at
    monkeypatch.setattr(T, "_lane_count", lambda pairs: min(lanes, pairs))
    errors = (ValueError, TransportError)

    def w1_exact(k, _):
        if k >= first:
            raise errors[k % 2](f"pair {k}")
        return SimpleNamespace(w1=float(k))

    monkeypatch.setattr(T, "w1_exact", w1_exact)
    assert T._w1_lanes([(k, None) for k in range(first)]) == [float(k) for k in range(first)]
    before = len(forks)
    with pytest.raises(errors[first % 2], match=f"^pair {first}$"):
        T._w1_lanes([(k, None) for k in range(8)])
    assert len(forks) - before == lanes - 1
    _no_child_left()


@pytest.mark.parametrize("lane", [0, 1])
def test_a_failed_lane_raises_here_and_leaves_no_child(monkeypatch, forks, lane):
    # lane 0 holds the proxies' Hungarian solve; when it fails, the worker,
    # stalled here, is killed rather than waited for. The worker's exception
    # comes back with its type and message.
    parent, real = os.getpid(), T.linear_sum_assignment

    def lsa(*args, **kwargs):
        if (os.getpid() == parent) == (lane == 0):
            raise TransportError(f"stubbed failure in lane {lane}")
        if lane == 0:
            time.sleep(60)
        return real(*args, **kwargs)

    monkeypatch.setattr(T, "linear_sum_assignment", lsa)
    start = time.monotonic()
    with pytest.raises(TransportError, match=f"^stubbed failure in lane {lane}$"):
        _lane_run()
    assert time.monotonic() - start < 30
    assert len(forks) == 1
    _no_child_left()
