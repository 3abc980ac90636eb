import math
import os

import numpy as np
import pytest

from conftest import no_child_left, no_fork

from incflow.fields import builtin_field, lattice
from incflow.flow import FlowMap, IncrementalGenerator, builtin_generator, integrate
import incflow.lanes as lanes
import incflow.probe as probe
from incflow.probe import (
    OrbitRecord,
    _bisect_edges,
    build_counterexample,
    classify_orbit,
    contraction_audit,
    detect_periodic,
    fit_gap_experiment,
    fit_single_flow,
)


@pytest.fixture(scope="module")
def composite():
    return build_counterexample()


def test_counterexample_identity_outside_disc(composite):
    pts = np.array([[0.9, 0.9], [0.1, 0.1], [0.5, 0.8]])
    assert np.array_equal(composite.apply(pts), pts)


def test_counterexample_center_fixed(composite):
    p = np.array([0.5, 0.5])
    assert np.array_equal(composite.apply(p), p)


def test_counterexample_period_two_on_line(composite):
    # iteration oracle: squeeze fixes the line, the half turn reflects it
    a = 1.0 / 16
    q = np.array([0.5, 0.5 + a])
    f1 = composite.apply(q)
    assert np.abs(f1 - np.array([0.5, 0.5 - a])).max() <= 1e-8
    f2 = composite.apply(f1)
    assert np.abs(f2 - q).max() <= 1e-6


def test_counterexample_stage_order(composite):
    # stage 1 is the squeeze, stage 2 the rotation
    assert composite.stages[0].field.ref["id"] == "squeeze_clipped"
    assert composite.stages[1].field.ref["id"] == "rotation_clipped"


def test_classification_recomputable_from_iterates(composite):
    records = detect_periodic(composite, grid_n=9, k_max=2, refine=False)
    for r in records:
        cls, period, _ = r.recompute_classification()
        assert cls == r.classification
        assert period == r.period


def test_classify_orbit_rules():
    start = np.array([0.0, 0.0])
    fixed = np.stack([start, start + 1e-9, start + 2e-9])
    assert classify_orbit(fixed)[0] == "fixed"
    periodic = np.stack([start, start + 0.5, start + 1e-8, start + 0.5])
    cls, k, _ = classify_orbit(periodic)
    assert cls == "periodic" and k == 2
    # near-return below the separation floor is not periodic
    tiny = np.stack([start, start + 5e-3, start + 1e-8, start + 5e-3])
    assert classify_orbit(tiny)[0] != "periodic"


def test_detect_periodic_identity_map():
    records = detect_periodic(lambda X: X, grid_n=5, k_max=2, refine=False)
    assert all(r.classification == "fixed" for r in records)


class CountingMap:
    def __init__(self, apply):
        self.apply_fn = apply
        self.calls = 0

    def __call__(self, X):
        self.calls += 1
        return self.apply_fn(X)


def reference_bisection(apply, a, b, axis, k, iters=38):
    """Fixed-round midpoint bisection of (F^k - id)[axis] along the edges.

    38 rounds take a 1/32 lattice edge to a width of 1.1e-13, a few times
    below the 1e-12 the refinement is compared at."""
    rows = np.arange(a.shape[0])

    def g(x):
        snaps, y = [], x
        for _ in range(int(k.max())):
            y = np.atleast_2d(apply(y))
            snaps.append(y)
        return np.stack(snaps)[k - 1, rows, axis] - x[rows, axis]

    ga = g(a)
    for _ in range(iters):
        mid = 0.5 * (a + b)
        gm = g(mid)
        same = np.sign(gm) == np.sign(ga)
        a = np.where(same[:, None], mid, a)
        ga = np.where(same, gm, ga)
        b = np.where(same[:, None], b, mid)
    return 0.5 * (a + b)


@pytest.fixture(scope="module")
def lattice_run():
    """detect_periodic(grid_n=17, k_max=2) once per generator, with its map
    applies counted and the arguments and result of its refinement call."""
    runs = {}

    def run(gen_id):
        if gen_id not in runs:
            counted = CountingMap(builtin_generator(gen_id).apply)
            seen = []

            def spy(*args):
                seen.append((args, _bisect_edges(*args)))
                return seen[-1][1]

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(probe, "_bisect_edges", spy)
                records = detect_periodic(counted, grid_n=17, k_max=2)
            runs[gen_id] = records, counted.calls, seen
        return runs[gen_id]

    return run


@pytest.mark.parametrize("gen_id", ["counterexample", "rotation_only"])
def test_edge_refinement_matches_reference_bisection(gen_id, lattice_run):
    apply = builtin_generator(gen_id).apply
    [((_, a_edge, b_edge, axis, k, _, _), (a, b))] = lattice_run(gen_id)[2]
    rows = np.arange(a.shape[0])
    assert np.all(b[rows, axis] - a[rows, axis] < 1e-12)
    ref = reference_bisection(apply, a_edge, b_edge, axis, k)
    assert np.abs(0.5 * (a + b) - ref).max() <= 1e-12
    # every returned bracket keeps its sign change
    ga = (apply(apply(a)) - a)[rows, axis]
    gb = (apply(apply(b)) - b)[rows, axis]
    assert np.all(np.sign(ga) * np.sign(gb) <= 0)


def test_edge_refinement_stops_at_float_spacing():
    # near 1e5 the float spacing (1.5e-11) exceeds the 1e-12 stopping width,
    # so the bracket cannot close and the round cap must end the loop
    c = 1e5 + 0.3

    def expand(X):
        Y = np.array(X, dtype=float)
        Y[:, 0] = c - 2.0 * (Y[:, 0] - c)
        return Y

    counted = CountingMap(expand)
    a = np.array([[1e5, 0.0]])
    b = np.array([[1e5 + 1.0, 0.0]])
    a, b = _bisect_edges(counted, a, b, np.array([0]), np.array([2]),
                         np.array([-0.9]), np.array([2.1]))
    assert counted.calls <= 2 * probe._EDGE_MAX_ROUNDS
    assert 0.0 < b[0, 0] - a[0, 0] <= 2 * np.spacing(c)
    assert a[0, 0] <= c <= b[0, 0]


def test_detect_periodic_finds_line(composite, lattice_run):
    records, applies, _ = lattice_run("counterexample")
    # lattice (2) + refinement rounds + refined iterates (2)
    assert applies <= 26
    periodic = [r for r in records if r.classification == "periodic"]
    assert periodic
    assert all(r.period == 2 for r in periodic)
    # the composition's period-2 points concentrate on the line x = 1/2
    assert max(abs(r.start[0] - 0.5) for r in periodic) <= 1e-4
    # the 17-point lattice has seeds on the line, where the exact map's
    # F^2 - id has no sign change to refine; the 16-point one straddles it
    refined = [r for r in detect_periodic(composite, grid_n=16, k_max=2)
               if r.classification == "periodic" and r.data.get("refined")]
    assert refined
    assert min(abs(r.start[0] - 0.5) for r in refined) <= 1e-6
    # genuine period 2: far from the start after one application
    assert all(
        np.abs(r.iterates[1] - r.start).max() >= 1e-2 for r in periodic
    )


def test_pure_rotation_has_circle_family(lattice_run):
    records = lattice_run("rotation_only")[0]
    periodic = [r for r in records if r.classification == "periodic"]
    assert periodic
    # the half-turn's period-2 set is a disc-full of circles, so periodic
    # seeds appear off the vertical line too, unlike the composition
    off_line = [r for r in periodic if abs(r.start[0] - 0.5) > 1e-2]
    assert off_line


def test_contraction_audit_counterexample(composite):
    q = np.array([0.5, 0.5 + 1.0 / 16])
    audit = contraction_audit(composite, q, radius=0.01)
    assert audit["max_ratio"] <= 0.9
    assert audit["period"] == 2
    # inside the plateau one double application scales the transverse
    # offset by exp(-2) and keeps the parallel offset, so a probe at angle
    # theta contracts by sqrt(cos^2 e^-4 + sin^2) exactly
    for p in audit["probes"]:
        th = p["angle_rad"]
        predicted = math.sqrt(
            math.cos(th) ** 2 * math.exp(-4.0) + math.sin(th) ** 2
        )
        assert p["ratios"][0] == pytest.approx(predicted, rel=1e-3)


def test_contraction_audit_batch_matches_per_probe_loop():
    composite = build_counterexample()
    q = np.array([0.5, 0.5 + 1.0 / 16])
    radius, k, n_iters = 0.01, 2, 2
    audit = contraction_audit(composite, q, radius=radius, n_iters=n_iters)
    base = np.linspace(-np.deg2rad(45.0), np.deg2rad(45.0), 4)
    rows, worst = [], 0.0
    for ang in np.concatenate([base, base + np.pi]):
        c = q + radius * np.array([np.cos(ang), np.sin(ang)])
        radii = [float(np.linalg.norm(c - q))]
        x = c
        for _ in range(n_iters):
            for _ in range(k):
                x = composite.apply(x)
            radii.append(float(np.linalg.norm(x - q)))
        ratios = [radii[m + 1] / radii[m] for m in range(len(radii) - 1)]
        worst = max(worst, max(ratios))
        rows.append({"angle_rad": float(ang), "radii": radii, "ratios": ratios})
    assert audit == {"probes": rows, "max_ratio": worst, "radius": radius, "period": k}


def test_contraction_audit_radius_range(composite):
    q = np.array([0.5, 0.5 + 1.0 / 16])
    for radius in (1e-3, 5e-3, 2e-2):
        audit = contraction_audit(composite, q, radius=radius)
        assert audit["max_ratio"] < 1.0


def test_contraction_audit_identity_map():
    audit = contraction_audit(lambda X: X, np.array([0.5, 0.5]), radius=0.01)
    assert audit["max_ratio"] == pytest.approx(1.0, abs=1e-12)


def test_pure_squeeze_contraction_rate():
    # iteration oracle: inside the plateau the squeeze shrinks x-distance
    # to the line by exactly exp(-1) per application
    fl = FlowMap(builtin_field("squeeze_clipped"))
    q = np.array([0.5, 0.5])
    probe = q + np.array([0.01, 0.0])
    once = fl.apply(probe)
    ratio = abs(once[0] - 0.5) / 0.01
    assert ratio == pytest.approx(math.exp(-1.0), abs=1e-6)


def test_contraction_audit_requires_periodic_record(composite):
    rec = OrbitRecord(np.zeros(2), np.zeros((3, 2)), "unclassified")
    with pytest.raises(ValueError):
        contraction_audit(composite, rec)


def test_fit_identity_found_at_initialization():
    res = fit_single_flow(lambda X: X, n_grid=2, budget=50, seed=0)
    assert res.residual_sup <= 1e-9
    assert res.init_label == "zero"


def test_fit_result_recomputable():
    res = fit_single_flow(lambda X: X, n_grid=2, budget=50, seed=0)
    axes = np.linspace(0.0, 1.0, res.eval_grid_n)
    pts = np.stack(np.meshgrid(axes, axes, indexing="ij"), axis=-1).reshape(-1, 2)
    again = res.recompute_residual(pts, pts)
    assert again == pytest.approx(res.residual_sup, abs=1e-12)


def _flow_theta_batch(thetas, pts, n_grid, steps):
    """Time-1 RK4 flows of every point under the grid field of every theta
    row, shape (B, m, 2)."""
    B, m = thetas.shape[0], pts.shape[0]
    block = np.repeat(np.arange(B), m)
    return probe._flow_theta_rows(thetas, block, np.tile(pts, (B, 1)), n_grid,
                                  steps).reshape(B, m, 2)


def test_fit_poll_flows_match_flowmap_per_candidate():
    # the poll's batched integration is bit-for-bit the RK4 flow of each
    # candidate's grid field
    rng = np.random.default_rng(4)
    thetas = 0.4 * rng.standard_normal((6, 2 * 5 * 5))
    pts = rng.random((30, 2))
    batch = _flow_theta_batch(thetas, pts, 4, 16)
    for theta, got in zip(thetas, batch):
        field = probe._grid_field_from_theta(theta, 4)
        assert np.array_equal(got, integrate(field.eval, pts, 16))


def _full_poll(cands, pts, target, n_grid):
    """The oracle of the fit poll: flow every candidate from every point."""
    out = _flow_theta_batch(cands, pts, n_grid, probe.FIT_FLOW_STEPS)
    return np.abs(out - target[None]).max(axis=(1, 2))


def _assert_poll_contract(poll, batch, x, pts, target):
    """``poll(batch, x)`` against the full-poll oracle: bit-equal wherever
    the oracle is below x's own sup fx, >= fx elsewhere, with the same
    argmin when a candidate improves, and exactly fx for a candidate whose
    changed vertices x's flow never touches. Returns the got values, the
    oracle's and fx."""
    got, want = poll(batch, x), _full_poll(batch, pts, target, 4)
    fx = _full_poll(x[None], pts, target, 4)[0]
    below = want < fx
    assert np.array_equal(got[below], want[below])
    assert np.all(got[~below] >= fx)
    assert np.array_equal(got < fx, below)
    if below.any():
        assert np.argmin(got) == np.argmin(want)
    touched = probe._touched_flow(x, pts, 4)[1].any(axis=0)
    idle = ~((batch != x).reshape(len(batch), -1, 2).any(axis=2) & touched).any(axis=1)
    assert np.all(got[idle] == fx)
    return got, want, fx


def test_locality_poll_matches_full_poll(monkeypatch):
    # a one-row screen leaves most rows of an improving candidate to the
    # second pass, and ties at fx (the rotation target's corners) to the
    # screen's tie rule
    for screen_rows in (probe.FIT_SCREEN_ROWS, 1):
        monkeypatch.setattr(probe, "FIT_SCREEN_ROWS", screen_rows)
        rng = np.random.default_rng(31)
        P = 2 * 5 * 5
        coord = np.vstack([np.eye(P), -np.eye(P)])
        pts = lattice((9, 9))
        target = np.stack([1.0 - pts[:, 1], pts[:, 0]], axis=1)
        poll = probe._sup_poll(pts, target, 4)
        xs = [np.zeros(P), 0.2 * rng.standard_normal(P), 0.5 * rng.standard_normal(P)]
        xs[1][::7] = -0.0  # x + 0.0 turns these to +0.0, which != does not see
        improved = screened = 0
        for x in xs + xs[:1]:  # back to the first x after the others
            R = rng.standard_normal((4, P))
            R /= np.abs(R).max(axis=1, keepdims=True)
            cands = x + 0.1 * np.vstack([coord, R])
            combo = x + 0.1 * coord[[3, 17, 60, 99]].sum(axis=0)
            for batch in (cands, cands[:37], cands[-4:], combo[None], x[None]):
                got, _, fx = _assert_poll_contract(poll, batch, x, pts, target)
                improved += int((got < fx).sum())
                screened += int((got >= fx).sum())
        # both sides of the contract are exercised
        assert improved and screened


def test_locality_poll_candidate_touching_no_row():
    # on points near the origin, the field of a small theta never carries a
    # trajectory into the hat of vertex 24 at (1, 1)
    pts = lattice((5, 5), 0.0, 0.3)
    x = 0.05 * np.random.default_rng(5).standard_normal(50)
    _, touched = probe._touched_flow(x, pts, 4)
    assert not touched[:, 24].any() and touched.any(axis=0).sum() > 4
    poll = probe._sup_poll(pts, pts, 4)
    cands = x + 0.3 * np.eye(50)[[48, 49, 0]]  # vertex 24 twice, then vertex 0
    got, want, fx = _assert_poll_contract(poll, cands, x, pts, pts)
    assert got[0] == got[1] == poll(x[None], x)[0] == fx
    # vertex 0 does change x's flow, and does not improve on it
    assert want[2] != fx and got[2] >= fx


def test_fit_poll_second_pass_decides(monkeypatch):
    # with a one-row screen, some improving moves end worst on a row outside
    # the screen that they moved, which only the second pass flows
    monkeypatch.setattr(probe, "FIT_SCREEN_ROWS", 1)
    rng = np.random.default_rng(11)
    pts = lattice((9, 9))
    target = np.stack([1.0 - pts[:, 1], pts[:, 0]], axis=1)
    x = 0.3 * rng.standard_normal(50)
    R = rng.standard_normal((16, 50))
    cands = x + 0.2 * R / np.abs(R).max(axis=1, keepdims=True)
    flows = _flow_theta_batch(np.vstack([x, cands]), pts, 4, probe.FIT_FLOW_STEPS)
    base, *rows = np.abs(flows - target).max(axis=2)
    worst = np.argmax(rows, axis=1)
    assert any(r.max() < base.max() and w != base.argmax() and r[w] != base[w]
               for r, w in zip(rows, worst))
    _assert_poll_contract(probe._sup_poll(pts, target, 4), cands, x, pts, target)


def _unscreened_poll(pts, target_vals, n_grid):
    """The fit poll without the screen: every (candidate, row) pair that the
    candidate's changed vertices reach is flowed, so every value is exact."""

    def poll(cands, x):
        base, touched = probe._touched_flow(x, pts, n_grid)
        res = np.tile(np.abs(base - target_vals).max(axis=1), (len(cands), 1))
        changed = (cands != x).reshape(len(cands), -1, 2).any(axis=2)
        cand, row = np.nonzero((changed[:, None, :] & touched).any(axis=2))
        if cand.size:
            out = probe._flow_theta_rows(cands, cand, pts[row], n_grid, probe.FIT_FLOW_STEPS)
            res[cand, row] = np.abs(out - target_vals[row]).max(axis=1)
        return res.max(axis=1)

    return poll


def rk4_composite(X):
    """The two-stage map with each stage integrated by 256 RK4 steps."""
    for name in ("squeeze_clipped", "rotation_clipped"):
        X = integrate(builtin_field(name).eval, X, 256)
    return X


def test_fit_poll_screen_flows_under_half_the_rows():
    # the pinned composite fit of test_golden, with its flowed rows counted
    composite = rk4_composite
    flow_rows = probe._flow_theta_rows
    runs = []
    for unscreened in (False, False, True):
        rows = [0]

        def counted(thetas, block, X, n_grid, steps):
            rows[0] += len(X)
            return flow_rows(thetas, block, X, n_grid, steps)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(probe, "_flow_theta_rows", counted)
            if unscreened:
                mp.setattr(probe, "_sup_poll", _unscreened_poll)
            res = fit_single_flow(composite, budget=300, seed=0)
        runs.append((res, rows[0]))
    (screened, n1), (again, n2), (oracle, n_oracle) = runs
    for res in (again, oracle):
        assert res.residual_sup == screened.residual_sup
        assert res.evaluations == screened.evaluations
        assert np.array_equal(res.candidate_field.grid.values,
                              screened.candidate_field.grid.values)
    assert n1 == n2 and 0 < 2 * n1 < n_oracle


def test_fit_validation():
    with pytest.raises(ValueError):
        fit_single_flow(lambda X: X, budget=0)
    # each restart evaluates its start point, so a budget of 1 would be overspent
    with pytest.raises(ValueError, match="budget must be >= 2"):
        fit_single_flow(lambda X: X, n_grid=2, budget=1)
    assert fit_single_flow(lambda X: X, n_grid=2, budget=2).evaluations == 2


# a small fit-gap run: both fits take a few hundred milliseconds
_GAP_KW = dict(seed=3, budget=120, n_grid=2)


@pytest.fixture(scope="module")
def one_lane_gap():
    mp = pytest.MonkeyPatch()
    mp.setattr(lanes, "_lane_count", lambda items: 1)
    try:
        return fit_gap_experiment(**_GAP_KW)
    finally:
        mp.undo()


def test_fit_gap_lanes_keep_every_bit(monkeypatch, forks, one_lane_gap):
    # with two lanes this process runs one fit, the composite's; the
    # self-recovery result can only have come from the worker
    parent, real, here = os.getpid(), probe.fit_single_flow, []

    def fit_single_flow(*args):
        if os.getpid() == parent:
            here.append(args[0])
        return real(*args)

    monkeypatch.setattr(probe, "fit_single_flow", fit_single_flow)
    got = fit_gap_experiment(**_GAP_KW)
    no_child_left()
    assert len(forks) == 1
    assert len(here) == 1 and isinstance(here[0], IncrementalGenerator)
    assert got == one_lane_gap


def test_fit_gap_without_a_worker_is_fitted_here(monkeypatch, forks, one_lane_gap):
    monkeypatch.setattr(os, "fork", no_fork)
    assert fit_gap_experiment(**_GAP_KW) == one_lane_gap
    assert not forks
    no_child_left()


def test_a_failed_worker_fit_raises_here(monkeypatch, forks):
    # the self-recovery fit, lane 1's, fails in the worker; its exception
    # comes back with its type and message
    parent, real = os.getpid(), probe.fit_single_flow

    def fit_single_flow(*args):
        if os.getpid() != parent:
            raise ArithmeticError("stubbed fit failure in the worker")
        return real(*args)

    monkeypatch.setattr(probe, "fit_single_flow", fit_single_flow)
    with pytest.raises(ArithmeticError, match="^stubbed fit failure in the worker$"):
        fit_gap_experiment(**_GAP_KW)
    assert len(forks) == 1
    no_child_left()


def test_detect_periodic_validation(composite):
    with pytest.raises(ValueError):
        detect_periodic(composite, k_max=0)
