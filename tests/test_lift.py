import json
import math

import numpy as np
import pytest

from incflow.fields import lift_field
from incflow.flow import REFERENCE_STEPS, FlowMap, integrate
from incflow.lift import (
    LIFT_FUNCTIONS,
    LiftedApproximator,
    approximate_lipschitz_function,
    exact_lift,
    function_from_samples,
    lift_function,
    load_lifted,
    save_lifted,
)


def test_lift_field_of_zero_is_zero():
    f = lift_field([lambda X: np.zeros(X.shape[0])], 1, [0.0])
    rng = np.random.default_rng(0)
    assert np.array_equal(f.eval(rng.random((50, 2))), np.zeros((50, 2)))


def test_lift_field_formula():
    f = lift_field([lambda X: np.sin(X[:, 0])], 1, [1.0])
    out = f.eval(np.array([math.pi / 2, 123.0]))
    assert np.allclose(out, [0.0, 1.0], atol=1e-15)
    assert f.lipschitz_bound == 1.0
    # the declared bound is max(1, L)
    assert lift_field([lambda X: X[:, 0]], 1, [0.25]).lipschitz_bound == 1.0
    # D components fill the last D coordinates; the bound is max(1, max_i L_i)
    pair = lift_field([lambda X: X[:, 0], lambda X: 1.0 - X[:, 0]], 1, [0.5, 3.0])
    assert pair.dim == 3 and pair.lipschitz_bound == 3.0 and pair.support_box is None
    assert np.array_equal(pair.eval(np.array([0.25, 9.0, -9.0])), [0.0, 0.25, 0.75])


def test_exact_flow_lands_on_graph():
    f = lift_field([lambda X: X[:, 0] ** 2], 1, [2.0])
    fl = FlowMap(f)
    z = fl.apply(np.array([0.5, 0.0]))
    assert np.array_equal(z, np.array([0.5, 0.25]))


def test_exact_lift_values():
    la = exact_lift([lambda X: X[:, 0] ** 2], 1, 2.0)
    assert abs(la.apply(np.array([0.5]))[0] - 0.25) <= 1e-12
    pair = exact_lift([lambda X: X[:, 0], lambda X: 1 - X[:, 0]], 1, [1.0, 1.0])
    out = pair.apply(np.array([0.3]))
    assert np.allclose(out, [0.3, 0.7], atol=1e-12)


def test_single_euler_equals_fine_rk4_for_analytic_lifts():
    f = lift_field([lambda X: np.sin(2 * np.pi * X[:, 0])], 1, [2 * math.pi])
    rng = np.random.default_rng(1)
    Z = np.hstack([rng.random((100, 1)), np.zeros((100, 1))])
    # the lift's closed form Z + V(Z) is one Euler step
    euler = FlowMap(f).apply(Z)
    rk4 = integrate(f.eval, Z, 256)
    assert np.abs(euler - rk4).max() <= 1e-12


def test_dummy_coordinates_frozen():
    comps, d, D, L = lift_function("sin01")
    approx, _ = approximate_lipschitz_function(comps, 8, d, D, L)
    rng = np.random.default_rng(2)
    Z = np.hstack([rng.random((200, 1)), rng.random((200, 1))])
    for comp in approx.components:
        out = comp.apply(Z)
        assert np.abs(out[:, :d] - Z[:, :d]).max() <= 1e-12


def test_concatenation_equals_per_component_assembly():
    comps, d, D, L = lift_function("affine_pair")
    approx, _ = approximate_lipschitz_function(comps, 4, d, D, L)
    rng = np.random.default_rng(3)
    X = rng.random((100, 1))
    joint = approx.apply(X)
    per = np.hstack(
        [c.apply(np.hstack([X, np.zeros((100, c.dim - d))]))[:, d:] for c in approx.components]
    )
    assert np.array_equal(joint, per)


def test_grid_lift_abs_function_rate():
    comps, d, D, L = lift_function("abs2x1")
    xs = np.linspace(0.0, 1.0, 1001)[:, None]
    truth = comps[0](xs)
    errs = {}
    for n in (4, 8, 16):
        approx, cert = approximate_lipschitz_function(comps, n, d, D, L)
        err = np.abs(approx.apply(xs)[:, 0] - truth).max()
        errs[n] = err
        assert err <= (d + 1) * L[0] / (2 * n)
        assert err <= cert.total_bound
    # the kink sits on the grid for even n, so both errors are float noise;
    # the halving assertion therefore carries an absolute floor
    assert errs[16] <= max(0.55 * errs[8], 1e-12)


@pytest.mark.parametrize("fid", ["square", "sin01"])
def test_grid_lift_rate_halves(fid):
    comps, d, D, L = lift_function(fid)
    xs = np.linspace(0.0, 1.0, 1001)[:, None]
    truth = np.asarray(comps[0](xs))
    errs = {}
    for n in (8, 16):
        approx, _ = approximate_lipschitz_function(comps, n, d, D, L)
        errs[n] = np.abs(approx.apply(xs)[:, 0] - truth).max()
    assert errs[16] <= 0.55 * errs[8]


def test_signed_target_stays_within_certificate():
    comps, d, D, L = lift_function("sin_windowed")
    approx, cert = approximate_lipschitz_function(comps, 16, d, D, L)
    xs = np.linspace(0.0, 1.0, 1001)[:, None]
    err = np.abs(approx.apply(xs)[:, 0] - comps[0](xs)).max()
    assert err <= cert.total_bound


def test_zero_function_zero_error():
    approx, cert = approximate_lipschitz_function(
        [lambda X: np.zeros(X.shape[0])], 4, 1, 1, [0.0]
    )
    xs = np.linspace(0, 1, 101)[:, None]
    assert np.abs(approx.apply(xs)).max() <= 1e-12
    assert cert.total_bound == 0.0


def test_affine_components_reproduced():
    comps, d, D, L = lift_function("affine_pair")
    approx, _ = approximate_lipschitz_function(comps, 4, d, D, L)
    xs = np.linspace(0, 1, 301)[:, None]
    truth = np.stack([comps[0](xs), comps[1](xs)], axis=1)
    assert np.abs(approx.apply(xs) - truth).max() <= 1e-9


def _signed_csv_target():
    """A signed target read from samples, as `lift-approx` reads a CSV."""
    xs = np.linspace(0.0, 1.0, 13)
    return function_from_samples(xs, 0.7 * np.cos(3.0 * np.pi * xs) - 0.2, 8.0)


def _targets():
    return [(fid, lift_function(fid)) for fid in LIFT_FUNCTIONS] + [
        ("csv", _signed_csv_target())]


@pytest.mark.parametrize("mode", ["componentwise", "joint"])
def test_lift_is_the_interpolation_of_its_vertex_values(mode):
    # every lift is one exact step of the lift of its x-grid field, so it
    # is linear interpolation of g at the n+1 vertices whatever their sign
    # (sin_windowed and the CSV target are signed), and each component
    # states that step
    xs = np.linspace(0.0, 1.0, 1001)[:, None]
    for n in (5, 16):
        verts = np.linspace(0.0, 1.0, n + 1)[:, None]
        for fid, (comps, d, D, L) in _targets():
            approx, cert = approximate_lipschitz_function(comps, n, d, D, L, mode=mode)
            for c in approx.components:
                assert c.to_dict()["integrator"] == {"method": "exact", "steps": 1}, fid
                assert c.field.ref["backend"] == "lift" and c.field.grid.ns == (n,) * d, fid
            want = np.stack([np.interp(xs[:, 0], verts[:, 0], g(verts)) for g in comps], axis=1)
            got = approx.apply(xs)
            assert np.abs(got - want).max() <= 1e-12, (fid, n)
            truth = np.stack([g(xs) for g in comps], axis=1)
            assert np.abs(got - truth).max() <= cert.total_bound, (fid, n)


@pytest.mark.parametrize("n", [4, 8, 16])
def test_one_step_lift_is_its_exact_flow(n):
    # every lift is one step of the closed form Z + V(Z), the flow from every
    # start, in the cube and out of it in x and in y: the 4096-step RK4 flow
    # adds g(x)/4096 4096 times, so the two agree up to the rounding of those
    # sums. A joint lift with D = 1 is the componentwise flow
    # (test_componentwise_lift_equals_joint_lift_per_component).
    rng = np.random.default_rng(n)
    x = np.linspace(-0.1, 1.1, 49)[:, None]
    checked = []
    for mode in ("componentwise", "joint"):
        for fid, (comps, d, D, L) in _targets():
            if mode == "joint" and D == 1:
                continue
            approx, _ = approximate_lipschitz_function(comps, n, d, D, L, mode=mode)
            for c in approx.components:
                Z = np.hstack([x, rng.uniform(-1.0, 2.0, size=(len(x), c.dim - d))])
                ref = integrate(c.field.eval, Z, REFERENCE_STEPS)
                assert np.abs(c.apply(Z) - ref).max() <= 1e-11, (mode, fid)
                assert np.abs(c.inverse().apply(c.apply(Z)) - Z).max() <= 1e-15, (mode, fid)
                checked.append((mode, fid))
    assert checked == [("componentwise", f) for f in LIFT_FUNCTIONS if f != "affine_pair"] + [
        ("componentwise", "affine_pair")] * 2 + [("componentwise", "csv"), ("joint", "affine_pair")]


@pytest.mark.parametrize("mode", ["componentwise", "joint"])
def test_lift_network_equals_its_field(mode):
    # each grid lift carries the ReLU network embed_y o net o proj_x of its x-grid
    rng = np.random.default_rng(6)
    for fid, (comps, d, D, L) in _targets():
        approx, _ = approximate_lipschitz_function(comps, 8, d, D, L, mode=mode)
        for c in approx.components:
            Z = np.vstack([rng.random((200, c.dim)), rng.uniform(-1.5, 2.5, size=(200, c.dim))])
            assert np.abs(c.field.mlp(Z) - c.field.eval(Z)).max() <= 1e-12, fid


def test_joint_mode_matches_componentwise():
    comps, d, D, L = lift_function("square")
    cw, _ = approximate_lipschitz_function(comps, 8, d, D, L)
    jt, _ = approximate_lipschitz_function(comps, 8, d, D, L, mode="joint")
    xs = np.linspace(0, 1, 301)[:, None]
    assert np.abs(cw.apply(xs) - jt.apply(xs)).max() <= 1e-9


@pytest.mark.parametrize("reload", [False, True])
def test_componentwise_lift_equals_joint_lift_per_component(reload, tmp_path):
    # componentwise mode is the joint lift with D=1, once per component,
    # and stays so after both are saved and loaded back (a loaded field's
    # ref also names the file its grid was read from, which differs)
    def build(*args, **kw):
        approx, _ = approximate_lipschitz_function(*args, **kw)
        if not reload:
            return approx
        out = tmp_path / f"{len(list(tmp_path.iterdir()))}"
        out.mkdir()
        return load_lifted(save_lifted(approx, str(out)))

    def unstored(ref):
        if not isinstance(ref, dict):
            return ref
        return {k: unstored(v) for k, v in ref.items() if k != "file"}

    xs = np.linspace(-0.1, 1.1, 241)[:, None]
    for fid in LIFT_FUNCTIONS:
        comps, d, D, L = lift_function(fid)
        cw = build(comps, 8, d, D, L)
        got = cw.apply(xs)
        for i in range(D):
            jt = build([comps[i]], 8, d, 1, [L[i]], mode="joint")
            cf, jf = cw.components[i].field, jt.components[0].field
            assert np.array_equal(cf.grid.values, jf.grid.values), fid
            assert unstored(cf.ref) == unstored(jf.ref)
            assert cf.lipschitz_bound == jf.lipschitz_bound
            assert unstored(cw.components[i].to_dict()) == unstored(jt.components[0].to_dict())
            assert cw.certificates[i].to_dict() == jt.certificates[0].to_dict()
            assert np.array_equal(got[:, i], jt.apply(xs)[:, 0]), fid


def test_joint_mode_multi_output_roundtrip(tmp_path):
    comps, d, D, L = lift_function("affine_pair")
    jt, _ = approximate_lipschitz_function(comps, 4, d, D, L, mode="joint")
    xs = np.linspace(0, 1, 101)[:, None]
    truth = np.stack([comps[0](xs), comps[1](xs)], axis=1)
    assert np.abs(jt.apply(xs) - truth).max() <= 1e-9
    path = save_lifted(jt, str(tmp_path))
    back = load_lifted(path)
    assert np.array_equal(back.apply(xs), jt.apply(xs))


def test_mode_survives_a_manifest_round_trip_at_D1(tmp_path):
    # a joint lift with D = 1 builds the componentwise flow, so only the
    # stored mode tells the two manifests apart
    comps, d, D, L = lift_function("square")
    for mode, kind in [("componentwise", "lifted_approximator"),
                       ("joint", "joint_lifted_approximator")]:
        approx, _ = approximate_lipschitz_function(comps, 4, d, D, L, mode=mode)
        first = tmp_path / mode / "first"
        second = tmp_path / mode / "second"
        back = load_lifted(save_lifted(approx, str(first)))
        assert back.mode == mode
        save_lifted(back, str(second))
        doc = (first / "manifest.json").read_bytes()
        assert json.loads(doc)["kind"] == kind
        assert (second / "manifest.json").read_bytes() == doc


def test_function_from_samples():
    xs = np.linspace(0, 1, 21)
    ys = np.abs(2 * xs - 1)
    comps, d, D, L = function_from_samples(xs, ys, 2.0)
    approx, _ = approximate_lipschitz_function(comps, 8, d, D, L)
    test = np.linspace(0, 1, 201)[:, None]
    assert np.abs(approx.apply(test)[:, 0] - np.abs(2 * test[:, 0] - 1)).max() <= 0.3
    with pytest.raises(ValueError):
        function_from_samples([0.0], [1.0], 1.0)


def test_worst_component_certificate():
    comps, d, D, L = lift_function("affine_pair")
    approx, cert = approximate_lipschitz_function(comps, 4, d, D, L)
    assert len(approx.certificates) == D
    assert cert.total_bound == pytest.approx(
        max(c.total_bound for c in approx.certificates)
    )


def test_validation():
    with pytest.raises(ValueError):
        approximate_lipschitz_function([lambda X: X[:, 0]], 0, 1, 1, [1.0])
    with pytest.raises(ValueError):
        approximate_lipschitz_function([lambda X: X[:, 0]], 4, 1, 1, [1.0], mode="bad")
    with pytest.raises(KeyError):
        lift_function("nope")
    with pytest.raises(ValueError):
        LiftedApproximator([], 1)


@pytest.mark.parametrize("mode, comps, D", [
    ("componentwise", 2, 1), ("joint", 2, 1), ("componentwise", 1, 2)])
def test_component_count_must_equal_D(mode, comps, D):
    g = [lambda X: X[:, 0], lambda X: 1.0 - X[:, 0]][:comps]
    with pytest.raises(ValueError):
        approximate_lipschitz_function(g, 4, 1, D, [1.0] * D, mode=mode)


def test_manifest_roundtrip(tmp_path):
    comps, d, D, L = lift_function("abs2x1")
    approx, _ = approximate_lipschitz_function(comps, 8, d, D, L)
    path = save_lifted(approx, str(tmp_path))
    back = load_lifted(path)
    xs = np.linspace(0, 1, 301)[:, None]
    assert np.abs(back.apply(xs) - approx.apply(xs)).max() <= 1e-12
    assert back.d == 1 and back.D == 1
