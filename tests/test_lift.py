import json
import math

import numpy as np
import pytest

from incflow.flow import FlowMap
from incflow.lift import (
    LIFT_FUNCTIONS,
    LiftedApproximator,
    approximate_lipschitz_function,
    exact_lift,
    function_from_samples,
    lift_field,
    lift_function,
    load_lifted,
    save_lifted,
)


def test_lift_field_of_zero_is_zero():
    f = lift_field(lambda X: np.zeros(X.shape[0]), 1, 0.0)
    rng = np.random.default_rng(0)
    assert np.array_equal(f.eval(rng.random((50, 2))), np.zeros((50, 2)))


def test_lift_field_formula():
    f = lift_field(lambda X: np.sin(X[:, 0]), 1, 1.0)
    out = f.eval(np.array([math.pi / 2, 123.0]))
    assert np.allclose(out, [0.0, 1.0], atol=1e-15)
    assert f.lipschitz_bound == 1.0
    # the declared bound is max(1, L)
    assert lift_field(lambda X: X[:, 0], 1, 0.25).lipschitz_bound == 1.0


def test_exact_flow_lands_on_graph():
    f = lift_field(lambda X: X[:, 0] ** 2, 1, 2.0)
    fl = FlowMap(f, steps=1, method="euler")
    z = fl.apply(np.array([0.5, 0.0]))
    assert np.array_equal(z, np.array([0.5, 0.25]))


def test_exact_lift_values():
    la = exact_lift([lambda X: X[:, 0] ** 2], 1, 2.0)
    assert abs(la.apply(np.array([0.5]))[0] - 0.25) <= 1e-12
    pair = exact_lift([lambda X: X[:, 0], lambda X: 1 - X[:, 0]], 1, [1.0, 1.0])
    out = pair.apply(np.array([0.3]))
    assert np.allclose(out, [0.3, 0.7], atol=1e-12)


def test_single_euler_equals_fine_rk4_for_analytic_lifts():
    f = lift_field(lambda X: np.sin(2 * np.pi * X[:, 0]), 1, 2 * math.pi)
    rng = np.random.default_rng(1)
    Z = np.hstack([rng.random((100, 1)), np.zeros((100, 1))])
    euler = FlowMap(f, steps=1, method="euler").apply(Z)
    rk4 = FlowMap(f, steps=256).apply(Z)
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


def test_collapse_y_flag_exact_and_smaller():
    comps, d, D, L = lift_function("square")
    full, _ = approximate_lipschitz_function(comps, 8, d, D, L)
    coll, _ = approximate_lipschitz_function(comps, 8, d, D, L, collapse_y=True)
    xs = np.linspace(0, 1, 501)[:, None]
    assert np.abs(full.apply(xs) - coll.apply(xs)).max() <= 1e-12
    assert (
        coll.components[0].field.mlp.width < full.components[0].field.mlp.width
    )


def test_joint_mode_matches_componentwise():
    comps, d, D, L = lift_function("square")
    cw, _ = approximate_lipschitz_function(comps, 8, d, D, L)
    jt, _ = approximate_lipschitz_function(comps, 8, d, D, L, mode="joint")
    xs = np.linspace(0, 1, 301)[:, None]
    assert np.abs(cw.apply(xs) - jt.apply(xs)).max() <= 1e-9


@pytest.mark.parametrize("collapse_y", [False, True])
def test_componentwise_lift_equals_joint_lift_per_component(collapse_y):
    # componentwise mode is the joint lift with D=1, once per component
    xs = np.linspace(-0.1, 1.1, 241)[:, None]
    for fid in LIFT_FUNCTIONS:
        comps, d, D, L = lift_function(fid)
        cw, _ = approximate_lipschitz_function(comps, 8, d, D, L, collapse_y=collapse_y)
        got = cw.apply(xs)
        for i in range(D):
            jt, _ = approximate_lipschitz_function(
                [comps[i]], 8, d, 1, [L[i]], mode="joint", collapse_y=collapse_y)
            cf, jf = cw.components[i].field, jt.components[0].field
            assert np.array_equal(cf.grid.values, jf.grid.values), fid
            assert cf.ref == jf.ref
            assert cf.lipschitz_bound == jf.lipschitz_bound
            assert np.array_equal(cf.support_box, jf.support_box)
            assert cw.components[i].to_dict() == jt.components[0].to_dict()
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


def test_manifest_roundtrip(tmp_path):
    comps, d, D, L = lift_function("abs2x1")
    approx, _ = approximate_lipschitz_function(comps, 8, d, D, L)
    path = save_lifted(approx, str(tmp_path))
    back = load_lifted(path)
    xs = np.linspace(0, 1, 301)[:, None]
    assert np.abs(back.apply(xs) - approx.apply(xs)).max() <= 1e-12
    assert back.d == 1 and back.D == 1
