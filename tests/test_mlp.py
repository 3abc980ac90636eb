import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from incflow.mlp import (
    MLP,
    BumpSpec,
    build_bump,
    bump_values,
    compose,
    identity_mlp,
    lipschitz_upper_bound,
    pad_to_depth,
    parallelize,
)


def bump_piecewise(x, delta):
    """Closed-form oracle for the cutoff network, branch by branch.

    The descending branch (1 - 1/delta) x + (2 - delta)/(2 delta)
    continues until its zero crossing; valid for delta < 1, where the
    branch knots are ordered.
    """
    x = np.asarray(x, dtype=float)
    rise = 2.0 * x - delta / 2.0
    fall = (1.0 - 1.0 / delta) * x + (2.0 - delta) / (2.0 * delta)
    return np.select(
        [x < delta / 4.0, x <= delta / 2.0, x <= 1.0 - delta / 2.0],
        [0.0, rise, x],
        default=np.maximum(fall, 0.0),
    )


def relu_shift_net():
    # scalar net computing relu(x - 0.5)
    return MLP([(np.array([[1.0]]), np.array([-0.5])), (np.eye(1), np.zeros(1))])


def test_identity_eval():
    net = identity_mlp(2)
    out = net.eval(np.array([0.3, 0.7]))
    assert np.array_equal(out, np.array([0.3, 0.7]))


def test_relu_hidden_layer_values():
    net = relu_shift_net()
    assert net.eval(np.array([0.25]))[0] == 0.0
    assert net.eval(np.array([0.75]))[0] == pytest.approx(0.25, abs=1e-15)


def test_bump_contract_examples():
    b = build_bump(BumpSpec(0.4))
    assert b.eval(np.array([0.5]))[0] == pytest.approx(0.5, abs=1e-15)
    assert b.eval(np.array([0.05]))[0] == 0.0  # below delta/4
    assert b.eval(np.array([0.15]))[0] == pytest.approx(0.10, abs=1e-15)
    assert b.eval(np.array([2.0]))[0] == 0.0  # beyond the support


def test_bump_matches_piecewise_oracle():
    b = build_bump(BumpSpec(0.4))
    x = np.linspace(-1.0, 2.0, 100_000)
    got = b.eval(x[:, None])[:, 0]
    assert np.abs(got - bump_piecewise(x, 0.4)).max() <= 1e-12


def test_bump_closed_form_helper_is_the_network():
    b = build_bump(BumpSpec(0.3))
    x = np.linspace(-0.5, 1.5, 4001)
    assert np.abs(b.eval(x[:, None])[:, 0] - bump_values(x, 0.3)).max() <= 1e-15


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=-1.0, max_value=2.0, allow_nan=False),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_bump_exactness_property(x, delta):
    b = build_bump(BumpSpec(delta))
    got = b.eval(np.array([x]))[0]
    assert abs(got - bump_piecewise(np.array([x]), delta)[0]) <= 1e-12


def test_bump_range_stays_in_unit_interval():
    for delta in (0.1, 0.4, 0.8):
        b = build_bump(BumpSpec(delta))
        x = np.linspace(-1.0, 3.0, 20_001)[:, None]
        vals = b.eval(x)[:, 0]
        assert vals.min() >= 0.0
        assert vals.max() <= 1.0 - delta / 2.0 + 1e-15


def test_bump_spec_validation():
    with pytest.raises(ValueError):
        BumpSpec(0.0)
    with pytest.raises(ValueError):
        BumpSpec(2.0)
    with pytest.raises(ValueError):
        BumpSpec(0.4, dim=0)


def test_compose_identity():
    net = compose(identity_mlp(3), identity_mlp(3))
    x = np.array([0.1, -0.2, 0.3])
    assert np.array_equal(net.eval(x), x)


def test_compose_matches_sequential_oracle():
    outer = relu_shift_net()
    inner = build_bump(BumpSpec(0.4))
    net = compose(outer, inner)
    x = np.linspace(-0.5, 1.5, 1000)[:, None]
    sequential = outer.eval(inner.eval(x))
    assert np.abs(net.eval(x) - sequential).max() <= 1e-12


def test_compose_random_nets_match_sequential():
    rng = np.random.default_rng(1)
    inner = MLP([(rng.standard_normal((5, 2)), rng.standard_normal(5)),
                 (rng.standard_normal((3, 5)), rng.standard_normal(3))])
    outer = MLP([(rng.standard_normal((4, 3)), rng.standard_normal(4)),
                 (rng.standard_normal((2, 4)), rng.standard_normal(2))])
    net = compose(outer, inner)
    X = rng.standard_normal((200, 2))
    assert np.abs(net.eval(X) - outer.eval(inner.eval(X))).max() <= 1e-12


def test_compose_with_bump_equals_outer_on_plateau():
    rng = np.random.default_rng(2)
    delta = 0.4
    outer = MLP([(rng.standard_normal((6, 2)), rng.standard_normal(6)),
                 (rng.standard_normal((2, 6)), rng.standard_normal(2))])
    net = compose(outer, build_bump(BumpSpec(delta, 2)))
    X = rng.uniform(delta / 2, 1 - delta / 2, size=(500, 2))
    assert np.abs(net.eval(X) - outer.eval(X)).max() <= 1e-12


def test_compose_depth_accounting():
    # composing with the cutoff adds exactly its two hidden layers
    outer = relu_shift_net()
    net = compose(outer, build_bump(BumpSpec(0.4)))
    assert net.depth == outer.depth + 2


def test_compose_dim_mismatch():
    with pytest.raises(ValueError):
        compose(identity_mlp(2), identity_mlp(3))


def test_parallelize_disjoint_identity():
    net = parallelize([identity_mlp(1), identity_mlp(1)])
    x = np.array([0.4, -0.9])
    assert np.array_equal(net.eval(x), x)


def test_parallelize_bump_pair():
    net = parallelize([build_bump(BumpSpec(0.4))] * 2)
    out = net.eval(np.array([0.5, 0.05]))
    assert out[0] == pytest.approx(0.5, abs=1e-15)
    assert out[1] == 0.0


def test_parallelize_matches_independent_oracle():
    rng = np.random.default_rng(3)
    a = MLP([(rng.standard_normal((4, 2)), rng.standard_normal(4)),
             (rng.standard_normal((1, 4)), rng.standard_normal(1))])
    b = MLP([(rng.standard_normal((3, 2)), rng.standard_normal(3)),
             (rng.standard_normal((5, 3)), rng.standard_normal(5)),
             (rng.standard_normal((2, 5)), rng.standard_normal(2))])
    net = parallelize([a, b])
    X = rng.standard_normal((100, 4))
    expect = np.hstack([a.eval(X[:, :2]), b.eval(X[:, 2:])])
    assert np.abs(net.eval(X) - expect).max() <= 1e-12
    assert net.width <= a.width * 2 + b.width  # padding doubles a's width


def test_parallelize_errors():
    with pytest.raises(ValueError):
        parallelize([])
    with pytest.raises(ValueError):
        parallelize([identity_mlp(1), identity_mlp(2)])


def test_pad_to_depth_preserves_function():
    rng = np.random.default_rng(4)
    net = MLP([(rng.standard_normal((3, 2)), rng.standard_normal(3)),
               (rng.standard_normal((2, 3)), rng.standard_normal(2))])
    padded = pad_to_depth(net, 5)
    assert padded.depth == 5
    X = rng.standard_normal((300, 2))
    assert np.abs(net.eval(X) - padded.eval(X)).max() <= 1e-12


def test_lipschitz_upper_bound_values():
    assert lipschitz_upper_bound(identity_mlp(3)) == 1.0
    assert lipschitz_upper_bound(MLP([(2.0 * np.eye(2), np.zeros(2))])) == 2.0


def test_lipschitz_bound_bump_dominates_slope_scan():
    delta = 0.4
    b = build_bump(BumpSpec(delta))
    bound = lipschitz_upper_bound(b)
    assert bound == pytest.approx(3.0 + 1.0 / delta)
    # dense finite-difference slope scan (the true constant is 2 here)
    x = np.linspace(-0.5, 1.5, 200_001)
    v = b.eval(x[:, None])[:, 0]
    slope = np.abs(np.diff(v) / np.diff(x)).max()
    assert slope <= bound + 1e-9
    assert slope == pytest.approx(2.0, rel=1e-6)


def test_lipschitz_bound_dominates_on_pairs():
    rng = np.random.default_rng(5)
    net = MLP([(rng.standard_normal((8, 3)), rng.standard_normal(8)),
               (rng.standard_normal((8, 8)), rng.standard_normal(8)),
               (rng.standard_normal((3, 8)), rng.standard_normal(3))])
    for norm, vec in (("l_inf", np.inf), ("l_2", 2)):
        L = lipschitz_upper_bound(net, norm)
        X = rng.standard_normal((10_000, 3))
        Y = rng.standard_normal((10_000, 3))
        num = np.linalg.norm(net.eval(X) - net.eval(Y), vec, axis=1)
        den = np.linalg.norm(X - Y, vec, axis=1)
        assert (num <= L * den + 1e-9).all()


def test_piecewise_affinity_inside_one_region():
    rng = np.random.default_rng(6)
    net = MLP([(rng.standard_normal((6, 2)), rng.standard_normal(6) + 3.0),
               (rng.standard_normal((2, 6)), rng.standard_normal(2))])
    # biases pushed positive so a small neighbourhood of 0 is one region
    x = np.zeros(2)
    v = np.array([1e-3, -2e-3])
    f0, f1, f2 = net.eval(x - v), net.eval(x), net.eval(x + v)
    assert np.abs(0.5 * (f0 + f2) - f1).max() <= 1e-12


def test_eval_accepts_other_lipschitz_activations():
    # the evaluator is generic over 1-Lipschitz scalar activations; the
    # constructive builders assume ReLU
    net = MLP([(np.array([[1.0]]), np.array([-0.5])), (np.eye(1), np.zeros(1))])
    x = np.array([0.25])
    assert net.eval(x, activation=np.abs)[0] == pytest.approx(0.25)
    assert net.eval(x, activation=np.tanh)[0] == pytest.approx(np.tanh(-0.25))


def test_eval_rejects_bad_input():
    net = identity_mlp(2)
    with pytest.raises(ValueError):
        net.eval(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        net.eval(np.array([np.nan, 0.0]))


def test_zero_hidden_layer_is_affine_map():
    W = np.array([[2.0, 0.0], [1.0, -1.0]])
    b = np.array([0.5, -0.5])
    net = MLP([(W, b)])
    x = np.array([1.0, 2.0])
    assert np.allclose(net.eval(x), W @ x + b, atol=0)
    assert net.depth == 1


def test_layer_chain_validation():
    with pytest.raises(ValueError):
        MLP([(np.eye(2), np.zeros(2)), (np.eye(3), np.zeros(3))])
    with pytest.raises(ValueError):
        MLP([])


def test_json_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(7)
    net = MLP([(rng.standard_normal((4, 2)), rng.standard_normal(4)),
               (rng.standard_normal((2, 4)), rng.standard_normal(2))])
    path = tmp_path / "net.json"
    net.save_json(path)
    back = MLP.load_json(path)
    for (W0, b0), (W1, b1) in zip(net.layers, back.layers):
        assert np.array_equal(W0, W1)
        assert np.array_equal(b0, b1)
    doc = json.loads(path.read_text())
    assert set(doc) == {"input_dim", "output_dim", "layers"}
    assert set(doc["layers"][0]) == {"rows", "cols", "weights", "bias"}


def integer_layers(rng, dims, density=0.4):
    """Random layers with small integer weights, about ``density`` nonzero.

    Integer weights and dyadic inputs keep every product and sum exact,
    so a sparse network and its dense twin must agree bit for bit.
    """
    layers = []
    for i, o in zip(dims, dims[1:]):
        W = np.where(rng.random((o, i)) < density,
                     rng.integers(-2, 3, size=(o, i)), 0).astype(float)
        layers.append((W, rng.integers(-2, 3, size=o).astype(float)))
    return layers


def sparse_and_dense_twins(seed):
    rng = np.random.default_rng(seed)
    layers = integer_layers(rng, [3, 7, 6, 2])
    hidden = [sparse.csr_array(W) for W, _ in layers[:-1]]
    hidden[0].data[0] = 0.0  # an explicitly stored zero is not a nonzero
    sp = MLP([(S, b) for S, (_, b) in zip(hidden, layers)] + layers[-1:])
    dense = MLP([(S.toarray(), b) for S, (_, b) in zip(hidden, layers)] + layers[-1:])
    return sp, dense


def assert_same_layers(a, b):
    assert len(a.layers) == len(b.layers)
    for (Wa, ba), (Wb, bb) in zip(a.layers, b.layers):
        Wa = Wa.toarray() if sparse.issparse(Wa) else Wa
        Wb = Wb.toarray() if sparse.issparse(Wb) else Wb
        assert np.array_equal(Wa, Wb)
        assert np.array_equal(ba, bb)


def test_sparse_layers_stay_csr_and_report_dense_sizes():
    sp, dense = sparse_and_dense_twins(0)
    assert [sparse.issparse(W) for W, _ in sp.layers] == [True, True, False]
    assert all(W.format == "csr" for W, _ in sp.layers[:-1])
    assert not any(sparse.issparse(W) for W, _ in dense.layers)
    assert (sp.width, sp.depth, sp.nonzeros) == (dense.width, dense.depth, dense.nonzeros)
    assert sp.nonzeros < sum(
        (W.nnz if sparse.issparse(W) else W.size) + b.size for W, b in sp.layers
    )


def test_sparse_and_dense_twins_agree_bit_for_bit(tmp_path):
    sp, dense = sparse_and_dense_twins(1)
    rng = np.random.default_rng(2)
    X = rng.integers(-16, 17, size=(300, 3)) / 8.0
    out = sp.eval(X)
    assert type(out) is np.ndarray
    assert np.array_equal(out, dense.eval(X))
    assert np.array_equal(sp.eval(X[0]), dense.eval(X[0]))

    other = MLP(integer_layers(rng, [2, 4, 3]))
    pre_layers = integer_layers(rng, [3, 5, 3])
    pre = MLP(pre_layers)
    sparse_pre = MLP([(sparse.csr_array(W), b) for W, b in pre_layers])
    side = MLP(integer_layers(rng, [3, 4, 4, 4, 1]))
    pairs = [
        (compose(other, sp), compose(other, dense)),  # sparse inner
        (compose(sp, pre), compose(dense, pre)),  # sparse outer
        (compose(sp, sparse_pre), compose(dense, pre)),
        (parallelize([sp, side]), parallelize([dense, side])),
        (pad_to_depth(sp, 6), pad_to_depth(dense, 6)),
    ]
    for got, want in pairs:
        assert any(sparse.issparse(W) for W, _ in got.layers)
        assert not any(sparse.issparse(W) for W, _ in want.layers)
        assert_same_layers(got, want)
        Xg = np.hstack([X, X])[:, : got.input_dim]
        assert np.array_equal(got.eval(Xg), want.eval(Xg))
    merged = compose(sp, pre).layers[len(pre.layers) - 1][0]
    assert sparse.issparse(merged) and merged.format == "csr"

    for norm in ("l_inf", "l_2"):
        assert lipschitz_upper_bound(sp, norm) == lipschitz_upper_bound(dense, norm)

    sp.save_json(tmp_path / "sparse.json")
    dense.save_json(tmp_path / "dense.json")
    assert (tmp_path / "sparse.json").read_bytes() == (tmp_path / "dense.json").read_bytes()
