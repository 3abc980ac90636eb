import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from incflow.fields import (
    GridInterpolant,
    grid_realize,
    grid_to_mlp,
    lift_field,
)
from incflow.mlp import (
    _EVAL_ROWS,
    _EVAL_VALUES,
    MLP,
    affine_mlp,
    build_bump,
    compose,
    lipschitz_upper_bound,
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
    net = affine_mlp(np.eye(2))
    out = net.eval(np.array([0.3, 0.7]))
    assert np.array_equal(out, np.array([0.3, 0.7]))


def test_relu_hidden_layer_values():
    net = relu_shift_net()
    assert net.eval(np.array([0.25]))[0] == 0.0
    assert net.eval(np.array([0.75]))[0] == pytest.approx(0.25, abs=1e-15)


def test_bump_contract_examples():
    b = build_bump(0.4)
    assert b.eval(np.array([0.5]))[0] == pytest.approx(0.5, abs=1e-15)
    assert b.eval(np.array([0.05]))[0] == 0.0  # below delta/4
    assert b.eval(np.array([0.15]))[0] == pytest.approx(0.10, abs=1e-15)
    assert b.eval(np.array([2.0]))[0] == 0.0  # beyond the support


def test_bump_matches_piecewise_oracle():
    b = build_bump(0.4)
    x = np.linspace(-1.0, 2.0, 100_000)
    got = b.eval(x[:, None])[:, 0]
    assert np.abs(got - bump_piecewise(x, 0.4)).max() <= 1e-12


def test_bump_closed_form_helper_is_the_network():
    # dim >= 2 replicates the scalar network once per coordinate: each
    # output column is the scalar network on its own input column, bit for
    # bit, and the scalar network is the piecewise oracle
    x = np.linspace(-0.5, 1.5, 4001)
    scalar = build_bump(0.3, 1)
    assert np.abs(scalar.eval(x[:, None])[:, 0] - bump_piecewise(x, 0.3)).max() <= 1e-15
    for dim in (1, 2, 3):
        b = build_bump(0.3, dim)
        X = np.stack([np.roll(x, 1000 * k) for k in range(dim)], axis=1)
        got = b.eval(X)
        assert got.shape == (4001, dim)
        for k in range(dim):
            assert np.array_equal(got[:, k], scalar.eval(X[:, k:k + 1])[:, 0])


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=-1.0, max_value=2.0, allow_nan=False),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_bump_exactness_property(x, delta):
    b = build_bump(delta)
    got = b.eval(np.array([x]))[0]
    assert abs(got - bump_piecewise(np.array([x]), delta)[0]) <= 1e-12


def test_bump_range_stays_in_unit_interval():
    for delta in (0.1, 0.4, 0.8):
        b = build_bump(delta)
        x = np.linspace(-1.0, 3.0, 20_001)[:, None]
        vals = b.eval(x)[:, 0]
        assert vals.min() >= 0.0
        assert vals.max() <= 1.0 - delta / 2.0 + 1e-15


def test_bump_spec_validation():
    with pytest.raises(ValueError):
        build_bump(0.0)
    with pytest.raises(ValueError):
        build_bump(2.0)
    with pytest.raises(ValueError):
        build_bump(0.4, dim=0)


def test_compose_identity():
    net = compose(affine_mlp(np.eye(3)), affine_mlp(np.eye(3)))
    x = np.array([0.1, -0.2, 0.3])
    assert np.array_equal(net.eval(x), x)


def test_compose_matches_sequential_oracle():
    outer = relu_shift_net()
    inner = build_bump(0.4)
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
    net = compose(outer, build_bump(delta, 2))
    X = rng.uniform(delta / 2, 1 - delta / 2, size=(500, 2))
    assert np.abs(net.eval(X) - outer.eval(X)).max() <= 1e-12


def test_compose_depth_accounting():
    # composing with the cutoff adds exactly its two hidden layers
    outer = relu_shift_net()
    net = compose(outer, build_bump(0.4))
    assert net.depth == outer.depth + 2


def test_compose_dim_mismatch():
    with pytest.raises(ValueError):
        compose(affine_mlp(np.eye(2)), affine_mlp(np.eye(3)))


def test_lipschitz_upper_bound_values():
    assert lipschitz_upper_bound(affine_mlp(np.eye(3))) == 1.0
    assert lipschitz_upper_bound(MLP([(2.0 * np.eye(2), np.zeros(2))])) == 2.0


def test_lipschitz_bound_bump_dominates_slope_scan():
    delta = 0.4
    b = build_bump(delta)
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
    L = lipschitz_upper_bound(net)
    X = rng.standard_normal((10_000, 3))
    Y = rng.standard_normal((10_000, 3))
    num = np.linalg.norm(net.eval(X) - net.eval(Y), np.inf, axis=1)
    den = np.linalg.norm(X - Y, np.inf, axis=1)
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


def test_eval_rejects_bad_input():
    net = affine_mlp(np.eye(2))
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


def integer_layers(rng, dims, density=0.4):
    """Random layers with small integer weights, about ``density`` nonzero.

    Integer weights and dyadic inputs keep every product and sum exact,
    so the algebra's results must equal their dense references bit for bit.
    """
    layers = []
    for i, o in zip(dims, dims[1:]):
        W = np.where(rng.random((o, i)) < density,
                     rng.integers(-2, 3, size=(o, i)), 0).astype(float)
        layers.append((W, rng.integers(-2, 3, size=o).astype(float)))
    return layers


def sparse_and_dense_twins(seed):
    """One network built from CSR weights and its twin built from dense arrays.

    Returns both networks and the dense layers. The CSR twin's first layer
    holds an explicitly stored zero, which is not a nonzero.
    """
    rng = np.random.default_rng(seed)
    layers = integer_layers(rng, [3, 7, 6, 2])
    given = [sparse.csr_array(W) for W, _ in layers[:-1]]
    given[0].data[0] = 0.0
    dense_layers = [(S.toarray(), b) for S, (_, b) in zip(given, layers)] + layers[-1:]
    sp = MLP([(S, b) for S, (_, b) in zip(given, layers)] + layers[-1:])
    return sp, MLP(dense_layers), dense_layers


def dense_eval(layers, X):
    """Dense reference forward pass: ReLU between affine layers."""
    h = X
    for k, (W, b) in enumerate(layers):
        h = h @ W.T + b
        if k < len(layers) - 1:
            h = np.maximum(h, 0.0)
    return h


def test_sparse_layers_stay_csr_and_report_dense_sizes():
    rng = np.random.default_rng(0)
    sp, dense, dense_layers = sparse_and_dense_twins(0)
    other = MLP(integer_layers(rng, [2, 4, 3]))
    field = grid_realize(lambda P: P[:, ::-1] - P, 2, 4, 1.0)
    grid_net = field.mlp
    assert all(type(W) is sparse.csr_array for W, _ in sp.layers)
    nets = [
        dense,
        affine_mlp(np.eye(3)),
        affine_mlp([[1.0, 0.0, -2.0], [0.0, 0.0, 0.5]], [0.0, 1.0]),
        build_bump(0.4),
        build_bump(0.4, 3),
        compose(other, dense),
        compose(affine_mlp([[1.0, 1.0]]), affine_mlp([[1.0], [-1.0]])),  # merged [[1 - 1]]
        grid_net,
        grid_to_mlp(GridInterpolant((3, 2, 2), rng.standard_normal((36, 3)))),
        lift_field(field, 2).mlp,  # embed_y o grid_net o proj_x, two compositions
    ]
    for got in nets:
        assert all(type(W) is sparse.csr_array for W, _ in got.layers)
        assert got.nonzeros == sum(W.nnz + np.count_nonzero(b) for W, b in got.layers)
    # both twins report the sizes of the dense arrays they came from
    want = (
        max(W.shape[0] for W, _ in dense_layers),
        len(dense_layers),
        sum(np.count_nonzero(W) + np.count_nonzero(b) for W, b in dense_layers),
    )
    assert (sp.width, sp.depth, sp.nonzeros) == want
    assert (dense.width, dense.depth, dense.nonzeros) == want
    assert sp.nonzeros < sum(W.size + b.size for W, b in dense_layers)
    stored_zero = sparse.csr_array(np.eye(2))
    stored_zero.data[0] = 0.0  # an explicitly stored zero is not a nonzero
    assert MLP([(stored_zero, np.zeros(2))]).nonzeros == 1


def test_sparse_and_dense_twins_agree_bit_for_bit():
    sp, dense, dense_layers = sparse_and_dense_twins(1)
    rng = np.random.default_rng(2)
    X = rng.integers(-16, 17, size=(300, 3)) / 8.0
    out = sp.eval(X)
    assert type(out) is np.ndarray
    assert np.array_equal(out, dense_eval(dense_layers, X))
    assert np.array_equal(out, dense.eval(X))
    assert np.array_equal(sp.eval(X[0]), dense.eval(X[0]))

    other = MLP(integer_layers(rng, [2, 4, 3]))
    pre_layers = integer_layers(rng, [3, 5, 3])
    pre = MLP(pre_layers)
    sparse_pre = MLP([(sparse.csr_array(W), b) for W, b in pre_layers])
    pairs = [
        (compose(other, sp), compose(other, dense)),
        (compose(sp, pre), compose(dense, pre)),
        (compose(sp, sparse_pre), compose(dense, pre)),
    ]
    for got, want in pairs:
        assert len(got.layers) == len(want.layers)
        for (Wg, bg), (Ww, bw) in zip(got.layers, want.layers):
            assert np.array_equal(Wg.toarray(), Ww.toarray())
            assert np.array_equal(bg, bw)
        assert np.array_equal(got.eval(X), want.eval(X))

    # the algebra equals its dense reference
    Wi, bi = dense_layers[-1]
    Wo, bo = other.layers[0]
    merged, merged_b = compose(other, sp).layers[len(sp.layers) - 1]
    assert np.array_equal(merged.toarray(), Wo.toarray() @ Wi)
    assert np.array_equal(merged_b, Wo.toarray() @ bi + bo)

    assert lipschitz_upper_bound(sp) == lipschitz_upper_bound(dense)


def test_blocked_eval_is_bit_equal_to_row_by_row():
    # rows per block are the value budget over the width: two full blocks
    # and one row, for a wide network and for the width-3 cutoff
    rng = np.random.default_rng(5)
    for net in (grid_to_mlp(GridInterpolant((4, 3), rng.standard_normal((20, 2)))),
                build_bump(0.3)):
        X = rng.uniform(-0.2, 1.2, size=(2 * (_EVAL_VALUES // net.width) + 1, net.input_dim))
        out = net.eval(X)
        assert np.array_equal(out, np.array([net.eval(x) for x in X]))


def test_eval_memory_is_bounded_by_one_block():
    rng = np.random.default_rng(6)
    net = grid_to_mlp(GridInterpolant((8, 8), rng.standard_normal((81, 2))))
    X = rng.random((8 * _EVAL_ROWS, 2))
    tracemalloc.start()
    try:
        net.eval(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a block holds _EVAL_VALUES values (364 rows at this width); the bound
    # is four 512-row blocks' activations, the whole batch at once eight
    assert peak < 4 * _EVAL_ROWS * net.width * 8
