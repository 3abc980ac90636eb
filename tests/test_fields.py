import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from incflow.fields import (
    GridInterpolant,
    VectorField,
    builtin_field,
    builtin_suite,
    field_from_ref,
    grid_field,
    grid_realize,
    grid_relu_approximate,
    grid_to_mlp,
    lattice,
    radial_bump_clip,
    rotation_field,
    sin_bump_field,
    squeeze_field,
)
from incflow.flow import approximate_generator
from incflow.mlp import _EVAL_ROWS, relu
from incflow.probe import _grid_field_from_theta


def kuhn_oracle(values, ns, X):
    """Independent argsort/barycentric walk over the coordinate-order
    simplices; valid for points inside [0,1]^d."""
    d = len(ns)
    shape = tuple(n + 1 for n in ns)
    out = np.zeros((len(X), values.shape[1]))
    t = X * np.array(ns, dtype=float)
    anchor = np.clip(np.floor(t).astype(int), 0, np.array(ns) - 1)
    u = t - anchor
    order = np.argsort(-u, axis=1, kind="stable")
    for row in range(len(X)):
        idx = anchor[row].copy()
        us = u[row, order[row]]
        acc = (1.0 - us[0]) * values[np.ravel_multi_index(tuple(idx), shape)]
        for k in range(d):
            idx[order[row, k]] += 1
            lam = us[k] - us[k + 1] if k + 1 < d else us[k]
            acc = acc + lam * values[np.ravel_multi_index(tuple(idx), shape)]
        out[row] = acc
    return out


# ---------------------------------------------------------------------------
# analytic fields


def test_rotation_field_values():
    f = rotation_field([0.5, 0.5], math.pi)
    v = f.eval(np.array([0.75, 0.5]))
    assert np.allclose(v, [0.0, 0.25 * math.pi], atol=1e-15)
    assert np.array_equal(f.eval(np.array([0.5, 0.5])), [0.0, 0.0])
    assert f.lipschitz_bound == math.pi


def test_squeeze_field_values():
    f = squeeze_field(0.5)
    assert np.allclose(f.eval(np.array([0.75, 0.2])), [-0.25, 0.0], atol=1e-15)
    assert np.array_equal(f.eval(np.array([0.5, 0.9])), [0.0, 0.0])
    assert f.lipschitz_bound == 1.0


def test_radial_clip_zero_beyond_outer_radius():
    f = builtin_field("rotation_clipped")
    pt = np.array([0.5 + 0.5 / math.sqrt(2), 0.5 + 0.5 / math.sqrt(2)])
    assert np.array_equal(f.eval(pt), [0.0, 0.0])
    assert np.array_equal(f.eval(np.array([0.5, 0.5])), [0.0, 0.0])


def test_radial_clip_identity_inside_inner_radius():
    raw = rotation_field([0.5, 0.5], math.pi)
    f = builtin_field("rotation_clipped")
    pt = np.array([0.6, 0.5])  # distance 0.1 < 1/8, profile is 1 there
    assert np.allclose(f.eval(pt), raw.eval(pt), atol=1e-15)


def test_radial_clip_validation():
    with pytest.raises(ValueError):
        radial_bump_clip(rotation_field([0.5, 0.5], 1.0), [0.5, 0.5], 0.3, 0.2, max_abs=0.2)


def assert_zero_outside_support(f, box, seed, n=5000):
    """``f`` is exactly 0.0 outside ``box``: at random points up to one box
    width away and at points one float step outside a random facet.
    ``FlowMap.apply`` returns such points unmapped."""
    lo, hi = np.asarray(box, dtype=float)
    rng = np.random.default_rng(seed)
    far = rng.uniform(lo - (hi - lo), hi + (hi - lo), size=(n, f.dim))
    near = rng.uniform(lo, hi, size=(n, f.dim))
    rows, axis = np.arange(n), rng.integers(f.dim, size=n)
    near[rows, axis] = np.where(rng.random(n) < 0.5, np.nextafter(hi[axis], np.inf),
                                np.nextafter(lo[axis], -np.inf))
    pts = np.vstack([far, near])
    outside = ~np.all((pts >= lo) & (pts <= hi), axis=1)
    assert outside.sum() > n
    assert np.array_equal(f.eval(pts[outside]), np.zeros((outside.sum(), f.dim)))


def test_radial_clip_vanishes_outside_declared_support():
    f = builtin_field("squeeze_clipped")
    rng = np.random.default_rng(0)
    lo, hi = f.support_box
    pts = rng.uniform(-1.0, 2.0, size=(10_000, 2))
    outside = ~np.all((pts >= lo) & (pts <= hi), axis=1)
    assert outside.sum() > 5000
    assert np.array_equal(f.eval(pts[outside]), np.zeros((outside.sum(), 2)))
    for seed, name in enumerate(["squeeze_clipped", "rotation_clipped"]):
        g = builtin_field(name)
        assert_zero_outside_support(g, g.support_box, seed)


# The builtins' evaluators as they were written before they were made
# lean: the oracle every bit of the lean ones is checked against.
def _former_plateau(t):
    t = np.asarray(t, dtype=float)
    return np.clip(np.minimum((t - 0.125) * 4.0, (0.875 - t) * 4.0), 0.0, 1.0)


def _former_radial_profile(s, r_inner, r_outer):
    return np.clip((r_outer - np.asarray(s, dtype=float)) / (r_outer - r_inner), 0.0, 1.0)


def _former_radial_clip(inner, center, r_inner, r_outer):
    c = np.asarray(center, dtype=float)

    def ev(X):
        s = np.linalg.norm(X - c, axis=1)
        return inner(X) * _former_radial_profile(s, r_inner, r_outer)[:, None]

    return ev


def _former_rotation(center=(0.5, 0.5), rate=math.pi):
    c = np.asarray(center, dtype=float)
    return lambda X: np.stack([-rate * (X[:, 1] - c[1]), rate * (X[:, 0] - c[0])], axis=1)


def _former_squeeze(line_x=0.5):
    def ev(X):
        out = np.zeros_like(X)
        out[:, 0] = -X[:, 0] + line_x
        return out

    return ev


def _former_sin_bump(amplitude=0.2):
    def ev(X):
        out = np.zeros_like(X)
        out[:, 0] = (amplitude * np.sin(2 * np.pi * X[:, 0]) * _former_plateau(X[:, 0])
                     * _former_plateau(X[:, 1]))
        return out

    return ev


_FORMER_BUILTINS = {
    "zero": ({}, lambda X: np.zeros_like(X)),
    "rotation": ({}, _former_rotation()),
    "rotation_2": ({"center": [0.4, 0.55], "rate": 2.7}, _former_rotation((0.4, 0.55), 2.7)),
    "squeeze": ({}, _former_squeeze()),
    "squeeze_2": ({"line_x": 0.3}, _former_squeeze(0.3)),
    "sin_bump": ({}, _former_sin_bump()),
    "sin_bump_2": ({"amplitude": 0.37}, _former_sin_bump(0.37)),
    "rotation_clipped": ({}, _former_radial_clip(_former_rotation(), (0.5, 0.5), 0.125, 0.25)),
    "rotation_clipped_2": (
        {"center": [0.45, 0.5], "rate": 2.2, "r_inner": 0.1, "r_outer": 0.3},
        _former_radial_clip(_former_rotation((0.45, 0.5), 2.2), (0.45, 0.5), 0.1, 0.3)),
    "squeeze_clipped": ({}, _former_radial_clip(_former_squeeze(), (0.5, 0.5), 0.125, 0.25)),
    "squeeze_clipped_2": (
        {"center": [0.45, 0.55], "r_inner": 0.1, "r_outer": 0.3},
        _former_radial_clip(_former_squeeze(0.45), (0.45, 0.55), 0.1, 0.3)),
}


def _probe_rows():
    """Rows inside the supports, on their boundaries (the 1/16 lattice holds
    the plateau edges and the default clips' circles, which the angles trace
    as well), outside them, signed zeros and every non-finite kind."""
    rng = np.random.default_rng(17)
    angles = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
    ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    nonfinite = [np.nan, np.inf, -np.inf]
    special = [[a, b] for a in nonfinite + [-0.0, 0.0, 0.5]
               for b in nonfinite + [-0.0, 0.0, 0.5]]
    return np.vstack([
        lattice([17, 17]),
        rng.uniform(0.25, 0.75, (200, 2)),
        rng.uniform(-1.0, 2.0, (200, 2)),
        0.5 + np.concatenate([0.125 * ring, 0.25 * ring, 0.3 * ring]),
        [[1e300, -1e300], [-5e-324, 5e-324]],
        special,
    ])


@pytest.mark.parametrize("name", sorted(_FORMER_BUILTINS))
def test_lean_builtin_evaluators_keep_every_bit(name):
    params, former = _FORMER_BUILTINS[name]
    f = builtin_field(name.removesuffix("_2"), params)
    X = _probe_rows()
    with np.errstate(all="ignore"):  # inf - inf, sin(inf) and the like
        got, want = f.eval(X), former(X)
        one, one_want = f.eval(X[-1]), former(X[-1:])[0]
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(one.view(np.int64), one_want.view(np.int64))


def test_radial_clip_leaves_the_inner_array_unchanged():
    # an inner evaluator may hand back an array it keeps; the clip must
    # scale a copy of it
    cached = np.arange(12.0).reshape(6, 2) - 5.0
    kept = cached.copy()
    f = radial_bump_clip(VectorField(2, lambda X: cached, 1.0), (0.5, 0.5), 0.125, 0.25,
                         max_abs=7.0)
    X = np.array([[0.5, 0.5], [0.6, 0.5], [0.7, 0.5], [0.9, 0.9], [0.5, 0.3], [2.0, 2.0]])
    out = f.eval(X)
    assert np.array_equal(cached, kept)
    want = _former_radial_clip(lambda X: kept, (0.5, 0.5), 0.125, 0.25)(X)
    assert np.array_equal(out.view(np.int64), want.view(np.int64))
    assert np.array_equal(out[[0, 3, 5]], [kept[0], [0.0, 0.0], [0.0, 0.0]])


def test_field_lipschitz_bounds_dominate_on_pairs():
    rng = np.random.default_rng(1)
    X = rng.random((10_000, 2))
    Y = rng.random((10_000, 2))
    den = np.abs(X - Y).max(axis=1)
    for name, f in builtin_suite().items():
        num = np.abs(f.eval(X) - f.eval(Y)).max(axis=1)
        assert (num <= f.lipschitz_bound * den + 1e-9).all(), name


def test_approx_flow_stages_vanish_on_and_outside_the_cube():
    # approx-flow stages are grid fields, exactly 0 on the faces
    # of the cube and outside it
    stages = [builtin_field("squeeze_clipped"), builtin_field("rotation_clipped"),
              builtin_field("sin_bump")]
    gen = approximate_generator(stages, 4)
    rng = np.random.default_rng(4)
    faces = rng.uniform(0.0, 1.0, size=(1000, 2))
    faces[np.arange(1000), rng.integers(2, size=1000)] = rng.integers(2, size=1000)
    for seed, stage in enumerate(gen.stages, start=1):
        g = stage.field
        assert g.support_box is None and g.ref["backend"] == "grid"
        assert np.array_equal(g.eval(faces), np.zeros((1000, 2)))
        assert_zero_outside_support(g, ([0.0, 0.0], [1.0, 1.0]), seed)


# ---------------------------------------------------------------------------
# grid interpolant


@pytest.mark.parametrize("ns", [(4, 4), (3,), (2, 4), (2, 3, 4)],
                         ids=lambda ns: "x".join(map(str, ns)))
def test_vertex_reproduction_exact(ns):
    # the lattice is the interpolant's vertex order, on every axis count;
    # each n here puts the lattice on the vertices exactly (at n = 5,
    # linspace gives 0.6000000000000001 for 3/5, one ulp off the vertex)
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((int(np.prod([n + 1 for n in ns])), 2))
    gi = GridInterpolant(ns, vals)
    assert np.array_equal(gi(lattice([n + 1 for n in ns])), vals)


def test_matches_simplicial_oracle():
    rng = np.random.default_rng(6)
    for ns in [(4, 4), (3, 5), (2, 2, 2), (6,)]:
        nverts = int(np.prod([n + 1 for n in ns]))
        vals = rng.standard_normal((nverts, 2))
        gi = GridInterpolant(ns, vals)
        X = rng.random((2000, len(ns)))
        assert np.abs(gi(X) - kuhn_oracle(vals, ns, X)).max() <= 1e-12


def test_affine_reproduction():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((2, 2))
    b = rng.standard_normal(2)
    gi = GridInterpolant.from_callable(lambda P: P @ A.T + b, (5, 5))
    X = rng.random((1000, 2))
    assert np.abs(gi(X) - (X @ A.T + b)).max() <= 1e-12


def test_global_continuity_across_facets():
    rng = np.random.default_rng(8)
    gi = GridInterpolant((4, 4), rng.standard_normal((25, 1)))
    # approach a cell facet from both sides
    base = np.array([[0.5 - 1e-10, 0.37], [0.5 + 1e-10, 0.37]])
    v = gi(base)
    assert abs(v[0, 0] - v[1, 0]) <= 1e-8


def test_grid_fields_vanish_outside_declared_support():
    # a bare grid field vanishes outside [-h, 1 + h]^d, h the widest cell,
    # and declares no support box; the sampled function need not vanish
    # on the cube boundary
    def grown_cube(f):
        h = max(1.0 / m for m in f.grid.ns)
        return np.array([[-h] * f.dim, [1.0 + h] * f.dim])

    def g(P):
        return 1.0 + P**2

    rng = np.random.default_rng(20)
    for dim, ns in [(1, None), (2, (3, 5)), (3, None)]:
        # grid_realize builds uniform grids; the anisotropic one is built bare
        f = grid_realize(g, dim, 4, 2.0) if ns is None else grid_field(
            GridInterpolant.from_callable(g, ns))
        assert f.support_box is None
        assert_zero_outside_support(f, grown_cube(f), dim)
    theta = rng.standard_normal(2 * 5 * 5)
    g = _grid_field_from_theta(theta, 4)
    assert_zero_outside_support(g, grown_cube(g), 21)


def test_hat_continuation_dies_one_cell_out():
    rng = np.random.default_rng(9)
    gi = GridInterpolant((4, 4), rng.standard_normal((25, 2)))
    pts = np.array([[1.3, 0.5], [-0.3, 0.5], [0.5, 1.26], [2.0, 2.0]])
    assert np.array_equal(gi(pts), np.zeros((4, 2)))


def test_mlp_realization_agrees_with_interpolant():
    rng = np.random.default_rng(10)
    for ns in [(4, 4), (8, 8), (2, 2, 2)]:
        nverts = int(np.prod([n + 1 for n in ns]))
        vals = rng.standard_normal((nverts, len(ns)))
        gi = GridInterpolant(ns, vals)
        net = grid_to_mlp(gi)
        X = rng.random((10_000, len(ns)))
        assert np.abs(gi(X) - net.eval(X)).max() <= 1e-9
        # and on the continuation just outside the cube
        Xo = rng.uniform(-0.2, 1.2, size=(2000, len(ns)))
        assert np.abs(gi(Xo) - net.eval(Xo)).max() <= 1e-9


def _max_tree_level(wires, units, get_unit):
    """One pairwise-max reduction level over nonnegative wires."""
    out = []
    for w0, w1 in zip(wires[0::2], wires[1::2]):
        cmp_key = ("cmp", w0[2], w1[2])
        get_unit(cmp_key, _wire_sub(w0, w1))
        cry_key = ("cry", w1[2])
        get_unit(cry_key, (w1[0], w1[1]))
        # max(p, q) = q + relu(p - q) for q >= 0
        out.append(({cmp_key: 1.0, cry_key: 1.0}, 0.0, ("max", w0[2], w1[2])))
    if len(wires) % 2:
        w = wires[-1]
        cry_key = ("cry", w[2])
        get_unit(cry_key, (w[0], w[1]))
        out.append(({cry_key: 1.0}, 0.0, ("pass", w[2])))
    return out


def _wire_sub(w0, w1):
    coeffs = dict(w0[0])
    for k, v in w1[0].items():
        coeffs[k] = coeffs.get(k, 0.0) - v
        if coeffs[k] == 0.0:
            del coeffs[k]
    return coeffs, w0[1] - w1[1]


def reference_dense_grid_to_mlp(gi):
    """The dense-matrix builder the CSR ``grid_to_mlp`` replaced: symbolic
    wires ``(coeff dict, bias, label)``, units keyed by wire labels, each
    layer filled into ``np.zeros((units, prev_units))``."""
    d, ns = gi.dim, gi.ns
    leaf_rows = []
    leaf_keys = []
    for i in range(d):
        for k in range(ns[i] + 1):
            row = np.zeros(d)
            row[i] = ns[i]
            leaf_rows.append((row, -float(k)))
            leaf_keys.append(("p", i, k))
            leaf_rows.append((-row, float(k)))
            leaf_keys.append(("m", i, k))
    layers = [(
        np.array([r for r, _ in leaf_rows]),
        np.array([b for _, b in leaf_rows]),
    )]
    key_index = {k: j for j, k in enumerate(leaf_keys)}
    vertices = list(np.ndindex(*gi._shape))
    a_wires = {
        v: [({("p", i, v[i]): 1.0}, 0.0, ("p", i, v[i])) for i in range(d)]
        for v in vertices
    }
    b_wires = {
        v: [({("m", i, v[i]): 1.0}, 0.0, ("m", i, v[i])) for i in range(d)]
        for v in vertices
    }
    while max(len(a_wires[v]) for v in vertices) > 1:
        new_units = {}

        def get_unit(key, row, _units=new_units):
            if key not in _units:
                _units[key] = row
            return key

        for v in vertices:
            a_wires[v] = _max_tree_level(a_wires[v], new_units, get_unit)
            b_wires[v] = _max_tree_level(b_wires[v], new_units, get_unit)
        W = np.zeros((len(new_units), layers[-1][0].shape[0]))
        bvec = np.zeros(len(new_units))
        new_index = {}
        for j, (key, (coeffs, bias)) in enumerate(new_units.items()):
            for ck, cv in coeffs.items():
                W[j, key_index[ck]] += cv
            bvec[j] = bias
            new_index[key] = j
        layers.append((W, bvec))
        key_index = new_index
    W = np.zeros((len(vertices), layers[-1][0].shape[0]))
    bvec = np.ones(len(vertices))
    for j, v in enumerate(vertices):
        (ca, ba, _), = a_wires[v]
        (cb, bb, _), = b_wires[v]
        for ck, cv in ca.items():
            W[j, key_index[ck]] -= cv
        for ck, cv in cb.items():
            W[j, key_index[ck]] -= cv
        bvec[j] -= ba + bb
    layers.append((W, bvec))
    layers.append((gi.values.T.copy(), np.zeros(gi.out_dim)))
    return layers


def _random_grid(ns, seed):
    rng = np.random.default_rng(seed)
    nverts = int(np.prod([n + 1 for n in ns]))
    return GridInterpolant(ns, rng.standard_normal((nverts, len(ns))))


@pytest.mark.parametrize("ns", [(4,), (4, 4), (8, 8), (2, 2, 2), (4, 4, 1), (16, 16, 16),
                                (3, 2, 5), (2, 2, 2, 2, 2), (2, 3, 1, 2, 2, 1, 2)])
def test_sparse_realization_is_bit_identical_to_dense_reference(ns):
    gi = _random_grid(ns, seed=sum(ns))
    net = grid_to_mlp(gi)
    ref = reference_dense_grid_to_mlp(gi)
    assert len(net.layers) == len(ref)
    for (W, b), (W_ref, b_ref) in zip(net.layers, ref):
        dense = W.toarray()
        assert dense.shape == W_ref.shape
        assert np.array_equal(dense, W_ref)
        assert np.array_equal(b, b_ref)
    assert net.width == max(W.shape[0] for W, _ in ref)
    assert net.depth == len(ref)
    assert net.nonzeros == sum(
        np.count_nonzero(W) + np.count_nonzero(b) for W, b in ref
    )


def test_joint_lift_network_stores_no_dense_hidden_layers():
    # at the joint-lift grid a dense realization stores ~55 M weights for
    # ~65 k nonzeros; the CSR layers store no zero at all
    net = grid_to_mlp(_random_grid((16, 16, 16), seed=3))
    hidden = net.layers[1:-1]
    assert all(sparse.issparse(W) and W.format == "csr" for W, _ in hidden)
    assert all(np.all(W.data != 0.0) for W, _ in hidden)
    stored = sum(W.nnz for W, _ in net.layers)
    assert stored <= net.nonzeros


def test_exact_lipschitz_dominates_sampled_slopes():
    rng = np.random.default_rng(11)
    gi = GridInterpolant((4, 4), rng.standard_normal((25, 2)))
    L = gi.lipschitz_linf()
    X = rng.random((20_000, 2))
    Y = X + rng.standard_normal((20_000, 2)) * 1e-4
    num = np.abs(gi(X) - gi(Y)).max(axis=1)
    den = np.abs(X - Y).max(axis=1)
    ratio = (num / den).max()
    assert ratio <= L + 1e-9
    assert ratio >= 0.9 * L  # the bound is attained up to sampling slack


def test_binary_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(12)
    gi = GridInterpolant((3, 5), rng.standard_normal((24, 2)))
    path = tmp_path / "grid.bin"
    gi.save(path)
    back = GridInterpolant.load(path)
    assert back.ns == gi.ns
    assert np.array_equal(back.values, gi.values)
    assert (tmp_path / "grid.bin.json").exists()
    raw = gi.to_bytes()
    for bad in (raw[:-8], raw + bytes(8), raw[:12]):
        with pytest.raises(ValueError):
            GridInterpolant.from_bytes(bad)


def reference_hat_sum(gi, x):
    """The interpolant's former evaluation, kept as a bit-for-bit reference:
    per corner, the two hat maxima are row reductions of a relu'd
    difference matrix and the vertex index comes from ravel_multi_index;
    non-finite rows are split off and set to NaN."""
    X = np.atleast_2d(np.asarray(x, dtype=float))
    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        out = np.full((X.shape[0], gi.out_dim), np.nan)
        if (~bad).any():
            out[~bad] = reference_hat_sum(gi, X[~bad])
        return out
    nvec = np.array(gi.ns, dtype=float)
    shape = tuple(n + 1 for n in gi.ns)
    t = X * nvec
    anchor = np.clip(np.floor(t), 0, nvec - 1).astype(np.int64)
    out = np.zeros((X.shape[0], gi.out_dim))
    for offs in itertools.product((0, 1), repeat=gi.dim):
        vidx = anchor + np.array(offs, dtype=np.int64)
        diff = t - vidx
        a = relu(diff).max(axis=1)
        b = relu(-diff).max(axis=1)
        lam = relu(1.0 - a - b)
        flat = np.ravel_multi_index(tuple(vidx.T), shape)
        out += lam[:, None] * gi.values[flat]
    return out


def _assert_same_bits(got, ref):
    """Equal float64 bit patterns (so -0.0 differs from +0.0), NaN where ref is NaN."""
    got, ref = np.atleast_2d(got), np.atleast_2d(ref)
    assert got.shape == ref.shape
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), ref[~nan].view(np.uint64))


@pytest.mark.parametrize("ns", [(6,), (4, 4), (3, 5), (2, 2, 2), (2, 3, 1, 2)])
def test_hat_sum_is_bit_identical_to_reference(ns):
    rng = np.random.default_rng(sum(ns))
    d = len(ns)
    nverts = int(np.prod([n + 1 for n in ns]))
    # columns: random; all -0.0 (every term is -0.0, the sum must stay +0.0);
    # random with exact 0.0 and -0.0 vertices mixed in
    vals = rng.standard_normal((nverts, 3))
    vals[:, 1] = -0.0
    zeros = rng.random(nverts) < 0.5
    vals[zeros, 2] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    gi = GridInterpolant(ns, vals)
    n = np.array(ns, dtype=float)
    inside = rng.random((2000, d))
    facets = rng.random((2000, d))
    snap = rng.random((2000, d)) < 0.5  # put coordinates on cell facets
    facets[snap] = (np.floor(facets * n) / n)[snap]
    outside = rng.uniform(-1.0 / n, 1.0 + 1.0 / n, size=(2000, d))  # one cell out
    nan_rows = rng.random((50, d))
    nan_rows[::2, 0] = np.nan
    nan_rows[1::4, -1] = np.inf
    for X in (inside, facets, outside, nan_rows, inside[0]):
        _assert_same_bits(gi(X), reference_hat_sum(gi, X))

    # batched values: each block against the reference of its own values
    batched = np.stack([vals, rng.standard_normal((nverts, 3)), -vals])
    block = rng.integers(0, 3, size=outside.shape[0])
    got = GridInterpolant(ns, batched, block)(outside)
    for k in range(3):
        rows = block == k
        ref = reference_hat_sum(GridInterpolant(ns, batched[k]), outside[rows])
        _assert_same_bits(got[rows], ref)

    # two field columns beside an identity block, as the fit's touched mask reads it
    wide = GridInterpolant(ns, np.hstack([vals[:, :2], np.eye(nverts)]))
    for X in (inside, facets, outside, nan_rows):
        _assert_same_bits(wide(X), reference_hat_sum(wide, X))


def test_batched_values_match_one_interpolant_per_block():
    # interleaved rows, blocks of 0, 1, 40 and 89 rows
    rng = np.random.default_rng(22)
    vals = rng.standard_normal((4, 25, 2))
    block = rng.permutation(np.repeat([1, 2, 3], [1, 40, 89]))
    batch = GridInterpolant((4, 4), vals, block)
    X = rng.uniform(-0.3, 1.3, size=(block.size, 2))
    X[7, 1] = np.nan
    got = batch(X)
    for k in range(4):
        rows = block == k
        assert np.array_equal(got[rows], GridInterpolant((4, 4), vals[k])(X[rows]),
                              equal_nan=True)
    with pytest.raises(ValueError):
        batch(X[:-1])  # a block index of the wrong length
    for bad in ([0, 4], [-1, 0], [[0, 1]], [0.0, 1.0]):
        with pytest.raises(ValueError):
            GridInterpolant((4, 4), vals, np.array(bad))
    with pytest.raises(ValueError):
        GridInterpolant((4, 4), vals)  # batched values need the index
    with pytest.raises(ValueError):
        GridInterpolant((4, 4), vals[0], block)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridInterpolant((0,), np.zeros((1, 1)))
    with pytest.raises(ValueError):
        GridInterpolant((2, 2), np.zeros((5, 1)))


# ---------------------------------------------------------------------------
# the modulus omega(t) = L t of a grid's Lipschitz bound


def test_lipschitz_modulus_values():
    # d = 1, n = 2: the report states omega(1/4) per output column
    def ramp(P):
        return 2.0 * P

    assert grid_realize(ramp, 1, 2, [2.0]).report.modulus_bound[0] == pytest.approx(0.5)
    assert grid_realize(ramp, 1, 2, 0.0).report.modulus_bound[0] == 0.0
    with pytest.raises(ValueError):
        grid_realize(ramp, 1, 2, -0.1)


# ---------------------------------------------------------------------------
# grid approximation


def test_constant_field_is_reproduced():
    c = VectorField(2, lambda X: np.full_like(X, 0.7), 0.0,
                    support_box=np.array([[0.0, 0.0], [1.0, 1.0]]))
    report = grid_relu_approximate(c, 4).report
    assert report.measured_error.max() <= 1e-12


def test_linear_field_is_reproduced():
    A = np.array([[0.3, -0.2], [0.1, 0.4]])
    lin = VectorField(2, lambda X: X @ A.T, float(np.abs(A).sum(axis=1).max()),
                      support_box=np.array([[0.0, 0.0], [1.0, 1.0]]))
    report = grid_relu_approximate(lin, 4).report
    assert report.measured_error.max() <= 1e-12


@pytest.mark.parametrize("n", [4, 8, 16])
def test_sin_bump_error_within_modulus(n):
    f = sin_bump_field()
    report = grid_relu_approximate(f, n).report
    assert report.within_bound
    assert report.measured_error.max() <= f.lipschitz_bound * 2 / (2 * n)


def test_sin_bump_rate_halves():
    f = sin_bump_field()
    errs = {}
    for n in (8, 16):
        report = grid_relu_approximate(f, n).report
        errs[n] = report.measured_error.max()
    assert errs[16] <= 0.55 * errs[8]


def test_size_report_fields():
    f = sin_bump_field()
    vf = grid_relu_approximate(f, 8)
    net, report = vf.mlp, vf.report
    assert report.width == net.width
    assert report.depth == net.depth
    assert report.nonzeros == net.nonzeros
    assert report.target_width == 8 * 2 * 9**2 + 9
    assert report.target_depth == 7
    assert report.target_nonzeros == 16 * 2 * 9**2 + 9
    assert report.within_bound is True


def test_modulus_bound_holds_for_every_builtin_field():
    for name, f in builtin_suite().items():
        for n in (4, 8):
            report = grid_relu_approximate(f, n).report
            assert report.within_bound, (name, n)


def test_grid_approximate_rejects_unsupported_fields():
    with pytest.raises(ValueError):
        grid_relu_approximate(rotation_field([0.5, 0.5], 1.0), 4)
    f = sin_bump_field()
    with pytest.raises(ValueError):
        grid_relu_approximate(f, 0)


def _affine3(P):
    return P @ np.array([[0.3, -0.7, 0.1], [0.2, 0.5, -0.9], [-0.6, 0.1, 0.4]]) + 0.25


def _tents(P):
    """Unit l1-tents of radius 1/64 at two fine-lattice points of the n=16
    grid that are not vertices: the interpolant is 0 everywhere, so each
    component errs by 1 at its tent's peak and nowhere else. The first peak
    lies in the last, partial row block of the 65^2 fine check."""
    cs = np.array([[63 / 64, 33 / 64], [33 / 64, 33 / 64]])
    return np.stack([np.maximum(0.0, 1.0 - 64.0 * np.abs(P - c).sum(axis=1)) for c in cs],
                    axis=1)


@pytest.mark.parametrize("f,ns", [
    # a 1-d fine lattice of _EVAL_ROWS + 1 rows: one full block and one row
    (lambda P: P**2, (_EVAL_ROWS // 4,)),
    (_tents, (16, 16)),
    (_affine3, (16, 16, 16)),
], ids=["block_plus_one", "tents_2d", "affine_3d"])
def test_fine_check_is_bit_equal_to_whole_lattice(f, ns):
    pts = lattice([4 * m + 1 for m in ns])
    if len(ns) == 1:
        assert len(pts) == _EVAL_ROWS + 1
    gi = GridInterpolant.from_callable(f, ns)
    expected = np.abs(gi(pts) - f(pts)).max(axis=0)
    report = grid_realize(f, len(ns), ns[0], 1.0).report
    assert np.array_equal(report.measured_error, expected)


def test_fine_check_memory_is_bounded_by_the_lattice():
    tracemalloc.start()
    try:
        grid_realize(_affine3, 3, 16, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 65^3-row fine lattice is built in place, and the network and a
    # block of rows take less than one lattice more; checking every row at
    # once would hold about thirteen lattices
    assert peak < 3 * 65**3 * 3 * 8


# ---------------------------------------------------------------------------
# registry round trips


@pytest.mark.parametrize("name", ["zero", "rotation_clipped", "squeeze_clipped", "sin_bump"])
def test_builtin_refs_roundtrip(name):
    f = builtin_field(name)
    back = field_from_ref(f.ref)
    rng = np.random.default_rng(13)
    X = rng.random((500, f.dim))
    assert np.abs(f.eval(X) - back.eval(X)).max() <= 1e-15
    assert back.lipschitz_bound == pytest.approx(f.lipschitz_bound)


def test_builtin_suite_members():
    suite = builtin_suite()
    assert set(suite) == {"zero", "rotation_clipped", "squeeze_clipped", "sin_bump"}
    for f in suite.values():
        assert f.support_box is not None


def test_unknown_field_id():
    with pytest.raises(KeyError):
        builtin_field("no_such_field")
