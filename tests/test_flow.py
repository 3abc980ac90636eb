import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from incflow.fields import (
    VectorField,
    builtin_field,
    builtin_suite,
    lattice,
    rotation_field,
    squeeze_field,
    zero_field,
)
from incflow.flow import (
    REFERENCE_STEPS,
    ErrorCertificate,
    FlowIntegrationError,
    FlowMap,
    IncrementalGenerator,
    approximate_generator,
    builtin_generator,
    empirical_lipschitz,
    integrate,
    load_generator,
    reference_flow,
    save_generator,
    verify_manifest,
)


def fine_rk4(f, X, steps, sign=1.0):
    """The RK4 oracle of a flow: ``integrate`` on the rows where ``f`` is
    nonzero. A row where it is 0 is an equilibrium, which RK4 keeps too
    (each step adds 0), so the fine references skip those rows."""
    out, live = X.copy(), (f.eval(X) != 0).any(axis=1)
    out[live] = integrate(f.eval, X[live], steps, sign)
    return out


def rotation_oracle(x, center, rate, t=1.0):
    c = np.asarray(center)
    v = np.atleast_2d(x) - c
    ang = rate * t
    R = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    return c + v @ R.T


def squeeze_oracle(x, line_x, t=1.0):
    out = np.atleast_2d(x).astype(float).copy()
    out[:, 0] = line_x + (out[:, 0] - line_x) * math.exp(-t)
    return out


def test_zero_field_flow_is_bit_identical():
    fl = FlowMap(zero_field(2))
    x = np.array([0.123456789, 0.987654321])
    assert np.array_equal(fl.apply(x), x)


def test_rotation_flow_matches_closed_form():
    fl = FlowMap(rotation_field([0.5, 0.5], math.pi))
    x = np.array([0.75, 0.5])
    expect = rotation_oracle(x, [0.5, 0.5], math.pi)[0]
    assert np.abs(fl.apply(x) - expect).max() <= 1e-8
    assert np.abs(fl.apply(x) - np.array([0.25, 0.5])).max() <= 1e-8


def test_squeeze_flow_matches_closed_form():
    fl = FlowMap(squeeze_field(0.5))
    x = np.array([0.75, 0.5])
    expect = np.array([0.5 + 0.25 * math.exp(-1.0), 0.5])
    assert np.abs(fl.apply(x) - expect).max() <= 1e-10
    assert np.abs(fl.apply(x) - squeeze_oracle(x, 0.5)[0]).max() <= 1e-10


def test_flow_inverse_round_trip_zero_field():
    fl = FlowMap(zero_field(2))
    x = np.array([0.3, 0.4])
    assert np.array_equal(fl.inverse().apply(fl.apply(x)), x)


def test_flow_round_trip_builtin_suite():
    rng = np.random.default_rng(0)
    X = rng.random((100, 2))
    for name, f in builtin_suite().items():
        fl = FlowMap(f)
        back = fl.inverse().apply(fl.apply(X))
        assert np.abs(back - X).max() <= 1e-6, name


def test_round_trip_exact_outside_support():
    f = builtin_field("rotation_clipped")
    fl = FlowMap(f)
    pts = np.array([[0.9, 0.9], [0.05, 0.5], [0.5, 0.05]])
    assert np.array_equal(fl.apply(pts), pts)
    assert np.array_equal(fl.inverse().apply(fl.apply(pts)), pts)


def _mixed_batch(box, rng, n=200):
    """Rows inside, outside, exactly on the faces and corners of ``box``."""
    lo, hi = box
    inside = rng.uniform(lo, hi, size=(n, lo.size))
    outside = rng.uniform(lo - 0.3, hi + 0.3, size=(n, lo.size))
    on_face = rng.uniform(lo, hi, size=(n, lo.size))
    axis = rng.integers(lo.size, size=n)
    on_face[np.arange(n), axis] = np.where(rng.random(n) < 0.5, lo[axis], hi[axis])
    corners = np.array([[a, b] for a in (lo[0], hi[0]) for b in (lo[1], hi[1])])
    return np.vstack([inside, outside, on_face, corners])


def test_support_skip_matches_full_integration():
    # finite rows where the field is exactly zero are not mapped, inside a
    # box around its support or outside: rotation_clipped's box corners
    # outside its disc, and the cells x_i <= 1/8 of the n = 8 sin_bump stage
    # grid, whose vertex values are all zero. The result must equal the
    # closed form on every row, bit for bit.
    rng = np.random.default_rng(3)
    rot = builtin_field("rotation_clipped")
    lo, hi = rot.support_box
    corners = np.array([[a, b] for a in (lo[0], hi[0]) for b in (lo[1], hi[1])])[:, None]
    rot_zero = (corners + 0.2 * rng.random((4, 25, 2)) * ((lo + hi) / 2 - corners)).reshape(-1, 2)
    stage = approximate_generator([builtin_field("sin_bump")], 8).stages[0].field
    assert stage.support_box is None
    cube = np.array([[0.0, 0.0], [1.0, 1.0]])
    strip = rng.uniform(cube[0], [0.125, 1.0], size=(100, 2))
    for f, box, zero in ((rot, rot.support_box, rot_zero),
                         (stage, cube, np.vstack([strip, strip[:, ::-1]]))):
        assert ((zero >= box[0]) & (zero <= box[1])).all() and (f.eval(zero) == 0).all()
        X = np.vstack([_mixed_batch(box, rng), zero])
        for direction, sign in (("forward", 1.0), ("backward", -1.0)):
            skip = FlowMap(f, direction)
            got = skip.apply(X)
            assert np.array_equal(got, f.flow(X, sign))
            assert not np.array_equal(got, X)
            assert np.array_equal(skip.apply(X[0]), f.flow(X[:1], sign)[0])


def test_support_box_too_small_for_its_field_does_not_freeze_rows():
    # which rows move follows from the field's value, not its declared box
    f = builtin_field("rotation_clipped")
    small = VectorField(2, f.eval, f.lipschitz_bound,
                        support_box=np.array([[0.45, 0.45], [0.55, 0.55]]), flow=f.flow)
    X = _mixed_batch(f.support_box, np.random.default_rng(4))
    got = FlowMap(small).apply(X)
    assert np.array_equal(got, f.flow(X, 1.0))
    assert not np.array_equal(got, X)


def test_all_zero_batch_costs_one_field_evaluation():
    calls = []

    def ev(X):
        calls.append(len(X))
        return np.zeros_like(X)

    X = np.random.default_rng(5).random((40, 2))
    field = VectorField(2, ev, 0.0, flow=lambda X, t: X + t * ev(X))
    assert np.array_equal(FlowMap(field).apply(X), X)
    assert calls == [40]


def test_generator_single_stage_reduces_to_flow():
    f = builtin_field("rotation_clipped")
    fl = FlowMap(f)
    gen = IncrementalGenerator([fl])
    x = np.array([0.55, 0.6])
    assert np.array_equal(gen.apply(x), fl.apply(x))


def test_generator_stage_order_is_first_to_last():
    # squeeze then rotation: starting on the invariant line, one pass is a
    # half turn, two passes return (iteration oracle for the period-2 design)
    gen = builtin_generator("counterexample")
    q = np.array([0.5, 0.5 + 1.0 / 16])
    once = gen.apply(q)
    assert np.abs(once - np.array([0.5, 0.5 - 1.0 / 16])).max() <= 1e-8
    twice = gen.apply(once)
    assert np.abs(twice - q).max() <= 1e-6


def test_generator_of_zero_fields_is_identity():
    gen = builtin_generator("identity2")
    rng = np.random.default_rng(1)
    X = rng.random((50, 2))
    assert np.array_equal(gen.apply(X), X)


def test_generator_identity_outside_support_box():
    gen = builtin_generator("counterexample")
    boxes = [s.field.support_box for s in gen.stages]
    lo, hi = np.min([b[0] for b in boxes], axis=0), np.max([b[1] for b in boxes], axis=0)
    rng = np.random.default_rng(2)
    pts = rng.uniform(-0.5, 1.5, size=(2000, 2))
    outside = ~np.all((pts >= lo) & (pts <= hi), axis=1)
    assert np.array_equal(gen.apply(pts[outside]), pts[outside])


def test_certify_single_stage_value():
    # omega(t) = t, d = 2, n = 4, stage Lipschitz bound 1:
    # total = 2 * (2 / 8) * e
    f = VectorField(2, lambda X: np.zeros_like(X), 1.0,
                    support_box=np.array([[0.0, 0.0], [1.0, 1.0]]))
    cert = approximate_generator([f], 4).certificate
    assert cert.total_bound == pytest.approx(0.5 * math.e)
    assert cert.lipschitz_product == pytest.approx(math.e)


def test_certify_two_stages_zero_lipschitz():
    # omega(t) = 0 t: each stage adds 2 * 0 * e^0, so the total is 0
    f = VectorField(2, lambda X: np.zeros_like(X), 0.0,
                    support_box=np.array([[0.0, 0.0], [1.0, 1.0]]))
    cert = approximate_generator([f, f], 4).certificate
    assert cert.total_bound == pytest.approx(2 * 0.0 + 2 * 0.0)


def test_certificate_total_recomputable():
    fields = [builtin_field("squeeze_clipped"), builtin_field("rotation_clipped")]
    cert = approximate_generator(fields, 8).certificate
    assert cert.total_bound == pytest.approx(cert.recompute_total(), rel=1e-12)
    back = ErrorCertificate.from_dict(cert.to_dict())
    assert back.recompute_total() == pytest.approx(cert.total_bound, rel=1e-12)


def test_one_stage_certificate_is_the_hand_formula():
    # the shared constructor keeps the former one-stage arithmetic bit for bit
    rng = np.random.default_rng(4)
    for omega, L in [(np.array([0.125, 0.75]), 1.7), (np.zeros(3), 0.0),
                     (rng.random(2), 9.5), (np.array([2.5]), math.pi)]:
        cert = ErrorCertificate.from_stages([(omega, L)], 8)
        assert cert.total_bound == 2.0 * float(np.max(np.abs(omega))) * math.exp(L)
        assert cert.lipschitz_product == math.exp(L)
        assert cert.recompute_total() == cert.total_bound
    for f in builtin_suite().values():
        cert = approximate_generator([f], 4).certificate
        omega_sup = f.lipschitz_bound * (2 / 8.0)
        assert cert.total_bound == 2.0 * omega_sup * math.exp(f.lipschitz_bound)
        assert cert.lipschitz_product == math.exp(f.lipschitz_bound)


def test_lipschitz_bound_is_stage_product():
    gen = builtin_generator("counterexample")
    expect = math.prod(math.exp(s.field.lipschitz_bound) for s in gen.stages)
    assert gen.lipschitz_bound == pytest.approx(expect, rel=1e-12)


def test_approximate_flowable_zero_field():
    gen = approximate_generator([zero_field(2)], 4)
    flow, cert = gen.stages[0], gen.certificate
    assert cert.total_bound == 0.0
    x = np.array([0.4, 0.6])
    assert np.abs(flow.apply(x) - x).max() <= 1e-12


def test_approximate_flowable_certificate_dominates():
    f = builtin_field("squeeze_clipped")
    gen = approximate_generator([f], 8)
    flow, cert = gen.stages[0], gen.certificate
    pts = np.stack(np.meshgrid(np.linspace(0, 1, 17), np.linspace(0, 1, 17),
                               indexing="ij"), axis=-1).reshape(-1, 2)
    measured = np.abs(flow.apply(pts) - reference_flow(f).apply(pts)).max()
    assert measured <= cert.total_bound


def test_approximate_flowable_certificate_scales_inversely_with_n():
    f = builtin_field("sin_bump")
    bounds = {n: approximate_generator([f], n).certificate.total_bound for n in (4, 8, 16)}
    assert bounds[8] == pytest.approx(bounds[4] / 2, rel=1e-12)
    assert bounds[16] == pytest.approx(bounds[8] / 2, rel=1e-12)


@pytest.mark.parametrize("n", [4, 8, 16])
def test_stage_flows_keep_the_cube_and_fix_its_faces(n):
    # each stage flow approx-flow builds is a self-map of [0,1]^2 that
    # leaves every point of the boundary where it is
    rng = np.random.default_rng(n)
    inside = rng.random((2000, 2))
    faces = rng.random((260, 2))
    faces[np.arange(260), rng.integers(2, size=260)] = rng.integers(2, size=260)
    for name, f in builtin_suite().items():
        flow = approximate_generator([f], n).stages[0]
        Y = flow.apply(inside)
        assert ((Y >= 0.0) & (Y <= 1.0)).all(), (name, n)
        assert np.array_equal(flow.apply(faces), faces), (name, n)


def test_stage_flow_error_at_least_halves_from_n8_to_n32():
    # the computed stage flow converges to the exact flow as the grid refines
    pts = lattice([33, 33])
    for name in ("rotation_clipped", "squeeze_clipped", "sin_bump"):
        f = builtin_field(name)
        ref = reference_flow(f).apply(pts)
        err = {n: np.abs(approximate_generator([f], n).apply(pts) - ref).max()
               for n in (8, 32)}
        assert err[32] <= err[8] / 2, (name, err)


def test_empirical_lipschitz_identity_and_zero():
    ident = FlowMap(zero_field(2))
    assert empirical_lipschitz(ident, samples=2000, seed=0) == pytest.approx(1.0, abs=1e-12)
    gen = builtin_generator("identity2")
    assert empirical_lipschitz(gen, samples=2000, seed=0) == pytest.approx(1.0, abs=1e-12)


def test_empirical_lipschitz_below_certified_bound():
    gen = builtin_generator("counterexample")
    est = empirical_lipschitz(gen, samples=10_000, seed=1)
    assert est <= gen.lipschitz_bound


def test_rk4_refinement_is_fourth_order():
    f = rotation_field([0.5, 0.5], math.pi)  # smooth everywhere
    rng = np.random.default_rng(3)
    X = rng.random((64, 2))
    a, b, c = (integrate(f.eval, X, steps) for steps in (32, 64, 128))
    ratio = np.abs(a - b).max() / np.abs(b - c).max()
    assert 10 <= ratio <= 22


def test_integration_error_reports_step():
    blow = VectorField(2, lambda X: X**3 * 1e4, np.inf)
    with pytest.raises(FlowIntegrationError) as err:
        with np.errstate(over="ignore", invalid="ignore"):
            integrate(blow.eval, np.array([[1.0, 1.0]]), 64)
    assert err.value.step >= 0
    # a non-finite row is mapped even among rows where the field is zero
    X = np.array([[0.05, 0.05], [np.nan, 0.9], [0.95, 0.5], [2.0, np.inf]])
    for f in (builtin_field("rotation_clipped"), zero_field(2)):
        for rows in (X[:2], X[2:], X):
            with pytest.raises(FlowIntegrationError) as err:
                with np.errstate(invalid="ignore"):
                    FlowMap(f).apply(rows)
            assert err.value.step == 0


def test_flowmap_validation():
    with pytest.raises(ValueError):
        FlowMap(zero_field(2), direction="sideways")
    with pytest.raises(ValueError):
        IncrementalGenerator([])


def test_flowmap_is_the_exact_flow_of_a_closed_form():
    # a flow takes a field and a direction only, and is its closed-form map
    assert [f.name for f in dataclasses.fields(FlowMap)] == ["field", "direction"]
    for knob in ({"steps": 1}, {"method": "exact"}, {"steps": 256, "method": "rk4"}):
        with pytest.raises(TypeError):
            FlowMap(zero_field(2), **knob)
    off_center = builtin_field("squeeze_clipped", {"line_x": 0.55})
    assert off_center.flow is None
    with pytest.raises(ValueError, match="no closed-form flow"):
        FlowMap(off_center)
    with pytest.raises(ValueError, match="no closed-form flow"):
        FlowMap(VectorField(2, lambda X: np.zeros(X.shape), 0.0), "backward")
    # its reference stand-in integrates every row by RK4
    X = lattice([5, 5])
    assert np.array_equal(reference_flow(off_center)(X),
                          integrate(off_center.eval, X, REFERENCE_STEPS))


def test_manifest_roundtrip_evaluation(tmp_path):
    flds = [builtin_field("squeeze_clipped"), builtin_field("rotation_clipped")]
    gen = approximate_generator(flds, n=4)
    cert = gen.certificate
    path = save_generator(gen, str(tmp_path))
    back = load_generator(path)
    rng = np.random.default_rng(4)
    X = rng.random((200, 2))
    assert np.abs(back.apply(X) - gen.apply(X)).max() <= 1e-12
    assert back.certificate.total_bound == pytest.approx(cert.total_bound, rel=1e-12)
    checks = verify_manifest(path)
    assert checks["ok"]


def test_verify_detects_tampering(tmp_path):
    flds = [builtin_field("squeeze_clipped")]
    gen = approximate_generator(flds, n=4)
    path = save_generator(gen, str(tmp_path))
    doc = json.loads(open(path).read())
    doc["certificate"]["total_bound"] = doc["certificate"]["total_bound"] * 2
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert not verify_manifest(path)["ok"]


def test_analytic_generator_manifest_roundtrip(tmp_path):
    gen = builtin_generator("counterexample")
    path = save_generator(gen, str(tmp_path))
    back = load_generator(path)
    rng = np.random.default_rng(5)
    X = rng.random((100, 2))
    assert np.abs(back.apply(X) - gen.apply(X)).max() <= 1e-15
    assert np.array_equal(back.apply(X), gen.apply(X))
    doc = json.loads(open(path).read())
    assert [s["integrator"] for s in doc["stages"]] == [{"method": "exact", "steps": 1}] * 2
    assert verify_manifest(path)["ok"]


# ---------------------------------------------------------------------------
# closed-form flows

_CLOSED_FORMS = ("zero", "rotation", "squeeze", "rotation_clipped", "squeeze_clipped")


def _random_params(fid, rng):
    c = rng.uniform(0.35, 0.65, 2).tolist()
    r_inner = float(rng.uniform(0.05, 0.15))
    radii = {"r_inner": r_inner, "r_outer": r_inner + float(rng.uniform(0.05, 0.15))}
    rate = float(rng.uniform(-2 * math.pi, 2 * math.pi))
    return {
        "zero": {"dim": int(rng.integers(1, 4))},
        "rotation": {"center": c, "rate": rate},
        "squeeze": {"line_x": c[0]},
        "rotation_clipped": {"center": c, "rate": rate, **radii},
        # the closed form needs the line through the center
        "squeeze_clipped": {"line_x": c[0], "center": c, **radii},
    }[fid]


def _closed_form_case(fid, seed):
    """A field with a closed-form flow, at its defaults (seed 0) or at
    seeded random parameters, and points: a lattice plus random points,
    and for the clipped fields rows on the profile's kinks, near the rim
    and the center line and with |y - c_1| at and beyond r_inner."""
    rng = np.random.default_rng([seed, _CLOSED_FORMS.index(fid)])
    params = _random_params(fid, rng) if seed else {}
    f = builtin_field(fid, params)
    X = np.vstack([lattice([17] * f.dim), rng.random((100, f.dim))])
    if fid.endswith("_clipped"):
        c = np.asarray(params.get("center", (0.5, 0.5)))
        r_in, r_out = params.get("r_inner", 0.125), params.get("r_outer", 0.25)
        ang = rng.uniform(0.0, 2 * math.pi, 8)
        ring = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        X = np.vstack([X, c + r_in * ring, c + (r_out - 1e-9) * ring,
                       c + [[1e-12, 0.3 * r_in], [-1e-200, 0.0], [0.05, r_in], [1e-9, r_in],
                            [-0.03, 0.5 * (r_in + r_out)]]])
    return f, X


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("fid", _CLOSED_FORMS)
def test_closed_form_matches_fine_rk4(fid, seed):
    # RK4 with 4096 steps is within ~1e-8 of the flow where a trajectory
    # runs along a kink of the radial profile (|x - c| = r_inner or r_outer)
    # and ~1e-10 elsewhere; 1e-7 leaves a margin over both
    f, X = _closed_form_case(fid, seed)
    exact = FlowMap(f)
    for fl, sign in ((exact, 1.0), (exact.inverse(), -1.0)):
        rk4 = fine_rk4(f, X, 4096, sign)
        assert np.abs(fl.apply(X) - rk4).max() <= 1e-7, (fid, fl.direction)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("fid", _CLOSED_FORMS)
def test_closed_form_group_law(fid, seed):
    f, X = _closed_form_case(fid, seed)
    for s, t in [(0.3, 0.7), (1.0, 1.0), (-0.4, 1.0), (1.5, -2.0), (-1.0, -0.25)]:
        assert np.abs(f.flow(f.flow(X, t), s) - f.flow(X, s + t)).max() <= 1e-12, (s, t)
    exact = FlowMap(f)
    assert np.abs(exact.inverse().apply(exact.apply(X)) - X).max() <= 1e-12
    assert np.abs(exact.apply(exact.inverse().apply(X)) - X).max() <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("fid", _CLOSED_FORMS)
def test_closed_form_batch_is_row_by_row(fid, seed):
    f, X = _closed_form_case(fid, seed)
    for fl in (FlowMap(f), FlowMap(f, "backward")):
        batch = fl.apply(X)
        assert np.array_equal(batch, np.stack([fl.apply(x) for x in X]))
        assert np.array_equal(batch[::3], fl.apply(X[::3]))
    assert np.array_equal(f.flow(X, 0.7), np.vstack([f.flow(X[i:i + 1], 0.7)
                                                     for i in range(len(X))]))


def test_closed_form_keeps_rows_outside_support_bit_identical():
    rng = np.random.default_rng(9)
    far = rng.uniform(-0.5, 1.5, size=(4000, 2))
    for fid in ("rotation_clipped", "squeeze_clipped"):
        f = builtin_field(fid)
        out = far[np.abs(far - 0.5).max(axis=1) > 0.25]  # outside the disc's box
        rim = 0.5 + 0.25 * np.stack([np.cos(a := rng.uniform(0, 7, 50)), np.sin(a)], axis=1)
        X = np.vstack([out, rim[(f.eval(rim) == 0).all(axis=1)]])
        for fl in (FlowMap(f), FlowMap(f, "backward")):
            assert np.array_equal(fl.apply(X), X), fid
    # the squeeze's fixed line, inside the disc too
    line = np.stack([np.full(50, 0.5), rng.uniform(0.0, 1.0, 50)], axis=1)
    assert np.array_equal(builtin_generator("squeeze_only").apply(line), line)


def test_builtin_suite_reference_flows_are_exact():
    # the acceptance checks measure against reference_flow: no builtin of the
    # suite falls back to the 4096-step RK4 stand-in
    for name, f in builtin_suite().items():
        assert reference_flow(f) == FlowMap(f), name


# ---------------------------------------------------------------------------
# the sin_bump closed form: a quadrature of the time along x and a bisection


def _sin_bump_case(seed):
    """sin_bump at its default amplitude (seed 0) or a seeded random one,
    negative for seed 2, with the 33^2 lattice plus 4,000 uniform points."""
    rng = np.random.default_rng([seed, 25])
    params = {"amplitude": float(rng.uniform(0.15, 0.37)) * (-1) ** (seed + 1)} if seed else {}
    return builtin_field("sin_bump", params), np.vstack([lattice([33, 33]),
                                                         rng.random((4000, 2))])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sin_bump_closed_form_matches_fine_rk4(seed):
    # the quadrature errs by ~1e-23 and the bisection by an ulp; RK4 with
    # 4096 steps is within ~1e-9 of the flow, so 1e-7 leaves a margin
    f, X = _sin_bump_case(seed)
    exact = FlowMap(f)
    for fl, sign in ((exact, 1.0), (exact.inverse(), -1.0)):
        rk4 = fine_rk4(f, X, 4096, sign)
        assert np.abs(fl.apply(X) - rk4).max() <= 1e-7, (seed, fl.direction)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sin_bump_closed_form_group_law(seed):
    f, X = _sin_bump_case(seed)
    for s, t in [(0.3, 0.7), (1.0, 1.0), (-0.4, 1.0), (1.5, -2.0), (-1.0, -0.25)]:
        assert np.abs(f.flow(f.flow(X, t), s) - f.flow(X, s + t)).max() <= 1e-12, (s, t)
    exact = FlowMap(f)
    assert np.abs(exact.inverse().apply(exact.apply(X)) - X).max() <= 1e-12
    assert np.abs(exact.apply(exact.inverse().apply(X)) - X).max() <= 1e-12


@pytest.mark.parametrize("seed", [0, 2])
def test_sin_bump_closed_form_batch_is_row_by_row(seed):
    f, X = _sin_bump_case(seed)
    for fl in (FlowMap(f), FlowMap(f, "backward")):
        batch = fl.apply(X)
        assert np.array_equal(batch[::8], np.stack([fl.apply(x) for x in X[::8]]))
        assert np.array_equal(batch[::3], fl.apply(X[::3]))
    rows = X[1::8]
    assert np.array_equal(f.flow(rows, 0.7), np.vstack([f.flow(rows[i:i + 1], 0.7)
                                                        for i in range(len(rows))]))


def test_sin_bump_closed_form_keeps_zero_rows_bit_identical():
    # the field is zero for x <= 1/8, x >= 7/8 and y outside (1/8, 7/8); at
    # x = 1/2 it is sin(pi) ~ 1e-16 in floats, and the flow's fixed point
    rng = np.random.default_rng(11)
    out = np.concatenate([[0.125, 0.875], rng.uniform(-0.5, 0.125, 199),
                          rng.uniform(0.875, 1.5, 199)])
    inside = rng.uniform(0.125, 0.875, 400)
    X = np.vstack([np.stack([out, inside], axis=1), np.stack([inside, out], axis=1),
                   np.stack([np.full(400, 0.5), rng.uniform(-0.5, 1.5, 400)], axis=1)])
    assert (builtin_field("sin_bump").eval(X[:800]) == 0).all()
    for amplitude in (0.2, -0.3):
        f = builtin_field("sin_bump", {"amplitude": amplitude})
        for t in (1.0, -1.0, 2.5):
            assert np.array_equal(f.flow(X, t), X), (amplitude, t)


def test_sin_bump_closed_form_at_a_large_amplitude_stays_in_the_cube():
    X = _sin_bump_case(0)[1]
    f = builtin_field("sin_bump", {"amplitude": 50.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (1.0, -1.0):
            Y = f.flow(X, t)
            assert ((Y >= 0.0) & (Y <= 1.0)).all() and np.array_equal(Y[:, 1], X[:, 1]), t


# ---------------------------------------------------------------------------
# the exact flow of a grid field: affine on each Kuhn simplex


@pytest.fixture(scope="module")
def grid_stages():
    """(stage flow, rows, exact image, RK4/4096 image) of each builtin_suite
    stage at n in {8, 16}, the rows the 33^2 lattice plus 200 uniform
    points. The references take most of this section's time: shared."""
    X = np.vstack([lattice([33, 33]), np.random.default_rng(26).random((200, 2))])
    cases = {}
    for name, f in builtin_suite().items():
        for n in (8, 16):
            fl = approximate_generator([f], n).stages[0]
            cases[name, n] = fl, X, fl.apply(X), fine_rk4(fl.field, X, 4096)
    return cases


def test_grid_flow_matches_fine_rk4(grid_stages):
    # RK4 with 4096 steps errs by O(h^2) where a trajectory crosses a kink
    # of the grid field, ~1e-8 here; 1e-7 leaves a margin
    for (name, n), (fl, X, exact, rk4) in grid_stages.items():
        assert np.abs(exact - rk4).max() <= 1e-7, (name, n)
        assert ((exact >= 0.0) & (exact <= 1.0)).all(), (name, n)


def test_grid_flow_is_the_limit_of_rk4(grid_stages):
    # RK4's error falls ~16x from 4096 to 16384 steps, and the exact flow
    # sits within 1e-8 of the finer one
    fl, X, exact, rk4 = grid_stages["rotation_clipped", 8]
    fine = fine_rk4(fl.field, X, 16384)
    assert np.abs(exact - fine).max() <= 1e-8
    assert np.abs(exact - fine).max() < np.abs(rk4 - fine).max() / 4


def test_grid_flow_group_law(grid_stages):
    for (name, n), (fl, X, exact, _) in grid_stages.items():
        f = fl.field
        assert np.abs(fl.inverse().apply(exact) - X).max() <= 1e-12, (name, n)
        assert np.abs(f.flow(f.flow(X, 0.5), 0.5) - exact).max() <= 1e-12, (name, n)
    f = grid_stages["rotation_clipped", 16][0].field
    for s, t in [(0.3, 0.7), (-0.4, 1.0), (1.5, -2.0)]:
        assert np.abs(f.flow(f.flow(X, t), s) - f.flow(X, s + t)).max() <= 1e-12, (s, t)


def test_grid_flow_batch_is_row_by_row(grid_stages):
    for name in ("rotation_clipped", "squeeze_clipped", "sin_bump"):
        fl, X, exact, _ = grid_stages[name, 8]
        for flow, image in ((fl, exact), (fl.inverse(), fl.inverse().apply(X))):
            assert np.array_equal(image[::7], np.stack([flow.apply(x) for x in X[::7]])), name
            assert np.array_equal(image[::3], flow.apply(X[::3])), name


def test_affine_step_matches_scipy_expm():
    # h phi_1(hB) w is the last column of expm of the augmented matrix
    # [[hB, hw], [0, 0]]; the Taylor sum agrees with scipy's Pade to rounding
    from scipy.linalg import expm

    from incflow.fields import _affine_step

    rng = np.random.default_rng(27)
    for d in (1, 2, 3):
        B, w = rng.normal(size=(500, d, d)), rng.normal(size=(500, d))
        h = rng.uniform(0.0, 1.0, 500) / np.abs(B).sum(axis=2).max(axis=1)
        M = np.zeros((500, d + 1, d + 1))
        M[:, :d, :d], M[:, :d, d] = B * h[:, None, None], w * h[:, None]
        ref = expm(M)[:, :d, d]
        got = _affine_step(B, w, h)
        assert np.abs(got - ref).max() <= 1e-15 * max(1.0, np.abs(ref).max()), d
        assert np.array_equal(got[::3], _affine_step(B[::3], w[::3], h[::3])), d


def test_grid_flow_in_one_and_three_dimensions():
    from incflow.fields import GridInterpolant, grid_field

    def wave(X):  # zero on the cube's faces
        return 0.4 * np.sin(2 * np.pi * X[:, :1]) * np.sin(np.pi * X[:, :1])

    def swirl(X):
        q = np.prod(np.sin(np.pi * X), axis=1)[:, None]
        return q * np.stack([0.5 - X[:, 1], X[:, 0] - 0.5, 0.3 * np.cos(3 * X[:, 0])], axis=1)

    rng = np.random.default_rng(28)
    for fn, ns in ((wave, (16,)), (swirl, (4, 5, 6))):
        f = grid_field(GridInterpolant.from_callable(fn, ns))
        X = np.vstack([lattice([5] * len(ns)), rng.random((100, len(ns)))])
        exact = FlowMap(f)
        Y = exact.apply(X)
        assert np.abs(Y - fine_rk4(f, X, 4096)).max() <= 1e-7, ns
        assert np.abs(exact.inverse().apply(Y) - X).max() <= 1e-12, ns


def test_grid_flow_along_invariant_grid_lines_does_not_stall(monkeypatch):
    # the squeeze's y-component is 0 at every vertex, so each face
    # y = const is invariant, and x = 1/2 is a line of fixed points that
    # rows approach exponentially; a round bound of 40 passes where the
    # whole lattice takes about a dozen rounds. At n = 6, y * 6 / 6 is not
    # always y: the unmoved coordinate keeps its bits all the same
    import incflow.fields as fields

    monkeypatch.setattr(fields, "_GRID_FLOW_ROUNDS", 40)
    near = 0.5 + np.array([0.0, 1e-15, -1e-12, 1e-9, -1e-6, 0.1])
    for n in (6, 8):
        f = approximate_generator([builtin_field("squeeze_clipped")], n).stages[0].field
        y = np.concatenate([np.arange(n + 1) / n, np.random.default_rng(n).random(20)])
        X = np.stack([np.repeat(near, len(y)), np.tile(y, 6)], axis=1)
        for t in (1.0, -1.0):
            Y = f.flow(X, t)
            assert np.array_equal(Y[:, 1], X[:, 1]), (n, t)
            assert np.array_equal(Y[:len(y)], X[:len(y)]), (n, t)
        assert np.abs(f.flow(X, 1.0) - fine_rk4(f, X, 4096)).max() <= 1e-7, n


def test_grid_flow_round_bound(monkeypatch):
    # the rotation at the vertex (3/8, 1/2) runs along the grid line
    # x = 3/8, and its trajectory touches the vertex (1/2, 3/8) along
    # y = 3/8: the third-order bound takes it through in 33 rounds, the
    # quadratic one alone in 91. A batch past the bound raises.
    import incflow.fields as fields

    f = approximate_generator([builtin_field("rotation_clipped")], 8).stages[0].field
    monkeypatch.setattr(fields, "_GRID_FLOW_ROUNDS", 40)
    x = np.array([[0.375, 0.5]])
    assert np.abs(f.flow(x, 1.0) - fine_rk4(f, x, 4096)).max() <= 1e-7
    monkeypatch.setattr(fields, "_GRID_FLOW_ROUNDS", 3)
    with pytest.raises(FlowIntegrationError):
        FlowMap(f).apply(lattice([9, 9]))


def _closed_form_fields():
    """Every kind of field with a closed-form flow: the builtins, a lift of
    each backend and the grid fields of approx-flow's stages; the second
    item says whether the flow keeps the unit cube."""
    from incflow.fields import grid_realize, lift_field

    def ramp(X):
        return np.maximum(X[:, 0] - 0.5, 0.0)

    fields = [(zero_field(2), True), (rotation_field([0.5, 0.5], math.pi), False),
              (squeeze_field(0.5), False), (lift_field([ramp], 1, [1.0]), False),
              (lift_field(grid_realize(ramp, 1, 4, 1.0), 1), False)]
    for f in builtin_suite().values():
        stage = approximate_generator([f], 8).stages[0]
        fields += [(f, True), (stage.field, True)]
    return fields


def test_closed_forms_return_zero_rows_as_they_are():
    rng = np.random.default_rng(29)
    for f, keeps_cube in _closed_form_fields():
        X = np.vstack([lattice([17, 17]), rng.uniform(-0.5, 1.5, (400, 2)),
                       [[0.5, 0.5], [0.5, 0.25]]])
        zero = X[(f.eval(X) == 0).all(axis=1)]
        assert len(zero), f.ref
        for t in (1.0, -1.0, 0.5):
            assert np.array_equal(f.flow(zero, t), zero), (f.ref, t)
        if keeps_cube:
            faces = rng.random((400, 2))
            faces[np.arange(400), rng.integers(2, size=400)] = rng.integers(2, size=400)
            for t in (1.0, -1.0):
                Y = f.flow(faces, t)
                assert np.array_equal(Y[(faces == 0) | (faces == 1)],
                                      faces[(faces == 0) | (faces == 1)]), (f.ref, t)
