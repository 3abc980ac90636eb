"""Golden output bits of the exact grid paths.

Each case hashes the float64 bytes of one computation. The paths are
grid-only: hat sums, fixed-step integration, the cutoff and the ReLU
realization's weights use + - * / max floor and integer indexing, and
the exact grid flow sqrt as well, so their bits do not depend on the
CPU. (Analytic fields call sin/exp,
whose vectorized results may differ in the last ulp across machines.)
The one solver case, the transport LP on weighted pairs, pins the
vertex HiGHS reaches; it was recorded with scipy 1.17.1 and may move
with another scipy version.

A digest that changes means the output of a path that is meant to stay
bit-identical changed: a reordered sum, a regrouped product or a
different corner order all show up here. Regenerate the digests only
for a change that states the new bits on purpose.
"""

import hashlib
import os

import numpy as np
import pytest

from incflow.fields import (
    GridInterpolant, VectorField, grid_field, grid_realize, grid_to_mlp,
)
from incflow.flow import approximate_generator, integrate, save_generator
from incflow.lift import approximate_lipschitz_function, lift_function, save_lifted
from incflow.probe import fit_gap_experiment, fit_single_flow
from incflow.transport import EmpiricalMeasure, w1_exact
from test_probe import rk4_composite
from test_transport import _lp_instance


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype="<f8")
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _swirl(P):
    """A polynomial 2-d field on the cube: a swirl around (0.5, 0.5)
    damped to zero on the boundary."""
    x, y = P[:, 0], P[:, 1]
    damp = 16.0 * x * (1.0 - x) * y * (1.0 - y)
    return np.stack([-(y - 0.5) * damp * 3.0, (x - 0.5) * damp * 3.0 + 0.25 * damp], axis=1)


def _files_digest(path) -> str:
    """The names and bytes of every file in the directory ``path``."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        h.update((path / name).read_bytes())
    return h.hexdigest()


def _lattice(lo, hi, k, d):
    axis = np.linspace(lo, hi, k)
    return np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)


@pytest.mark.parametrize("method", ["rk4"])
def test_integrate_grid_field_bits(method):
    # the 33^2 lattice reaches a quarter outside the cube on every side,
    # where the hat continuation decays to zero
    gi = GridInterpolant.from_callable(_swirl, (8, 8))
    X = integrate(grid_field(gi).eval, _lattice(-0.25, 1.25, 33, 2), 256, 1.0)
    assert _digest(X) == GOLDEN[f"integrate_{method}"]


@pytest.mark.parametrize("ns", [(5,), (4, 3), (3, 2, 4), (2, 3, 2, 2)],
                         ids=lambda ns: f"d{len(ns)}")
def test_hat_sum_bits(ns):
    d = len(ns)
    rng = np.random.default_rng([7, d])
    nverts = int(np.prod([n + 1 for n in ns]))
    gi = GridInterpolant(ns, rng.uniform(-1.0, 1.0, size=(nverts, 2)))
    pts = rng.uniform(-0.3, 1.3, size=(2000, d))
    pts[5] = np.inf  # non-finite rows evaluate to NaN
    assert _digest(gi(pts)) == GOLDEN[f"hat_sum_d{d}"]


@pytest.mark.parametrize("ns", [(5,), (4, 3), (3, 2, 4)], ids=lambda ns: f"d{len(ns)}")
def test_grid_flow_bits(ns):
    # the exact flow uses + - * / max floor and sqrt only. A third of the
    # vertices are 0; the rows reach outside the cube, where the field
    # falls to 0 one cell out, and the first rows sit on grid vertices,
    # where the simplex order ties
    d = len(ns)
    rng = np.random.default_rng([17, d])
    nverts = int(np.prod([n + 1 for n in ns]))
    values = rng.uniform(-0.5, 0.5, size=(nverts, d)) * (rng.random((nverts, 1)) < 2 / 3)
    flow = grid_field(GridInterpolant(ns, values)).flow
    pts = rng.uniform(-0.3, 1.3, size=(600, d))
    pts[:20] = np.floor(rng.uniform(0, np.array(ns) + 1, size=(20, d))) / np.array(ns)
    assert _digest(*[flow(pts, t) for t in (1.0, -1.0, 0.37)]) == GOLDEN[f"grid_flow_d{d}"]


def _layer_digest(net) -> str:
    parts = []
    for W, b in net.layers:
        parts += [W.toarray(), b]
    return _digest(*parts)


def test_grid_to_mlp_layer_bits():
    rng = np.random.default_rng(11)
    gi = GridInterpolant((4, 4), rng.uniform(-1.0, 1.0, size=(25, 3)))
    assert _layer_digest(grid_to_mlp(gi)) == GOLDEN["grid_to_mlp_4x4"]


def test_grid_to_mlp_two_level_tree_bits():
    # d = 3: the first max-tree level carries the odd third wire, the
    # second pairs it with the first level's max
    rng = np.random.default_rng(13)
    gi = GridInterpolant((3, 2, 5), rng.uniform(-1.0, 1.0, size=(72, 2)))
    assert _layer_digest(grid_to_mlp(gi)) == GOLDEN["grid_to_mlp_3x2x5"]


def test_grid_realize_fine_check_bits():
    # the 65^2-row fine check spans nine row blocks; the two components
    # peak in different ones
    report = grid_realize(_swirl, 2, 16, 3.0).report
    assert _digest(report.measured_error) == GOLDEN["grid_realize_swirl_16x16"]


@pytest.mark.parametrize("mode", ["componentwise", "joint"])
def test_lift_affine_pair_bits(mode, tmp_path):
    comps, d, D, L = lift_function("affine_pair")
    approx, _ = approximate_lipschitz_function(comps, 4, d, D, L, mode=mode)
    assert _digest(approx.apply(_lattice(-0.1, 1.1, 49, 1))) == GOLDEN[f"lift_apply_{mode}"]
    save_lifted(approx, str(tmp_path))
    assert _files_digest(tmp_path) == GOLDEN[f"lift_files_{mode}"]


def test_generator_manifest_files_bits(tmp_path):
    # two stages over the swirl and its transpose, each with Lipschitz
    # bound 7 (its slope is about 6.93): the grid payloads, their
    # sidecars, and the manifest with its certificate. The certificate's
    # e^L factors call exp, correctly rounded by common libms.
    box = [[0.0, 0.0], [1.0, 1.0]]
    stages = [VectorField(2, _swirl, 7.0, support_box=box),
              VectorField(2, lambda P: _swirl(P[:, ::-1])[:, ::-1], 7.0, support_box=box)]
    save_generator(approximate_generator(stages, 8), str(tmp_path))
    assert _files_digest(tmp_path) == GOLDEN["generator_files_swirl_8x8"]


def test_fit_single_flow_bits():
    # both restarts on the two-stage composite; each spends 150
    # evaluations and ends in a poll that the budget cuts short. The
    # composite is integrated by RK4, whose bits use + - * / and sqrt
    # only; its exact maps call sin, cos, exp and log.
    res = fit_single_flow(rk4_composite, budget=300, seed=0)
    digest = _digest(res.candidate_field.grid.values, [res.residual_sup], [res.evaluations])
    assert digest == GOLDEN["fit_single_flow_composite"]


def test_fit_gap_experiment_bits():
    # both targets, the self-recovery one too, at equal budget and seed.
    # The composite is the two-stage map's closed forms, which call sin,
    # cos, exp and log, so this case may move by an ulp on another libm.
    res = fit_gap_experiment(seed=0, budget=400, n_grid=4)
    assert (res["self_recovery_init"], res["composite_init"]) == ("chord", "zero")
    digest = _digest([res["self_recovery_residual"], res["composite_residual"],
                      res["gap_ratio"]])
    assert digest == GOLDEN["fit_gap_experiment"]


def test_w1_lp_weighted_bits():
    # weighted pairs start column generation from v = 0: the start arcs, every
    # restricted LP and so the coupling, w1 and gap keep their bits
    parts = []
    for case in ("random", "cg_rounds"):
        a, wa, b, wb = _lp_instance(case)
        rep = w1_exact(EmpiricalMeasure(a, wa), EmpiricalMeasure(b, wb))
        parts += [[rep.w1], rep.coupling_i, rep.coupling_j, rep.coupling_mass, [rep.gap]]
    assert _digest(*parts) == GOLDEN["w1_lp_weighted"]


GOLDEN = {
    "integrate_rk4": "cfea4557f2d8b83380553e585bfccf324d4c54a3a211604ed8aca727d289578a",
    "hat_sum_d1": "a88e2db6f5609cb15070e264950441eda5fe477823cdf9f1af0717b26b2eed94",
    "hat_sum_d2": "98c6193d12b18cd2131a8e311ced59cba5f27701639b0092a89ab9f30f3339ac",
    "hat_sum_d3": "72f6211c52c9c5b401f74c9f06277a12dc0ec94b2785aec1b136a5e8117a5b88",
    "hat_sum_d4": "799cb6efa83e725c59528f22663ebe68d4f916bc71b6740ac1b5339543e86ba2",
    "grid_flow_d1": "ea5f46f02886024d10d25ade5084926f88f3ba0449edf91ea31e78c7128cd805",
    "grid_flow_d2": "a379bcc154251502ae37755d58ac6ab24f754b510c2d5a8c9c25742e117f3848",
    "grid_flow_d3": "1863876aa0cfec9ee3389d3413c77382dc34753abfbc0a3f68bd2750059356d2",
    "grid_to_mlp_4x4": "048455077fd3a6c340c84b2c650a7d4157772a3fc3e3bcd46fc0279ef900be8e",
    "grid_to_mlp_3x2x5": "111037f3e0eb11589297a861b1386a7b178d436a7a2f647dff9403a90ebb6bb0",
    "grid_realize_swirl_16x16": "38fd85daf1fe7e4ed533c32c43fbe1125b0fd79ed91f9469bf440209e3f50567",
    "lift_apply_componentwise": "b6cedb1408b1b26d0da75153a586e504fe3f33d3e6b12b5d64b55009183540f8",
    "lift_files_componentwise": "508d1342891bf67ae01f891a1ea6b936e529a8ed13e9cb360ec1a6168a0ed051",
    "lift_apply_joint": "b6cedb1408b1b26d0da75153a586e504fe3f33d3e6b12b5d64b55009183540f8",
    "lift_files_joint": "6921e3f01e11788932432e6a5b958bd6e804968a5ae3bcad8c95b9e1023f0cee",
    "generator_files_swirl_8x8": "7a1a2a143063b58abf7a0e1c5370139ded6121ab15ab72820379da96e4f17511",
    "fit_single_flow_composite": "1f89417fcdb528622b02386283698c02c7bfc1fd8ac4622dbe8a8b025a88a90a",
    "fit_gap_experiment": "ce8a1799dd6e2f5ab1481cd8fe08626cdbb9695c98a236ce90dec02e56fe8909",
    "w1_lp_weighted": "2e1df74f1c9d6c6a1078422e1a99a5b5d3ab4dfdb23a1da0bb46fa540195b27c",
}
