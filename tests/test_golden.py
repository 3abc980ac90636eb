"""Golden output bits of the exact grid paths.

Each case hashes the float64 bytes of one computation. The paths are
grid-only: hat sums, fixed-step integration, the cutoff and the ReLU
realization's weights use + - * / max floor and integer indexing, so
their bits do not depend on the CPU. (Analytic fields call sin/exp,
whose vectorized results may differ in the last ulp across machines,
and the assignment and LP solvers may differ across scipy versions;
neither appears here.)

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
    GridInterpolant, LipschitzModulus, grid_field, grid_realize, grid_to_mlp,
)
from incflow.flow import integrate
from incflow.lift import approximate_lipschitz_function, lift_function, save_lifted


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


def _lattice(lo, hi, k, d):
    axis = np.linspace(lo, hi, k)
    return np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)


@pytest.mark.parametrize("method", ["rk4", "euler"])
def test_integrate_grid_field_bits(method):
    # the 33^2 lattice reaches a quarter outside the cube on every side,
    # where the hat continuation decays to zero
    gi = GridInterpolant.from_callable(_swirl, (8, 8))
    X = integrate(grid_field(gi).eval, _lattice(-0.25, 1.25, 33, 2), 256, 1.0, method)
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
    _, _, report = grid_realize(_swirl, 2, 16, LipschitzModulus([3.0, 3.0]))
    assert _digest(report.measured_error) == GOLDEN["grid_realize_swirl_16x16"]


@pytest.mark.parametrize("mode", ["componentwise", "joint"])
def test_lift_affine_pair_bits(mode, tmp_path):
    comps, d, D, L = lift_function("affine_pair")
    approx, _ = approximate_lipschitz_function(comps, 4, d, D, L, mode=mode)
    assert _digest(approx.apply(_lattice(-0.1, 1.1, 49, 1))) == GOLDEN[f"lift_apply_{mode}"]
    save_lifted(approx, str(tmp_path))
    files = sorted(os.listdir(tmp_path))
    h = hashlib.sha256()
    for name in files:
        h.update(name.encode())
        h.update((tmp_path / name).read_bytes())
    assert h.hexdigest() == GOLDEN[f"lift_files_{mode}"]


GOLDEN = {
    "integrate_rk4": "cfea4557f2d8b83380553e585bfccf324d4c54a3a211604ed8aca727d289578a",
    "integrate_euler": "c9238186ad5713567cdac779920720c684f00998605013180075115db8dbba16",
    "hat_sum_d1": "a88e2db6f5609cb15070e264950441eda5fe477823cdf9f1af0717b26b2eed94",
    "hat_sum_d2": "98c6193d12b18cd2131a8e311ced59cba5f27701639b0092a89ab9f30f3339ac",
    "hat_sum_d3": "72f6211c52c9c5b401f74c9f06277a12dc0ec94b2785aec1b136a5e8117a5b88",
    "hat_sum_d4": "799cb6efa83e725c59528f22663ebe68d4f916bc71b6740ac1b5339543e86ba2",
    "grid_to_mlp_4x4": "048455077fd3a6c340c84b2c650a7d4157772a3fc3e3bcd46fc0279ef900be8e",
    "grid_to_mlp_3x2x5": "111037f3e0eb11589297a861b1386a7b178d436a7a2f647dff9403a90ebb6bb0",
    "grid_realize_swirl_16x16": "38fd85daf1fe7e4ed533c32c43fbe1125b0fd79ed91f9469bf440209e3f50567",
    "lift_apply_componentwise": "540868f3c1b1ca4e89a39c656c2b44dec5753f3d66593796cfea93012dcfdf62",
    "lift_files_componentwise": "ed2d020ca6b0ae45fd4b7c15f764f473cec25ae1d382e930db6ff3d5eaf31a6c",
    "lift_apply_joint": "540868f3c1b1ca4e89a39c656c2b44dec5753f3d66593796cfea93012dcfdf62",
    "lift_files_joint": "697c6dc61d79c04e60541db8271d935b8e1ae70c4a97f42ee72f98368f93722c",
}
