"""One-extra-dimension lifting: realize Lipschitz maps R^d -> R^D as
time-1 flows.

A map g on [0,1]^d induces the (d+D)-dimensional field
V(x, y) = (0, g(x)) (:func:`~incflow.fields.lift_field`). Its exact
time-1 flow sends (x, y) to (x, y + g(x)), so embedding x at (x, 0),
flowing for unit time, and projecting onto the last D coordinates
recovers g(x) exactly. V moves no x and is constant in y, so every lift
carries that closed form and is one exact step (:func:`exact_lift` for
analytic components). A grid lift is the lift of the interpolant of g
on the d-dimensional x-grid: its output is linear interpolation of g's
vertex values, whatever their sign, and its error is pure interpolation
error.

Both lift modes are one class, :class:`LiftedApproximator`, whose flows'
outputs are concatenated: componentwise mode (the default) has D flows
on R^(d+1), one per output component, joint mode one flow on R^(d+D).
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .fields import _number, _plateau, grid_realize, lift_field
from .flow import (
    ErrorCertificate,
    FlowMap,
    _check_stated,
    _write_manifest,
    read_manifest,
)

__all__ = [
    "LiftedApproximator",
    "exact_lift",
    "approximate_lipschitz_function",
    "lift_function",
    "LIFT_FUNCTIONS",
    "function_from_samples",
    "save_lifted",
    "load_lifted",
    "verify_lifted_manifest",
]


_KINDS = {"componentwise": "lifted_approximator", "joint": "joint_lifted_approximator"}


class LiftedApproximator:
    """Concatenation of lifted flows.

    Component i is a flow on R^(d+D_i) with D_i >= 1. Evaluation embeds x
    at (x, 0) with D_i zeros, applies the flow and keeps its last D_i
    coordinates; the outputs are concatenated in component order, so
    D = sum D_i. ``mode`` names the construction in the manifest's
    ``kind`` only: a joint lift with D = 1 builds the same flow as a
    componentwise one.
    """

    def __init__(self, components: list[FlowMap], d: int,
                 certificates: list[ErrorCertificate] | None = None,
                 mode: str = "componentwise"):
        if not components:
            raise ValueError("need at least one component flow")
        if mode not in _KINDS:
            raise ValueError("mode must be 'componentwise' or 'joint'")
        for c in components:
            if c.dim <= d:
                raise ValueError(
                    f"component flows must live in more than {d} dimensions, got {c.dim}"
                )
        self.components = list(components)
        self.d = d
        self.D = sum(c.dim - self.d for c in components)
        self.certificates = certificates
        self.mode = mode

    @property
    def dim(self) -> int:
        """Input dimension (measure pushforward treats this as the domain)."""
        return self.d

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        X = np.atleast_2d(x)
        out = np.hstack([
            c.apply(np.hstack([X, np.zeros((X.shape[0], c.dim - self.d))]))[:, self.d:]
            for c in self.components
        ])
        return out[0] if single else out

    __call__ = apply

    def to_dict(self) -> dict:
        return {
            "kind": _KINDS[self.mode],
            "d": self.d,
            "D": self.D,
            "components": [c.to_dict() for c in self.components],
            "certificates": [c.to_dict() for c in self.certificates]
            if self.certificates
            else None,
        }

    @classmethod
    def from_dict(cls, doc: dict, base_dir=None) -> "LiftedApproximator":
        """Inverse of :meth:`to_dict`; grid payload files resolve against
        ``base_dir``. The stated ``D`` must match the flows' dimensions."""
        flows = [FlowMap.from_dict(c, base_dir) for c in doc["components"]]
        certs = doc.get("certificates")
        certs = [ErrorCertificate.from_dict(c) for c in certs] if certs else None
        mode = "joint" if doc.get("kind") == _KINDS["joint"] else "componentwise"
        approx = cls(flows, _number(doc["d"], numbers.Integral), certificates=certs, mode=mode)
        if approx.D != _number(doc["D"], numbers.Integral):
            raise ValueError(f"manifest states D={doc['D']}, its flows carry {approx.D} outputs")
        return approx


# The old joint class name, kept only for the "JointLiftedApproximator.apply"
# line of TARGETS in perfbench/tracing.py; it goes with that line.
JointLiftedApproximator = LiftedApproximator


def exact_lift(components, d: int, lipschitz) -> LiftedApproximator:
    """Lift analytic scalar components, each flowed by its one exact step."""
    lipschitz = np.broadcast_to(np.asarray(lipschitz, dtype=float), (len(components),))
    flows = [FlowMap(lift_field([g], d, L)) for g, L in zip(components, lipschitz)]
    return LiftedApproximator(flows, d)


def approximate_lipschitz_function(
    f,
    n: int,
    d: int,
    D: int,
    lipschitz,
    mode: str = "componentwise",
) -> tuple[LiftedApproximator, ErrorCertificate]:
    """Grid-approximate each lifted component field and wrap as flows.

    ``f`` is the list of the D scalar components f_i of f: R^d -> R^D.
    Componentwise mode lifts each f_i into d+1 dimensions (the default):
    it is the joint lift with D=1, once per component; ``mode='joint'``
    lifts all D components on R^(d+D) at once. Either way a lift samples
    its components on the d-dimensional x-grid only, since the lifted
    field is constant in y, and is one exact step of the lift of that
    grid field: the approximator is linear interpolation of the vertex
    values, on the cube and off it.

    Returns the approximator together with the worst-component
    certificate 2 ||omega(d/(2n))|| e^{max(1, L_i)}; per-component
    certificates ride on the approximator.
    """
    if n < 1:
        raise ValueError("grid parameter n must be >= 1")
    if mode not in _KINDS:
        raise ValueError("mode must be 'componentwise' or 'joint'")
    if len(f) != D:
        raise ValueError(f"need D={D} component functions, got {len(f)}")
    lipschitz = np.broadcast_to(np.asarray(lipschitz, dtype=float), (D,)).copy()
    groups = [(f, lipschitz)] if mode == "joint" else [
        ([g], [L]) for g, L in zip(f, lipschitz)
    ]
    flows, certs = zip(*(_lift_flow(g, n, d, L) for g, L in groups))
    worst = max(certs, key=lambda c: c.total_bound)
    return LiftedApproximator(list(flows), d, list(certs), mode), worst


def _lift_flow(comps, n, d, lipschitz):
    """The one exact step of the lift of the D = len(comps) components'
    grid field on the d-dimensional x-grid, with its one-stage certificate
    2 ||omega(d/(2n))|| e^{max(1, L_i)}."""
    gridvf = grid_realize(
        lambda X: np.column_stack([np.asarray(g(X), dtype=float).reshape(-1) for g in comps]),
        d, n, lipschitz)
    # the lifted field's modulus: zero on the x components
    omega = np.concatenate([np.zeros(d), gridvf.report.modulus_bound])
    cert = ErrorCertificate.from_stages([(omega, max(1.0, float(np.max(lipschitz))))], n)
    return FlowMap(lift_field(gridvf, d)), cert


# ---------------------------------------------------------------------------
# target-function registry


def _abs2x1(X):
    return np.abs(2.0 * X[:, 0] - 1.0)


def _square(X):
    return X[:, 0] ** 2


def _sin01(X):
    return 0.5 + 0.5 * np.sin(2.0 * np.pi * X[:, 0])


def _sin_windowed(X):
    # signed target: its lifted trajectories leave the cube below y = 0
    return np.sin(2.0 * np.pi * X[:, 0]) * _plateau(X[:, 0])


LIFT_FUNCTIONS = {
    # id -> (callables, d, D, per-component Lipschitz constants)
    "abs2x1": ([_abs2x1], 1, 1, [2.0]),
    "square": ([_square], 1, 1, [2.0]),
    "sin01": ([_sin01], 1, 1, [math.pi]),
    "sin_windowed": ([_sin_windowed], 1, 1, [2.0 * math.pi + 4.0]),
    "affine_pair": ([lambda X: X[:, 0], lambda X: 1.0 - X[:, 0]], 1, 2, [1.0, 1.0]),
}


def lift_function(function_id: str):
    if function_id not in LIFT_FUNCTIONS:
        raise KeyError(
            f"unknown lift target {function_id!r}; known: {sorted(LIFT_FUNCTIONS)}"
        )
    return LIFT_FUNCTIONS[function_id]


def function_from_samples(xs, ys):
    """1-d Lipschitz target from sample pairs: their piecewise-linear
    interpolant, whose Lipschitz constant is exactly the largest slope
    |dy/dx| between neighbouring samples. A repeated x is a ValueError, since
    the samples are then not a function; a slope past the float range is a
    FloatingPointError."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
        raise ValueError("need matching 1-d sample arrays with at least two points")
    order = np.argsort(xs)
    xs, ys = xs[order], ys[order]
    if (dx := np.diff(xs)).min() == 0:
        raise ValueError(f"x = {float(xs[np.argmin(dx)])} is repeated: the samples are not "
                         "a function")
    with np.errstate(over="raise"):
        lipschitz = float(np.max(np.abs(np.diff(ys) / dx)))

    def g(X):
        return np.interp(X[:, 0], xs, ys)

    return [g], 1, 1, [lipschitz]


# ---------------------------------------------------------------------------
# manifests


def save_lifted(approx: LiftedApproximator, out_dir: str, name: str = "manifest.json") -> str:
    return _write_manifest(approx.to_dict(), "components", approx.components, out_dir, name)


def load_lifted(path: str) -> LiftedApproximator:
    return read_manifest(path, LiftedApproximator.from_dict)


def verify_lifted_manifest(path: str) -> dict:
    """Recheck that a lifted manifest's certificates are recomputable, one
    per component. As in :func:`verify_manifest`, the pairs are recomputed
    while it is read."""

    def pairs(doc, base):
        approx = LiftedApproximator.from_dict(doc, base)
        out = {"certificates": (len(approx.certificates or []), len(approx.components))}
        for i, c in enumerate(approx.certificates or []):
            out[f"component{i}_certificate"] = (c.total_bound, c.recompute_total())
            out[f"component{i}_lipschitz_product"] = (c.lipschitz_product, c.recompute_product())
        return out

    return _check_stated(read_manifest(path, pairs))
