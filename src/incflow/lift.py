"""One-extra-dimension lifting: realize Lipschitz maps R^d -> R^D as
time-1 flows.

A scalar g on [0,1]^d induces the (d+1)-dimensional field
V(x, y) = (0, ..., 0, g(x)). Its exact time-1 flow sends (x, y) to
(x, y + g(x)), so embedding x at (x, 0), flowing for unit time, and
projecting onto the last coordinate recovers g(x) exactly. Approximating
the lifted field on a grid turns this identity into a constructive
approximation scheme whose error is pure field-approximation error: the
first d components of the lifted field are identically zero, so the
exact flow of an analytic lift is one Euler step (:func:`exact_lift`).
A grid lift whose lift-component vertex values lie in [0, 1] is one
Euler step too, its exact flow; any other grid lift is integrated as a
256-step RK4 flow.

Both lift modes are one class, :class:`LiftedApproximator`, whose flows'
outputs are concatenated: componentwise mode (the default) has D flows
on R^(d+1), one per output component, joint mode one flow on R^(d+D).
"""

from __future__ import annotations

import math

import numpy as np

from .fields import (
    LipschitzModulus,
    VectorField,
    _plateau,
    box_bump_clip,
    grid_realize,
)
from .flow import (
    DEFAULT_STEPS,
    ErrorCertificate,
    FlowMap,
    _check_stated,
    _write_manifest,
    read_manifest,
)

__all__ = [
    "lift_field",
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


def lift_field(comps, d: int, lipschitz) -> VectorField:
    """Field (x, y) -> (0, g_1(x), ..., g_D(x)) on R^(d+D) of the D
    scalar components ``comps``, x in R^d and y in R^D.

    The declared Lipschitz bound is max(1, max_i L_i) over the component
    bounds ``lipschitz``. Lifted fields are not compactly supported in
    general (g need not vanish on the cube boundary) and declare no
    support box; they are sampled on the cube by the grid machinery and
    clipped afterwards.
    """

    def ev(Z):
        out = np.zeros_like(Z)
        for i, g in enumerate(comps):
            out[:, d + i] = np.asarray(g(Z[:, :d]), dtype=float).reshape(-1)
        return out

    return VectorField(
        d + len(comps),
        ev,
        max(1.0, float(np.max(lipschitz))),
        ref={"backend": "lifted", "function": "opaque", "d": d},
    )


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
        self.d = int(d)
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
        approx = cls(flows, doc["d"], certificates=certs, mode=mode)
        if approx.D != doc["D"]:
            raise ValueError(f"manifest states D={doc['D']}, its flows carry {approx.D} outputs")
        return approx


# The old joint class name, kept only for the "JointLiftedApproximator.apply"
# line of TARGETS in perfbench/tracing.py; it goes with that line.
JointLiftedApproximator = LiftedApproximator


def exact_lift(components, d: int, lipschitz) -> LiftedApproximator:
    """Lift analytic scalar components with the exact one-step integrator."""
    lipschitz = np.broadcast_to(np.asarray(lipschitz, dtype=float), (len(components),))
    flows = [
        FlowMap(lift_field([g], d, L), steps=1, method="euler")
        for g, L in zip(components, lipschitz)
    ]
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
    it is the joint lift with D=1, once per component. The joint
    (d+D)-dimensional lift is available as ``mode='joint'`` but scales
    poorly in D. Each lift axis gets a single grid cell: the lifted field
    is constant in y, so on every simplex the interpolant is linear
    interpolation in x whatever the y resolution, and the certificate
    depends on the x resolution only.

    The cutoff is scaled to an enlarged box so that its identity region
    covers [0,1]^(d+D): on the cube the approximator's error is then pure
    interpolation error, which is what the certified rate describes, and
    the field is still compactly supported just outside the cube. A lift
    whose grid values lie in [0, 1] is integrated by one Euler step, its
    exact flow; any other by ``DEFAULT_STEPS`` RK4 steps.

    Returns the approximator together with the worst-component
    certificate 2 ||omega((d+1)/(2n))|| e^{max(1, L_i)}; per-component
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


def _one_step_is_exact(grid, d: int) -> bool:
    """Whether one Euler step is the exact time-1 flow, from every start
    (x, 0), of a lift grid on R^(d+D) that :func:`_lift_flow` built.

    Such a grid's first d components are 0 and each lift axis has one cell,
    so on [0,1]^(d+D) the interpolant is a function g(x) of x alone, and
    its cutoff, on the box (-1, 2), is the identity there. If every lift-component vertex value
    lies in [0, 1], the trajectory y(t) = t g(x) stays in the cube, and the
    time-1 flow (x, g(x)) is one Euler step up to its one rounding.
    """
    lift = grid.values[:, d:]
    return bool(((lift >= 0.0) & (lift <= 1.0)).all())


def _lift_flow(comps, n, d, lipschitz):
    """Flow of the grid-approximated joint lift (x, y) -> (0, g(x)) of the
    D = len(comps) components on R^(d+D), with its one-stage certificate
    2 ||omega((d+D)/(2n))|| e^{max(1, L_i)}."""
    field = lift_field(comps, d, lipschitz)
    dim = field.dim
    omega_vec = np.zeros(dim)
    omega_vec[d:] = lipschitz
    modulus = LipschitzModulus(omega_vec)
    omega = modulus(dim / (2.0 * n))
    gridvf, _, report = grid_realize(field.eval, dim, n, modulus,
                                     ns=(n,) * d + (1,) * len(comps))
    big = 2.0 * float(np.abs(gridvf.grid.values).max())
    delta = max(min(0.2, float(np.max(omega)) / big) if big > 0 else 0.2, 1e-9)
    # pad 1 >= delta and every cell width: folds land a cell out, where the hats are zero
    clipped = box_bump_clip(gridvf, delta, box=(-1.0, 2.0))
    clipped.report = report
    cert = ErrorCertificate.from_stages([(omega, field.lipschitz_bound)], n)
    if _one_step_is_exact(gridvf.grid, d):
        return FlowMap(clipped, steps=1, method="euler"), cert
    return FlowMap(clipped, steps=DEFAULT_STEPS), cert


# ---------------------------------------------------------------------------
# target-function registry


def _abs2x1(X):
    return np.abs(2.0 * X[:, 0] - 1.0)


def _square(X):
    return X[:, 0] ** 2


def _sin01(X):
    return 0.5 + 0.5 * np.sin(2.0 * np.pi * X[:, 0])


def _sin_windowed(X):
    # signed target: its lifted trajectories exit the grid cube below
    # y = 0 wherever it is negative, so only the certificate bound (not
    # the clean 1/n rate) applies to it
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


def function_from_samples(xs, ys, lipschitz: float):
    """1-d Lipschitz target from sample pairs (piecewise-linear interpolation)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
        raise ValueError("need matching 1-d sample arrays with at least two points")
    order = np.argsort(xs)
    xs, ys = xs[order], ys[order]

    def g(X):
        return np.interp(X[:, 0], xs, ys)

    return [g], 1, 1, [float(lipschitz)]


# ---------------------------------------------------------------------------
# manifests


def save_lifted(approx: LiftedApproximator, out_dir: str, name: str = "manifest.json") -> str:
    return _write_manifest(approx.to_dict(), "components", approx.components, out_dir, name)


def load_lifted(path: str) -> LiftedApproximator:
    return read_manifest(path, LiftedApproximator.from_dict)


def verify_lifted_manifest(path: str) -> dict:
    """Recheck that a lifted manifest's certificates are recomputable, and
    that each component stating a one-step Euler integrator has a grid for
    which one step is its flow (:func:`_one_step_is_exact`). As in
    :func:`verify_manifest`, the pairs are recomputed while it is read."""

    def pairs(doc, base):
        approx = LiftedApproximator.from_dict(doc, base)
        out = {}
        for i, c in enumerate(approx.certificates or []):
            out[f"component{i}_certificate"] = (c.total_bound, c.recompute_total())
            out[f"component{i}_lipschitz_product"] = (c.lipschitz_product, c.recompute_product())
        for i, flow in enumerate(approx.components):
            if (flow.method, flow.steps) == ("euler", 1):
                grid = flow.field.grid
                exact = grid is not None and _one_step_is_exact(grid, approx.d)
                out[f"component{i}_one_step_exact"] = (True, exact)
        return out

    return _check_stated(read_manifest(path, pairs))
