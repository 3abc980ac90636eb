"""One-extra-dimension lifting: realize Lipschitz maps R^d -> R^D as
time-1 flows.

A scalar g on [0,1]^d induces the (d+1)-dimensional field
V(x, y) = (0, ..., 0, g(x)). Its exact time-1 flow sends (x, y) to
(x, y + g(x)), so embedding x at (x, 0), flowing for unit time, and
projecting onto the last coordinate recovers g(x) exactly. Approximating
the lifted field on a grid turns this identity into a constructive
approximation scheme whose error is pure field-approximation error: the
first d components of the lifted field are identically zero, so the
integration itself is exact (a single Euler step already lands on the
answer).

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


def lift_field(g, d: int, lipschitz: float, ref: dict | None = None) -> VectorField:
    """Field (x, y) -> (0, ..., 0, g(x)) on R^(d+1).

    The declared Lipschitz bound is max(1, L_g). Lifted fields are not
    compactly supported in general (g need not vanish on the cube
    boundary); they are sampled on the cube by the grid machinery and
    clipped afterwards.
    """

    def ev(Z):
        out = np.zeros_like(Z)
        out[:, -1] = np.asarray(g(Z[:, :d]), dtype=float).reshape(-1)
        return out

    return VectorField(
        d + 1,
        ev,
        max(1.0, float(lipschitz)),
        support_box=None,
        ref=ref or {"backend": "lifted", "function": "opaque", "d": d},
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
        FlowMap(lift_field(g, d, L), steps=1, method="euler")
        for g, L in zip(components, lipschitz)
    ]
    return LiftedApproximator(flows, d)


def _component_callables(f, d: int, D: int):
    if isinstance(f, (list, tuple)):
        return list(f)

    def make(i):
        def gi(X):
            vals = np.asarray(f(X), dtype=float)
            if vals.ndim == 1:
                vals = vals[:, None]
            return vals[:, i]

        return gi

    return [make(i) for i in range(D)]


def approximate_lipschitz_function(
    f,
    n: int,
    d: int,
    D: int,
    lipschitz,
    mode: str = "componentwise",
    collapse_y: bool = False,
    steps: int = DEFAULT_STEPS,
    delta: float | None = None,
) -> tuple[LiftedApproximator, ErrorCertificate]:
    """Grid-approximate each lifted component field and wrap as flows.

    Componentwise mode lifts each f_i into d+1 dimensions (the default):
    it is the joint lift with D=1, once per component. The joint
    (d+D)-dimensional lift is available as ``mode='joint'`` but scales
    poorly in D. ``collapse_y`` reduces each dummy axis to a single cell:
    the lifted field is constant in y, so linear reproduction keeps this
    exact while shrinking the network.

    The cutoff is scaled to an enlarged box so that its identity region
    covers [0,1]^(d+D): on the cube the approximator's error is then pure
    interpolation error, which is what the certified rate describes, and
    the field is still compactly supported just outside the cube.

    Returns the approximator together with the worst-component
    certificate 2 ||omega((d+1)/(2n))|| e^{max(1, L_i)}; per-component
    certificates ride on the approximator.
    """
    if n < 1:
        raise ValueError("grid parameter n must be >= 1")
    if mode not in _KINDS:
        raise ValueError("mode must be 'componentwise' or 'joint'")
    lipschitz = np.broadcast_to(np.asarray(lipschitz, dtype=float), (D,)).copy()
    comps = _component_callables(f, d, D)
    groups = [(comps, lipschitz)] if mode == "joint" else [
        ([g], [L]) for g, L in zip(comps, lipschitz)
    ]
    flows, certs = zip(*(
        _lift_flow(g, n, d, L, collapse_y, steps, delta) for g, L in groups
    ))
    worst = max(certs, key=lambda c: c.total_bound)
    return LiftedApproximator(list(flows), d, list(certs), mode), worst


def _lift_flow(comps, n, d, lipschitz, collapse_y, steps, delta):
    """Flow of the grid-approximated joint lift (x, y) -> (0, g(x)) of the
    D = len(comps) components on R^(d+D), with its one-stage certificate
    2 ||omega((d+D)/(2n))|| e^{max(1, L_i)}."""
    D = len(comps)

    def joint_g(Z):
        X = Z[:, :d]
        out = np.zeros((Z.shape[0], Z.shape[1]))
        for i, g in enumerate(comps):
            out[:, d + i] = np.asarray(g(X), dtype=float).reshape(-1)
        return out

    dim = d + D
    omega_vec = np.zeros(dim)
    omega_vec[d:] = lipschitz
    modulus = LipschitzModulus(omega_vec)
    omega = modulus(dim / (2.0 * n))
    ns = (n,) * d + ((1,) if collapse_y else (n,)) * D
    gridvf, _, report = grid_realize(joint_g, dim, n, modulus, ns=ns)
    if delta is None:
        big = 2.0 * float(np.abs(gridvf.grid.values).max())
        delta = min(0.2, float(np.max(omega)) / big) if big > 0 else 0.2
        delta = max(delta, 1e-9)
    # pad >= delta keeps the cutoff's identity region over [0,1]^(d+D);
    # pad >= cell width makes exterior folds land where the hat
    # continuation is exactly zero (lifted fields do not vanish on the
    # cube boundary, so folding into the continuation shell would leak)
    pad = max(delta, *(1.0 / m for m in ns))
    clipped = box_bump_clip(gridvf, delta, box=(-pad, 1.0 + pad))
    clipped.report = report
    cert = ErrorCertificate.from_stages([(omega, max(1.0, float(np.max(lipschitz))))], n)
    return FlowMap(clipped, steps=steps), cert


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


def verify_lifted_manifest(path: str, rel_tol: float = 1e-12) -> dict:
    """Recheck that a lifted manifest's certificates are recomputable."""
    certs = load_lifted(path).certificates or []
    return _check_stated(
        {f"component{i}_certificate": (c.total_bound, c.recompute_total())
         for i, c in enumerate(certs)},
        rel_tol,
    )
