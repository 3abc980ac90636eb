"""Time-1 flows of autonomous fields, their composition into incremental
generators, and the error/Lipschitz certificates attached to them.

Integration is fixed-step RK4. The flows of the underlying fields are
exact mathematical objects, so integration error is tracked separately
from the certified approximation bound: certificates are statements about
the exact flows, and the reference integrator (4096 steps) stands in for
them in empirical checks.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .fields import (
    Modulus,
    VectorField,
    box_bump_clip,
    builtin_field,
    field_from_ref,
    grid_relu_approximate,
)

__all__ = [
    "FlowIntegrationError",
    "FlowMap",
    "IncrementalGenerator",
    "ErrorCertificate",
    "flow_apply",
    "flow_inverse",
    "generator_apply",
    "certify",
    "certify_smooth",
    "approximate_flowable",
    "approximate_generator",
    "empirical_lipschitz",
    "reference_flow",
    "builtin_generator",
    "BUILTIN_GENERATORS",
    "save_generator",
    "load_generator",
    "verify_manifest",
]

DEFAULT_STEPS = 256
REFERENCE_STEPS = 4096
DEFAULT_T_BUDGET = 16  # incrementality budget; the dimensional constant is nonconstructive


class FlowIntegrationError(RuntimeError):
    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"non-finite state at integration step {step}")


@dataclass(frozen=True)
class FlowMap:
    """Time-1 solution map of an autonomous field.

    ``direction='backward'`` integrates the negated field, which inverts
    the forward map exactly for the underlying flow (autonomy gives
    time-reversal symmetry); with a fixed-step integrator the round trip
    closes up to integrator tolerance.
    """

    field: VectorField
    direction: str = "forward"
    steps: int = DEFAULT_STEPS
    method: str = "rk4"

    def __post_init__(self):
        if self.direction not in ("forward", "backward"):
            raise ValueError("direction must be 'forward' or 'backward'")
        if self.method not in ("rk4", "euler"):
            raise ValueError("method must be 'rk4' or 'euler'")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")

    @property
    def dim(self) -> int:
        return self.field.dim

    def apply(self, x) -> np.ndarray:
        """Integrate the rows of ``x`` for unit time.

        Rows outside the field's closed support box are returned as they
        are: the field is exactly zero there, so every stage point equals
        the row and each step adds zero. Non-finite rows are integrated
        and raise :class:`FlowIntegrationError` at step 0.
        """
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        X = np.atleast_2d(x).copy()
        box = self.field.support_box
        if box is None or X.shape[1] != self.dim:  # field.eval rejects a wrong width
            X = self._integrate(X)
        else:
            live = ((X >= box[0]) & (X <= box[1])).all(axis=1) | ~np.isfinite(X).all(axis=1)
            if live.all():
                X = self._integrate(X)
            elif live.any():
                X[live] = self._integrate(X[live])
        return X[0] if single else X

    __call__ = apply

    def _integrate(self, X: np.ndarray) -> np.ndarray:
        h = (1.0 if self.direction == "forward" else -1.0) / self.steps
        f = self.field.eval
        if self.method == "euler":
            for k in range(self.steps):
                X = X + h * f(X)
                if not np.all(np.isfinite(X)):
                    raise FlowIntegrationError(k)
        else:
            for k in range(self.steps):
                k1 = f(X)
                k2 = f(X + 0.5 * h * k1)
                k3 = f(X + 0.5 * h * k2)
                k4 = f(X + h * k3)
                X = X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                if not np.all(np.isfinite(X)):
                    raise FlowIntegrationError(k)
        return X

    def inverse(self) -> "FlowMap":
        flipped = "backward" if self.direction == "forward" else "forward"
        return FlowMap(self.field, flipped, self.steps, self.method)

    def to_dict(self) -> dict:
        return {
            "field": self.field.ref,
            "direction": self.direction,
            "integrator": {"method": self.method, "steps": self.steps},
        }


def flow_apply(flow: FlowMap, x) -> np.ndarray:
    return flow.apply(x)


def flow_inverse(flow: FlowMap) -> FlowMap:
    return flow.inverse()


def reference_flow(field: VectorField, steps: int = REFERENCE_STEPS) -> FlowMap:
    """Fine-step RK4 stand-in for the exact flow of an analytic field."""
    return FlowMap(field, steps=steps)


@dataclass
class ErrorCertificate:
    """Composition error bound sum_t 2 ||omega_t(d/2n)||_inf prod_{j>=t} e^{L_j}.

    ``per_stage`` holds, for stage t, the componentwise modulus value at
    d/(2n) and the stage field's Lipschitz bound; the total is
    recomputable from those two columns alone.
    """

    per_stage: list[tuple[np.ndarray, float]]
    total_bound: float
    n: int
    lipschitz_product: float = 1.0

    @staticmethod
    def total_from_stages(per_stage) -> float:
        T = len(per_stage)
        total = 0.0
        for t in range(T):
            omega, _ = per_stage[t]
            tail = math.prod(math.exp(L) for _, L in per_stage[t:])
            total += 2.0 * float(np.max(np.abs(omega))) * tail
        return total

    def recompute_total(self) -> float:
        return self.total_from_stages(self.per_stage)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "per_stage": [
                {"omega": np.asarray(om).tolist(), "lipschitz": float(L)}
                for om, L in self.per_stage
            ],
            "total_bound": self.total_bound,
            "lipschitz_product": self.lipschitz_product,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ErrorCertificate":
        per_stage = [
            (np.array(s["omega"], dtype=float), float(s["lipschitz"]))
            for s in d["per_stage"]
        ]
        return cls(per_stage, float(d["total_bound"]), int(d["n"]),
                   float(d.get("lipschitz_product", 1.0)))


class IncrementalGenerator:
    """Ordered composition of time-1 flows, stage 1 applied first.

    ``lipschitz_bound`` is the product of per-stage e^{L} factors, an
    upper bound for the Lipschitz constant of the composite map.
    """

    def __init__(self, stages: list[FlowMap], certificate: ErrorCertificate | None = None):
        if not stages:
            raise ValueError("a generator needs at least one stage")
        dims = {s.dim for s in stages}
        if len(dims) != 1:
            raise ValueError(f"stage dimensions disagree: {sorted(dims)}")
        self.stages = list(stages)
        self.certificate = certificate
        self.lipschitz_bound = math.prod(
            math.exp(s.field.lipschitz_bound) for s in stages
        )
        boxes = [s.field.support_box for s in stages]
        if any(b is None for b in boxes):
            self.support_box = None
        else:
            los = np.min([b[0] for b in boxes], axis=0)
            his = np.max([b[1] for b in boxes], axis=0)
            self.support_box = np.stack([los, his])

    @property
    def dim(self) -> int:
        return self.stages[0].dim

    @property
    def incrementality(self) -> int:
        return len(self.stages)

    def apply(self, x) -> np.ndarray:
        for stage in self.stages:
            x = stage.apply(x)
        return x

    __call__ = apply

    def inverse_apply(self, x) -> np.ndarray:
        for stage in reversed(self.stages):
            x = stage.inverse().apply(x)
        return x

    def to_dict(self) -> dict:
        return {
            "kind": "incremental_generator",
            "dim": self.dim,
            "incrementality": self.incrementality,
            "lipschitz_bound": self.lipschitz_bound,
            "stages": [s.to_dict() for s in self.stages],
            "certificate": self.certificate.to_dict() if self.certificate else None,
        }


def generator_apply(gen: IncrementalGenerator, x) -> np.ndarray:
    return gen.apply(x)


def certify(gen: IncrementalGenerator, moduli: list[Modulus], n: int) -> ErrorCertificate:
    """Evaluate the composition bound for the generator's stage fields.

    ``moduli[t]`` is the modulus of regularity of stage t's underlying
    field; the certificate also reports the generator's Lipschitz factor
    prod_t e^{L_t}.
    """
    if len(moduli) != gen.incrementality:
        raise ValueError(
            f"need one modulus per stage: got {len(moduli)} for T={gen.incrementality}"
        )
    d = gen.dim
    per_stage = [
        (np.asarray(m(d / (2.0 * n))), s.field.lipschitz_bound)
        for m, s in zip(moduli, gen.stages)
    ]
    total = ErrorCertificate.total_from_stages(per_stage)
    return ErrorCertificate(per_stage, total, n, gen.lipschitz_bound)


def certify_smooth(
    gen: IncrementalGenerator, moduli: list[Modulus], N: int, L: int
) -> ErrorCertificate:
    """Composition bound with smooth-rate moduli, argument packed (N, L).

    Bound calculator only: the deep network of the smooth case is not
    constructed, so the certificate's n field records N and the grid
    machinery is untouched.
    """
    if len(moduli) != gen.incrementality:
        raise ValueError(
            f"need one modulus per stage: got {len(moduli)} for T={gen.incrementality}"
        )
    per_stage = [
        (np.asarray(m((N, L))), s.field.lipschitz_bound)
        for m, s in zip(moduli, gen.stages)
    ]
    total = ErrorCertificate.total_from_stages(per_stage)
    return ErrorCertificate(per_stage, total, N, gen.lipschitz_bound)


def approximate_flowable(
    field: VectorField,
    modulus: Modulus,
    n: int,
    steps: int = DEFAULT_STEPS,
    delta: float | None = None,
    clip_box=(0.0, 1.0),
) -> tuple[FlowMap, ErrorCertificate]:
    """Grid-approximate a supported field, clip, and wrap as a flow.

    Returns the flow of the clipped ReLU-realizable approximant together
    with the single-stage certificate 2 ||omega(d/2n)||_inf e^{L}. The
    cutoff width defaults to delta = min(0.2, ||omega(d/2n)|| / C) with C
    an estimate of sup|V| + sup|approximant|, so the cutoff's own error
    contribution stays inside the certified bound.
    """
    d = field.dim
    gridvf, net, report = grid_relu_approximate(field, n, modulus)
    omega = np.asarray(modulus(d / (2.0 * n)))
    omega_sup = float(np.max(np.abs(omega)))
    if delta is None:
        big = float(np.abs(gridvf.grid.values).max())
        if field.support_box is not None:
            big += field.max_abs_on_box(per_axis=33)
        delta = min(0.2, omega_sup / big) if big > 0 else 0.5
        delta = max(delta, 1e-9)
    clipped = box_bump_clip(gridvf, delta, clip_box)
    clipped.report = report
    flow = FlowMap(clipped, steps=steps)
    per_stage = [(omega, field.lipschitz_bound)]
    cert = ErrorCertificate(
        per_stage,
        2.0 * omega_sup * math.exp(field.lipschitz_bound),
        n,
        math.exp(field.lipschitz_bound),
    )
    return flow, cert


def approximate_generator(
    fields: list[VectorField],
    moduli: list[Modulus],
    n: int,
    steps: int = DEFAULT_STEPS,
) -> tuple[IncrementalGenerator, ErrorCertificate]:
    """Stagewise approximation of a composition of flows.

    Each stage field is approximated and clipped independently; the
    certificate is the composition bound over the true stage fields.
    """
    if len(fields) != len(moduli):
        raise ValueError("need one modulus per stage field")
    stages = []
    per_stage = []
    d = fields[0].dim
    for f, m in zip(fields, moduli):
        fl, _ = approximate_flowable(f, m, n, steps=steps)
        stages.append(fl)
        per_stage.append((np.asarray(m(d / (2.0 * n))), f.lipschitz_bound))
    total = ErrorCertificate.total_from_stages(per_stage)
    lip = math.prod(math.exp(L) for _, L in per_stage)
    cert = ErrorCertificate(per_stage, total, n, lip)
    gen = IncrementalGenerator(stages, cert)
    return gen, cert


def empirical_lipschitz(
    mapping, samples: int = 10_000, seed: int = 0, dim: int | None = None, box=None
) -> float:
    """Sampled lower estimate max |F(x)-F(y)|_inf / |x-y|_inf.

    Deterministic given the seed; used to audit certified upper bounds,
    never to replace them.
    """
    apply = mapping.apply if hasattr(mapping, "apply") else mapping
    if dim is None:
        dim = mapping.dim
    rng = np.random.default_rng(seed)
    if box is None:
        lo, hi = np.zeros(dim), np.ones(dim)
    else:
        lo, hi = np.asarray(box[0], dtype=float), np.asarray(box[1], dtype=float)
    X = rng.uniform(lo, hi, size=(samples, dim))
    Y = rng.uniform(lo, hi, size=(samples, dim))
    gap = np.abs(X - Y).max(axis=1)
    keep = gap > 1e-12
    X, Y, gap = X[keep], Y[keep], gap[keep]
    num = np.abs(apply(X) - apply(Y)).max(axis=1)
    return float((num / gap).max())


# ---------------------------------------------------------------------------
# builtin generators


def _counterexample_stages(steps: int) -> list[FlowMap]:
    squeeze = builtin_field("squeeze_clipped")
    rotation = builtin_field("rotation_clipped")
    return [FlowMap(squeeze, steps=steps), FlowMap(rotation, steps=steps)]


BUILTIN_GENERATORS = ("identity2", "counterexample", "rotation_only", "squeeze_only")


def builtin_generator(gen_id: str, steps: int = DEFAULT_STEPS) -> IncrementalGenerator:
    if gen_id == "identity2":
        z = builtin_field("zero")
        return IncrementalGenerator([FlowMap(z, steps=steps), FlowMap(z, steps=steps)])
    if gen_id == "counterexample":
        return IncrementalGenerator(_counterexample_stages(steps))
    if gen_id == "rotation_only":
        return IncrementalGenerator([FlowMap(builtin_field("rotation_clipped"), steps=steps)])
    if gen_id == "squeeze_only":
        return IncrementalGenerator([FlowMap(builtin_field("squeeze_clipped"), steps=steps)])
    raise KeyError(f"unknown generator id {gen_id!r}; known: {BUILTIN_GENERATORS}")


# ---------------------------------------------------------------------------
# manifests


def _externalize_grid(ref: dict, field: VectorField, out_dir: str, prefix: str) -> dict:
    """Attach grid payload files to a field ref, saving them under out_dir."""
    ref = json.loads(json.dumps(ref))  # deep copy

    def walk(node):
        if not isinstance(node, dict):
            return
        if node.get("backend") == "grid" and "file" not in node:
            fname = f"{prefix}_grid.bin"
            field.grid.save(os.path.join(out_dir, fname))
            node["file"] = fname
        if "inner" in node:
            walk(node["inner"])

    walk(ref)
    return ref


def save_generator(gen: IncrementalGenerator, out_dir: str, name: str = "manifest.json") -> str:
    os.makedirs(out_dir, exist_ok=True)
    doc = gen.to_dict()
    for k, (stage_doc, stage) in enumerate(zip(doc["stages"], gen.stages)):
        if stage.field.grid is not None:
            stage_doc["field"] = _externalize_grid(
                stage_doc["field"], stage.field, out_dir, f"stage{k}"
            )
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def load_generator(path: str) -> IncrementalGenerator:
    with open(path) as fh:
        doc = json.load(fh)
    base = os.path.dirname(path)
    stages = []
    for s in doc["stages"]:
        f = field_from_ref(s["field"], base)
        stages.append(
            FlowMap(f, s["direction"], s["integrator"]["steps"], s["integrator"]["method"])
        )
    cert = None
    if doc.get("certificate"):
        cert = ErrorCertificate.from_dict(doc["certificate"])
    return IncrementalGenerator(stages, cert)


def verify_manifest(path: str, rel_tol: float = 1e-12) -> dict:
    """Recheck that a saved manifest's certificate and Lipschitz product
    are recomputable from the manifest alone."""
    gen = load_generator(path)
    checks = {}
    with open(path) as fh:
        doc = json.load(fh)
    lip_stages = math.prod(
        math.exp(s.field.lipschitz_bound) for s in gen.stages
    )
    stated = float(doc["lipschitz_bound"])
    checks["lipschitz_product"] = {
        "stated": stated,
        "recomputed": lip_stages,
        "ok": abs(stated - lip_stages) <= rel_tol * max(1.0, abs(stated)),
    }
    if gen.certificate is not None:
        recomputed = gen.certificate.recompute_total()
        stated_total = gen.certificate.total_bound
        checks["certificate_total"] = {
            "stated": stated_total,
            "recomputed": recomputed,
            "ok": abs(stated_total - recomputed)
            <= rel_tol * max(1.0, abs(stated_total)),
        }
    checks["ok"] = all(v["ok"] for v in checks.values() if isinstance(v, dict))
    return checks
