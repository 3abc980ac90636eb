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
    "ManifestError",
    "integrate",
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
    "read_manifest",
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
        the row and each step adds zero. They equal the integrated rows in
        value; a zero coordinate keeps its sign, which adding a signed
        zero may flip. Non-finite rows are integrated and raise
        :class:`FlowIntegrationError` at step 0.
        """
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        X = np.atleast_2d(x).copy()
        sign = 1.0 if self.direction == "forward" else -1.0
        live = None
        box = self.field.support_box
        if box is not None and X.shape[1] == self.dim:  # field.eval rejects a wrong width
            live = ((X >= box[0]) & (X <= box[1])).all(axis=1) | ~np.isfinite(X).all(axis=1)
            live = None if live.all() else live
        if live is None:
            X = integrate(self.field.eval, X, self.steps, sign, self.method)
        elif live.any():
            X[live] = integrate(self.field.eval, X[live], self.steps, sign, self.method)
        return X[0] if single else X

    __call__ = apply

    def inverse(self) -> "FlowMap":
        flipped = "backward" if self.direction == "forward" else "forward"
        return FlowMap(self.field, flipped, self.steps, self.method)

    def to_dict(self) -> dict:
        return {
            "field": self.field.ref,
            "direction": self.direction,
            "integrator": {"method": self.method, "steps": self.steps},
        }

    @classmethod
    def from_dict(cls, d: dict, base_dir=None) -> "FlowMap":
        """Inverse of :meth:`to_dict`; grid payload files resolve against ``base_dir``."""
        integrator = d["integrator"]
        return cls(field_from_ref(d["field"], base_dir), d["direction"],
                   integrator["steps"], integrator["method"])


def integrate(f, X: np.ndarray, steps: int, sign: float = 1.0, method: str = "rk4") -> np.ndarray:
    """Fixed-step integration of x' = sign * f(x) over unit time from the rows of ``X``.

    The package's one step loop: :meth:`FlowMap.apply` runs it on a
    field's ``eval``, the fit poll of the probe on a batched grid
    interpolant. Raises :class:`FlowIntegrationError` at the first step
    that leaves a non-finite state.
    """
    h = sign / steps
    for k in range(steps):
        if method == "euler":
            X = X + h * f(X)
        else:
            k1 = f(X)
            k2 = f(X + 0.5 * h * k1)
            k3 = f(X + 0.5 * h * k2)
            k4 = f(X + h * k3)
            X = X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(X)):
            raise FlowIntegrationError(k)
    return X


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

    @classmethod
    def from_stages(cls, per_stage, n: int) -> "ErrorCertificate":
        """The certificate of the stage columns ``[(omega_t, L_t), ...]``:
        their composition total and the Lipschitz factor prod_t e^{L_t}."""
        cert = cls(per_stage, 0.0, n, math.prod(math.exp(L) for _, L in per_stage))
        cert.total_bound = cert.recompute_total()
        return cert

    def recompute_total(self) -> float:
        total = 0.0
        for t, (omega, _) in enumerate(self.per_stage):
            tail = math.prod(math.exp(L) for _, L in self.per_stage[t:])
            total += 2.0 * float(np.max(np.abs(omega))) * tail
        return total

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

    def to_dict(self) -> dict:
        return {
            "kind": "incremental_generator",
            "dim": self.dim,
            "incrementality": self.incrementality,
            "lipschitz_bound": self.lipschitz_bound,
            "stages": [s.to_dict() for s in self.stages],
            "certificate": self.certificate.to_dict() if self.certificate else None,
        }

    @classmethod
    def from_dict(cls, doc: dict, base_dir=None) -> "IncrementalGenerator":
        """Inverse of :meth:`to_dict`; grid payload files resolve against ``base_dir``."""
        cert = doc.get("certificate")
        return cls([FlowMap.from_dict(s, base_dir) for s in doc["stages"]],
                   ErrorCertificate.from_dict(cert) if cert else None)


def _stage_certificate(gen: IncrementalGenerator, moduli: list[Modulus], t, n: int):
    if len(moduli) != gen.incrementality:
        raise ValueError(
            f"need one modulus per stage: got {len(moduli)} for T={gen.incrementality}"
        )
    per_stage = [(np.asarray(m(t)), s.field.lipschitz_bound) for m, s in zip(moduli, gen.stages)]
    return ErrorCertificate.from_stages(per_stage, n)


def certify(gen: IncrementalGenerator, moduli: list[Modulus], n: int) -> ErrorCertificate:
    """Evaluate the composition bound for the generator's stage fields.

    ``moduli[t]`` is the modulus of regularity of stage t's underlying
    field; the certificate also reports the generator's Lipschitz factor
    prod_t e^{L_t}.
    """
    return _stage_certificate(gen, moduli, gen.dim / (2.0 * n), n)


def certify_smooth(
    gen: IncrementalGenerator, moduli: list[Modulus], N: int, L: int
) -> ErrorCertificate:
    """Composition bound with smooth-rate moduli, argument packed (N, L).

    Bound calculator only: the deep network of the smooth case is not
    constructed, so the certificate's n field records N and the grid
    machinery is untouched.
    """
    return _stage_certificate(gen, moduli, (N, L), N)


def approximate_flowable(
    field: VectorField,
    modulus: Modulus,
    n: int,
    steps: int = DEFAULT_STEPS,
) -> tuple[FlowMap, ErrorCertificate]:
    """Grid-approximate a supported field, clip to the unit cube, and wrap
    as a flow.

    Returns the flow of the clipped ReLU-realizable approximant together
    with the single-stage certificate 2 ||omega(d/2n)||_inf e^{L}. The
    cutoff width is delta = min(0.2, ||omega(d/2n)|| / C) with C an
    estimate of sup|V| + sup|approximant|, so the cutoff's own error
    contribution stays inside the certified bound.
    """
    d = field.dim
    gridvf, net, report = grid_relu_approximate(field, n, modulus)
    omega = np.asarray(modulus(d / (2.0 * n)))
    omega_sup = float(np.max(np.abs(omega)))
    big = float(np.abs(gridvf.grid.values).max())
    if field.support_box is not None:
        big += field.max_abs_on_box(per_axis=33)
    delta = max(min(0.2, omega_sup / big) if big > 0 else 0.5, 1e-9)
    clipped = box_bump_clip(gridvf, delta)
    clipped.report = report
    return FlowMap(clipped, steps=steps), ErrorCertificate.from_stages(
        [(omega, field.lipschitz_bound)], n
    )


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
    stages = [approximate_flowable(f, m, n, steps=steps) for f, m in zip(fields, moduli)]
    cert = ErrorCertificate.from_stages([c.per_stage[0] for _, c in stages], n)
    return IncrementalGenerator([fl for fl, _ in stages], cert), cert


def empirical_lipschitz(mapping, samples: int = 10_000, seed: int = 0) -> float:
    """Sampled lower estimate max |F(x)-F(y)|_inf / |x-y|_inf over pairs
    drawn uniformly from the unit cube in ``mapping.dim`` dimensions.

    Deterministic given the seed; used to audit certified upper bounds,
    never to replace them.
    """
    dim = mapping.dim
    rng = np.random.default_rng(seed)
    lo, hi = np.zeros(dim), np.ones(dim)
    X = rng.uniform(lo, hi, size=(samples, dim))
    Y = rng.uniform(lo, hi, size=(samples, dim))
    gap = np.abs(X - Y).max(axis=1)
    keep = gap > 1e-12
    X, Y, gap = X[keep], Y[keep], gap[keep]
    num = np.abs(mapping(X) - mapping(Y)).max(axis=1)
    return float((num / gap).max())


# ---------------------------------------------------------------------------
# builtin generators


BUILTIN_GENERATORS = ("identity2", "counterexample", "rotation_only", "squeeze_only")


def builtin_generator(gen_id: str, steps: int = DEFAULT_STEPS) -> IncrementalGenerator:
    if gen_id == "identity2":
        z = builtin_field("zero")
        return IncrementalGenerator([FlowMap(z, steps=steps), FlowMap(z, steps=steps)])
    if gen_id == "counterexample":
        return IncrementalGenerator([FlowMap(builtin_field("squeeze_clipped"), steps=steps),
                                     FlowMap(builtin_field("rotation_clipped"), steps=steps)])
    if gen_id == "rotation_only":
        return IncrementalGenerator([FlowMap(builtin_field("rotation_clipped"), steps=steps)])
    if gen_id == "squeeze_only":
        return IncrementalGenerator([FlowMap(builtin_field("squeeze_clipped"), steps=steps)])
    raise KeyError(f"unknown generator id {gen_id!r}; known: {BUILTIN_GENERATORS}")


# ---------------------------------------------------------------------------
# manifests: one writer, one reader and one check for generators and lifts


class ManifestError(ValueError):
    """A manifest that cannot be read or rebuilt."""


def _write_manifest(doc: dict, key: str, flows, out_dir: str, name: str) -> str:
    """Write ``doc`` as ``out_dir/name``, first saving the grid payload of
    each flow listed under ``doc[key]`` next to it (``stage0_grid.bin``
    for key ``"stages"``, ``component0_grid.bin`` for ``"components"``)."""
    os.makedirs(out_dir, exist_ok=True)
    for k, (flow_doc, flow) in enumerate(zip(doc[key], flows)):
        if flow.field.grid is None:
            continue
        # a copy, so the field's own ref stays free of payload file names
        node = flow_doc["field"] = json.loads(json.dumps(flow_doc["field"]))
        while isinstance(node, dict):
            if node.get("backend") == "grid" and "file" not in node:
                node["file"] = f"{key[:-1]}{k}_grid.bin"
                flow.field.grid.save(os.path.join(out_dir, node["file"]))
            node = node.get("inner")
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def read_manifest(path: str, build):
    """``build(doc, base_dir)`` for the JSON object saved at ``path``.

    Everything in a manifest is input, so each error that reading it or
    rebuilding from it raises on malformed content (a missing or truncated
    grid payload, an unknown field backend, a wrong type or a missing key
    anywhere) is raised as :class:`ManifestError`.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise TypeError("not a JSON object")
        return build(doc, os.path.dirname(path))
    except (OSError, ValueError, LookupError, TypeError, AttributeError, ArithmeticError,
            RecursionError) as e:
        raise ManifestError(f"cannot read manifest {path}: {type(e).__name__}: {e}") from e


_REL_TOL = 1e-12


def _check_stated(pairs: dict) -> dict:
    """Compare each ``name -> (stated, recomputed)`` pair to ``_REL_TOL``;
    ``ok`` needs at least one pair and every pair to agree."""
    checks = {
        name: {"stated": s, "recomputed": r, "ok": abs(s - r) <= _REL_TOL * max(1.0, abs(s))}
        for name, (s, r) in pairs.items()
    }
    checks["ok"] = bool(pairs) and all(c["ok"] for c in checks.values())
    return checks


def save_generator(gen: IncrementalGenerator, out_dir: str, name: str = "manifest.json") -> str:
    return _write_manifest(gen.to_dict(), "stages", gen.stages, out_dir, name)


def load_generator(path: str) -> IncrementalGenerator:
    return read_manifest(path, IncrementalGenerator.from_dict)


def verify_manifest(path: str) -> dict:
    """Recheck that a saved manifest's certificate and Lipschitz product
    are recomputable from the manifest alone."""
    gen, stated = read_manifest(
        path, lambda doc, base: (IncrementalGenerator.from_dict(doc, base),
                                 float(doc["lipschitz_bound"]))
    )
    pairs = {"lipschitz_product": (stated, gen.lipschitz_bound)}
    if gen.certificate is not None:
        pairs["certificate_total"] = (gen.certificate.total_bound,
                                      gen.certificate.recompute_total())
    return _check_stated(pairs)
