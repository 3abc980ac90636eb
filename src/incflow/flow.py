"""Time-1 flows of autonomous fields, their composition into incremental
generators, and the error/Lipschitz certificates attached to them.

A :class:`FlowMap` is always exact: the field's closed-form time-±1 map
``field.flow``, which every builtin field (the linear ones, the
disc-clipped rotation and squeeze, ``sin_bump``), every grid field and
every lift carry, so ``approx-flow`` measures against exact flows too.
Certificates are statements about the exact flows, so the stages of
:func:`approximate_generator` are covered with no integration term.
Fixed-step RK4 (:func:`integrate`) serves only the probe's fit, whose
objective is defined by RK4, and the tests' oracles.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .fields import (
    FlowIntegrationError,
    VectorField,
    _number,
    builtin_field,
    field_from_ref,
    finite_float,
    grid_relu_approximate,
    write_json,
)

__all__ = [
    "FlowIntegrationError",
    "FlowMap",
    "IncrementalGenerator",
    "ErrorCertificate",
    "ManifestError",
    "integrate",
    "approximate_generator",
    "empirical_lipschitz",
    "builtin_generator",
    "BUILTIN_GENERATORS",
    "save_generator",
    "load_generator",
    "verify_manifest",
    "read_manifest",
]

DEFAULT_T_BUDGET = 16  # incrementality budget; the dimensional constant is nonconstructive
# the one integrator record a manifest flow states; a manifest format change may drop it
_EXACT = {"method": "exact", "steps": 1}


@dataclass(frozen=True)
class FlowMap:
    """Exact time-1 map of an autonomous field: its closed form
    ``field.flow`` at t = 1, or at t = -1 for ``direction='backward'``,
    which inverts the forward map (autonomy gives time-reversal symmetry).
    A field without a closed form is a ValueError.
    """

    field: VectorField
    direction: str = "forward"

    # perfbench's tracer reads it for flow.point_steps; it goes when that counter does
    steps = 1

    def __post_init__(self):
        if self.direction not in ("forward", "backward"):
            raise ValueError("direction must be 'forward' or 'backward'")
        if self.field.flow is None:
            raise ValueError(f"field {self.field.ref} has no closed-form flow")

    @property
    def dim(self) -> int:
        return self.field.dim

    def apply(self, x) -> np.ndarray:
        """Map the rows of ``x`` by the flow for unit time.

        A grid-backed field (a grid stage or a lift of an x-grid) goes
        straight to its closed form on every row: that form returns the
        rows where the field is 0 as they are, and a zero test first would
        cost a second hat-sum. Every other field is evaluated once on the
        finite rows, and only the rows where it is nonzero are mapped; the
        others are fixed points. A non-finite row raises
        :class:`FlowIntegrationError` at step 0.
        """
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        X = np.atleast_2d(x)
        if self.field.grid is not None:
            if X.shape[1] != self.dim:
                raise ValueError(f"points have dim {X.shape[1]}, field has {self.dim}")
            X = self._map(X)
            return X[0] if single else X
        X = X.copy()
        finite = np.isfinite(X).all(axis=1)
        live = ~finite
        live[finite] = (self.field.eval(X[finite]) != 0).any(axis=1)
        if live.all() and len(X):
            X = self._map(X)
        elif live.any():
            X[live] = self._map(X[live])
        return X[0] if single else X

    __call__ = apply

    def _map(self, X: np.ndarray) -> np.ndarray:
        X = self.field.flow(X, 1.0 if self.direction == "forward" else -1.0)
        if not np.isfinite(X).all():
            raise FlowIntegrationError(0)
        return X

    def inverse(self) -> "FlowMap":
        return FlowMap(self.field, "backward" if self.direction == "forward" else "forward")

    def to_dict(self) -> dict:
        return {"field": self.field.ref, "direction": self.direction, "integrator": dict(_EXACT)}

    @classmethod
    def from_dict(cls, d: dict, base_dir=None) -> "FlowMap":
        """Inverse of :meth:`to_dict`; grid payload files resolve against
        ``base_dir``. Every flow is exact, so any integrator record other
        than ``_EXACT`` (an ``rk4`` one, as manifests stated before every
        flow was exact) is a ValueError."""
        field = field_from_ref(d["field"], base_dir)
        # json compares types too: True and 1.0 both == 1
        if json.dumps(d["integrator"], sort_keys=True) != json.dumps(_EXACT):
            raise ValueError(f"integrator {d['integrator']!r}: a flow stating other than "
                             f"{_EXACT} is the manifest format before every flow was exact; "
                             "run approx-flow or lift-approx again")
        return cls(field, d["direction"])


def integrate(f, X: np.ndarray, steps: int, sign: float = 1.0) -> np.ndarray:
    """Fixed-step RK4 integration of x' = sign * f(x) over unit time from the rows of ``X``.

    The package's one step loop: the probe's fit runs it on a batched grid
    interpolant, and the tests use it as the oracle of the closed forms. Raises
    :class:`FlowIntegrationError` at the first step that leaves a
    non-finite state.
    """
    h = sign / steps
    for k in range(steps):
        k1 = f(X)
        k2 = f(X + 0.5 * h * k1)
        k3 = f(X + 0.5 * h * k2)
        k4 = f(X + h * k3)
        X = X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(X).all():
            raise FlowIntegrationError(k)
    return X


@dataclass
class ErrorCertificate:
    """Composition error bound sum_t 2 ||omega_t(d/2n)||_inf prod_{j>=t} e^{L_j}.

    ``per_stage`` holds, for stage t, the componentwise modulus value at
    d/(2n) and the stage field's Lipschitz bound; the total and the
    Lipschitz product are recomputable from those two columns alone.
    """

    per_stage: list[tuple[np.ndarray, float]]
    total_bound: float
    n: int
    lipschitz_product: float

    @classmethod
    def from_stages(cls, per_stage, n: int) -> "ErrorCertificate":
        """The certificate of the stage columns ``[(omega_t, L_t), ...]``:
        their composition total and the Lipschitz factor prod_t e^{L_t}."""
        cert = cls(per_stage, 0.0, n, 0.0)
        cert.total_bound, cert.lipschitz_product = cert.recompute_total(), cert.recompute_product()
        return cert

    def recompute_product(self) -> float:
        return math.prod(math.exp(L) for _, L in self.per_stage)

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
        real = numbers.Real
        per_stage = [
            (np.array([_number(w, real) for w in s["omega"]], dtype=float),
             _number(s["lipschitz"], real))
            for s in d["per_stage"]
        ]
        return cls(per_stage, _number(d["total_bound"], real),
                   _number(d["n"], numbers.Integral), _number(d["lipschitz_product"], real))


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


def approximate_generator(fields: list[VectorField], n: int) -> IncrementalGenerator:
    """Stagewise approximation of a composition of flows, stage 1 first.

    Each stage is the exact flow of the ReLU-realizable grid approximant
    of its field (its closed form, simplex by simplex), so the generator's
    certificate sum_t 2 ||omega_t(d/2n)||_inf prod_{j>=t} e^{L_j}, with
    omega_t(s) = L_t s from each true stage field's Lipschitz bound (the
    grid report's ``modulus_bound``), covers the computed composition
    with no integration term. Each field
    vanishes on the cube's boundary vertices, so its approximant is zero
    on and outside the cube: every stage fixes each face point and keeps
    the cube.
    """
    stages = [FlowMap(grid_relu_approximate(f, n)) for f in fields]
    columns = [(s.field.report.modulus_bound, f.lipschitz_bound) for s, f in zip(stages, fields)]
    return IncrementalGenerator(stages, ErrorCertificate.from_stages(columns, n))


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


_GENERATOR_STAGES = {  # builtin field ids, stage 1 first
    "identity2": ("zero", "zero"),
    "counterexample": ("squeeze_clipped", "rotation_clipped"),
    "rotation_only": ("rotation_clipped",),
    "squeeze_only": ("squeeze_clipped",),
}
BUILTIN_GENERATORS = tuple(_GENERATOR_STAGES)


def builtin_generator(gen_id: str) -> IncrementalGenerator:
    """A builtin generator; each stage is the exact flow of its field."""
    if gen_id not in _GENERATOR_STAGES:
        raise KeyError(f"unknown generator id {gen_id!r}; known: {BUILTIN_GENERATORS}")
    return IncrementalGenerator([FlowMap(builtin_field(f)) for f in _GENERATOR_STAGES[gen_id]])


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
    write_json(path, doc)
    return path


def read_manifest(path: str, build):
    """``build(doc, base_dir)`` for the JSON object saved at ``path``.

    Everything in a manifest is input, so each error that reading it or
    rebuilding from it raises on malformed content (a missing or truncated
    grid payload, an unknown field backend, a wrong type, a missing key or
    a non-finite number anywhere) is raised as :class:`ManifestError`.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh, parse_constant=finite_float, parse_float=finite_float)
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
    are recomputable from the manifest alone, and that the certificate has
    one column per stage: a dropped stage whose e^L is 1 leaves both
    products as stated. The pairs are recomputed while the manifest is
    read, so a stage column whose e^L overflows is a
    :class:`ManifestError`: the program never writes such a manifest."""

    def pairs(doc, base):
        gen = IncrementalGenerator.from_dict(doc, base)
        out = {"lipschitz_product": (_number(doc["lipschitz_bound"], numbers.Real),
                                     gen.lipschitz_bound)}
        if (cert := gen.certificate) is not None:
            out["certificate_total"] = (cert.total_bound, cert.recompute_total())
            out["certificate_lipschitz_product"] = (cert.lipschitz_product,
                                                    cert.recompute_product())
            out["certificate_stages"] = (len(cert.per_stage), len(gen.stages))
        return out

    return _check_stated(read_manifest(path, pairs))
