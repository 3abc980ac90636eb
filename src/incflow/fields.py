"""Lipschitz vector fields: analytic library, support clipping, and the
constructive grid-based ReLU approximant.

A :class:`VectorField` bundles an evaluator with the two facts every
certificate downstream needs: a support box outside which it vanishes
exactly, and an upper bound on its l_inf Lipschitz constant.

The grid approximant interpolates vertex samples over the Kuhn simplicial
subdivision of a uniform grid and is realized a second time as an exact
ReLU network built from the nodal hat function of that triangulation,
``relu(1 - max_i relu((x_i - v_i)/h) - max_i relu((v_i - x_i)/h))``.
The two code paths compute the same function and are cross-checked in the
test suite.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy import sparse

from .mlp import (
    _EVAL_ROWS, MLP, BumpSpec, affine_mlp, build_bump, bump_support, bump_values, compose, relu,
)

__all__ = [
    "Modulus",
    "LipschitzModulus",
    "HolderModulus",
    "SmoothRateModulus",
    "GridInterpolant",
    "GridPayloadError",
    "lattice",
    "VectorField",
    "ApproximationReport",
    "zero_field",
    "rotation_field",
    "squeeze_field",
    "radial_bump_clip",
    "box_bump_clip",
    "sin_bump_field",
    "grid_field",
    "grid_realize",
    "grid_relu_approximate",
    "grid_to_mlp",
    "field_from_ref",
    "builtin_field",
    "builtin_suite",
    "BUILTIN_FIELDS",
]


# ---------------------------------------------------------------------------
# moduli of regularity


class Modulus:
    """Componentwise modulus bound t -> omega(t), omega(0)=0, nondecreasing."""

    def __call__(self, t):
        raise NotImplementedError


class LipschitzModulus(Modulus):
    """omega(t) = L t, componentwise."""

    def __init__(self, L):
        self.L = np.atleast_1d(np.asarray(L, dtype=float))
        if np.any(self.L < 0):
            raise ValueError("Lipschitz constants must be >= 0")

    def __call__(self, t):
        if t < 0:
            raise ValueError("modulus argument must be >= 0")
        return self.L * t


class HolderModulus(Modulus):
    """omega(t) = C t^alpha, componentwise."""

    def __init__(self, C, alpha: float):
        self.C = np.atleast_1d(np.asarray(C, dtype=float))
        if not 0 < alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")
        self.alpha = float(alpha)

    def __call__(self, t):
        if t < 0:
            raise ValueError("modulus argument must be >= 0")
        return self.C * t**self.alpha


class SmoothRateModulus(Modulus):
    """Certificate-only rate for s-times differentiable fields.

    omega_j(N, L) = 85 (s+1)^d 8^s |V_j|_{C^s} (N L)^(-2s/d). This is a
    bound calculator; no deep network for the smooth case is constructed.
    The argument packs the two architecture parameters as a pair (N, L).
    """

    def __init__(self, s: int, dim: int, cs_norms):
        if s < 1:
            raise ValueError("smoothness s must be >= 1")
        self.s = int(s)
        self.dim = int(dim)
        self.cs_norms = np.atleast_1d(np.asarray(cs_norms, dtype=float))

    def __call__(self, t):
        try:
            N, L = t
        except TypeError:
            raise ValueError(
                "smooth_rate modulus expects the pair (N, L) as its argument"
            ) from None
        if N < 1 or L < 1:
            raise ValueError("N and L must be positive integers")
        const = 85.0 * (self.s + 1) ** self.dim * 8.0**self.s
        return const * self.cs_norms * float(N * L) ** (-2.0 * self.s / self.dim)


# ---------------------------------------------------------------------------
# Kuhn-grid interpolant


def lattice(counts, lo=0.0, hi=1.0) -> np.ndarray:
    """Rows of the tensor lattice with ``counts[i]`` evenly spaced points
    from ``lo`` to ``hi`` on axis i (scalars or per-axis arrays), in the
    grid's vertex order: lexicographic, axis 0 slowest."""
    counts = tuple(int(m) for m in counts)
    d = len(counts)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (d,))
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (d,))
    out = np.empty(counts + (d,))  # filled axis by axis, no meshgrid copies
    for i, m in enumerate(counts):
        out[..., i] = np.linspace(lo[i], hi[i], m).reshape((m,) + (1,) * (d - 1 - i))
    return out.reshape(-1, d)


class GridPayloadError(ValueError):
    """A grid payload file that is missing, unreadable or disagrees with its header."""


class GridInterpolant:
    """Continuous piecewise-linear interpolant on [0,1]^d.

    Each grid cell is split into d! simplices by the coordinate orderings
    of the local coordinates (Kuhn subdivision); ties break by ascending
    axis index. Vertex samples are reproduced exactly and the function is
    globally continuous. Outside the grid the nodal-hat continuation is
    used, which decays to zero within one cell width.

    Parameters
    ----------
    ns : tuple of int
        Per-axis subdivision counts (the uniform case is ``(n,) * d``).
    values : ndarray, shape (prod(ns_i + 1), out_dim) or (B, prod(ns_i + 1), out_dim)
        Vertex samples in lexicographic vertex order (axis 0 slowest). A
        batch of B sample arrays makes B interpolants on one grid. A batch
        is for evaluation only; the Lipschitz constant and the payload
        methods take a single sample array.
    block : int array, shape (rows,), batched values only
        Row r of every call is evaluated with ``values[block[r]]``, so a
        call takes exactly ``rows`` points. Blocks may interleave, differ
        in size or hold no row.
    """

    def __init__(self, ns, values, block=None):
        self.ns = tuple(int(n) for n in ns)
        if any(n < 1 for n in self.ns):
            raise ValueError("per-axis subdivision counts must be >= 1")
        self.dim = len(self.ns)
        values = np.asarray(values, dtype=float)
        nverts = int(np.prod([n + 1 for n in self.ns]))
        if values.ndim not in (2, 3) or values.shape[-2] != nverts:
            raise ValueError(
                f"values must have shape ([B,] {nverts}, out_dim), got {values.shape}"
            )
        self.values = values
        self.out_dim = values.shape[-1]
        self._shape = tuple(n + 1 for n in self.ns)
        self._nvec = np.array(self.ns, dtype=float)
        self._strides = np.cumprod((1,) + self._shape[:0:-1])[::-1].astype(np.int64)
        # (per-axis offsets, flat index offset) of the 2^d cell corners
        self._corners = [
            (offs, int(np.dot(offs, self._strides)))
            for offs in itertools.product((0, 1), repeat=self.dim)
        ]
        self._table = values.reshape(-1, self.out_dim)
        self._row_base = None  # per-row offset of the row's block in _table
        if (block is None) != (values.ndim == 2):
            raise ValueError("a per-row block index goes with batched values, and only there")
        if block is not None:
            block = np.asarray(block)
            if block.ndim != 1 or block.dtype.kind not in "iu":
                raise ValueError("the block index must be a 1-d integer array")
            if block.size and (block.min() < 0 or block.max() >= values.shape[0]):
                raise ValueError(f"block index out of range for {values.shape[0]} blocks")
            self._row_base = block.astype(np.int64) * nverts

    @classmethod
    def from_callable(cls, fn, ns) -> "GridInterpolant":
        ns = tuple(int(n) for n in ns)
        pts = lattice([n + 1 for n in ns])
        vals = np.asarray(fn(pts), dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape[0] != pts.shape[0]:
            raise ValueError("sampler returned wrong number of vertex values")
        return cls(ns, vals)

    def __call__(self, x) -> np.ndarray:
        """Hat-sum evaluation, valid on all of R^d (zero one cell out).

        The hat of corner v at x is ``relu(1 - max_i relu(t_i - v_i) -
        max_i relu(v_i - t_i))`` with t = x in grid units; both maxima are
        running maxima over the coordinate columns. Non-finite rows
        evaluate to NaN so a caller integrating a diverging trajectory sees
        the failure instead of an index crash.
        """
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        X = np.atleast_2d(x)
        if X.shape[1] != self.dim:
            raise ValueError(f"points have dim {X.shape[1]}, interpolant has {self.dim}")
        if self._row_base is not None and X.shape[0] != self._row_base.size:
            raise ValueError(
                f"{X.shape[0]} points for a block index of {self._row_base.size} rows"
            )
        bad = None
        if not np.isfinite(X).all():
            bad = ~np.isfinite(X).all(axis=1)
            X = np.where(bad[:, None], 0.0, X)
        out = np.zeros((X.shape[0], self.out_dim))
        for vert, lam in self._hats(X):
            out += lam[:, None] * self._table[vert]
        if bad is not None:
            out[bad] = np.nan
        return out[0] if single else out

    def _hats(self, X):
        """Yield, for each of the 2^d corners of the cell of every finite row
        of ``X`` in turn, the corner's row of the vertex table and its hat."""
        t = X * self._nvec  # grid units per axis
        anchor = np.clip(np.floor(t), 0, self._nvec - 1).astype(np.int64)
        base = anchor @ self._strides
        if self._row_base is not None:
            base += self._row_base
        # relu(+-(t_i - v_i)) for the lower (v_i = anchor_i) and upper corner
        up, down = [], []
        for i in range(self.dim):
            diffs = (t[:, i] - anchor[:, i], t[:, i] - (anchor[:, i] + 1))
            up.append([relu(dv) for dv in diffs])
            down.append([relu(-dv) for dv in diffs])
        for offs, flat in self._corners:
            a, b = up[0][offs[0]], down[0][offs[0]]
            for i in range(1, self.dim):
                a = np.maximum(a, up[i][offs[i]])
                b = np.maximum(b, down[i][offs[i]])
            yield base + flat, relu(1.0 - a - b)

    def lipschitz_linf(self) -> float:
        """Exact l_inf Lipschitz constant: max per-simplex affine slope."""
        grid = self.values.reshape(self._shape + (self.out_dim,))
        n_arr = np.array(self.ns, dtype=float)
        cells = tuple(slice(0, n) for n in self.ns)
        best = 0.0
        for perm in itertools.permutations(range(self.dim)):
            offset = [0] * self.dim
            prev = grid[cells]
            rowsum = np.zeros(prev.shape[:-1] + (self.out_dim,))
            for axis in perm:
                offset[axis] += 1
                sl = tuple(slice(o, o + n) for o, n in zip(offset, self.ns))
                cur = grid[sl]
                rowsum += np.abs(cur - prev) * n_arr[axis]
                prev = cur
            best = max(best, float(rowsum.max()))
        return best

    # -- serialization: binary payload + JSON sidecar ----------------------

    def to_bytes(self) -> bytes:
        head = struct.pack("<q", self.dim)
        head += b"".join(struct.pack("<q", n) for n in self.ns)
        head += struct.pack("<q", self.out_dim)
        return head + self.values.astype("<f8").tobytes(order="C")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "GridInterpolant":
        try:
            (dim,) = struct.unpack_from("<q", raw, 0)
            ns = struct.unpack_from(f"<{dim}q", raw, 8)
            (out_dim,) = struct.unpack_from("<q", raw, 8 + 8 * dim)
        except struct.error as e:
            raise GridPayloadError(f"grid payload header is truncated: {e}") from e
        nverts = int(np.prod([n + 1 for n in ns]))
        expected = 16 + 8 * dim + 8 * nverts * out_dim
        if len(raw) != expected:
            raise GridPayloadError(f"grid payload holds {len(raw)} bytes, header says {expected}")
        payload = np.frombuffer(raw, dtype="<f8", offset=16 + 8 * dim)
        return cls(ns, payload.reshape(nverts, out_dim).copy())

    def sidecar(self) -> dict:
        return {
            "dim": self.dim,
            "n": list(self.ns),
            "out_dim": self.out_dim,
            "vertices": int(np.prod(self._shape)),
            "order": "lexicographic, axis 0 slowest, little-endian float64",
        }

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())
        with open(str(path) + ".json", "w") as fh:
            json.dump(self.sidecar(), fh, sort_keys=True, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "GridInterpolant":
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as e:
            raise GridPayloadError(f"cannot read grid payload: {e}") from e
        return cls.from_bytes(raw)


# ---------------------------------------------------------------------------
# exact ReLU realization of the grid interpolant


def grid_to_mlp(gi: GridInterpolant) -> MLP:
    """ReLU network computing the interpolant exactly on all of R^d.

    Layers: shared per-axis leaves relu(+-(n_i x_i - k)); a pairwise max
    tree per vertex (ceil(log2 d) levels, carries shared where wires
    coincide); one hat unit per vertex; an affine output combining hats
    with the vertex samples. The max-tree and hat layers are CSR: each of
    their units reads at most four wires, so a dense matrix would be
    almost all zeros.

    The wiring is built from index arrays. Leaf ``2 (off_i + k) + s`` is
    ``relu(+-(n_i x_i - k))``, plus at s = 0. ``units[v, s]`` of a wire
    ``(axes, units)`` lists the units summing to vertex v's running max
    over ``axes`` on side s. A level maps wire pair j to slots 2j =
    relu(w0 - w1) and 2j+1 = relu(w1), which sum to max(w0, w1) as w1 >= 0,
    and carries an odd last wire as relu(w). A unit is keyed by (slot,
    side, v on the slot's axes), numbered by first occurrence over
    (vertex, side, slot) and built from that occurrence.
    """
    d, shape = gi.dim, np.array(gi._shape)
    V = np.indices(gi._shape).reshape(d, -1).T
    nverts, sides = len(V), np.arange(2)

    # layer 1: the leaves
    k = np.concatenate([np.arange(m, dtype=float) for m in gi._shape]).repeat(2)
    sign = np.tile([1.0, -1.0], len(k) // 2)
    leaves = np.repeat(np.diag(shape - 1.0), 2 * shape, axis=0) * sign[:, None]
    layers = [(leaves, -sign * k)]
    wires = [((i,), 2 * (shape[:i].sum() + V[:, i, None, None]) + sides[:, None])
             for i in range(d)]

    while len(wires) > 1:
        slots = []  # (axes, units read (nverts, 2, m), their m weights)
        for (ax0, u0), (ax1, u1) in zip(wires[0::2], wires[1::2]):
            w = np.repeat([1.0, -1.0], [u0.shape[2], u1.shape[2]])
            slots += [(ax0 + ax1, np.concatenate([u0, u1], axis=2), w),
                      (ax1, u1, np.ones(u1.shape[2]))]
        slots += [(ax, u, np.ones(u.shape[2])) for ax, u in wires[len(wires) // 2 * 2:]]
        keys = np.stack([
            (2 * j + sides) * nverts
            + np.ravel_multi_index(V[:, ax].T, tuple(shape[list(ax)]))[:, None]
            for j, (ax, _, _) in enumerate(slots)
        ], axis=2)
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        # number units by first occurrence: the rank of their first index
        ids = np.argsort(np.argsort(first))[inverse].reshape(keys.shape)
        v, t, j = np.unravel_index(np.sort(first), keys.shape)
        parts = []
        for s, (_, u, w) in enumerate(slots):
            units = np.flatnonzero(j == s)
            cols = u[v[units], t[units]].ravel()
            parts.append((np.tile(w, len(units)), units.repeat(len(w)), cols))
        vals, rows, cols = map(np.concatenate, zip(*parts))
        W = sparse.csr_array((vals, (rows, cols)), shape=(len(first), layers[-1][0].shape[0]))
        layers.append((W, np.zeros(len(first))))
        # slots 2j, 2j+1 carry max(w0, w1); a last odd slot its lone wire
        wires = [(slots[s][0], ids[:, :, s:s + 2]) for s in range(0, len(slots), 2)]

    # hat layer: one unit per vertex, relu(1 - A_v - B_v)
    (_, u), = wires
    rows, cols = np.arange(nverts).repeat(u[0].size), u.ravel()
    hat = sparse.csr_array((np.full(cols.size, -1.0), (rows, cols)),
                           shape=(nverts, layers[-1][0].shape[0]))
    layers.append((hat, np.ones(nverts)))

    # output affine: weight hats by vertex samples
    layers.append((gi.values.T.copy(), np.zeros(gi.out_dim)))
    return MLP(layers)


# ---------------------------------------------------------------------------
# vector fields


class VectorField:
    """Lipschitz map R^d -> R^d with tracked support box and l_inf bound.

    ``support_box`` is ``(lower, upper)`` row-stacked as a (2, d) array, or
    None when unbounded; evaluation vanishes exactly outside a bounded box.
    ``ref`` is a JSON-serializable construction record used by manifests.
    """

    def __init__(self, dim, evaluator, lipschitz_bound, support_box=None, ref=None):
        self.dim = int(dim)
        if self.dim < 1:
            raise ValueError(f"a field needs dimension >= 1, got {self.dim}")
        self._evaluator = evaluator
        self.lipschitz_bound = float(lipschitz_bound)
        if support_box is not None:
            support_box = np.asarray(support_box, dtype=float).reshape(2, self.dim)
        self.support_box = support_box
        self.ref = ref if ref is not None else {"backend": "opaque"}
        self.grid: GridInterpolant | None = None
        self.mlp: MLP | None = None
        self.report: "ApproximationReport | None" = None

    def eval(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        X = np.atleast_2d(x)
        if X.shape[1] != self.dim:
            raise ValueError(f"points have dim {X.shape[1]}, field has {self.dim}")
        out = self._evaluator(X)
        return out[0] if single else out

    __call__ = eval

    def max_abs_on_box(self, per_axis: int) -> float:
        """Deterministic dense-grid estimate of sup |V| over the support box."""
        if self.support_box is None:
            raise ValueError("field has unbounded support")
        pts = lattice([per_axis] * self.dim, *self.support_box)
        return float(np.abs(self.eval(pts)).max())


def zero_field(dim: int = 2) -> VectorField:
    return VectorField(
        dim,
        lambda X: np.zeros_like(X),
        0.0,
        support_box=np.array([[0.5] * dim, [0.5] * dim]),
        ref={"backend": "analytic", "id": "zero", "params": {"dim": dim}},
    )


def rotation_field(center, rate: float) -> VectorField:
    """Planar rotation about ``center`` at angular speed ``rate``."""
    c = np.asarray(center, dtype=float)
    if c.shape != (2,):
        raise ValueError("rotation_field is two-dimensional")

    def ev(X):
        return np.stack(
            [-rate * (X[:, 1] - c[1]), rate * (X[:, 0] - c[0])], axis=1
        )

    return VectorField(
        2,
        ev,
        abs(rate),
        support_box=None,
        ref={"backend": "analytic", "id": "rotation",
             "params": {"center": c.tolist(), "rate": rate}},
    )


def squeeze_field(line_x: float = 0.5) -> VectorField:
    """Contraction of the plane onto the vertical line x = line_x."""

    def ev(X):
        out = np.zeros_like(X)
        out[:, 0] = -X[:, 0] + line_x
        return out

    return VectorField(
        2,
        ev,
        1.0,
        support_box=None,
        ref={"backend": "analytic", "id": "squeeze", "params": {"line_x": line_x}},
    )


def radial_profile(s, r_inner: float, r_outer: float):
    """1 on [0, r_inner], linear to 0 on [r_inner, r_outer], 0 beyond."""
    return np.clip((r_outer - np.asarray(s, dtype=float)) / (r_outer - r_inner), 0.0, 1.0)


def radial_bump_clip(
    field: VectorField, center, r_inner: float, r_outer: float, max_abs: float | None = None
) -> VectorField:
    """Pointwise product with a piecewise-linear radial cutoff.

    The Lipschitz bound follows the product rule,
    ``L_V + max|V| / (r_outer - r_inner)``; pass ``max_abs`` when the exact
    supremum of |V| over the outer ball is known, otherwise it is estimated
    on a dense deterministic grid.
    """
    if not 0 < r_inner < r_outer:
        raise ValueError("need 0 < r_inner < r_outer")
    c = np.asarray(center, dtype=float)
    inner = field

    def ev(X):
        s = np.linalg.norm(X - c, axis=1)
        return inner.eval(X) * radial_profile(s, r_inner, r_outer)[:, None]

    box = np.stack([c - r_outer, c + r_outer])
    if max_abs is None:
        max_abs = float(np.abs(field.eval(lattice([101] * field.dim, *box))).max())
    L = field.lipschitz_bound + max_abs / (r_outer - r_inner)
    return VectorField(
        field.dim,
        ev,
        L,
        support_box=box,
        ref={
            "backend": "radial_clip",
            "center": c.tolist(),
            "r_inner": r_inner,
            "r_outer": r_outer,
            "max_abs": max_abs,
            "inner": field.ref,
        },
    )


def _scaled_bump_values(x, delta, lo, hi):
    w = hi - lo
    return lo + w * bump_values((np.asarray(x, dtype=float) - lo) / w, delta)


def box_bump_clip(field: VectorField, delta: float, box=(0.0, 1.0)) -> VectorField:
    """Compose the field coordinatewise with the exact cutoff network.

    The clipped field evaluates ``V(b(x_1), ..., b(x_d))`` where ``b`` is
    the cutoff scaled to ``box``; it equals the field on the cutoff's
    identity region. Outside the cutoff's support (declared exactly from
    the network's zero crossings; unbounded when ``delta >= 1``) the
    composition vanishes provided the field vanishes where the cutoff
    folds exterior coordinates, i.e. on the box's facets reached through
    ``b`` — which holds for every field the approximation pipeline clips
    (they vanish on the cube boundary). If the field carries an MLP
    realization the clipped field does too, by exact network composition.
    """
    if not 0.0 < delta < 2.0:
        raise ValueError(f"delta must lie strictly in (0, 2), got {delta}")
    lo, hi = float(box[0]), float(box[1])
    if not lo < hi:
        raise ValueError("box must satisfy lo < hi")
    w = hi - lo
    inner = field

    def ev(X):
        return inner.eval(_scaled_bump_values(X, delta, lo, hi))

    s_lo, s_hi = bump_support(delta)
    if s_hi is None:
        support = None
    else:
        support = np.array(
            [[lo + w * s_lo] * field.dim, [lo + w * s_hi] * field.dim]
        )
    L = field.lipschitz_bound * max(2.0, abs(1.0 - 1.0 / delta))
    clipped = VectorField(
        field.dim,
        ev,
        L,
        support_box=support,
        ref={
            "backend": "box_clip",
            "delta": delta,
            "box": [lo, hi],
            "inner": field.ref,
        },
    )
    if field.mlp is not None:
        bump = build_bump(BumpSpec(delta, field.dim))
        pre = affine_mlp(np.eye(field.dim) / w, np.full(field.dim, -lo / w))
        post = affine_mlp(np.eye(field.dim) * w, np.full(field.dim, lo))
        scaled = compose(post, compose(bump, pre))
        clipped.mlp = compose(field.mlp, scaled)
    clipped.grid = field.grid
    return clipped


def _plateau(t):
    """Piecewise-linear plateau: 0 outside [1/8, 7/8], 1 on [3/8, 5/8]."""
    t = np.asarray(t, dtype=float)
    return np.clip(np.minimum((t - 0.125) * 4.0, (0.875 - t) * 4.0), 0.0, 1.0)


def sin_bump_field(amplitude: float = 0.2) -> VectorField:
    """Horizontal sine wave windowed to the interior of the unit square.

    V(x, y) = (A sin(2 pi x) q(x) q(y), 0) with q the plateau profile;
    the l_inf Lipschitz bound is A (2 pi + 8).
    """

    def ev(X):
        out = np.zeros_like(X)
        out[:, 0] = (
            amplitude * np.sin(2 * np.pi * X[:, 0]) * _plateau(X[:, 0]) * _plateau(X[:, 1])
        )
        return out

    return VectorField(
        2,
        ev,
        amplitude * (2 * np.pi + 8.0),
        support_box=np.array([[0.125, 0.125], [0.875, 0.875]]),
        ref={"backend": "analytic", "id": "sin_bump", "params": {"amplitude": amplitude}},
    )


# ---------------------------------------------------------------------------
# grid ReLU approximation


@dataclass
class ApproximationReport:
    """Achieved network sizes next to the reporting targets, plus the
    empirical error check on a 4x finer grid."""

    dim: int
    n: int
    width: int
    depth: int
    nonzeros: int
    target_width: int
    target_depth: int
    target_nonzeros: int
    measured_error: np.ndarray = dataclass_field(default_factory=lambda: np.zeros(0))
    modulus_bound: np.ndarray = dataclass_field(default_factory=lambda: np.zeros(0))

    @property
    def within_bound(self) -> bool:
        return bool(np.all(self.measured_error <= self.modulus_bound + 1e-12))


def size_targets(d: int, n: int) -> tuple[int, int, int]:
    """Reporting targets for the approximant network at grid parameter n."""
    width = 8 * d * (n + 1) ** d + 9
    depth = math.ceil(math.log2(d)) + 6
    nonzeros = 16 * d * (n + 1) ** d + 9
    return width, depth, nonzeros


def grid_field(gi: GridInterpolant, ref: dict | None = None) -> VectorField:
    """The field of a grid interpolant, carrying it as ``grid``.

    Its Lipschitz bound is the interpolant's exact slope, and its support
    box the cube grown by one (largest) cell width, where the hat
    continuation dies. ``ref`` defaults to the bare grid record.
    """
    h = max(1.0 / m for m in gi.ns)
    vf = VectorField(
        gi.dim,
        gi,
        gi.lipschitz_linf(),
        support_box=np.array([[-h] * gi.dim, [1.0 + h] * gi.dim]),
        ref=ref or {"backend": "grid", "n": list(gi.ns)},
    )
    vf.grid = gi
    return vf


def grid_realize(
    eval_fn, dim: int, n: int, modulus: Modulus, ns=None
) -> tuple[VectorField, MLP, ApproximationReport]:
    """Interpolate ``eval_fn`` on the vertex grid of [0,1]^dim and realize
    the interpolant both directly and as an exact ReLU network.

    This is the unchecked core shared by :func:`grid_relu_approximate`
    (which additionally enforces that the field is supported inside the
    cube) and the one-dimension-higher lifting, whose fields are only
    sampled on the cube. The certified per-component error is the modulus
    at dim/(2n), verified empirically on a 4x finer grid.
    """
    if n < 1:
        raise ValueError("grid parameter n must be >= 1")
    d = dim
    if ns is None:
        ns = (n,) * d
    gi = GridInterpolant.from_callable(eval_fn, ns)
    vf = grid_field(gi)
    net = grid_to_mlp(gi)
    vf.mlp = net

    # pointwise, and a max is exact: row blocks keep every bit and bound memory
    pts = lattice([4 * m + 1 for m in ns])
    err = 0.0
    for start in range(0, pts.shape[0], _EVAL_ROWS):
        P = pts[start:start + _EVAL_ROWS]
        target = np.asarray(eval_fn(P), dtype=float)
        if target.ndim == 1:
            target = target[:, None]
        err = np.maximum(err, np.abs(gi(P) - target).max(axis=0))
    tw, td, tn = size_targets(d, n)
    report = ApproximationReport(
        dim=d,
        n=n,
        width=net.width,
        depth=net.depth,
        nonzeros=net.nonzeros,
        target_width=tw,
        target_depth=td,
        target_nonzeros=tn,
        measured_error=np.atleast_1d(err),
        modulus_bound=np.asarray(modulus(d / (2.0 * n))),
    )
    vf.report = report
    return vf, net, report


def require_cube_support(field: VectorField) -> None:
    """Raise ValueError unless the field has a support box inside [0,1]^d."""
    if field.support_box is None or np.any(np.abs(field.support_box - 0.5) > 0.5 + 1e-9):
        raise ValueError("field must have bounded support inside [0,1]^d")


def grid_relu_approximate(
    field: VectorField, n: int, modulus: Modulus
) -> tuple[VectorField, MLP, ApproximationReport]:
    """Sample a supported field on the (n+1)^d vertex grid and realize the
    Kuhn CPWL interpolant both directly and as an exact ReLU network.

    The sup-norm error per component is certified by the modulus at
    argument d/(2n) and verified empirically on a 4x finer grid; the
    report states achieved width/depth/nonzeros next to the targets.
    """
    require_cube_support(field)
    return grid_realize(field.eval, field.dim, n, modulus)


# ---------------------------------------------------------------------------
# registry


def _build_rotation_clipped(params):
    center = params.get("center", [0.5, 0.5])
    rate = params.get("rate", math.pi)
    r = params.get("r_inner", 0.125)
    R = params.get("r_outer", 0.25)
    base = rotation_field(center, rate)
    f = radial_bump_clip(base, center, r, R, max_abs=abs(rate) * R)
    f.ref = {"backend": "analytic", "id": "rotation_clipped", "params": {
        "center": list(center), "rate": rate, "r_inner": r, "r_outer": R}}
    return f


def _build_squeeze_clipped(params):
    line_x = params.get("line_x", 0.5)
    center = params.get("center", [0.5, 0.5])
    r = params.get("r_inner", 0.125)
    R = params.get("r_outer", 0.25)
    base = squeeze_field(line_x)
    max_abs = abs(center[0] - line_x) + R
    f = radial_bump_clip(base, center, r, R, max_abs=max_abs)
    f.ref = {"backend": "analytic", "id": "squeeze_clipped", "params": {
        "line_x": line_x, "center": list(center), "r_inner": r, "r_outer": R}}
    return f


BUILTIN_FIELDS = {
    "zero": lambda params: zero_field(params.get("dim", 2)),
    "rotation": lambda params: rotation_field(
        params.get("center", [0.5, 0.5]), params.get("rate", math.pi)
    ),
    "squeeze": lambda params: squeeze_field(params.get("line_x", 0.5)),
    "rotation_clipped": _build_rotation_clipped,
    "squeeze_clipped": _build_squeeze_clipped,
    "sin_bump": lambda params: sin_bump_field(params.get("amplitude", 0.2)),
}


def builtin_field(field_id: str, params: dict | None = None) -> VectorField:
    if field_id not in BUILTIN_FIELDS:
        raise KeyError(
            f"unknown field id {field_id!r}; known: {sorted(BUILTIN_FIELDS)}"
        )
    return BUILTIN_FIELDS[field_id](params or {})


def builtin_suite() -> dict[str, VectorField]:
    """The compactly supported fields exercised by the acceptance checks."""
    return {
        "zero": builtin_field("zero"),
        "rotation_clipped": builtin_field("rotation_clipped"),
        "squeeze_clipped": builtin_field("squeeze_clipped"),
        "sin_bump": builtin_field("sin_bump"),
    }


def field_from_ref(ref: dict, base_dir=None) -> VectorField:
    """Reconstruct a field from its manifest record."""
    backend = ref["backend"]
    if backend == "analytic":
        return builtin_field(ref["id"], ref.get("params", {}))
    if backend == "grid":
        import os

        gi = GridInterpolant.load(
            os.path.join(base_dir, ref["file"]) if base_dir else ref["file"]
        )
        return grid_field(gi, ref)
    if backend == "box_clip":
        inner = field_from_ref(ref["inner"], base_dir)
        return box_bump_clip(inner, ref["delta"], tuple(ref["box"]))
    if backend == "radial_clip":
        inner = field_from_ref(ref["inner"], base_dir)
        return radial_bump_clip(
            inner, ref["center"], ref["r_inner"], ref["r_outer"], ref.get("max_abs")
        )
    raise ValueError(f"cannot reconstruct field from backend {backend!r}")
