"""Lipschitz vector fields: analytic library, the radial support clip, the
constructive grid-based ReLU approximant, and lifts one dimension up.

A :class:`VectorField` bundles an evaluator with an upper bound on its
l_inf Lipschitz constant, which every certificate downstream needs. An
analytic input field also declares a support box outside which it
vanishes exactly; the grid approximation requires that box to lie in the
unit cube, the domain of the paper's homeomorphisms.

The grid approximant interpolates vertex samples over the Kuhn simplicial
subdivision of a uniform grid and is realized a second time as an exact
ReLU network built from the nodal hat function of that triangulation,
``relu(1 - max_i relu((x_i - v_i)/h) - max_i relu((v_i - x_i)/h))``.
The two code paths compute the same function and are cross-checked in the
test suite. The interpolant is affine on each simplex, so the field of a
grid carries its exact time-t flow, advanced simplex by simplex.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import struct
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy import sparse

from .mlp import _EVAL_ROWS, MLP, affine_mlp, compose

__all__ = [
    "FlowIntegrationError",
    "GridInterpolant",
    "GridPayloadError",
    "lattice",
    "VectorField",
    "ApproximationReport",
    "zero_field",
    "rotation_field",
    "squeeze_field",
    "radial_bump_clip",
    "sin_bump_field",
    "lift_field",
    "grid_field",
    "grid_realize",
    "grid_relu_approximate",
    "grid_to_mlp",
    "field_from_ref",
    "builtin_field",
    "builtin_suite",
    "BUILTIN_FIELDS",
]


class FlowIntegrationError(RuntimeError):
    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"non-finite state at integration step {step}")


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


def write_json(path, obj) -> None:
    """Write ``obj`` as key-sorted JSON indented by two, with a final
    newline: the one format of every JSON file the package writes."""
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def finite_float(text: str) -> float:
    """json.load's hook for number literals with a fraction or exponent and
    for NaN/Infinity, in every document the package reads (configs and
    manifests): a non-finite number is a ValueError."""
    if not math.isfinite(val := float(text)):
        raise ValueError(f"numbers must be finite, got {text}")
    return val


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
        # per-axis offsets (2^d, d) and flat index offsets (2^d,) of the
        # cell corners, in itertools.product order
        corners = list(itertools.product((0, 1), repeat=self.dim))
        self._corner_offs = np.array(corners, dtype=np.int64)
        self._corner_flat = self._corner_offs @ self._strides
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
        max_i relu(v_i - t_i))`` with t = x in grid units. The 2^d corners
        of the rows' cells are the rows of ``(2^d, rows)`` arrays (corner
        major, which keeps each corner's terms contiguous): both maxima
        are running maxima over the axes and one gather reads every
        corner's vertex values. The corner terms are added one by one, in
        corner order, to a sum that starts at +0.0, so a zero hat adds +-0
        and changes no bit. Non-finite rows evaluate to NaN so a caller
        integrating a diverging trajectory sees the failure instead of an
        index crash.
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
        t = X * self._nvec  # grid units per axis
        anchor = np.minimum(np.maximum(np.floor(t), 0.0), self._nvec - 1).astype(np.int64)
        base = anchor @ self._strides
        if self._row_base is not None:
            base += self._row_base
        # running maxima of relu(t_i - v_i) and relu(v_i - t_i), one row per corner v
        a = b = 0.0
        for i in range(self.dim):
            diff = t[:, i] - (anchor[:, i] + self._corner_offs[:, i, None])
            a = np.maximum(a, diff)
            b = np.maximum(b, -diff)
        terms = self._table.take(base + self._corner_flat[:, None], axis=0)  # vertex values
        terms *= np.maximum(1.0 - a - b, 0.0)[:, :, None]  # times their hats
        out = np.zeros((X.shape[0], self.out_dim))
        for term in terms:  # corner by corner, in corner order
            out += term
        if bad is not None:
            out[bad] = np.nan
        return out[0] if single else out

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
        write_json(str(path) + ".json", self.sidecar())

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
    """Lipschitz map R^d -> R^d with an l_inf Lipschitz bound.

    ``support_box`` is ``(lower, upper)`` row-stacked as a (2, d) array:
    the box outside which an analytic field (a builtin or a radial clip)
    declares it vanishes exactly. None means undeclared, as for every
    derived field (grid, lift). ``ref`` is a JSON-serializable
    construction record used by manifests. ``flow``, where the field's flow
    has a closed form, is its exact time-t map ``flow(X, t)`` on the rows
    of X; None otherwise.
    """

    def __init__(self, dim, evaluator, lipschitz_bound, support_box=None, ref=None,
                 flow=None):
        self.dim = int(dim)
        if self.dim < 1:
            raise ValueError(f"a field needs dimension >= 1, got {self.dim}")
        self._evaluator = evaluator
        self.lipschitz_bound = float(lipschitz_bound)
        if support_box is not None:
            support_box = np.asarray(support_box, dtype=float).reshape(2, self.dim)
        self.support_box = support_box
        self.ref = ref if ref is not None else {"backend": "opaque"}
        self.flow = flow
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


def zero_field(dim: int = 2) -> VectorField:
    return VectorField(
        dim,
        lambda X: np.zeros(X.shape),
        0.0,
        support_box=np.array([[0.5] * dim, [0.5] * dim]),
        ref={"backend": "analytic", "id": "zero", "params": {"dim": dim}},
        flow=lambda X, t: X.copy(),
    )


def rotation_field(center=(0.5, 0.5), rate: float = math.pi) -> VectorField:
    """Planar rotation about ``center`` at angular speed ``rate``."""
    c = np.asarray(center, dtype=float)
    if c.shape != (2,):
        raise ValueError("rotation_field is two-dimensional")
    w = np.array([-rate, rate], dtype=float)

    def ev(X):
        # (-rate (y - c_1), rate (x - c_0))
        return (X - c)[:, ::-1] * w

    return VectorField(
        2,
        ev,
        abs(rate),
        support_box=None,
        ref={"backend": "analytic", "id": "rotation",
             "params": {"center": c.tolist(), "rate": rate}},
        flow=lambda X, t: _rotate(X, c, t * rate),
    )


def _rotate(X, c, angle):
    """The rows of X turned about c by ``angle`` (a scalar or one per row);
    a row turned by 0 is returned as it is."""
    out, angle = X.copy(), np.broadcast_to(angle, len(X))
    live = np.flatnonzero(angle != 0)
    D = X[live] - c
    cos, sin = np.cos(angle[live]), np.sin(angle[live])
    out[live] = c + np.stack([cos * D[:, 0] - sin * D[:, 1], sin * D[:, 0] + cos * D[:, 1]],
                             axis=1)
    return out


def squeeze_field(line_x: float = 0.5) -> VectorField:
    """Contraction of the plane onto the vertical line x = line_x."""

    def ev(X):
        out = np.zeros(X.shape)
        out[:, 0] = -X[:, 0] + line_x  # not line_x - x: that keeps a NaN's sign
        return out

    def flow(X, t):
        out = X.copy()
        out[:, 0] = line_x + (X[:, 0] - line_x) * math.exp(-t)
        return out

    return VectorField(
        2,
        ev,
        1.0,
        support_box=None,
        ref={"backend": "analytic", "id": "squeeze", "params": {"line_x": line_x}},
        flow=flow,
    )


def radial_bump_clip(
    field: VectorField, center, r_inner: float, r_outer: float, max_abs: float
) -> VectorField:
    """Pointwise product with a piecewise-linear radial cutoff.

    The Lipschitz bound follows the product rule,
    ``L_V + max_abs / (r_outer - r_inner)`` with ``max_abs`` the supremum
    of |V| over the outer ball. The declared support box is the outer
    ball's bounding box. The clip carries no closed-form flow, so no
    manifest holds it and it keeps the opaque record; the clipped builtins
    set their own record and flow.
    """
    if not 0 < r_inner < r_outer:
        raise ValueError("need 0 < r_inner < r_outer")
    c = np.asarray(center, dtype=float)
    inner = field._evaluator

    def ev(X):
        return inner(X) * _radial_profile(X, c, r_inner, r_outer)[:, None]

    L = field.lipschitz_bound + max_abs / (r_outer - r_inner)
    return VectorField(
        field.dim,
        ev,
        L,
        support_box=np.stack([c - r_outer, c + r_outer]),
    )


def _radial_profile(X, c, r_inner, r_outer):
    """Per row of X: 1 on [0, r_inner] from c, linear to 0 on [r_inner, r_outer], 0 beyond."""
    D = X - c
    return ((r_outer - np.sqrt(np.add.reduce(D * D, axis=1))) / (r_outer - r_inner)).clip(0.0, 1.0)


def lift_field(g, d: int, lipschitz=None) -> VectorField:
    """The field V(x, y) = (0, g(x)) on R^(d+D), x in R^d and y in R^D.

    ``g`` is the list of the D scalar components g_i, whose bounds
    ``lipschitz`` give V the declared bound max(1, max_i L_i), or a grid
    field on R^d with D output columns. V takes over that grid field's
    grid and exact slope, and its network as embed_y o net o proj_x; its
    record names the grid's, so :func:`field_from_ref` rebuilds it.

    V moves no x and does not depend on y, so its time-t map is
    Z + t V(Z), exact from every start and for either sign of t. V
    declares no support box.
    """
    grid = isinstance(g, VectorField)
    if grid:
        if g.dim != d:
            raise ValueError(f"a lift of a grid field on R^{g.dim} needs d = {g.dim}, got {d}")
        D, values, L = g.grid.out_dim, g._evaluator, g.lipschitz_bound
        ref = {"backend": "lift", "d": d, "inner": g.ref}
    else:
        comps = list(g)
        D, L = len(comps), max(1.0, float(np.max(lipschitz)))
        ref = {"backend": "lifted", "function": "opaque", "d": d}

        def values(X):
            return np.column_stack([np.asarray(c(X), dtype=float).reshape(-1) for c in comps])

    def ev(Z):
        out = np.zeros_like(Z)
        out[:, d:] = values(Z[:, :d])
        return out

    vf = VectorField(d + D, ev, L, ref=ref, flow=lambda Z, t: Z + t * ev(Z))
    if grid:
        vf.grid = g.grid
        if g.mlp is not None:
            proj_x, embed_y = affine_mlp(np.eye(d, d + D)), affine_mlp(np.eye(d + D, D, -d))
            vf.mlp = compose(embed_y, compose(g.mlp, proj_x))
    return vf


def _plateau(t):
    """Piecewise-linear plateau: 0 outside [1/8, 7/8], 1 on [3/8, 5/8]."""
    return np.minimum((t - 0.125) * 4.0, (0.875 - t) * 4.0).clip(0.0, 1.0)


def _bisect(lo, hi, above):
    """Per row, the float its root rounds to, bisecting from the bracket
    [lo, hi] (overwritten). ``above(mid, act)`` says for the rows ``act``
    whether the root lies above their ``mid``. A row stops when no float
    lies strictly between its ends, so its result does not depend on its
    batch."""
    while True:
        mid = 0.5 * (lo + hi)
        act = np.flatnonzero((lo < mid) & (mid < hi))
        if act.size == 0:
            return mid
        up = above(mid[act], act)
        lo[act] = np.where(up, mid[act], lo[act])
        hi[act] = np.where(up, hi[act], mid[act])


# the Gauss-Legendre rule of the sin_bump flow's ramp integral, on [-1, 1]
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(20)
_TAN_PI_8, _SIN_PI_4 = math.tan(math.pi / 8), math.sin(math.pi / 4)


def _sin_bump_phi(x):
    """Phi of :func:`sin_bump_field` at the rows of x in (1/8, 1/2)."""
    phi = np.empty_like(x)
    flat = x >= 0.375
    phi[flat] = -np.log(np.tan(np.pi * (0.5 - x[flat])) / _TAN_PI_8) / (2 * np.pi)
    phi[~flat] = _sin_bump_ramp_phi(x[~flat])
    return phi


def _sin_bump_ramp_phi(x):
    """Phi of :func:`sin_bump_field` at the rows of x in (1/8, 3/8]; the
    quadrature sums each row along its own axis, so its bits do not
    depend on the batch."""
    half = 0.5 * (0.375 - x)
    s = x[:, None] + half[:, None] * (1.0 + _GAUSS_NODES)
    d = s - 0.125
    h = -2.0 * np.cos(np.pi * (s + 0.125)) * (np.sin(np.pi * d) / d) \
        / (_SIN_PI_4 * np.sin(2 * np.pi * s))
    quad = half * (h * _GAUSS_WEIGHTS).sum(axis=1)
    return -0.25 * (np.log(0.25 / (x - 0.125)) / _SIN_PI_4 + quad)


def sin_bump_field(amplitude: float = 0.2) -> VectorField:
    """Horizontal sine wave windowed to the interior of the unit square.

    V(x, y) = (A sin(2 pi x) q(x) q(y), 0) with q the plateau profile;
    the l_inf Lipschitz bound is |A| (2 pi + 8).

    The flow keeps y, and x obeys x' = c f(x) with c = A q(y) and
    f = sin(2 pi x) q(x). As f(1 - x) = -f(x), x -> 1 - x carries rows
    on (1/2, 7/8) to (1/8, 1/2), where f > 0 and x(t) = Phi^-1(Phi(x_0) + c t)
    with Phi the integral of 1/f from 3/8:

    - on the plateau [3/8, 1/2), Phi = -ln(tan(pi (1/2 - x)) / tan(pi/8)) / (2 pi),
      inverted by an arctan;
    - on the ramp (1/8, 3/8], with r = sin(pi/4),
      Phi = -(ln((1/4) / (x - 1/8)) / r + int_x^{3/8} h) / 4 with
      h(s) = -2 cos(pi (s + 1/8)) [sin(pi (s - 1/8)) / (s - 1/8)] / (r sin 2 pi s),
      which is 1/((s - 1/8) sin 2 pi s) - 1/((s - 1/8) r) without its
      cancellation. A 20-point Gauss-Legendre rule integrates h: its poles
      nearest [1/8, 3/8] are s = 0 and 1/2, a Bernstein ellipse of
      rho = 2 + sqrt 3, so the rule errs by about rho^-40 ~ 1e-23.

    A bisection on x inverts Phi on the ramp; each row stops when its
    bracket holds no float between its ends, so a row's result does not
    depend on its batch.
    """

    def ev(X):
        out = np.zeros(X.shape)
        x = X[:, 0]
        out[:, 0] = amplitude * np.sin(2 * np.pi * x) * _plateau(x) * _plateau(X[:, 1])
        return out

    def flow(X, t):
        out = X.copy()
        c = amplitude * _plateau(X[:, 1])
        x = X[:, 0]
        live = np.flatnonzero((c != 0) & (x > 0.125) & (x < 0.875) & (x != 0.5))
        upper = x[live] > 0.5
        u = np.where(upper, 1.0 - x[live], x[live])
        target = _sin_bump_phi(u) + c[live] * t
        v = np.empty_like(u)
        flat = target >= 0
        v[flat] = 0.5 - np.arctan(_TAN_PI_8 * np.exp(-2 * np.pi * target[flat])) / np.pi
        ramp = ~flat
        goal = target[ramp]
        v[ramp] = _bisect(np.full_like(goal, 0.125), np.full_like(goal, 0.375),
                          lambda mid, act: _sin_bump_ramp_phi(mid) < goal[act])
        out[live, 0] = np.where(upper, 1.0 - v, v)
        return out

    return VectorField(
        2,
        ev,
        abs(amplitude) * (2 * np.pi + 8.0),
        support_box=np.array([[0.125, 0.125], [0.875, 0.875]]),
        ref={"backend": "analytic", "id": "sin_bump", "params": {"amplitude": amplitude}},
        flow=flow,
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

    Its Lipschitz bound is the interpolant's exact slope; it declares no
    support box. ``ref`` defaults to the bare grid record. Where the
    interpolant maps R^d to R^d the field carries its exact time-t map
    (:func:`_grid_flow`).
    """
    vf = VectorField(
        gi.dim,
        gi,
        gi.lipschitz_linf(),
        ref=ref or {"backend": "grid", "n": list(gi.ns)},
        flow=_grid_flow(gi) if gi.out_dim == gi.dim else None,
    )
    vf.grid = gi
    return vf


# the exact flow of a grid field, simplex by simplex
_FACE_TIME = 1e-10  # a row its Taylor model puts past a face this soon crosses it now
_FACE_SLACK = 2.0 ** -50  # how far past a face a step may end, in grid units
_RATE_NOISE = 2.0 ** -40  # a face rate this small against the rates of the vertices is 0
_PHI_TERMS = 18  # Taylor terms of phi_1(hB) at |hB|_inf <= 1: the tail is below 1/19! ~ 8e-18
_PHI_K = np.arange(2.0, _PHI_TERMS + 1)  # the divisors of the Taylor terms after the first
_GRID_FLOW_ROUNDS = 100_000


def _kuhn_faces(up):
    """ell . u for the d + 1 faces of each row's Kuhn simplex, from u in
    the simplex's order (``up[:, k] = u[:, pi(k)]``). The face functions
    1 - r_pi(0), r_pi(k-1) - r_pi(k) (0 < k < d) and r_pi(d-1) are the
    barycentric coordinates of its vertices v_0, ..., v_d."""
    g = np.empty((len(up), up.shape[1] + 1))
    np.subtract(0.0, up[:, 0], out=g[:, 0])  # not -up: 0 - 0 is +0.0
    np.subtract(up[:, :-1], up[:, 1:], out=g[:, 1:-1])
    g[:, -1] = up[:, -1]
    return g


def _matvec(Bc, u):
    """B u per row, B given by its columns ``Bc[i] = B[:, :, i]``: the d
    column products added in axis order."""
    out = Bc[0] * u[:, :1]
    for i in range(1, len(Bc)):
        out += Bc[i] * u[:, i:i + 1]
    return out


def _affine_step(Bc, w, h):
    """h phi_1(hB) w per row: how far x' = Bx + c moves in time h from a
    point where x' = w, for |hB|_inf <= 1, B given by its columns ``Bc``.
    The Taylor terms are summed row by row, so a row's bits do not depend
    on its batch."""
    hk = (h / _PHI_K[:, None])[:, :, None]  # h / k, one (rows, 1) column per term
    term = w * h[:, None]
    total = term.copy()
    for f in hk:
        term = _matvec(Bc, term)
        term *= f
        total += term
    return total


def _grid_flow(gi: GridInterpolant):
    """The exact time-t map ``flow(X, t)`` of the field of ``gi``.

    The field is the Kuhn interpolant of the vertex values on Z^d extended
    by zeros, so it falls to 0 one cell out of the grid. In grid units r
    local to a row's cell it is affine on the row's simplex, r' = B r + c;
    the simplex is the order pi of the local coordinates, ties by
    ascending axis, and its face functions are the barycentric coordinates
    (:func:`_kuhn_faces`). Each round every unfinished row either crosses
    a face or advances by the exact affine flow (:func:`_affine_step`) for
    the least of its remaining time, 1/|B|_inf and, for each face, the
    first root of a lower bound of the face function g along the flow:

        g(s) >= g + g' s - K s^2/2,  K = |ell|_1 |B|_inf max|w|,

    max|w| being the lesser of the simplex's largest vertex speed and e |w|
    at the row (|e^{sB} w| for s |B|_inf <= 1). Where g'' > 0, the cubic
    bound with K |B|_inf gives a second root and the larger one counts. A
    face with ell . B^k w = 0 for every k < d is invariant (Cayley-Hamilton)
    and bounds nothing; rates at rounding level count as 0. A row whose
    Taylor model puts g <= 0 within ``_FACE_TIME`` crosses into the
    neighbouring simplex (:func:`_cross_faces`).

    The velocity at a row is the barycentric sum over its simplex's
    vertices, exactly 0 where every vertex of nonzero weight is 0: such
    rows, rows more than one cell outside the grid and non-finite rows are
    returned as they are, and so is each coordinate a row ends on where it
    started. A row that has not used up its time after
    ``_GRID_FLOW_ROUNDS`` rounds raises :class:`FlowIntegrationError`;
    that is >100x the rounds of the default ``rotation_clipped`` stage at
    n = 256 (<= 800 on the 65^2 lattice). The table of vertex values is
    built on the first call.
    """
    d, ns = gi.dim, np.array(gi.ns)
    nvec = ns.astype(float)
    ell1 = np.r_[1.0, np.full(d - 1, 2.0), 1.0]  # |ell|_1 of each face
    cache = []

    def flow(X, t):
        if not cache:  # vertex values padded by a layer of zero vertices
            shape = tuple(n + 3 for n in gi.ns)
            cache.append((np.cumprod((1,) + shape[:0:-1])[::-1],
                          np.pad(gi.values.reshape(gi._shape + (d,)),
                                 [(1, 1)] * d + [(0, 0)]).reshape(-1, d)))
        strides, table = cache[0]
        out = X.copy()
        T = X * nvec
        anchor = np.floor(T)
        rows = np.flatnonzero(((anchor >= -1) & (anchor <= ns)).all(axis=1))
        if t == 0 or rows.size == 0:
            return out
        a, r = anchor[rows].astype(np.int64), T[rows] - anchor[rows]
        perm = np.argsort(-r, axis=1, kind="stable")
        left, moved = np.full(rows.size, abs(float(t))), np.zeros(rows.size, dtype=bool)
        scale = math.copysign(1.0, t) * nvec  # backward in time: the negated field
        act = np.arange(rows.size)
        for _ in range(_GRID_FLOW_ROUNDS):
            if act.size == 0:
                break
            m, pa = act.size, perm[act]
            pflat = pa + np.arange(0, m * d, d)[:, None]  # u.take(pflat) is u in pi's order
            corner = np.empty((m, d + 1), dtype=np.int64)
            corner[:, 0] = (a[act] + 1) @ strides
            corner[:, 1:] = corner[:, :1] + np.cumsum(strides[pa], axis=1)
            V = table[corner] * scale  # vertex velocities, grid units
            lam = _kuhn_faces(r[act].take(pflat))
            lam[:, 0] += 1.0
            w = (lam[:, :, None] * V).sum(axis=1)
            live = w.any(axis=1)
            Bc = np.zeros((d, m, d))  # the columns of B: column pi(k) is v_(k+1) - v_k
            Bc[pa.T, np.arange(m)] = (V[:, 1:] - V[:, :-1]).transpose(1, 0, 2)
            Bn, vmax = np.abs(Bc).sum(axis=0).max(axis=1), np.abs(V).max(axis=(1, 2))

            # G[j] = ell . B^j w, the (j+1)-th derivative of each face function
            G, u, noise = [], w, _RATE_NOISE * vmax
            for j in range(max(d, 2)):
                if j:
                    u, noise = _matvec(Bc, u), noise * Bn
                g = _kuhn_faces(u.take(pflat))
                g[np.abs(g) <= ell1 * noise[:, None]] = 0.0
                G.append(g)
            invariant = G[0] == 0
            for g in G[1:d]:
                invariant &= g == 0
            gap = np.maximum(lam, 0.0)
            model, c = gap.copy(), 1.0
            for j, g in enumerate(G):
                c *= _FACE_TIME / (j + 1)
                model += c * g
            leave = (model <= 0) & ~invariant
            cross = live & leave.any(axis=1)

            K2 = ell1 * (Bn * np.minimum(vmax, math.e * np.abs(w).max(axis=1)))[:, None]
            K3 = K2 * Bn[:, None]
            c0, (G1, G2) = gap + _FACE_SLACK, G[:2]
            with np.errstate(divide="ignore", invalid="ignore"):
                h = np.minimum(left[act], 1.0 / Bn)
                q = np.sqrt(G1 * G1 + 2.0 * K2 * c0)
                root = np.where(G1 < 0, 2.0 * c0 / (q - G1), (G1 + q) / K2)
                # on [0, 1.5 g''/K3] the cubic bound is >= g + g' s + g'' s^2/4
                s3 = 1.5 * G2 / K3
                disc = G1 * G1 - G2 * c0
                sq = 2.0 * c0 / (np.sqrt(np.maximum(disc, 0.0)) - G1)
                sq[(G1 >= 0) | (disc < 0)] = np.inf
                np.maximum(root, np.minimum(sq, s3), out=root, where=G2 > 0)
            root[np.isnan(root) | invariant] = np.inf
            step = np.minimum(root.min(axis=1), h)

            adv = np.flatnonzero(live & ~cross)
            ix, s = act[adv], step[adv]
            r[ix] += _affine_step(Bc[:, adv], w[adv], s)
            moved[ix] = True
            left[ix] = np.where(s == left[ix], 0.0, left[ix] - s)
            keep = live & (left[act] > 0)
            ci = np.flatnonzero(cross)
            if ci.size:
                _cross_faces(a, r, perm, act[ci], np.argmax(leave[ci], axis=1))
                ac = a[act[ci]]
                keep[ci] &= ((ac >= -1) & (ac <= ns)).all(axis=1)  # the field is 0 further out
            act = act[keep]
        if act.size:
            raise FlowIntegrationError(
                _GRID_FLOW_ROUNDS, f"{act.size} rows of a grid flow have not reached "
                f"t = {t} after {_GRID_FLOW_ROUNDS} rounds")
        end = a + r
        keep = ~moved[:, None] | (end == T[rows])
        out[rows] = np.where(keep, X[rows], end / nvec)
        return out

    return flow


def _cross_faces(a, r, perm, rows, face):
    """Move each of ``rows`` across its simplex's face ``face`` (0..d) into
    the neighbouring simplex: the next cell up along pi(0) for face 0, the
    next cell down along pi(d-1) for face d, else pi(k-1) and pi(k) swap."""
    d = perm.shape[1]
    for k in np.flatnonzero(np.bincount(face, minlength=d + 1)):
        sel = rows[face == k]
        p = perm[sel]
        if k == 0 or k == d:
            ax, step = (p[:, 0], 1) if k == 0 else (p[:, -1], -1)
            a[sel, ax] += step
            r[sel, ax] -= step
            perm[sel] = np.concatenate([p[:, step:], p[:, :step]], axis=1)  # rotated by step
        else:
            perm[sel, k - 1], perm[sel, k] = p[:, k], p[:, k - 1]


def grid_realize(eval_fn, dim: int, n: int, lipschitz) -> VectorField:
    """Interpolate ``eval_fn`` on the (n+1)^dim vertex grid of [0,1]^dim and
    realize the interpolant both directly and as an exact ReLU network; the
    returned field carries the interpolant as ``grid``, the network as
    ``mlp`` and the :class:`ApproximationReport` as ``report``.

    This is the unchecked core shared by :func:`grid_relu_approximate`
    (which additionally requires the field's declared support box to lie
    in the cube) and the lifts, whose x-grids sample a map R^d -> R^D on
    the cube (``eval_fn`` may return any number of columns); the fields it
    returns declare no support box. ``lipschitz`` bounds the Lipschitz
    constant of each output column (a scalar bounds them all); the
    certified per-column error is its modulus omega(t) = L t at
    t = dim/(2n), verified empirically on a 4x finer grid.
    """
    if n < 1:
        raise ValueError("grid parameter n must be >= 1")
    d = dim
    gi = GridInterpolant.from_callable(eval_fn, (n,) * d)
    lipschitz = np.broadcast_to(np.asarray(lipschitz, dtype=float), (gi.out_dim,))
    if np.any(lipschitz < 0):
        raise ValueError("Lipschitz constants must be >= 0")
    vf = grid_field(gi)
    net = grid_to_mlp(gi)
    vf.mlp = net

    # pointwise, and a max is exact: row blocks keep every bit and bound memory
    pts = lattice([4 * n + 1] * d)
    err = 0.0
    for start in range(0, pts.shape[0], _EVAL_ROWS):
        P = pts[start:start + _EVAL_ROWS]
        target = np.asarray(eval_fn(P), dtype=float)
        if target.ndim == 1:
            target = target[:, None]
        err = np.maximum(err, np.abs(gi(P) - target).max(axis=0))
    tw, td, tn = size_targets(d, n)
    vf.report = ApproximationReport(
        dim=d,
        n=n,
        width=net.width,
        depth=net.depth,
        nonzeros=net.nonzeros,
        target_width=tw,
        target_depth=td,
        target_nonzeros=tn,
        measured_error=np.atleast_1d(err),
        modulus_bound=lipschitz * (d / (2.0 * n)),
    )
    return vf


def require_cube_support(field: VectorField) -> None:
    """Raise ValueError unless the field declares a support box inside [0,1]^d."""
    if field.support_box is None or np.any(np.abs(field.support_box - 0.5) > 0.5 + 1e-9):
        raise ValueError("field must have bounded support inside [0,1]^d")


def require_cube_stages(fields) -> None:
    """The stage rule of a config and a manifest alike: each analytic stage
    field declares its support inside [0,1]^d, so its flow keeps the cube
    (a grid stage declares no box). A ValueError names the first stage that
    breaks it."""
    for k, f in enumerate(fields):
        if f.ref["backend"] == "analytic":
            try:
                require_cube_support(f)
            except ValueError as e:
                raise ValueError(f"stage {k} ({f.ref['id']}): {e}") from None


def grid_relu_approximate(field: VectorField, n: int) -> VectorField:
    """Sample a supported field on the (n+1)^d vertex grid and realize the
    Kuhn CPWL interpolant both directly and as an exact ReLU network.

    The sup-norm error per component is certified by the field's Lipschitz
    bound times d/(2n) and verified empirically on a 4x finer grid; the
    report states achieved width/depth/nonzeros next to the targets.
    """
    require_cube_support(field)
    return grid_realize(field.eval, field.dim, n, field.lipschitz_bound)


# ---------------------------------------------------------------------------
# registry


def _build_rotation_clipped(center=(0.5, 0.5), rate=math.pi, r_inner=0.125, r_outer=0.25):
    """The rotation times the radial profile p. The rotation is tangent to
    the circles about c, so |x - c| and with it p stay fixed along each
    trajectory: the flow turns x about c by t rate p(|x - c|)."""
    base = rotation_field(center, rate)
    f = radial_bump_clip(base, center, r_inner, r_outer, max_abs=abs(rate) * r_outer)
    f.ref = {"backend": "analytic", "id": "rotation_clipped", "params": {
        "center": list(center), "rate": rate, "r_inner": r_inner, "r_outer": r_outer}}
    c = np.asarray(center, dtype=float)
    f.flow = lambda X, t: _rotate(X, c, t * rate * _radial_profile(X, c, r_inner, r_outer))
    return f


def _build_squeeze_clipped(center=(0.5, 0.5), r_inner=0.125, r_outer=0.25):
    """The squeeze onto the disc's vertical center line x = c_0 times the
    radial profile, with its closed-form flow."""
    if np.shape(center) != (2,):
        raise ValueError("squeeze_clipped is two-dimensional")
    f = radial_bump_clip(squeeze_field(center[0]), center, r_inner, r_outer, max_abs=r_outer)
    f.ref = {"backend": "analytic", "id": "squeeze_clipped", "params": {
        "center": list(center), "r_inner": r_inner, "r_outer": r_outer}}
    f.flow = _squeeze_disc_flow(np.asarray(center, dtype=float), r_inner, r_outer)
    return f


def _squeeze_disc_flow(c, r_inner, r_outer):
    """Exact time-t map of the squeeze onto x = c_0 times the radial profile
    p about c.

    The flow keeps b = y - c_1, and u = x - c_0 obeys u' = -u p(s) with
    s = |x - c| = sqrt(u^2 + b^2). On the plateau (p = 1) u decays as e^-t.
    On the ramp p = (R - s)/w, with R = r_outer and w = r_outer - r_inner,
    so s' = -(s^2 - b^2)(R - s)/(w s) and, by partial fractions, the time
    from |u| = v0 to v is w (G(v0) - G(v)) with

        G = ln(s - |b|)/(2(R - |b|)) + ln(s + |b|)/(2(R + |b|)) - R ln(R - s)/(R^2 - b^2).

    G is evaluated with s - |b| = v^2/(s + |b|): the subtraction would give
    ln(0) once v^2 falls below an ulp of b^2. A bisection on v inverts the
    time; each row stops when its bracket holds no float between its ends,
    so a row's result does not depend on its batch.
    """
    R, w = float(r_outer), float(r_outer - r_inner)

    def G(v, a):
        s = np.sqrt(v * v + a * a)
        return np.log(v) / (R - a) - (a * np.log(s + a) + R * np.log(R - s)) / (R * R - a * a)

    def ramp(v, a, p, tau, v_in):
        """|u| after time tau (one per row) from |u| = v at profile value p,
        for rows that stay on the ramp, above |u| = v_in: d ln|u|/dt = -p(s)
        lies between -1 and -p forward, between 0 and p backward."""
        lo = np.maximum(v * np.minimum(np.exp(-tau), 1.0), v_in)
        hi, g0 = v * np.exp(-tau * p), G(v, a)
        # the root lies above mid while mid is short of the time tau (a
        # mid past the rim, a NaN, is not)
        return _bisect(lo, hi, lambda mid, act: w * (g0[act] - G(mid, a[act])) >= tau[act])

    def flow(X, t):
        out = X.copy()
        p = _radial_profile(X, c, r_inner, r_outer)
        u = X[:, 0] - c[0]
        live = np.flatnonzero((p > 0) & (u != 0))
        u, a, p = u[live], np.abs(X[live, 1] - c[1]), p[live]
        # |u| where s = r_inner; 0 where |b| >= r_inner and the plateau is never met
        v_in = np.sqrt((r_inner * r_inner - a * a).clip(0.0))
        v, flat = np.abs(u), (p == 1.0) & (v_in > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            if t >= 0:
                # the time the ramp rows take to reach the plateau
                T = np.where(flat, 0.0, np.inf)
                r = ~flat & (v_in > 0)
                T[r] = w * (G(v[r], a[r]) - G(v_in[r], a[r]))
                end = t >= T  # rows that end on the plateau
                v[end] = np.where(flat[end], v[end], v_in[end]) * np.exp(T[end] - t)
                t0 = np.zeros_like(v)
            else:
                # the (negative) time at which the plateau rows reach the ramp
                t0 = np.where(flat, np.log(v / v_in), 0.0)
                end = flat & (t >= t0)
                v[end] *= math.exp(-t)
            # the rest spend t - t0 on the ramp, from s = r_inner or from the start
            r = ~end
            start = np.where(flat[r], v_in[r], v[r])
            v[r] = ramp(start, a[r], p[r], t - t0[r], v_in[r])
        out[live, 0] = c[0] + np.copysign(v, u)
        return out

    return flow


# builders called with a stage's params as keyword arguments, so an unknown
# parameter is a TypeError
BUILTIN_FIELDS = {
    "zero": zero_field,
    "rotation": rotation_field,
    "squeeze": squeeze_field,
    "rotation_clipped": _build_rotation_clipped,
    "squeeze_clipped": _build_squeeze_clipped,
    "sin_bump": sin_bump_field,
}


def builtin_field(field_id: str, params: dict | None = None) -> VectorField:
    """The builtin field ``field_id`` built from ``params``, the one rule a
    config stage and a manifest record share: an object whose values are
    numbers or lists of numbers, a bool being neither."""
    if field_id not in BUILTIN_FIELDS:
        raise KeyError(
            f"unknown field id {field_id!r}; known: {sorted(BUILTIN_FIELDS)}"
        )
    params = {} if params is None else params
    if type(params) is not dict or not all(
            type(v) in (int, float) or type(v) is list and all(type(u) in (int, float) for u in v)
            for v in params.values()):
        raise TypeError(f"field params must be an object of numbers or lists of numbers, "
                        f"got {params!r}")
    return BUILTIN_FIELDS[field_id](**params)


def builtin_suite() -> dict[str, VectorField]:
    """The compactly supported fields exercised by the acceptance checks."""
    return {
        "zero": builtin_field("zero"),
        "rotation_clipped": builtin_field("rotation_clipped"),
        "squeeze_clipped": builtin_field("squeeze_clipped"),
        "sin_bump": builtin_field("sin_bump"),
    }


def _number(value, kind):
    """A manifest number as it is: a TypeError unless ``value`` is a
    ``kind`` (``numbers.Integral`` or ``numbers.Real``) and not a bool, so
    a string, a bool or 1.5 for an integer is never coerced."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"expected a number of kind {kind.__name__}, got {value!r}")
    return value


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
        if [_number(k, numbers.Integral) for k in ref["n"]] != list(gi.ns):
            raise ValueError(f"grid record states n={ref['n']}, its payload holds {list(gi.ns)}")
        return grid_field(gi, ref)
    if backend == "box_clip":
        raise ValueError("a box_clip field is the manifest format before stages and lifts "
                         "became flows of grid fields; run approx-flow or lift-approx again")
    if backend == "lift":
        return lift_field(field_from_ref(ref["inner"], base_dir),
                          _number(ref["d"], numbers.Integral))
    raise ValueError(f"cannot reconstruct field from backend {backend!r}")
