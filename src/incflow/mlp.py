"""ReLU multilayer perceptrons with an exact composition algebra.

Networks here are plain value objects: a list of affine layers with ReLU
applied to every layer except the last. All algebra (composition,
parallelization, depth padding) is exact — the returned network evaluates
to the same piecewise-linear function as the operands, up to float
rounding, never up to an approximation.

A layer's weight matrix is either a dense ndarray or a
``scipy.sparse.csr_array``; the exact grid realization builds sparse
layers, hand-built networks are dense. Every place where the two forms
differ goes through the helpers below, so sizes, serialization and
Lipschitz bounds read the same for both.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy import sparse

__all__ = [
    "MLP",
    "BumpSpec",
    "relu",
    "identity_mlp",
    "affine_mlp",
    "build_bump",
    "bump_values",
    "bump_support",
    "compose",
    "parallelize",
    "pad_to_depth",
    "lipschitz_upper_bound",
]


def relu(z):
    return np.maximum(z, 0.0)


# -- dense/sparse layer helpers --------------------------------------------


def _as_weights(W):
    """Float copy of a dense ``W``; a sparse ``W`` as float CSR."""
    if sparse.issparse(W):
        return sparse.csr_array(W, dtype=float)
    return np.array(W, dtype=float)


def _dense(W) -> np.ndarray:
    return W.toarray() if sparse.issparse(W) else W


def _nonzeros(W) -> int:
    """Nonzero entries; explicitly stored zeros of a sparse ``W`` do not count."""
    return int(np.count_nonzero(W.data if sparse.issparse(W) else W))


def _affine(W, b, X) -> np.ndarray:
    """``X @ W.T + b`` for a batch ``X`` of rows, as an ndarray."""
    if sparse.issparse(W):
        return (W @ X.T).T + b
    return X @ W.T + b


def _matmul(A, B):
    """``A @ B``, kept as CSR when either operand is sparse."""
    if sparse.issparse(A) or sparse.issparse(B):
        return sparse.csr_array(A) @ sparse.csr_array(B)
    return A @ B


def _vstack(blocks):
    if any(sparse.issparse(B) for B in blocks):
        return sparse.vstack(blocks, format="csr")
    return np.vstack(blocks)


def _hstack(blocks):
    if any(sparse.issparse(B) for B in blocks):
        return sparse.hstack(blocks, format="csr")
    return np.hstack(blocks)


def _block_diag(blocks):
    if any(sparse.issparse(B) for B in blocks):
        return sparse.block_diag(blocks, format="csr")
    return scipy.linalg.block_diag(*blocks)


class MLP:
    """Layered affine network; ReLU on all layers except the last.

    Parameters
    ----------
    layers : sequence of (W, b)
        ``W`` has shape ``(out, in)``, ``b`` shape ``(out,)``. Consecutive
        layer dimensions must chain. A single layer is the affine map
        itself (zero hidden layers). ``W`` may be dense or a scipy sparse
        matrix; sparse weights are stored as CSR, dense ones as ndarrays.
    """

    def __init__(self, layers):
        if not layers:
            raise ValueError("an MLP needs at least one affine layer")
        clean = []
        for W, b in layers:
            W = _as_weights(W)
            b = np.array(b, dtype=float)
            if W.ndim != 2 or b.ndim != 1 or W.shape[0] != b.shape[0]:
                raise ValueError(
                    f"bad layer shapes: W {W.shape}, b {b.shape}"
                )
            clean.append((W, b))
        for k, ((W0, _), (W1, _)) in enumerate(zip(clean, clean[1:])):
            if W1.shape[1] != W0.shape[0]:
                raise ValueError(
                    f"layer {k} emits {W0.shape[0]} features but layer "
                    f"{k + 1} expects {W1.shape[1]}"
                )
        self.layers = clean

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1][0].shape[0]

    @property
    def depth(self) -> int:
        """Hidden layers plus the output layer."""
        return len(self.layers)

    @property
    def width(self) -> int:
        return max(W.shape[0] for W, _ in self.layers)

    @property
    def nonzeros(self) -> int:
        return sum(_nonzeros(W) + _nonzeros(b) for W, b in self.layers)

    def eval(self, x, activation=relu):
        """Forward pass. ``x`` is one point ``(d,)`` or a batch ``(m, d)``.

        ``activation`` may be any 1-Lipschitz scalar function applied
        componentwise; the constructive builders in this package assume
        ReLU, which is the default.
        """
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        X = np.atleast_2d(x)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ValueError(
                f"input has shape {x.shape}, network expects {self.input_dim} features"
            )
        if not np.all(np.isfinite(X)):
            raise ValueError("non-finite input")
        for W, b in self.layers[:-1]:
            X = activation(_affine(W, b, X))
        W, b = self.layers[-1]
        X = _affine(W, b, X)
        return X[0] if single else X

    __call__ = eval

    def __repr__(self):
        dims = [self.input_dim] + [W.shape[0] for W, _ in self.layers]
        return f"MLP({'-'.join(map(str, dims))})"

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "output_dim": self.output_dim,
            "layers": [
                {
                    "rows": W.shape[0],
                    "cols": W.shape[1],
                    "weights": _dense(W).ravel().tolist(),
                    "bias": b.tolist(),
                }
                for W, b in self.layers
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MLP":
        layers = [
            (
                np.array(spec["weights"], dtype=float).reshape(
                    spec["rows"], spec["cols"]
                ),
                np.array(spec["bias"], dtype=float),
            )
            for spec in d["layers"]
        ]
        net = cls(layers)
        if net.input_dim != d["input_dim"] or net.output_dim != d["output_dim"]:
            raise ValueError("serialized dims inconsistent with layer shapes")
        return net

    def save_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load_json(cls, path) -> "MLP":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def identity_mlp(dim: int) -> MLP:
    return MLP([(np.eye(dim), np.zeros(dim))])


def affine_mlp(W, b=None) -> MLP:
    W = np.atleast_2d(np.asarray(W, dtype=float))
    if b is None:
        b = np.zeros(W.shape[0])
    return MLP([(W, np.asarray(b, dtype=float))])


@dataclass(frozen=True)
class BumpSpec:
    """Parameters of the exact coordinatewise cutoff network."""

    delta: float
    dim: int = 1

    def __post_init__(self):
        if not 0.0 < self.delta < 2.0:
            raise ValueError(f"delta must lie strictly in (0, 2), got {self.delta}")
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")


def build_bump(spec: BumpSpec) -> MLP:
    """Exact two-hidden-layer cutoff network, replicated per coordinate.

    Scalar form: ``b(x) = relu(2 relu(x - d/4) - relu(x - d/2)
    - (1/d) relu(x - (1 - d/2)))`` with ``d = spec.delta``. The network
    equals the identity on ``[d/2, 1 - d/2]``, vanishes for
    ``x <= d/4`` and for ``x >= (2 - d) / (2 (1 - d))`` (when ``d < 1``),
    and its range is contained in ``[0, 1)``.
    """
    d = spec.delta
    w1 = np.ones((3, 1))
    b1 = -np.array([d / 4.0, d / 2.0, 1.0 - d / 2.0])
    w2 = np.array([[2.0, -1.0, -1.0 / d]])
    b2 = np.zeros(1)
    w3 = np.eye(1)
    b3 = np.zeros(1)
    scalar = MLP([(w1, b1), (w2, b2), (w3, b3)])
    if spec.dim == 1:
        return scalar
    return parallelize([scalar] * spec.dim)


def bump_values(x, delta: float):
    """Closed-form evaluation of the cutoff network (vectorized)."""
    x = np.asarray(x, dtype=float)
    inner = (
        2.0 * relu(x - delta / 4.0)
        - relu(x - delta / 2.0)
        - relu(x - (1.0 - delta / 2.0)) / delta
    )
    return relu(inner)


def bump_support(delta: float) -> tuple[float, float | None]:
    """Interval outside which the cutoff vanishes.

    Returns ``(delta/4, upper)`` with ``upper = (2-delta)/(2(1-delta))``,
    or ``upper = None`` when ``delta >= 1`` (the descending branch never
    reaches zero, so the cutoff is not compactly supported).
    """
    if delta >= 1.0:
        return delta / 4.0, None
    return delta / 4.0, (2.0 - delta) / (2.0 * (1.0 - delta))


def compose(outer: MLP, inner: MLP) -> MLP:
    """Single network evaluating ``outer(inner(x))`` exactly.

    The junction merges inner's output affine with outer's first affine,
    so hidden depth adds: composing with the cutoff network adds exactly
    its two hidden layers.
    """
    if inner.output_dim != outer.input_dim:
        raise ValueError(
            f"inner emits {inner.output_dim} features, outer expects {outer.input_dim}"
        )
    Wi, bi = inner.layers[-1]
    Wo, bo = outer.layers[0]
    merged = (_matmul(Wo, Wi), Wo @ bi + bo)
    return MLP(inner.layers[:-1] + [merged] + outer.layers[1:])


def pad_to_depth(net: MLP, depth: int) -> MLP:
    """Insert exact identity hidden layers before the output layer.

    ReLU-safe identity uses the split z = relu(z) - relu(-z), doubling
    width for the inserted layer.
    """
    if depth < net.depth:
        raise ValueError("cannot shrink depth")
    while net.depth < depth:
        W, b = net.layers[-1]
        m = W.shape[0]
        hidden = (_vstack([W, -W]), np.concatenate([b, -b]))
        eye = sparse.eye_array(m) if sparse.issparse(W) else np.eye(m)
        out = (_hstack([eye, -eye]), np.zeros(m))
        net = MLP(net.layers[:-1] + [hidden, out])
    return net


def parallelize(parts: list[MLP]) -> MLP:
    """Block-diagonal stack under disjoint wiring.

    All parts must share the same input dimension; shallower parts are
    depth-padded first. The result consumes the concatenation of the
    parts' inputs and emits the concatenation of their outputs, exactly
    equal to evaluating each part independently.
    """
    if not parts:
        raise ValueError("parallelize needs at least one part")
    if len({p.input_dim for p in parts}) != 1:
        raise ValueError("parts have unequal input dims")
    depth = max(p.depth for p in parts)
    parts = [pad_to_depth(p, depth) for p in parts]
    layers = []
    for k in range(depth):
        blocks = [p.layers[k] for p in parts]
        layers.append((
            _block_diag([W for W, _ in blocks]),
            np.concatenate([b for _, b in blocks]),
        ))
    return MLP(layers)


def lipschitz_upper_bound(net: MLP, norm: str = "l_inf") -> float:
    """Product of layer operator norms; >= the true Lipschitz constant.

    ReLU is 1-Lipschitz componentwise in both supported norms, so the
    product over layers dominates the network's Lipschitz constant.
    The spectral norm of a sparse layer is taken of its dense form, so
    the ``l_2`` bound is the same exact-SVD value for both forms.
    """
    prod = 1.0
    for W, _ in net.layers:
        if norm == "l_inf":
            prod *= float(abs(W).sum(axis=1).max())
        elif norm == "l_2":
            prod *= float(np.linalg.norm(_dense(W), 2))
        else:
            raise ValueError(f"unknown norm {norm!r} (use 'l_inf' or 'l_2')")
    return prod
