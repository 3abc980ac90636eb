"""ReLU multilayer perceptrons and the exact cutoff network.

Networks here are plain value objects: a list of affine layers with ReLU
applied to every layer except the last. Composition is exact: the
returned network evaluates to the same piecewise-linear function as the
operands, up to float rounding, never up to an approximation.

Every layer's weight matrix is a ``scipy.sparse.csr_array``. The exact
constructions are almost all zeros and the builders here store none of
them; one format means one code path for evaluation, composition, sizes
and Lipschitz bounds. Networks are not serialized: a saved artifact stores
what a network is built from (a grid payload), never its weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

__all__ = [
    "MLP",
    "BumpSpec",
    "relu",
    "affine_mlp",
    "build_bump",
    "bump_values",
    "bump_support",
    "compose",
    "lipschitz_upper_bound",
]


def relu(z):
    return np.maximum(z, 0.0)


# Rows per block in ``MLP.eval`` and in ``grid_realize``'s fine check. Each
# row is evaluated independently and CSR products sum each row in the same
# order whatever the block size, so blocking bounds the values held at once
# without changing a bit.
_EVAL_ROWS = 512


class MLP:
    """Layered affine network; ReLU on all layers except the last.

    Parameters
    ----------
    layers : sequence of (W, b)
        ``W`` has shape ``(out, in)``, ``b`` shape ``(out,)``. Consecutive
        layer dimensions must chain. A single layer is the affine map
        itself (zero hidden layers). ``W`` may be dense or a scipy sparse
        matrix; it is stored as a float CSR array.
    """

    def __init__(self, layers):
        if not layers:
            raise ValueError("an MLP needs at least one affine layer")
        clean = []
        for W, b in layers:
            W = sparse.csr_array(W, dtype=float)
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
        return sum(int(np.count_nonzero(W.data)) + int(np.count_nonzero(b))
                   for W, b in self.layers)

    def eval(self, x):
        """Forward pass. ``x`` is one point ``(d,)`` or a batch ``(m, d)``.

        Rows are pushed through in blocks of ``_EVAL_ROWS``, so the hidden
        activations held at once do not grow with the batch.
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
        out = np.empty((X.shape[0], self.output_dim))
        for start in range(0, X.shape[0], _EVAL_ROWS):
            Z = X[start:start + _EVAL_ROWS]
            for W, b in self.layers[:-1]:
                Z = relu((W @ Z.T).T + b)
            W, b = self.layers[-1]
            out[start:start + _EVAL_ROWS] = (W @ Z.T).T + b
        return out[0] if single else out

    __call__ = eval

    def __repr__(self):
        dims = [self.input_dim] + [W.shape[0] for W, _ in self.layers]
        return f"MLP({'-'.join(map(str, dims))})"


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
    # one scalar copy per coordinate: block-diagonal weights, tiled biases
    return MLP([(sparse.block_diag([W] * spec.dim, format="csr"), np.tile(b, spec.dim))
                for W, b in scalar.layers])


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
    merged = (Wo @ Wi, Wo @ bi + bo)
    return MLP(inner.layers[:-1] + [merged] + outer.layers[1:])


def lipschitz_upper_bound(net: MLP) -> float:
    """Product of the layers' l_inf operator norms (maximum absolute row
    sums); >= the network's l_inf Lipschitz constant, because ReLU is
    1-Lipschitz componentwise.
    """
    prod = 1.0
    for W, _ in net.layers:
        prod *= float(abs(W).sum(axis=1).max())
    return prod
