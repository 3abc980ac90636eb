"""The exact ReLU cutoff network and the network algebra around it.

The scalar cutoff b(x) = relu(2 relu(x - d/4) - relu(x - d/2)
- (1/d) relu(x - (1 - d/2))) is the identity on [d/2, 1 - d/2], ramps to
zero on both sides, and is built here with explicit weights, so every
claim about it can be checked pointwise. Composing any network with the
coordinatewise cutoff compactifies its support at the cost of exactly two
extra hidden layers.
"""

import numpy as np

from incflow import build_bump, compose, lipschitz_upper_bound
from incflow.mlp import MLP

delta = 0.4
bump = build_bump(delta)
print(f"cutoff network for delta={delta}: {bump!r}, depth={bump.depth}")

probes = np.array([0.05, 0.15, 0.5, 0.85, 1.0, 2.0])
vals = bump.eval(probes[:, None])[:, 0]
for x, v in zip(probes, vals):
    print(f"  b({x:4.2f}) = {v:.6f}")
print("  note b(1.0) > 0: the descending ramp only reaches zero at")
print(f"  (2-delta)/(2(1-delta)) = {(2 - delta) / (2 * (1 - delta)):.4f}")

print(f"\ntracked Lipschitz bound (l_inf): {lipschitz_upper_bound(bump):.2f}")
x = np.linspace(-0.5, 1.5, 200_001)
v = bump.eval(x[:, None])[:, 0]
print(f"measured max slope:             {np.abs(np.diff(v) / np.diff(x)).max():.2f}")

# composition adds the cutoff's two hidden layers and nothing else
inner = build_bump(delta, 2)
outer = MLP([(np.array([[1.0, -1.0], [0.5, 0.5]]), np.zeros(2)),
             (np.eye(2), np.zeros(2))])
clipped = compose(outer, inner)
print(f"\ndepth(outer)={outer.depth}, depth(outer after cutoff)={clipped.depth}")
X = np.random.default_rng(0).uniform(delta / 2, 1 - delta / 2, size=(5, 2))
print("on the plateau the composition equals the original network:",
      np.abs(clipped.eval(X) - outer.eval(X)).max())
