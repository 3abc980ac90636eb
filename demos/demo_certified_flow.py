"""Approximate a field on a grid, flow it, and check the certificate.

The pipeline: sample the field on an (n+1)^2 vertex grid, interpolate
over the coordinate-order simplices, realize the interpolant as an exact
ReLU network, and take the time-1 flow. The field vanishes on the
cube's boundary, so the approximant does too and its flow keeps the
cube. The certified error bound 2 ||omega(d/2n)|| e^L, with
omega(t) = L t, is computed from the field's Lipschitz bound L alone;
the measured error compares against the true field's exact flow, a
rotation of each circle about the center.
"""

import numpy as np

from incflow import approximate_generator, builtin_field, reference_flow
from incflow.fields import lattice

field = builtin_field("rotation_clipped")
print(f"field: clipped rotation, Lipschitz bound {field.lipschitz_bound:.3f}")

pts = lattice([33, 33])
ref = reference_flow(field)(pts)

print(f"\n{'n':>3} {'measured':>12} {'certified':>12} {'width':>7} {'depth':>6}")
for n in (4, 8, 16):
    gen = approximate_generator([field], n)
    flow, cert = gen.stages[0], gen.certificate
    measured = np.abs(flow.apply(pts) - ref).max()
    rep = flow.field.report
    print(f"{n:>3} {measured:12.4e} {cert.total_bound:12.4e} {rep.width:>7} {rep.depth:>6}")
    print(f"    size targets: width {rep.target_width}, depth {rep.target_depth}, "
          f"nonzeros {rep.target_nonzeros} (achieved {rep.nonzeros})")

print("\nthe certificate is loose (the e^L factor is an upper bound taken")
print("over the whole support) but it is honest: it dominates every run.")

# the flow is invertible by time reversal
flow = approximate_generator([field], 8).stages[0]
X = np.random.default_rng(1).random((200, 2))
back = flow.inverse().apply(flow.apply(X))
print(f"\nforward-backward round trip max error: {np.abs(back - X).max():.2e}")
