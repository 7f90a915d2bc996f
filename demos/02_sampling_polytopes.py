"""Uniform samples inside a polytope: rejection sampling vs the Dikin walk.

Rejection sampling from the bounding box is exact but collapses when the
region is a thin sliver of its box; the Dikin walk is a Markov chain whose
proposals adapt to the local shape of the region, so it keeps working there.
"""

import numpy as np

from probqos import HPolytope, dikin_walk, rejection_sample

triangle = HPolytope(
    np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]),
    np.array([0.0, 0.0, 1.0]),
    ("x", "y"),
)

exact = rejection_sample(triangle, 50_000, rng=0)
walk = dikin_walk(triangle, 50_000, rng=0)

print("true mean of a uniform triangle: (1/3, 1/3) =", (1 / 3, 1 / 3))
print("rejection mean:", exact.mean(axis=0))
print("dikin mean:    ", walk.mean(axis=0))
print("rejection cov:\n", np.cov(exact.T))
print("dikin cov:\n", np.cov(walk.T))

# Every emitted point is a member of the region, for both samplers.
print("all rejection points inside:", bool(triangle.contains_all(exact).all()))
print("all dikin points inside:    ", bool(triangle.contains_all(walk).all()))

# A thin diagonal slab: the box acceptance rate is ~1%, where the walk shines.
slab = HPolytope(
    np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0], [-1.0, -1.0]]),
    np.array([0.01, 0.01, 1.0, 1.0]),
    ("x", "y"),
)
thin = dikin_walk(slab, 5_000, rng=1)
print("thin slab sample mean (expect ~0, ~0):", thin.mean(axis=0))
