"""Polytopes, interior points, and volume estimation.

Regions of QoS attribute values are bounded polytopes {x : A x <= b}. This
walkthrough builds a few, finds interior points, and estimates volumes.
"""

import numpy as np

from probqos import HPolytope, analytic_center, estimate_volume
from probqos.geometry import UnboundedPolytopeError

# The unit triangle: x >= 0, y >= 0, x + y <= 1.
triangle = HPolytope(
    np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]),
    np.array([0.0, 0.0, 1.0]),
    ("x", "y"),
)
print("contains (0.2, 0.2)?", triangle.contains([0.2, 0.2]))
print("contains (0.8, 0.8)?", triangle.contains([0.8, 0.8]))

# Construction solves one linear program per axis direction, the smallest
# and the largest value of each coordinate inside the region: the tight
# bounding box that rejection sampling draws from.
box = triangle.bounding_box
print("bounding box: lower", box.lower, "upper", box.upper)

# The analytic center minimizes the log-barrier; for the triangle it is (1/3, 1/3).
center = analytic_center(triangle)
print("analytic center:", center)

# Volume by bounding-box rejection: exact in expectation, with a standard error.
volume, se = estimate_volume(triangle, k=100_000, rng_seed=0)
print(f"triangle volume ~ {volume:.4f} +/- {se:.4f} (true 0.5)")

# Construction fails fast on unbounded input instead of silently truncating.
try:
    HPolytope(np.array([[-1.0, 0.0]]), np.array([0.0]), ("x", "y"))
except UnboundedPolytopeError as exc:
    print("unbounded region rejected:", exc)
