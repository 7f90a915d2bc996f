"""Uniform sampling inside bounded polytopes, and the frame that rounds them.

`rejection_sample` gives exact i.i.d. points from bounding-box proposals.
`rounded_frame` maps a region onto a frame where it is round: the region's
Dikin ellipsoid at its analytic centre becomes the unit ball, so the region
contains that ball and lies inside the ball of radius sqrt(m(m - 1)) for m
rows, however thin a sliver of its own bounding box it was. The integrator
runs its box pass in that frame when the region's own box acceptance is
below REJECTION_ACCEPTANCE_THRESHOLD. `dikin_walk` is a Markov chain with
barrier-ellipsoid proposals; no estimate in the program draws from it, and
it is checked against `rejection_sample`.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .geometry import HPolytope, _sample_count, analytic_center, box_pass
from .rng import RngStream, as_stream

log = logging.getLogger(__name__)

MAX_CONSECUTIVE_REJECTS = 1_000_000

# The integrator samples a region's own bounding box at or above this box
# acceptance rate, and the box of its rounded frame below it.
REJECTION_ACCEPTANCE_THRESHOLD = 0.05

# Dikin walk: steps discarded before the first emitted state, steps between
# emitted states, and the proposal radius times sqrt(n). The Metropolis
# correction keeps the chain exact for any radius; this radius/thinning pair
# keeps the thinned chain's autocorrelation time small on desk-scale regions.
DIKIN_BURN_IN = 1000
DIKIN_THINNING = 10
DIKIN_RADIUS_SQRT_N = 1.5


class ThinRegionError(Exception):
    """Rejection sampling gave up; use the Dikin walk or reformulate the region."""


def rejection_sample(poly: HPolytope, k: int, rng: "RngStream | int") -> np.ndarray:
    """k i.i.d. uniform points in the polytope, by bounding-box rejection.

    Exact uniformity (no MCMC bias). The points are the first k hits, in
    draw order, of `box_pass`es of min(max(2k, 1024), 262144) proposals
    each, pass j on substream j of `rng`. Aborts with ThinRegionError once
    10^6 proposals in whole consecutive passes have missed. k must be an
    integer (a numpy integer too) of at least 1, or ValueError is raised
    before any draw.
    """
    k = _sample_count(k, 1)
    stream = as_stream(rng)
    batch = int(min(max(2 * k, 1024), 262_144))
    parts = []
    got = 0
    missed = 0
    while got < k:
        hits, pts = box_pass(poly, batch, stream.substream(len(parts)), np.copy)
        parts.append(pts)
        got += hits
        missed = missed + batch if hits == 0 else 0
        if missed >= MAX_CONSECUTIVE_REJECTS:
            raise ThinRegionError(
                "acceptance rate collapsed; use dikin_walk or reformulate the region"
            )
    return np.concatenate(parts)[:k]


def _barrier_cholesky(A: np.ndarray, s: np.ndarray):
    """Cholesky factor and log-determinant of the barrier Hessian at a
    strictly interior point with slack s = b - A x."""
    W = A / s[:, None]
    H = W.T @ W
    L = np.linalg.cholesky(H)
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    return L, logdet


def rounded_frame(poly: HPolytope):
    """(c, M, rounded, det): the region in the frame of its Dikin ellipsoid.

    c is the analytic centre and H = L L^T the log-barrier Hessian there,
    and M = L^-T, so x = c + M y maps the ellipsoid {x : (x - c)^T H (x - c)
    <= 1} onto the unit ball. `rounded` is {y : A M y <= b - A c}, the
    region in y, and det = |det M| = 1 / det L, so that the integral of f
    over the region is det times the integral of f(c + M y) over `rounded`
    (Boyd & Vandenberghe, Convex Optimization, 8.5.3).
    """
    A = poly.constraint_matrix
    c = analytic_center(poly)
    slack = poly.bounds - A @ c
    L, logdet = _barrier_cholesky(A, slack)
    M = np.linalg.inv(L).T
    rounded = HPolytope(A @ M, slack, poly.attribute_names)
    return c, M, rounded, math.exp(-0.5 * logdet)


def dikin_walk(poly: HPolytope, k: int, rng: "RngStream | int" = 0) -> np.ndarray:
    """k approximately-uniform points from a Dikin-walk Markov chain.

    From state x, propose y uniform in the ellipsoid
    {y : (y-x)^T H(x) (y-x) <= r^2} with H the log-barrier Hessian; accept
    with the Metropolis ratio sqrt(det H(y) / det H(x)) provided y is strictly
    interior and the reverse ellipsoid contains x, with r = 1.5/sqrt(n).
    Starts at the analytic center and emits every DIKIN_THINNING-th state
    after DIKIN_BURN_IN steps. Numerical boundary failures restart the chain
    from the analytic center (counted, logged). k is checked as in
    `rejection_sample`.
    """
    k = _sample_count(k, 1)
    n = poly.dim
    radius = DIKIN_RADIUS_SQRT_N / math.sqrt(n)
    gen = as_stream(rng).generator()
    A = poly.constraint_matrix
    b = poly.bounds

    center = analytic_center(poly)
    x = center.copy()
    L_center, logdet_center = _barrier_cholesky(A, b - A @ center)
    L, logdet = L_center, logdet_center

    out = np.empty((k, n))
    got = 0
    step = 0
    restarts = 0
    total_steps = DIKIN_BURN_IN + k * DIKIN_THINNING
    inv_n = 1.0 / n
    while step < total_steps:
        u = gen.standard_normal(n)
        norm = np.linalg.norm(u)
        if norm == 0.0:
            step += 1
            continue
        u *= gen.random() ** inv_n / norm
        try:
            y = x + radius * np.linalg.solve(L.T, u)
            sy = b - A @ y
            if np.all(sy > 0.0):
                Ly, logdet_y = _barrier_cholesky(A, sy)
                d = x - y
                reverse_ok = float(np.sum((Ly.T @ d) ** 2)) <= radius * radius
                if reverse_ok and gen.random() < math.exp(
                    min(0.0, 0.5 * (logdet_y - logdet))
                ):
                    x, L, logdet = y, Ly, logdet_y
        except np.linalg.LinAlgError:
            restarts += 1
            x, L, logdet = center.copy(), L_center, logdet_center
        step += 1
        if step > DIKIN_BURN_IN and (step - DIKIN_BURN_IN) % DIKIN_THINNING == 0:
            out[got] = x
            got += 1
    if restarts:
        log.warning("dikin_walk restarted from the analytic center %d time(s)", restarts)
    return out[:got] if got < k else out
