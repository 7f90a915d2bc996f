"""Reference answers for the benchmark, sharing no code with the estimators.

A region probability comes from a closed-form box mass where one exists
(``rectangle_probability`` for independent products, ``KDEProfile.box_mass``
for learned profiles) and otherwise from composite Gauss-Legendre quadrature
over the 2-D polygon: the outer integral runs over TP between polygon
vertices, and the inner integral over RT is the conditional CDF difference,
written here from the profile parameters with scipy.special.  Nothing here
calls ``probqos.integrate``, ``probqos.sampling`` or ``probqos.sat``.

A reference verdict is a brute-force truth table over the free
propositional variables, given the reference truth of every constraint.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import special

# 64 sub-panels of 8 Gauss-Legendre nodes per polygon panel.  On box regions
# this agrees with the closed-form masses to 1e-16 for the parametric
# profiles and to 3e-7 for a Laplace-kernel KDE, whose kinks it does not
# resolve; the estimates' s.e. are 1e-4 and larger.
_SUBPANELS = 64
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)


class Region:
    """A 2-D polygon {(TP, RT) : a_tp*TP + a_rt*RT <= b for each row}."""

    def __init__(self, rows, text: str):
        self.rows = tuple((float(a), float(c), float(b)) for a, c, b in rows)
        self.text = text

    @property
    def key(self):
        return self.rows

    def box(self):
        """(lower, upper) when every row bounds a single axis, else None."""
        lo = [-math.inf, -math.inf]
        hi = [math.inf, math.inf]
        for a, c, b in self.rows:
            if a != 0.0 and c != 0.0:
                return None
            axis, coef = (0, a) if a != 0.0 else (1, c)
            if coef > 0:
                hi[axis] = min(hi[axis], b / coef)
            else:
                lo[axis] = max(lo[axis], b / coef)
        return np.array(lo), np.array(hi)

    def vertices(self) -> np.ndarray:
        """Polygon corners: pairwise line intersections that satisfy every row."""
        pts = []
        for (a1, c1, b1), (a2, c2, b2) in itertools.combinations(self.rows, 2):
            det = a1 * c2 - a2 * c1
            if det == 0.0:
                continue
            x = (b1 * c2 - b2 * c1) / det
            y = (a1 * b2 - a2 * b1) / det
            if all(a * x + c * y <= b + 1e-9 * max(1.0, abs(b)) for a, c, b in self.rows):
                pts.append((x, y))
        return np.array(pts)

    def area(self) -> float:
        v = self.vertices()
        order = np.argsort(np.arctan2(v[:, 1] - v[:, 1].mean(), v[:, 0] - v[:, 0].mean()))
        x, y = v[order, 0], v[order, 1]
        return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))

    def bounding_box_area(self) -> float:
        v = self.vertices()
        return float(np.prod(v.max(axis=0) - v.min(axis=0)))

    def slice(self, x: np.ndarray):
        """RT interval [lo(x), hi(x)] of the polygon at each TP value x."""
        lo = np.full(x.shape, -np.inf)
        hi = np.full(x.shape, np.inf)
        for a, c, b in self.rows:
            if c > 0:
                hi = np.minimum(hi, (b - a * x) / c)
            elif c < 0:
                lo = np.maximum(lo, (b - a * x) / c)
        return lo, np.maximum(hi, lo)


# ---------------------------------------------------------------------------
# Marginal TP density times conditional RT mass, per profile kind
# ---------------------------------------------------------------------------

def _normal_pdf(x, mean, var):
    return np.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(2.0 * math.pi * var)


def _gamma_cdf(y, shape, rate):
    return special.gammainc(shape, rate * np.clip(y, 0.0, None))


def _slab_independent(doc, x, lo, hi):
    tp, rt = doc["marginals"]
    if tp["family"] != "gaussian" or rt["family"] != "gamma":
        raise ValueError("oracle covers Gaussian TP x Gamma RT products only")
    mass = _gamma_cdf(hi, rt["shape"], rt["rate"]) - _gamma_cdf(lo, rt["shape"], rt["rate"])
    return _normal_pdf(x, tp["mean"], tp["variance"]) * mass


def _slab_correlated(doc, x, lo, hi):
    mu, sigma2, alpha, beta = doc["mu"], doc["sigma2"], doc["alpha"], doc["beta"]
    shape = alpha - (x - mu) / mu
    ok = shape > 0
    out = np.zeros(x.shape)
    s = shape[ok]
    out[ok] = _normal_pdf(x[ok], mu, sigma2) * (
        _gamma_cdf(hi[ok], s, beta) - _gamma_cdf(lo[ok], s, beta))
    return out


def _kde_kernel(kernel):
    if kernel == "gaussian":
        return (lambda u: np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi),
                special.ndtr)
    if kernel == "exponential":
        return (lambda u: 0.5 * np.exp(-np.abs(u)),
                lambda u: np.where(u < 0.0, 0.5 * np.exp(u), 1.0 - 0.5 * np.exp(-u)))
    raise ValueError(f"oracle has no kernel {kernel!r}")


def _slab_kde(kde, x, lo, hi):
    pdf, cdf = _kde_kernel(kde.kernel)
    obs = np.asarray(kde.observations)
    h_tp, h_rt = (float(v) for v in kde.bandwidths)
    out = np.empty(x.shape)
    for i in range(x.shape[0]):  # one row of nodes at a time keeps memory at O(m)
        w = pdf((x[i] - obs[:, 0]) / h_tp) / h_tp
        m = cdf((hi[i] - obs[:, 1]) / h_rt) - cdf((lo[i] - obs[:, 1]) / h_rt)
        out[i] = float(np.mean(w * m))
    return out


def _quadrature(slab, region: Region) -> float:
    xs = np.unique(np.round(region.vertices()[:, 0], 12))
    total = 0.0
    for x0, x1 in zip(xs[:-1], xs[1:]):
        edges = np.linspace(x0, x1, _SUBPANELS + 1)
        half = 0.5 * np.diff(edges)
        mid = 0.5 * (edges[:-1] + edges[1:])
        nodes = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
        weights = (half[:, None] * _GL_W[None, :]).ravel()
        lo, hi = region.slice(nodes)
        total += float(np.dot(weights, slab(nodes, lo, hi)))
    return total


def reference_probability(profile, doc, region: Region, pq) -> float:
    """P(X in region) for a program profile object and its parameter document.

    `doc` is the profile's JSON form for parametric kinds and None for a
    learned KDE (whose parameters are read from the object).  `pq` is the
    imported probqos package, used only for the closed-form box masses.
    """
    box = region.box()
    if doc is None:
        if box is not None:
            return profile.box_mass(pq.Box(*box))
        return _quadrature(lambda x, lo, hi: _slab_kde(profile, x, lo, hi), region)
    if doc["kind"] == "independent":
        if box is not None:
            return pq.rectangle_probability(profile, pq.Box(*box))
        return _quadrature(lambda x, lo, hi: _slab_independent(doc, x, lo, hi), region)
    if doc["kind"] == "correlated_tprt":
        return _quadrature(lambda x, lo, hi: _slab_correlated(doc, x, lo, hi), region)
    raise ValueError(f"oracle has no profile kind {doc['kind']!r}")


def reference_verdict(formula, n_vars: int, truths) -> str:
    """'satisfied' when some valuation of the free variables makes `formula` true.

    `formula(truths, valuation)` is the requirement written as a Python
    predicate over the constraint truths (in abstraction order) and the
    free propositional variables.
    """
    for valuation in itertools.product((False, True), repeat=n_vars):
        if formula(truths, valuation):
            return "satisfied"
    return "violated"
