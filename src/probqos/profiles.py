"""QoS profiles: joint densities over the attribute vector.

Each profile supports pointwise density evaluation (what the Monte Carlo
integrator needs), forward sampling (what the learning tests and oracles
need) and the exact mass of an axis-aligned box (what a box region is
answered with). Built-in families: independent products of Gaussian/Gamma
marginals (box mass: the product of the marginal interval masses, each
formed from the upper tail above the mean), the
negatively-correlated throughput/response-time composite (box mass: a
one-dimensional quadrature over TP of the conditional Gamma CDF
difference), and a uniform box used as a constant-density fixture (box
mass: the overlap volume share).
"""

from __future__ import annotations

import functools
import math
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np
from scipy import special

from .geometry import Box, DimensionMismatchError, _sample_count
from .rng import RngStream, as_stream


class ProfileError(Exception):
    pass


class AttributeSchema:
    """Ordered, unique QoS attribute identifiers; order binds coordinates."""

    def __init__(self, names):
        if isinstance(names, str):
            raise ProfileError(f"schema needs a list of attribute names, got {names!r}")
        names = tuple(names)
        if not all(isinstance(s, str) for s in names):
            raise ProfileError(f"attribute names must be strings, got schema {list(names)!r}")
        if len(names) == 0:
            raise ProfileError("schema needs at least one attribute")
        if any(not s for s in names):
            raise ProfileError("attribute names must be nonempty")
        if len(set(names)) != len(names):
            raise ProfileError("attribute names must be unique")
        self.names = names

    def __eq__(self, other):
        if not isinstance(other, AttributeSchema):
            return NotImplemented
        return self.names == other.names

    def __hash__(self):
        return hash(self.names)

    @property
    def dim(self) -> int:
        return len(self.names)


# ---------------------------------------------------------------------------
# Univariate marginals
# ---------------------------------------------------------------------------

class Marginal(ABC):
    @abstractmethod
    def logpdf(self, x: np.ndarray) -> np.ndarray:
        """Log density; -inf outside the support."""

    @abstractmethod
    def interval_mass(self, lower: float, upper: float) -> float:
        """P(lower <= X <= upper), formed from the upper tail above the
        mean, so that a far upper-tail interval keeps its mass."""

    @abstractmethod
    def sample(self, gen: np.random.Generator, k: int) -> np.ndarray: ...


class GaussianMarginal(Marginal):
    def __init__(self, mean: float, variance: float):
        if not (math.isfinite(mean) and 0 < variance < math.inf):
            raise ProfileError("mean must be finite and variance positive and finite")
        self.mean, self.variance = mean, variance

    @property
    def sd(self) -> float:
        return float(np.sqrt(self.variance))

    def logpdf(self, x):
        z = np.asarray(x, dtype=float) - self.mean
        z /= self.sd
        z *= z
        z *= -0.5
        z -= math.log(self.sd * math.sqrt(2.0 * math.pi))
        return z

    def interval_mass(self, lower, upper):
        a, b = (lower - self.mean) / self.sd, (upper - self.mean) / self.sd
        return float(special.ndtr(-a) - special.ndtr(-b) if a > 0.0
                     else special.ndtr(b) - special.ndtr(a))

    def sample(self, gen, k):
        return gen.normal(self.mean, self.sd, size=k)


def _gamma_logpdf(x: np.ndarray, shape, rate: float) -> np.ndarray:
    """Gamma(shape, rate) log density at x > 0, built in place on one new array."""
    out = np.log(x)
    out *= shape - 1.0
    out -= rate * x
    out += shape * math.log(rate)
    out -= special.gammaln(shape)
    return out


def _gamma_interval_mass(shape: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """P(lo <= X <= hi) for X ~ Gamma(shape, 1), 0 <= lo <= hi, per shape.

    Where lo lies above the mean (and so above the median) the mass is
    Q(hi) - Q(lo) of the upper regularised incomplete gamma function, which
    keeps its relative precision in the upper tail, and elsewhere
    P(hi) - P(lo); each shape evaluates one of the two forms.
    """
    out = np.empty(shape.shape)
    upper = lo > shape
    s = shape[upper]
    out[upper] = special.gammaincc(s, lo) - special.gammaincc(s, hi)
    s = shape[~upper]
    out[~upper] = special.gammainc(s, hi) - special.gammainc(s, lo)
    return out


class GammaMarginal(Marginal):
    def __init__(self, shape: float, rate: float):
        if not (0 < shape < math.inf and 0 < rate < math.inf):
            raise ProfileError("shape and rate must be positive and finite")
        self.shape, self.rate = shape, rate

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        # the support is 0 < x < inf: at x = inf the log density is
        # inf - inf = nan, and log(x) warns where x <= 0; both are replaced
        # with -inf below
        pos = (x > 0) & (x < math.inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = _gamma_logpdf(x, self.shape, self.rate)
        return out if pos.all() else np.where(pos, out, -np.inf)

    def interval_mass(self, lower, upper):
        return float(_gamma_interval_mass(np.array([self.shape]), self.rate * max(lower, 0.0),
                                          self.rate * max(upper, 0.0))[0])

    def sample(self, gen, k):
        return gen.gamma(self.shape, 1.0 / self.rate, size=k)


# ---------------------------------------------------------------------------
# Joint profiles
# ---------------------------------------------------------------------------

class QoSProfile(ABC):
    """Evaluable, sampleable joint PDF over the schema's attribute vector.

    A profile is immutable after construction: its density never changes,
    so `requirements.evaluate_constraint` may keep the integrals it
    computed for a profile object and reuse them.
    """

    schema: AttributeSchema

    @property
    def dim(self) -> int:
        return self.schema.dim

    @abstractmethod
    def density(self, points: np.ndarray) -> np.ndarray:
        """Vectorized joint density for a (k, n) array; zero outside support."""

    @abstractmethod
    def sample(self, k: int, rng: "RngStream | int") -> np.ndarray:
        """k i.i.d. draws as a (k, n) array. k must be an integer (a numpy
        integer too) of at least 1, or ValueError is raised before any draw."""

    @abstractmethod
    def box_mass(self, box: Box) -> float:
        """P(X in box) for an axis-aligned box of the profile's dimension,
        exact to rounding (or, for `CorrelatedTPRT`, to quadrature error
        below 1e-12) and clipped into [0, 1]."""

    def density_at(self, point) -> float:
        p = np.asarray(point, dtype=float)
        if p.shape != (self.dim,):
            raise DimensionMismatchError(
                f"point has shape {p.shape}, profile dimension is {self.dim}"
            )
        return float(self.density(p[None, :])[0])


class IndependentProduct(QoSProfile):
    """Joint density factorizing as the product of univariate marginals."""

    def __init__(self, schema: AttributeSchema, marginals: Sequence[Marginal]):
        marginals = tuple(marginals)
        if len(marginals) != schema.dim:
            raise DimensionMismatchError("one marginal per schema attribute required")
        self.schema = schema
        self.marginals = marginals

    def density(self, points):
        """exp of the summed marginal log densities: one exp per point."""
        pts = np.asarray(points, dtype=float)
        # far tails overflow z * z to inf and so underflow to density 0; a
        # -inf term beside a +inf or nan one gives nan, as 0 * inf did
        with np.errstate(over="ignore", invalid="ignore"):
            logf = self.marginals[0].logpdf(pts[:, 0])
            for j in range(1, len(self.marginals)):
                logf += self.marginals[j].logpdf(pts[:, j])
        return np.exp(logf, out=logf)

    def sample(self, k, rng):
        k = _sample_count(k, 1)
        gen = as_stream(rng).generator()
        cols = [marg.sample(gen, k) for marg in self.marginals]
        return np.column_stack(cols)

    def box_mass(self, box):
        """Closed-form P(X in box) = prod_i (F_i(upper_i) - F_i(lower_i)),
        each factor the marginal's tail-safe `interval_mass`."""
        if box.dim != self.dim:
            raise DimensionMismatchError("box dimension must match profile")
        prob = 1.0
        for j, marg in enumerate(self.marginals):
            prob *= marg.interval_mass(float(box.lower[j]), float(box.upper[j]))
        return min(max(prob, 0.0), 1.0)


@functools.cache
def _composite_rule():
    """(nodes, weights) of composite Gauss-Legendre quadrature on [0, 1]:
    64 equal panels of 16 nodes each. Built on first use, so that importing
    the package does not pay for it, and read-only, as every caller shares
    them."""
    x, w = np.polynomial.legendre.leggauss(16)
    nodes = ((np.arange(64)[:, None] + 0.5 * (x + 1.0)) / 64).ravel()
    weights = np.tile(w / 128, 64)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


class CorrelatedTPRT(QoSProfile):
    """Gaussian throughput with conditionally Gamma response time.

    TP ~ Gaussian(mu, sigma2); RT | TP ~ Gamma(alpha - (TP - mu)/mu, beta),
    so a high throughput draw lowers the expected response time. Where the
    conditional shape is nonpositive (a ~1e-18 Gaussian tail event at the
    running-example parameters) the density is defined as 0 and sampling
    redraws TP.
    """

    def __init__(self, mu: float, sigma2: float, alpha: float, beta: float,
                 schema: AttributeSchema | None = None):
        if not (math.isfinite(mu) and all(0 < v < math.inf for v in (sigma2, alpha, beta))):
            raise ProfileError("mu must be finite and sigma2, alpha and beta "
                               "positive and finite")
        if mu == 0:
            raise ProfileError("mu must be nonzero (it scales the coupling)")
        self.mu = float(mu)
        self.sigma2 = float(sigma2)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.schema = schema or AttributeSchema(("TP", "RT"))
        if self.schema.dim != 2:
            raise DimensionMismatchError("CorrelatedTPRT is bivariate")
        self._tp = GaussianMarginal(self.mu, self.sigma2)

    def _conditional_shape(self, x1: np.ndarray) -> np.ndarray:
        return self.alpha - (x1 - self.mu) / self.mu

    def density(self, points):
        """exp(Gaussian log density + conditional Gamma log density), summed
        in place with one exp per point; 0 where the conditional shape or RT
        is nonpositive."""
        pts = np.asarray(points, dtype=float)
        x1 = pts[:, 0]
        x2 = pts[:, 1]
        shape2 = self._conditional_shape(x1)
        ok = (shape2 > 0) & (x2 > 0) & (x2 < math.inf)
        # far tails overflow to inf and so underflow to density 0; points
        # outside the support (RT = inf included, where the Gamma term is
        # inf - inf) may warn or give nan here, and are overwritten with
        # -inf below
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            logf = self._tp.logpdf(x1)
            logf += _gamma_logpdf(x2, shape2, self.beta)
        if not ok.all():
            logf[~ok] = -np.inf
        return np.exp(logf, out=logf)

    def sample(self, k, rng):
        """Ancestral sampling: TP (redrawn where the shape is nonpositive), then RT."""
        k = _sample_count(k, 1)
        gen = as_stream(rng).generator()
        x1 = np.empty(k)
        got = 0
        while got < k:
            draw = self._tp.sample(gen, k - got)
            keep = draw[self._conditional_shape(draw) > 0]
            x1[got:got + keep.shape[0]] = keep
            got += keep.shape[0]
        shape2 = self._conditional_shape(x1)
        x2 = gen.gamma(shape2) / self.beta
        return np.column_stack([x1, x2])

    def box_mass(self, box):
        """P(X in box) = integral over the box's TP range of
        phi(tp) * (G(s(tp), beta * hi) - G(s(tp), beta * lo)), with phi the
        TP density, s the conditional shape, G the regularised lower
        incomplete gamma and [lo, hi] the box's RT range clipped at 0. At a
        node where beta * lo lies above s(tp), the difference is formed
        from the upper incomplete gamma instead (`_gamma_interval_mass`),
        so that a far-tail RT range keeps its mass.

        The TP range is clipped to mu +/- 40 sd, beyond which phi underflows
        to 0, and to the side of mu * (alpha + 1) where s > 0 (below it for
        mu > 0, above it for mu < 0); the integral over what is left is
        composite Gauss-Legendre quadrature, 64 panels of 16 nodes.
        """
        if box.dim != self.dim:
            raise DimensionMismatchError("box dimension must match profile")
        reach = 40.0 * self._tp.sd
        lo = max(float(box.lower[0]), self.mu - reach)
        hi = min(float(box.upper[0]), self.mu + reach)
        edge = self.mu * (self.alpha + 1.0)
        if self.mu > 0:
            hi = min(hi, edge)
        else:
            lo = max(lo, edge)
        if not lo < hi:
            return 0.0
        nodes, weights = _composite_rule()
        tp = lo + (hi - lo) * nodes
        shape = self._conditional_shape(tp)
        rt_lo, rt_hi = (self.beta * max(float(v), 0.0) for v in (box.lower[1], box.upper[1]))
        rt_mass = _gamma_interval_mass(shape, rt_lo, rt_hi)
        phi = np.exp(self._tp.logpdf(tp))
        mass = (hi - lo) * float(np.dot(weights * phi, rt_mass))
        return min(max(mass, 0.0), 1.0)


class UniformBox(QoSProfile):
    """Constant density 1/Vol(box) on an axis-aligned box."""

    def __init__(self, schema: AttributeSchema, box: Box):
        if box.dim != schema.dim:
            raise DimensionMismatchError("box dimension must match schema")
        if box.volume <= 0:
            raise ProfileError("box must have positive volume")
        self.schema = schema
        self.box = box
        self._level = 1.0 / box.volume

    def density(self, points):
        pts = np.asarray(points, dtype=float)
        inside = np.all((pts >= self.box.lower) & (pts <= self.box.upper), axis=1)
        return np.where(inside, self._level, 0.0)

    def sample(self, k, rng):
        k = _sample_count(k, 1)
        gen = as_stream(rng).generator()
        return gen.uniform(self.box.lower, self.box.upper, size=(k, self.dim))

    def box_mass(self, box):
        """P(X in box): the volume of the two boxes' overlap over Vol(self.box)."""
        if box.dim != self.dim:
            raise DimensionMismatchError("box dimension must match profile")
        sides = np.minimum(box.upper, self.box.upper) - np.maximum(box.lower, self.box.lower)
        overlap = float(np.prod(np.clip(sides, 0.0, None)))
        return min(overlap / self.box.volume, 1.0)


def rectangle_probability(profile: QoSProfile, box: Box) -> float:
    """P(X in box) on any profile kind: `profile.box_mass(box)`.

    It is the exact answer `requirements.evaluate_constraint` gives, at
    standard error 0, for a box region, and the box reference that
    `integrate_uniform`'s estimates are tested against.
    """
    return profile.box_mass(box)
