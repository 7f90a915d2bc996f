"""QoS profiles: joint densities over the attribute vector.

Each profile supports pointwise density evaluation (what the Monte Carlo
integrator needs) and forward sampling (what the learning tests and oracles
need). Built-in families: independent products of Gaussian/Gamma marginals,
the negatively-correlated throughput/response-time composite, and a uniform
box used as a constant-density fixture.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special

from .geometry import Box, DimensionMismatchError
from .rng import RngStream, as_stream


class ProfileError(Exception):
    pass


class UnsupportedProfileError(ProfileError):
    """Operation requires closed-form marginals the profile does not have."""


@dataclass(frozen=True)
class AttributeSchema:
    """Ordered, unique QoS attribute identifiers; order binds coordinates."""

    names: tuple

    def __post_init__(self):
        names = tuple(str(s) for s in self.names)
        if len(names) == 0:
            raise ProfileError("schema needs at least one attribute")
        if any(not s for s in names):
            raise ProfileError("attribute names must be nonempty")
        if len(set(names)) != len(names):
            raise ProfileError("attribute names must be unique")
        object.__setattr__(self, "names", names)

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

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return np.exp(self.logpdf(x))

    @abstractmethod
    def cdf(self, x: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def sample(self, gen: np.random.Generator, k: int) -> np.ndarray: ...


@dataclass(frozen=True)
class GaussianMarginal(Marginal):
    mean: float
    variance: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and 0 < self.variance < math.inf):
            raise ProfileError("mean must be finite and variance positive and finite")

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

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return special.ndtr((x - self.mean) / self.sd)

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


@dataclass(frozen=True)
class GammaMarginal(Marginal):
    shape: float
    rate: float

    def __post_init__(self):
        if not (0 < self.shape < math.inf and 0 < self.rate < math.inf):
            raise ProfileError("shape and rate must be positive and finite")

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        # the support is 0 < x < inf: at x = inf the log density is
        # inf - inf = nan, and log(x) warns where x <= 0; both are replaced
        # with -inf below
        pos = (x > 0) & (x < math.inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = _gamma_logpdf(x, self.shape, self.rate)
        return out if pos.all() else np.where(pos, out, -np.inf)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return special.gammainc(self.shape, self.rate * np.clip(x, 0.0, None))

    def sample(self, gen, k):
        return gen.gamma(self.shape, 1.0 / self.rate, size=k)


# ---------------------------------------------------------------------------
# Joint profiles
# ---------------------------------------------------------------------------

class QoSProfile(ABC):
    """Evaluable, sampleable joint PDF over the schema's attribute vector."""

    schema: AttributeSchema

    @property
    def dim(self) -> int:
        return self.schema.dim

    @abstractmethod
    def density(self, points: np.ndarray) -> np.ndarray:
        """Vectorized joint density for a (k, n) array; zero outside support."""

    @abstractmethod
    def sample(self, k: int, rng: "RngStream | int") -> np.ndarray:
        """k i.i.d. draws as a (k, n) array."""

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
        gen = as_stream(rng).generator()
        cols = [marg.sample(gen, k) for marg in self.marginals]
        return np.column_stack(cols)


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
        if k < 1:
            raise ValueError("k must be >= 1")
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
        gen = as_stream(rng).generator()
        return gen.uniform(self.box.lower, self.box.upper, size=(k, self.dim))


def rectangle_probability(profile: IndependentProduct, box: Box) -> float:
    """Closed-form P(X in box) = prod_i (F_i(upper_i) - F_i(lower_i)).

    Independent oracle for the Monte Carlo integrator; only defined for
    independent products with closed-form marginal CDFs.
    """
    if not isinstance(profile, IndependentProduct):
        raise UnsupportedProfileError(
            "rectangle_probability needs an independent product profile"
        )
    if box.dim != profile.dim:
        raise DimensionMismatchError("box dimension must match profile")
    prob = 1.0
    for j, marg in enumerate(profile.marginals):
        prob *= float(marg.cdf(box.upper[j]) - marg.cdf(box.lower[j]))
    return max(prob, 0.0)
