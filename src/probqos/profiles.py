"""QoS profiles: joint densities over the attribute vector.

Each profile supports pointwise density evaluation (what the Monte Carlo
integrator needs) and forward sampling (what the learning tests and oracles
need). Built-in families: independent products of Gaussian/Gamma marginals,
the negatively-correlated throughput/response-time composite, and a uniform
box used as a constant-density fixture.
"""

from __future__ import annotations

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
    def pdf(self, x: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def cdf(self, x: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def sample(self, gen: np.random.Generator, k: int) -> np.ndarray: ...


@dataclass(frozen=True)
class GaussianMarginal(Marginal):
    mean: float
    variance: float

    def __post_init__(self):
        if not self.variance > 0:
            raise ProfileError("variance must be positive")

    @property
    def sd(self) -> float:
        return float(np.sqrt(self.variance))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        z = (x - self.mean) / self.sd
        return np.exp(-0.5 * z * z) / (self.sd * np.sqrt(2.0 * np.pi))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return special.ndtr((x - self.mean) / self.sd)

    def sample(self, gen, k):
        return gen.normal(self.mean, self.sd, size=k)


def _gamma_logpdf(x: np.ndarray, shape, rate) -> np.ndarray:
    return (
        shape * np.log(rate)
        - special.gammaln(shape)
        + (shape - 1.0) * np.log(x)
        - rate * x
    )


@dataclass(frozen=True)
class GammaMarginal(Marginal):
    shape: float
    rate: float

    def __post_init__(self):
        if not (self.shape > 0 and self.rate > 0):
            raise ProfileError("shape and rate must be positive")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        pos = x > 0
        if np.any(pos):
            out[pos] = np.exp(_gamma_logpdf(x[pos], self.shape, self.rate))
        return out

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
        pts = np.asarray(points, dtype=float)
        out = np.ones(pts.shape[0])
        for j, marg in enumerate(self.marginals):
            out *= marg.pdf(pts[:, j])
        return out

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
        if not (sigma2 > 0 and alpha > 0 and beta > 0):
            raise ProfileError("sigma2, alpha and beta must be positive")
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
        pts = np.asarray(points, dtype=float)
        x1 = pts[:, 0]
        x2 = pts[:, 1]
        shape2 = self._conditional_shape(x1)
        out = np.zeros(pts.shape[0])
        ok = (shape2 > 0) & (x2 > 0)
        if np.any(ok):
            out[ok] = self._tp.pdf(x1[ok]) * np.exp(
                _gamma_logpdf(x2[ok], shape2[ok], self.beta)
            )
        return out

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
