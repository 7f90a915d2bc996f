"""Learning QoS profiles from execution records via kernel density estimation.

Multivariate product-kernel KDE with per-axis bandwidths, rule-of-thumb
bandwidth selectors (Scott, Silverman), and k-fold cross-validated selection
of the (kernel, bandwidth-scale) combination by held-out log-likelihood. A
KDE's box mass is exact, and the mass of any other region is estimated by
sampling the KDE inside the region's bounding box.
"""

from __future__ import annotations

import csv
import functools
import math
from typing import Callable, NamedTuple

import numpy as np
from scipy import special

from .geometry import Box, DimensionMismatchError, HPolytope
from .profiles import AttributeSchema, ProfileError, QoSProfile
from .rng import as_stream

__all__ = [
    "LearningError",
    "QoSRecordSet",
    "KDEProfile",
    "bandwidth_scott",
    "bandwidth_silverman",
    "fit_kde_cv",
    "KERNELS",
]

# The candidates fit_kde_cv scores: each kernel at each multiple of the
# Scott bandwidths, over CV_FOLDS folds.
CV_KERNELS = ("gaussian", "exponential")
CV_MULTIPLIERS = (0.25, 0.5, 1.0, 2.0, 4.0)
CV_FOLDS = 5

# Elements of one (rows, m) block of log_density. The block is sized for
# cache, not for memory: its two float64 buffers (512 KiB each) stay in a
# core's L2 cache across the per-axis sweep and the exp-sum. On a 2 MiB-L2
# Xeon, 2**16 ran 1.2-1.5x faster than 2**18 and 2**20 at m = 1000 and 10,000.
_MAX_ELEMENTS = 1 << 16


class LearningError(Exception):
    pass


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

class QoSRecordSet:
    """m observed QoS vectors (rows) over the schema's attributes."""

    def __init__(self, schema: AttributeSchema, observations):
        obs = np.asarray(observations, dtype=float)
        if obs.ndim != 2:
            raise LearningError("observations must be an m x n matrix")
        if obs.shape[0] < 2:
            raise LearningError("need at least 2 records")
        if obs.shape[1] != schema.dim:
            raise DimensionMismatchError(
                f"records have {obs.shape[1]} columns, schema has {schema.dim}"
            )
        if not np.all(np.isfinite(obs)):
            raise LearningError("records must be finite (no missing values)")
        obs = obs.copy()
        obs.setflags(write=False)
        self.schema, self.observations = schema, obs

    @property
    def m(self) -> int:
        return self.observations.shape[0]

    @property
    def dim(self) -> int:
        return self.observations.shape[1]

    @classmethod
    def from_csv(cls, path) -> "QoSRecordSet":
        """Load records from a header + decimal-rows CSV.

        The header names become the schema. Rows with missing or non-numeric
        fields are rejected, not imputed.
        """
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise LearningError(f"{path}: empty CSV")
            header = tuple(name.strip() for name in header)
            schema = AttributeSchema(header)
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise LearningError(f"{path}:{lineno}: expected {len(header)} fields")
                try:
                    values = [float(field) for field in row]
                except ValueError:
                    raise LearningError(f"{path}:{lineno}: missing or non-numeric field")
                if not all(math.isfinite(v) for v in values):
                    raise LearningError(f"{path}:{lineno}: non-finite value")
                rows.append(values)
        if not rows:
            raise LearningError(f"{path}: no data rows")
        return cls(schema, np.array(rows, dtype=float))


# ---------------------------------------------------------------------------
# Kernels (normalized 1-D shapes; the product over axes forms the n-D kernel)
# ---------------------------------------------------------------------------

class _Kernel(NamedTuple):
    """A unit-bandwidth shape kappa, written log kappa(u) = -distance(u / scale)
    - log_norm so that log_density sums one distance per axis."""

    distance: Callable  # numpy ufunc, applied in place
    degree: int  # distance(u / t) = distance(u) / t**degree
    log_norm: float
    scale: float
    cdf: Callable
    ppf: Callable  # the inverse of cdf
    noise: Callable  # noise(gen, size=...) draws unit-bandwidth offsets


def _exponential_cdf(u):
    u = np.asarray(u, dtype=float)
    half_tail = 0.5 * np.exp(-np.abs(u))
    return np.where(u < 0.0, half_tail, 1.0 - half_tail)


def _exponential_ppf(p):
    # p = 0 or 1 gives -inf or +inf, as special.ndtri does
    with np.errstate(divide="ignore"):
        return np.where(p < 0.5, np.log(2.0 * p), -np.log(2.0 - 2.0 * p))


KERNELS = {
    "gaussian": _Kernel(np.square, 2, 0.5 * math.log(2.0 * math.pi), math.sqrt(2.0),
                        special.ndtr, special.ndtri, np.random.Generator.standard_normal),
    "exponential": _Kernel(np.abs, 1, math.log(2.0), 1.0, _exponential_cdf,
                           _exponential_ppf, np.random.Generator.laplace),
}


# ---------------------------------------------------------------------------
# KDE profile
# ---------------------------------------------------------------------------

class KDEProfile(QoSProfile):
    """Product-kernel density: (1/m) sum_i prod_j (1/h_j) kappa((x_j - x_ij)/h_j).

    `records` may be a QoSRecordSet or a raw (m, n) observation array; the
    raw form admits m = 1 (a single kernel bump), which record sets exclude.
    """

    def __init__(self, schema: AttributeSchema, records, kernel: str,
                 bandwidths, fit_info: dict | None = None):
        if kernel not in KERNELS:
            raise LearningError(f"unknown kernel {kernel!r}; choose from {sorted(KERNELS)}")
        # a record set's observations are already a private read-only copy
        obs = (records.observations if isinstance(records, QoSRecordSet)
               else np.array(records, dtype=float))
        if obs.ndim != 2 or obs.shape[0] < 1:
            raise LearningError("observations must be a nonempty m x n matrix")
        if obs.shape[1] != schema.dim:
            raise DimensionMismatchError("observation columns must match the schema")
        if not np.all(np.isfinite(obs)):
            raise LearningError("observations must be finite")
        h = np.asarray(bandwidths, dtype=float)
        if h.shape != (schema.dim,):
            raise DimensionMismatchError("one bandwidth per attribute required")
        if not np.all((h > 0.0) & np.isfinite(h)):
            raise LearningError("bandwidths must be positive and finite")
        self.schema = schema
        obs.setflags(write=False)
        self.observations = obs
        self.kernel = kernel
        self.bandwidths = h.copy()
        self.bandwidths.setflags(write=False)
        self.fit_info = dict(fit_info) if fit_info else {}
        # Evaluation coordinates: centred on the observation mean and divided
        # by the bandwidths times the kernel's scale.
        shape = KERNELS[kernel]
        self._distance = shape.distance
        self._scale = shape.scale * self.bandwidths
        self._centre = obs.mean(axis=0)
        self._log_norm = (math.log(obs.shape[0]) + float(np.sum(np.log(h)))
                          + schema.dim * shape.log_norm)

    @functools.cached_property
    def _scaled_t(self) -> np.ndarray:
        """The observations in evaluation coordinates, row j holding axis j of
        every observation, contiguous for the per-axis sweep. Built on the
        first density evaluation: box masses and `region_mass` never need
        it, and a profile that is only checked does not keep the copy."""
        return np.ascontiguousarray(((self.observations - self._centre) / self._scale).T)

    @property
    def m(self) -> int:
        return self.observations.shape[0]

    def log_density(self, points: np.ndarray) -> np.ndarray:
        """Vectorized log f-hat, in blocks of rows without a (k, m, n) temporary.

        `_shifted_blocks` gives each block's d_min - D, and the row sum of
        its exp is taken in place, so log f = log sum exp(d_min - D) - d_min
        - const and points far from every observation keep a finite log
        density. Every step is elementwise or a row reduction, so a row's
        value does not depend on the other rows of the call or on where the
        block boundaries fall. A point with a NaN coordinate gets NaN; any
        other point with an infinite coordinate gets -inf (density 0).
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"points must be (k, {self.dim}), got {pts.shape}"
            )
        out = np.empty(pts.shape[0])
        finite = np.isfinite(pts).all(axis=1)
        if not finite.all():
            out[~finite] = np.where(np.isnan(pts[~finite]).any(axis=1), np.nan, -np.inf)
            pts = pts[finite]
        log_sums = np.empty(pts.shape[0])
        for rows, d, _, d_min in self._shifted_blocks(pts):
            np.exp(d, out=d)
            log_sums[rows] = np.log(d.sum(axis=1)) - d_min
        out[finite] = log_sums - self._log_norm
        return out

    def _shifted_blocks(self, pts: np.ndarray):
        """Yield (rows, d_min - D, spare, d_min) per block of the finite points.

        Points and observations are centred on the observation mean and
        divided by the bandwidths. For each block of rows, one (rows, m)
        buffer accumulates D = sum_j d(x_j - o_j), one subtract/distance/add
        sweep per axis, where d(u) = u^2 / 2 (Gaussian) or |u| (Laplace),
        so log kernel = -D - const. D is then shifted in place by its row
        minimum d_min. `spare` is a free buffer of the block's shape; both
        buffers are reused for the next block.
        """
        x = (pts - self._centre) / self._scale
        rows = max(_MAX_ELEMENTS // self.m, 1)
        buf = np.empty((min(rows, x.shape[0]), self.m))
        scratch = np.empty_like(buf)
        for lo in range(0, x.shape[0], rows):
            xb = x[lo:lo + rows]
            d, t = buf[:len(xb)], scratch[:len(xb)]
            np.subtract(xb[:, :1], self._scaled_t[0], out=d)
            self._distance(d, out=d)
            for j in range(1, self.dim):
                np.subtract(xb[:, j:j + 1], self._scaled_t[j], out=t)
                self._distance(t, out=t)
                d += t
            d_min = d.min(axis=1)
            np.subtract(d_min[:, None], d, out=d)
            yield slice(lo, lo + len(xb)), d, t, d_min

    def density(self, points):
        return np.exp(self.log_density(points))

    def sample(self, k, rng):
        """Mixture sampling: pick an observation, add bandwidth-scaled noise."""
        if k < 1:
            raise ValueError("k must be >= 1")
        gen = as_stream(rng).generator()
        idx = gen.integers(self.m, size=k)
        noise = KERNELS[self.kernel].noise(gen, size=(k, self.dim))
        return self.observations[idx] + noise * self.bandwidths

    def _box_intervals(self, box: Box):
        """Each kernel's interval of the box, per axis, in bandwidth units.

        Returns (cdf(lower), mass, flipped), each of shape (m, n), for the
        interval [lower, upper], with mass = cdf(upper) - cdf(lower).
        Both kernels are symmetric, so an interval that lies above the
        kernel's centre is replaced by its mirror image below it (flipped
        is True there): in the lower tail the CDF keeps its relative
        precision, where above the centre it rounds towards 1 and a far
        tail interval's mass cancels to 0.
        """
        if box.dim != self.dim:
            raise DimensionMismatchError("box dimension must match the profile")
        kernel_cdf = KERNELS[self.kernel].cdf
        lower = (box.lower - self.observations) / self.bandwidths
        upper = (box.upper - self.observations) / self.bandwidths
        flipped = lower > 0.0
        lower, upper = np.where(flipped, -upper, lower), np.where(flipped, -lower, upper)
        lower_cdf = kernel_cdf(lower)
        return lower_cdf, kernel_cdf(upper) - lower_cdf, flipped

    def box_mass(self, box: Box) -> float:
        """Exact P(X in box): kernel CDFs factor over axes and observations."""
        _, mass, _ = self._box_intervals(box)
        return min(max(float(np.mean(np.prod(mass, axis=1))), 0.0), 1.0)

    def region_mass(self, region: HPolytope, k: int, rng) -> tuple:
        """(estimate, standard error) of P(X in region), by sampling the KDE
        conditioned on the region's bounding box B.

        P(region) = P(B) * P(region | B), with P(B) the exact `box_mass(B)`.
        Each kernel's mass in B is the product of its per-axis interval
        masses, so a draw from the KDE restricted to B picks kernel i with
        probability proportional to that mass and draws each axis from the
        kernel truncated to its interval, by the inverse CDF (mirrored
        intervals are drawn below the centre and negated, as in
        `_box_intervals`). The share of k such draws that the region's rows
        not implied by B accept estimates P(region | B); its standard error
        is binomial, at p = (hits + 1) / (k + 2) so that it stays above 0
        when no draw or every draw is accepted. A box whose mass underflows
        to 0 gives (0.0, 0.0) and draws nothing. All draws come from one
        generator on `rng`, and the cost is O(k + m) instead of the O(k m)
        of evaluating the density at k points.
        """
        if k < 2:
            raise ValueError("k must be >= 2")
        box = region.bounding_box
        lower_cdf, mass, flipped = self._box_intervals(box)
        weights = np.prod(mass, axis=1)
        p_box = min(max(float(np.mean(weights)), 0.0), 1.0)
        if p_box == 0.0:
            return 0.0, 0.0
        gen = as_stream(rng).generator()
        # how many of the k draws each kernel takes, in kernel order
        idx = np.repeat(np.arange(self.m), gen.multinomial(k, weights / weights.sum()))
        u = KERNELS[self.kernel].ppf(lower_cdf[idx] + gen.random((k, self.dim)) * mass[idx])
        u = np.where(flipped[idx], -u, u)
        # rounding in the inverse CDF may step just past B's faces
        points = np.clip(self.observations[idx] + u * self.bandwidths,
                         box.lower, box.upper)
        hits = int(np.count_nonzero(region.contains_box_points(points)))
        p = (hits + 1) / (k + 2)
        return p_box * hits / k, p_box * math.sqrt(p * (1.0 - p) / k)

    def covering_box(self) -> Box:
        """Axis-aligned box holding all observations, padded by 10 bandwidths."""
        pad = 10.0 * self.bandwidths
        return Box(self.observations.min(axis=0) - pad,
                   self.observations.max(axis=0) + pad)


# ---------------------------------------------------------------------------
# Bandwidth selection
# ---------------------------------------------------------------------------

def _sample_std(records: QoSRecordSet) -> np.ndarray:
    sigma = records.observations.std(axis=0, ddof=1)
    if np.any(sigma <= 0.0):
        bad = records.schema.names[int(np.argmin(sigma))]
        raise LearningError(f"attribute {bad!r} has zero sample variance; "
                            "rule-of-thumb bandwidths are undefined")
    return sigma


def bandwidth_scott(records: QoSRecordSet) -> np.ndarray:
    """h_i = sigma_i * m^(-1/(n+4)) with sigma the per-axis sample std (ddof=1)."""
    n = records.dim
    return _sample_std(records) * records.m ** (-1.0 / (n + 4))


def bandwidth_silverman(records: QoSRecordSet) -> np.ndarray:
    """h_i = sigma_i * (4/(n+2))^(1/(n+4)) * m^(-1/(n+4)); equals Scott at n=2."""
    n = records.dim
    factor = (4.0 / (n + 2)) ** (1.0 / (n + 4))
    return _sample_std(records) * factor * records.m ** (-1.0 / (n + 4))


# ---------------------------------------------------------------------------
# Cross-validated model selection
# ---------------------------------------------------------------------------

def fit_kde_cv(records: QoSRecordSet, rng=0) -> KDEProfile:
    """Select (kernel, multiplier * Scott bandwidths) by held-out log-likelihood.

    The candidates are each of CV_KERNELS at each of CV_MULTIPLIERS, every
    one scored over the same seeded partition into CV_FOLDS folds, so the
    selection is deterministic in (records, seed). Ties break toward the
    larger bandwidth multiplier (the smoother model).

    Each (kernel, fold) runs the per-axis distance sweep once, at the Scott
    bandwidths: at multiplier t every distance is D / t^p (p = 2 Gaussian,
    1 Laplace), so with c = t^-p a held-out row scores log sum_j
    exp((d_min - D_j) c) - d_min c - log_norm - n log t. The shift stays
    exact at every t, because c > 0 keeps the nearest observation nearest
    and its term is exp(0) = 1.
    """
    if records.m < CV_FOLDS:
        raise LearningError(f"need at least {CV_FOLDS} records for {CV_FOLDS} folds, "
                            f"got {records.m}")
    grid = list(CV_MULTIPLIERS)

    base = bandwidth_scott(records)
    gen = as_stream(rng).generator()
    order = gen.permutation(records.m)
    obs = records.observations
    # (training, held-out) index arrays per fold; training keeps the
    # permutation order
    splits = [(np.delete(order, np.s_[f::CV_FOLDS]), order[f::CV_FOLDS])
              for f in range(CV_FOLDS)]
    log_mults = records.dim * np.log(grid)

    best = None  # (score, multiplier, kernel)
    scores = {}
    for kernel in CV_KERNELS:
        factors = [g ** -KERNELS[kernel].degree for g in grid]
        totals = np.zeros(len(grid))
        for train, held in splits:
            model = KDEProfile(records.schema, obs[train], kernel, base)
            log_sums = np.empty((len(grid), len(held)))
            for rows, d, t, d_min in model._shifted_blocks(obs[held]):
                for i, c in enumerate(factors):
                    np.multiply(d, c, out=t)
                    np.exp(t, out=t)
                    log_sums[i, rows] = np.log(t.sum(axis=1)) - d_min * c
            log_sums -= (model._log_norm + log_mults)[:, None]
            totals += log_sums.sum(axis=1)
        for mult, total in zip(grid, totals):
            score = float(total) / records.m
            scores[(kernel, mult)] = score
            if best is None or score > best[0] or (score == best[0] and mult > best[1]):
                best = (score, mult, kernel)

    score, mult, kernel = best
    if not math.isfinite(score):
        raise LearningError("every candidate scored -inf held-out log-likelihood")
    h = base * mult
    fit_info = {
        "method": "cv",
        "kernel": kernel,
        "multiplier": mult,
        "bandwidths": [float(v) for v in h],
        "cv_score": score,
        "folds": CV_FOLDS,
        "grid": grid,
        "rule": "scott",
        "candidate_scores": {f"{k}:{m_}": s for (k, m_), s in sorted(scores.items())},
    }
    return KDEProfile(records.schema, records, kernel, h, fit_info=fit_info)
