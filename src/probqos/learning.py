"""Learning QoS profiles from execution records via kernel density estimation.

Multivariate product-kernel KDE with per-axis bandwidths, rule-of-thumb
bandwidth selectors (Scott, Silverman), and k-fold cross-validated selection
of the (kernel, bandwidth-scale) combination by held-out log-likelihood. A
KDE's box mass is exact. The mass of any other region is estimated by
drawing the first n - 1 axes from the KDE inside the region's bounding box,
stratified along the first, and integrating the last axis over the region's
slice exactly, from the kernel CDFs.
"""

from __future__ import annotations

import csv
import functools
import math
from typing import Callable, NamedTuple

import numpy as np
from scipy import special

from .geometry import Box, DimensionMismatchError, HPolytope, _sample_count
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

# Elements of one (rows, m) block: of log_density's two float64 buffers and
# fit_kde_cv's three (512 KiB each), sized for cache, not for memory, to stay
# in a core's L2 across the per-axis sweep and the exp-sum. On a 2 MiB-L2
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
    A record set must carry `schema` itself: its columns are bound to its
    own attribute names, and another order would relabel them.
    """

    def __init__(self, schema: AttributeSchema, records, kernel: str,
                 bandwidths, fit_info: dict | None = None):
        if kernel not in KERNELS:
            raise LearningError(f"unknown kernel {kernel!r}; choose from {sorted(KERNELS)}")
        if isinstance(records, QoSRecordSet) and records.schema != schema:
            raise LearningError(f"records have schema {list(records.schema.names)}, "
                                f"profile has {list(schema.names)}")
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

        In coordinates centred on the observation mean and divided by the
        bandwidths, one (rows, m) buffer per block sums D = sum_j d(x_j - o_j)
        axis by axis, d(u) = u^2 / 2 (Gaussian) or |u| (Laplace), and is
        shifted by its row minimum d_min: log f = log sum exp(d_min - D) -
        d_min - const stays finite far from every observation. Each step is
        elementwise or per row, so a row's value does not depend on the other
        rows of the call or on the block boundaries. A point with a NaN
        coordinate gets NaN; any other with an infinite one gets -inf.
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
        x = (pts - self._centre) / self._scale
        log_sums = np.empty(x.shape[0])
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
            np.exp(d, out=d)
            log_sums[lo:lo + len(xb)] = np.log(d.sum(axis=1)) - d_min
        out[finite] = log_sums - self._log_norm
        return out

    def density(self, points):
        return np.exp(self.log_density(points))

    def sample(self, k, rng):
        """Mixture sampling: pick an observation, add bandwidth-scaled noise."""
        k = _sample_count(k, 1)
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
        """(estimate, standard error) of P(X in region): the KDE is sampled
        inside the region's bounding box B on its first n - 1 axes x', and
        integrated exactly along the last.

        P(region) = P(B) * E[w(X')], with P(B) the exact `box_mass(B)` and
        X' drawn from the KDE restricted to B: kernel i with probability
        proportional to its mass in B, each axis from the kernel truncated
        to B by the inverse CDF. w is kernel i's last-axis mass over the
        region's slice at x' (`HPolytope.slice_bounds`, cut to B's last
        side), over its last-axis mass over that side of B: 1 less the
        masses that the slice cuts off below and above, each formed in the
        mirrored frame of `_box_intervals`. A kernel CDF is evaluated only
        at a slice end that lies inside B's side.

        The draws are stratified along the first axis: [0, 1) is split into
        h = k // 2 equal strata with two uniforms in each (so an odd k
        draws k - 1 points). One uniform picks the kernel by cumulative
        mass, and its remainder within that kernel places axis 0; the
        middle axes are i.i.d. The estimate is P(B) * mean(w), and the
        standard error P(B) * sqrt(sum over strata of (w1 - w2)^2) / (2 h).
        It is 0 when every stratum's two draws have equal w, as when w is 1
        (or 0) wherever the KDE puts mass. A box whose mass underflows to 0
        gives (0.0, 0.0) and draws nothing. All draws come from one
        generator on `rng`, and the cost is O(k + m) instead of the O(k m)
        of evaluating the density at k points.
        """
        k = _sample_count(k)
        box = region.bounding_box
        lower_cdf, mass, flipped = self._box_intervals(box)
        weights = np.prod(mass, axis=1)
        p_box = min(max(float(np.mean(weights)), 0.0), 1.0)
        if p_box == 0.0:
            return 0.0, 0.0
        kernel = KERNELS[self.kernel]
        gen = as_stream(rng).generator()
        strata = k // 2
        u = gen.random(2 * strata)
        # each stratum's pair in order, so that u is sorted
        low = np.minimum(u[0::2], u[1::2])
        np.maximum(u[0::2], u[1::2], out=u[1::2])
        u[0::2] = low
        level = np.arange(strata, dtype=float)
        u[0::2] += level
        u[1::2] += level
        u /= strata
        # level + u can round up to level + 1, so the last pair may reach
        # 1.0; below it, no draw falls past the last kernel with a share
        np.minimum(u[-2:], np.nextafter(1.0, 0.0), out=u[-2:])
        # one row per kernel: where its share of the first uniform starts,
        # and how long it is; per axis of x', its centre, signed bandwidth
        # (negative where the interval is mirrored), cdf(lower) and mass;
        # and for the last axis its centre, signed bandwidth, the CDF of
        # (y - centre) / signed bandwidth at B's lower and upper faces, and
        # their difference, the signed mass (negative where mirrored)
        stop = np.cumsum(weights)
        stop /= stop[-1]
        start = np.concatenate(([0.0], stop[:-1]))
        signed_h = np.where(flipped, -self.bandwidths, self.bandwidths)
        last_lower = lower_cdf[:, -1]
        faces = np.where(flipped[:, -1], [last_lower + mass[:, -1], last_lower],
                         [last_lower, last_lower + mass[:, -1]])
        table = np.array(
            [start, stop - start]
            + [a[:, j] for j in range(self.dim - 1)
               for a in (self.observations, signed_h, lower_cdf, mass)]
            + [self.observations[:, -1], signed_h[:, -1], *faces, faces[1] - faces[0]])
        # u is sorted, so each kernel's draws are one run of it, and a kernel
        # whose share rounds to nothing has a run of length 0. A row is
        # gathered where it is used and then dropped: k-long temporaries
        # that pile up past the allocator's trim threshold are mapped
        # afresh, page by page, on every call.
        counts = np.diff(np.searchsorted(u, stop[:-1]), prepend=0, append=u.size)
        kernel_of = np.repeat(np.arange(table.shape[1]), counts)
        x = np.empty((u.size, self.dim - 1))
        for j in range(self.dim - 1):
            centre, h, cdf_lower, mass_j = table[2 + 4 * j:6 + 4 * j]
            if j == 0:
                p = u - table[0][kernel_of]
                p /= table[1][kernel_of]
                np.clip(p, 0.0, 1.0, out=p)
            else:
                p = gen.random(u.size)
            p *= mass_j[kernel_of]
            p += cdf_lower[kernel_of]
            p = kernel.ppf(p)
            p *= h[kernel_of]
            p += centre[kernel_of]
            # rounding in the inverse CDF may step just past B's faces
            np.clip(p, box.lower[j], box.upper[j], out=x[:, j])
        centre, h, at_lower, at_upper, signed_mass = table[-5:]
        # w = 1 less the kernel's mass cut off below and above the slice,
        # over its mass across B's last side: a CDF is evaluated only where
        # an end of the slice lies inside that side, and where neither
        # does w is exactly 1
        w = np.ones(u.size)
        lower, upper = region.slice_bounds(x)
        for end, at_face, inside, sign in ((lower, at_lower, lower > box.lower[-1], 1.0),
                                           (upper, at_upper, upper < box.upper[-1], -1.0)):
            i = np.flatnonzero(inside)
            ki = kernel_of[i]
            cut = end[i]
            cut -= centre[ki]
            cut /= h[ki]
            cut = kernel.cdf(cut)
            cut -= at_face[ki]
            cut /= sign * signed_mass[ki]
            w[i] -= cut
        np.clip(w, 0.0, 1.0, out=w)
        diffs = w[0::2] - w[1::2]
        return (p_box * float(np.mean(w)),
                p_box * math.sqrt(float(np.dot(diffs, diffs))) / (2.0 * strata))

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

def _cv_squarings(degree: int) -> list:
    """Per CV multiplier t, how often the next wider multiplier's terms
    exp(-D c), c = t^-degree, are squared to give its own; 0 for the widest.

    Squaring s times multiplies the exponent by exactly 2^s, so every c must
    be a power of two, growing as t shrinks: any other CV_MULTIPLIERS raises
    LearningError instead of being scored wrong.
    """
    exponents = []
    for t in CV_MULTIPLIERS:
        mantissa, exponent = math.frexp(t ** -degree)
        if mantissa != 0.5:
            raise LearningError(f"CV multiplier {t} is not a power of two")
        exponents.append(exponent)
    steps = [narrow - wide for narrow, wide in zip(exponents, exponents[1:])]
    if min(steps, default=1) < 1:
        raise LearningError("CV multipliers must be ascending")
    return steps + [0]


def fit_kde_cv(records: QoSRecordSet, rng=0) -> KDEProfile:
    """Select (kernel, multiplier * Scott bandwidths) by held-out log-likelihood.

    The candidates are each of CV_KERNELS at each of CV_MULTIPLIERS, every
    one scored over the same seeded partition into CV_FOLDS folds, so the
    selection is deterministic in (records, seed). Ties break toward the
    larger bandwidth multiplier (the smoother model).

    Each fold divides its records, centred on the training mean, by the
    Scott bandwidths times the widest multiplier T, exactly (T is a power of
    two). One sweep per axis feeds both kernels: each held-out/training
    difference u is taken once, |u| adds to the Laplace distance D and u^2
    to twice the Gaussian one, halved exactly. At multiplier t the distance
    is D c, c = (T / t)^p (p = 2 Gaussian, 1 Laplace), and a held-out row
    scores log sum_j exp((d_min - D_j) c) - d_min c - log_norm - n log t,
    d_min its minimum (a shift exact at every t: the nearest term is exp(0)
    = 1). Each block takes one exp per kernel, at T, and squares the terms
    in place, p times per halving of t, so every c must be a power of two;
    the row sums are einsums. A term's relative error doubles with each
    squaring, to at most 2^8 ulp (about 6e-14) at the narrowest Gaussian t,
    and a term that underflows moves no score: every row sum is at least 1.
    """
    if records.m < CV_FOLDS:
        raise LearningError(f"need at least {CV_FOLDS} records for {CV_FOLDS} folds, "
                            f"got {records.m}")
    grid = list(CV_MULTIPLIERS)
    squarings = [_cv_squarings(KERNELS[k].degree) for k in CV_KERNELS]
    c = [[(grid[-1] / g) ** KERNELS[k].degree for g in grid] for k in CV_KERNELS]
    base = bandwidth_scott(records)
    order = as_stream(rng).generator().permutation(records.m)
    obs = records.observations
    # (training, held-out) indices per fold; training keeps the permutation order
    splits = [(np.delete(order, np.s_[f::CV_FOLDS]), order[f::CV_FOLDS])
              for f in range(CV_FOLDS)]
    log_h = float(np.sum(np.log(base)))
    log_mults = records.dim * np.log(grid)
    log_norms = np.array([records.dim * KERNELS[k].log_norm for k in CV_KERNELS])
    buffers = np.empty((3, max(_MAX_ELEMENTS, records.m)))  # one difference, two sums
    totals = np.zeros((len(CV_KERNELS), len(grid)))
    for train, held in splits:
        centre = obs[train].mean(axis=0)
        train_t = np.ascontiguousarray(((obs[train] - centre) / (base * grid[-1])).T)
        x = (obs[held] - centre) / (base * grid[-1])
        rows = max(_MAX_ELEMENTS // len(train), 1)
        log_sums = np.empty((len(CV_KERNELS), len(grid), len(held)))
        for lo in range(0, len(held), rows):
            xb = x[lo:lo + rows]
            diff, laplace, gaussian = (b[:len(xb) * len(train)].reshape(len(xb), -1)
                                       for b in buffers)
            np.subtract(xb[:, :1], train_t[0], out=laplace)
            np.abs(laplace, out=laplace)
            np.square(laplace, out=gaussian)
            for j in range(1, records.dim):
                np.subtract(xb[:, j:j + 1], train_t[j], out=diff)
                np.abs(diff, out=diff)
                laplace += diff
                np.square(diff, out=diff)
                gaussian += diff
            gaussian *= 0.5
            for k, d in enumerate((gaussian, laplace)):  # CV_KERNELS order
                d_min = d.min(axis=1)
                np.subtract(d_min[:, None], d, out=d)
                np.exp(d, out=d)
                for i in reversed(range(len(grid))):
                    for _ in range(squarings[k][i]):
                        np.square(d, out=d)
                    log_sums[k, i, lo:lo + rows] = np.log(np.einsum("ij->i", d)) - d_min * c[k][i]
        log_sums -= ((math.log(len(train)) + log_h + log_norms)[:, None] + log_mults)[:, :, None]
        totals += log_sums.sum(axis=2)

    scores = {(kernel, mult): float(total) / records.m
              for kernel, row in zip(CV_KERNELS, totals) for mult, total in zip(grid, row)}
    # the first best in scoring order, ties going to the larger multiplier
    kernel, mult = max(scores, key=lambda key: (scores[key], key[1]))
    score = scores[(kernel, mult)]
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
