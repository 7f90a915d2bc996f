"""Learning QoS profiles from execution records via kernel density estimation.

Multivariate product-kernel KDE with per-axis bandwidths, rule-of-thumb
bandwidth selectors (Scott, Silverman), and k-fold cross-validated selection
of the (kernel, bandwidth-scale) combination by held-out log-likelihood.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .geometry import Box, DimensionMismatchError
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

@dataclass(frozen=True)
class QoSRecordSet:
    """m observed QoS vectors (rows) over the schema's attributes."""

    schema: AttributeSchema
    observations: np.ndarray

    def __post_init__(self):
        obs = np.asarray(self.observations, dtype=float)
        if obs.ndim != 2:
            raise LearningError("observations must be an m x n matrix")
        if obs.shape[0] < 2:
            raise LearningError("need at least 2 records")
        if obs.shape[1] != self.schema.dim:
            raise DimensionMismatchError(
                f"records have {obs.shape[1]} columns, schema has {self.schema.dim}"
            )
        if not np.all(np.isfinite(obs)):
            raise LearningError("records must be finite (no missing values)")
        obs = obs.copy()
        obs.setflags(write=False)
        object.__setattr__(self, "observations", obs)

    @property
    def m(self) -> int:
        return self.observations.shape[0]

    @property
    def dim(self) -> int:
        return self.observations.shape[1]

    @classmethod
    def from_csv(cls, path, schema: AttributeSchema | None = None) -> "QoSRecordSet":
        """Load records from a header + decimal-rows CSV.

        The header names become the schema (and must match `schema` when one
        is supplied). Rows with missing or non-numeric fields are rejected,
        not imputed.
        """
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise LearningError(f"{path}: empty CSV")
            header = tuple(name.strip() for name in header)
            file_schema = AttributeSchema(header)
            if schema is not None and header != schema.names:
                raise LearningError(
                    f"{path}: CSV columns {header} do not match schema {schema.names}"
                )
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
        return cls(schema or file_schema, np.array(rows, dtype=float))


# ---------------------------------------------------------------------------
# Kernels (normalized 1-D shapes; the product over axes forms the n-D kernel)
# ---------------------------------------------------------------------------

def _gaussian_cdf(u):
    return special.ndtr(u)


def _gaussian_noise(gen, size):
    return gen.standard_normal(size)


def _exponential_cdf(u):
    u = np.asarray(u, dtype=float)
    half_tail = 0.5 * np.exp(-np.abs(u))
    return np.where(u < 0.0, half_tail, 1.0 - half_tail)


def _exponential_noise(gen, size):
    return gen.laplace(0.0, 1.0, size)


# name -> (cdf, unit-noise sampler); log_density evaluates the shapes itself
KERNELS = {
    "gaussian": (_gaussian_cdf, _gaussian_noise),
    "exponential": (_exponential_cdf, _exponential_noise),
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
        obs = (records.observations if isinstance(records, QoSRecordSet)
               else np.asarray(records, dtype=float))
        if obs.ndim != 2 or obs.shape[0] < 1:
            raise LearningError("observations must be a nonempty m x n matrix")
        if obs.shape[1] != schema.dim:
            raise DimensionMismatchError("observation columns must match the schema")
        if not np.all(np.isfinite(obs)):
            raise LearningError("observations must be finite")
        h = np.asarray(bandwidths, dtype=float)
        if h.shape != (schema.dim,):
            raise DimensionMismatchError("one bandwidth per attribute required")
        if not np.all(h > 0.0):
            raise LearningError("bandwidths must be strictly positive")
        self.schema = schema
        self.observations = obs.copy()
        self.observations.setflags(write=False)
        self.kernel = kernel
        self.bandwidths = h.copy()
        self.bandwidths.setflags(write=False)
        self.fit_info = dict(fit_info) if fit_info else {}
        # Evaluation coordinates: centred on the observation mean and divided
        # by the bandwidths (times sqrt 2 for the Gaussian, so that the
        # per-axis square is u^2 / 2). Row j of `_scaled_t` holds axis j of
        # every observation, contiguous for the per-axis sweep.
        if kernel == "gaussian":
            self._distance, log_kernel_norm = np.square, 0.5 * math.log(2.0 * math.pi)
            self._scale = math.sqrt(2.0) * self.bandwidths
        else:
            self._distance, log_kernel_norm = np.abs, math.log(2.0)
            self._scale = self.bandwidths
        self._centre = obs.mean(axis=0)
        self._scaled_t = np.ascontiguousarray(((obs - self._centre) / self._scale).T)
        self._log_norm = (math.log(obs.shape[0]) + float(np.sum(np.log(h)))
                          + schema.dim * log_kernel_norm)

    @property
    def m(self) -> int:
        return self.observations.shape[0]

    def log_density(self, points: np.ndarray) -> np.ndarray:
        """Vectorized log f-hat, in blocks of rows without a (k, m, n) temporary.

        Points and observations are centred on the observation mean and
        divided by the bandwidths. For each block of rows, one (rows, m)
        buffer accumulates D = sum_j d(x_j - o_j), one subtract/distance/add
        sweep per axis, where d(u) = u^2 / 2 (Gaussian) or |u| (Laplace),
        so log kernel = -D - const. The row log-sum-exp of -D is then taken
        in place, shifted by the row minimum of D, so points far from every
        observation keep a finite log density. Every step is elementwise or
        a row reduction, so a row's value does not depend on the other rows
        of the call or on where the block boundaries fall. A point with a
        NaN coordinate gets NaN; any other point with an infinite coordinate
        gets -inf (density 0).
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
        rows = max(_MAX_ELEMENTS // self.m, 1)
        buf = np.empty((min(rows, x.shape[0]), self.m))
        scratch = np.empty_like(buf)
        log_sums = np.empty(x.shape[0])
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
            log_sums[lo:lo + rows] = np.log(d.sum(axis=1)) - d_min
        out[finite] = log_sums - self._log_norm
        return out

    def density(self, points):
        return np.exp(self.log_density(points))

    def sample(self, k, rng):
        """Mixture sampling: pick an observation, add bandwidth-scaled noise."""
        if k < 1:
            raise ValueError("k must be >= 1")
        gen = as_stream(rng).generator()
        _, noise = KERNELS[self.kernel]
        idx = gen.integers(self.m, size=k)
        return self.observations[idx] + noise(gen, (k, self.dim)) * self.bandwidths

    def box_mass(self, box: Box) -> float:
        """Exact P(X in box): kernel CDFs factor over axes and observations."""
        if box.dim != self.dim:
            raise DimensionMismatchError("box dimension must match the profile")
        kernel_cdf, _ = KERNELS[self.kernel]
        upper = (box.upper - self.observations) / self.bandwidths
        lower = (box.lower - self.observations) / self.bandwidths
        per_axis = kernel_cdf(upper) - kernel_cdf(lower)
        return float(np.mean(np.prod(per_axis, axis=1)))

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

def fit_kde_cv(records: QoSRecordSet,
               kernels=("gaussian", "exponential"),
               bandwidth_grid=(0.25, 0.5, 1.0, 2.0, 4.0),
               folds: int = 5,
               rng=0) -> KDEProfile:
    """Select (kernel, scale * Scott bandwidths) by k-fold held-out log-likelihood.

    Every candidate is scored on the same seeded fold partition, so the
    selection is deterministic in (records, kernels, grid, folds, seed).
    Ties break toward the larger bandwidth multiplier (the smoother model).
    """
    kernels = tuple(kernels)
    grid = tuple(float(g) for g in bandwidth_grid)
    if not kernels:
        raise LearningError("need at least one kernel")
    if any(k not in KERNELS for k in kernels):
        raise LearningError(f"kernels must be among {sorted(KERNELS)}")
    if not grid or any(g <= 0 for g in grid):
        raise LearningError("bandwidth grid must be nonempty and positive")
    if not 2 <= folds <= records.m:
        raise LearningError(f"need 2 <= folds <= m, got folds={folds}, m={records.m}")

    base = bandwidth_scott(records)
    gen = as_stream(rng).generator()
    order = gen.permutation(records.m)
    obs = records.observations
    # (training, held-out) index arrays per fold, built once for every
    # candidate; training keeps the permutation order
    splits = [(np.delete(order, np.s_[f::folds]), order[f::folds])
              for f in range(folds)]

    best = None  # (score, multiplier, kernel, bandwidths)
    scores = {}
    for kernel in kernels:
        for mult in sorted(grid):
            h = base * mult
            total = 0.0
            for train, held in splits:
                model = KDEProfile(records.schema, obs[train], kernel, h)
                total += float(model.log_density(obs[held]).sum())
            score = total / records.m
            scores[(kernel, mult)] = score
            if best is None or score > best[0] or (score == best[0] and mult > best[1]):
                best = (score, mult, kernel, h)

    score, mult, kernel, h = best
    if not math.isfinite(score):
        raise LearningError("every candidate scored -inf held-out log-likelihood; "
                            "widen the bandwidth grid")
    fit_info = {
        "method": "cv",
        "kernel": kernel,
        "multiplier": mult,
        "bandwidths": [float(v) for v in h],
        "cv_score": score,
        "folds": folds,
        "grid": list(sorted(grid)),
        "rule": "scott",
        "candidate_scores": {f"{k}:{m_}": s for (k, m_), s in sorted(scores.items())},
    }
    return KDEProfile(records.schema, records, kernel, h, fit_info=fit_info)
