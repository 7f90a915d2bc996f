"""Monte Carlo estimation of region probabilities P(X in R).

The estimator is the paper's Vol(R) * mean(density at uniform points of R),
built on one pass of k uniform bounding-box proposals. The pass streams the
proposals in cache-sized chunks, in one span per usable core, and evaluates
the density on each chunk's hits as it goes; the per-chunk values are
concatenated in draw order and reduced once. The accepted points are the
region sample and Vol(box) * hits/k is the volume, so the estimate is
Vol(box) * mean(f * 1_R) over the k proposals. A region that is too thin a
sliver of its own box is first mapped onto its Dikin-rounded frame, where
it fills a good share of its box, and the same pass runs there. The
estimate converges at the dimension-independent 1/sqrt(k) rate, with an
i.i.d. standard error.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .geometry import (
    EmptyInteriorError,
    HPolytope,
    _sample_count,
    box_pass,
    volume_from_hits,
)
from .geometry import estimate_volume  # noqa: F401  (looked up here by perfbench/tracing.py)
from .profiles import QoSProfile
from .rng import RngStream, as_stream
from .sampling import REJECTION_ACCEPTANCE_THRESHOLD, rounded_frame
from .sampling import (  # noqa: F401  (looked up here by perfbench/tracing.py)
    dikin_walk,
    rejection_sample,
)

DEFAULT_SAMPLES = 200_000


class SchemaMismatchError(Exception):
    """Region attribute names do not match the profile schema."""


class IntegralEstimate(NamedTuple):
    value: float
    std_error: float
    k: int
    volume_used: float


def _check_schema(profile: QoSProfile, region: HPolytope) -> None:
    if region.attribute_names != profile.schema.names:
        raise SchemaMismatchError(
            f"region attributes {region.attribute_names} do not match "
            f"profile schema {profile.schema.names}"
        )


def _box_mean(f: np.ndarray, k: int, box_volume: float):
    """Vol(box) * mean(f * 1_R) over k box proposals, given the density `f`
    at the accepted ones, and its standard error Vol(box) * sd(f * 1_R) /
    sqrt(k)."""
    mean_g = float(f.sum()) / k
    # squared deviations of f * 1_R: the misses each contribute mean_g^2
    ss = float(((f - mean_g) ** 2).sum()) + (k - f.shape[0]) * mean_g * mean_g
    return box_volume * mean_g, box_volume * float(np.sqrt(ss / (k - 1) / k))


def _density_in_frame(density, c: np.ndarray, M: np.ndarray):
    """y -> density(c + M y) on an (h, n) array. Each coordinate is formed
    by elementwise multiply-adds, so that every row gets the same bits
    however many rows come together (a matrix product's rounding depends
    on that)."""
    def evaluate(y):
        x = np.empty_like(y)
        for i in range(c.shape[0]):
            xi = np.full(y.shape[0], c[i])
            for j in range(c.shape[0]):
                xi += M[i, j] * y[:, j]
            x[:, i] = xi
        return density(x)
    return evaluate


def integrate_uniform(profile: QoSProfile, region: HPolytope, k: int,
                      rng: "RngStream | int") -> IntegralEstimate:
    """Estimate the integral of the profile density over the region as V * mean(f).

    One `box_pass` of k bounding-box proposals on rng.substream(0) gives the
    volume V = Vol(box) * hits/k, the same as `estimate_volume` on that
    substream, and the density at the hits, evaluated chunk by chunk and
    concatenated in draw order before any reduction. Above 4,096 proposals
    the pass runs in spans on several cores; each span draws the serial
    pass's bits and each profile density computes every point on its own,
    so the estimate is bit-identical for any number of cores. When the
    acceptance hits/k is at least REJECTION_ACCEPTANCE_THRESHOLD, the
    accepted proposals are the uniform region points, so V * mean(f over
    the hits) = Vol(box) * mean(f * 1_R) over all k proposals, whose
    standard error Vol(box) * sd(f * 1_R) / sqrt(k) covers the volume's
    error too.

    Below the threshold, the same estimate is taken in the region's
    `rounded_frame` (c, M): a second pass of k proposals on
    rng.substream(1) samples the box of the rounded region, which holds
    the unit ball, and evaluates y -> density(c + M y). Its box volume is
    Vol(box') * |det M|, and V is Vol(box') * |det M| * hits'/k. The
    second pass's points are mapped row by row, so the estimate stays
    bit-identical for any number of cores. A region with no interior (the
    box pass cannot hit it) gets 0 with standard error 0.
    """
    k = _sample_count(k)
    _check_schema(profile, region)
    stream = as_stream(rng)
    hits, f = box_pass(region, k, stream.substream(0), profile.density)
    vbox = region.bounding_box.volume
    if hits / k >= REJECTION_ACCEPTANCE_THRESHOLD:
        value, std_error = _box_mean(f, k, vbox)
        return IntegralEstimate(value, std_error, k, volume_from_hits(vbox, hits, k)[0])
    try:
        c, M, rounded, det = rounded_frame(region)
    except EmptyInteriorError:
        return IntegralEstimate(0.0, 0.0, k, 0.0)
    evaluate = _density_in_frame(profile.density, c, M)
    hits, f = box_pass(rounded, k, stream.substream(1), evaluate)
    vbox = rounded.bounding_box.volume * det
    value, std_error = _box_mean(f, k, vbox)
    return IntegralEstimate(value, std_error, k, volume_from_hits(vbox, hits, k)[0])


class ConvergenceScan(NamedTuple):
    """Per-k mean absolute error against a reference truth, plus log-log slope."""

    rows: tuple  # of (k, mean_abs_error)
    slope: float  # nan when any error is exactly zero


def convergence_scan(profile: QoSProfile, region: HPolytope,
                     ks: Sequence[int], seeds: Sequence[int],
                     truth: float) -> ConvergenceScan:
    """Empirical 1/sqrt(k) convergence of `integrate_uniform` against a
    supplied truth value."""
    ks = sorted(set(int(k) for k in ks))
    if len(ks) < 3:
        raise ValueError("need at least 3 distinct k values")
    if len(seeds) < 1:
        raise ValueError("need at least one seed")
    rows = []
    for k in ks:
        errs = [abs(integrate_uniform(profile, region, k, RngStream(int(s))).value - truth)
                for s in seeds]
        rows.append((k, float(np.mean(errs))))
    maes = np.array([r[1] for r in rows])
    if np.any(maes == 0.0):
        slope = float("nan")
    else:
        slope = float(np.polyfit(np.log(np.array(ks, dtype=float)), np.log(maes), 1)[0])
    return ConvergenceScan(tuple(rows), slope)
