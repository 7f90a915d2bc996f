import hashlib
import math

import numpy as np
import pytest
from scipy import integrate, stats

from probqos import (
    AttributeSchema,
    Box,
    CorrelatedTPRT,
    KDEProfile,
    QoSRecordSet,
    RngStream,
    bandwidth_scott,
    bandwidth_silverman,
    fit_kde_cv,
    integrate_uniform,
    parse_region,
)
from probqos import learning
from probqos.geometry import DimensionMismatchError
from probqos.learning import LearningError
from probqos.reference import R_GOOD_TEXT, SCHEMA, correlated_profile

SCHEMA_XY = AttributeSchema(("x", "y"))


def gaussian_records(m: int, seed: int = 0) -> QoSRecordSet:
    gen = RngStream(seed).generator()
    return QoSRecordSet(SCHEMA_XY, gen.standard_normal((m, 2)))


class TestRecordSet:
    def test_basic(self):
        rs = QoSRecordSet(SCHEMA_XY, np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert rs.m == 2 and rs.dim == 2

    def test_m_at_least_two(self):
        with pytest.raises(LearningError):
            QoSRecordSet(SCHEMA_XY, np.array([[1.0, 2.0]]))

    def test_column_count(self):
        with pytest.raises(DimensionMismatchError):
            QoSRecordSet(SCHEMA_XY, np.ones((3, 3)))

    def test_finite_required(self):
        with pytest.raises(LearningError):
            QoSRecordSet(SCHEMA_XY, np.array([[1.0, 2.0], [np.nan, 4.0]]))

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("x,y\n1.5,2.5\n3.5,4.5\n")
        rs = QoSRecordSet.from_csv(path)
        assert rs.schema == SCHEMA_XY
        assert rs.observations.tolist() == [[1.5, 2.5], [3.5, 4.5]]

    def test_csv_missing_value_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1.5,\n3.5,4.5\n")
        with pytest.raises(LearningError):
            QoSRecordSet.from_csv(path)

    def test_csv_single_row_rejected(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(LearningError):
            QoSRecordSet.from_csv(path)


class TestKDEProfile:
    def test_single_bump_peak(self):
        # one standard-gaussian bump in 2-D peaks at 1/(2 pi)
        profile = KDEProfile(SCHEMA_XY, np.zeros((1, 2)), "gaussian", (1.0, 1.0))
        assert profile.density_at([0.0, 0.0]) == pytest.approx(1 / (2 * math.pi))

    def test_mirror_symmetry(self):
        profile = KDEProfile(SCHEMA_XY, np.array([[-1.0, 0.0], [1.0, 0.0]]),
                             "exponential", (0.5, 0.7))
        assert profile.density_at([0.4, 0.2]) == pytest.approx(
            profile.density_at([-0.4, 0.2]))

    def test_row_permutation_invariance(self):
        obs = RngStream(0).generator().standard_normal((20, 2))
        a = KDEProfile(SCHEMA_XY, obs, "gaussian", (0.5, 0.5))
        b = KDEProfile(SCHEMA_XY, obs[::-1], "gaussian", (0.5, 0.5))
        pt = [0.3, -0.2]
        assert a.density_at(pt) == pytest.approx(b.density_at(pt))

    @pytest.mark.parametrize("kernel", ["gaussian", "exponential"])
    def test_box_mass_normalizes(self, kernel):
        obs = RngStream(1).generator().standard_normal((50, 2)) * 3.0
        profile = KDEProfile(SCHEMA_XY, obs, kernel, (0.8, 1.2))
        # the 10-bandwidth padding leaves ~e^-10 Laplace tail mass per side
        assert profile.box_mass(profile.covering_box()) == pytest.approx(1.0, abs=1e-3)

    def test_box_mass_matches_monte_carlo(self):
        obs = RngStream(2).generator().standard_normal((30, 2))
        profile = KDEProfile(SCHEMA_XY, obs, "gaussian", (0.7, 0.7))
        region = parse_region("-1 <= x && x <= 1 && -1 <= y && y <= 1", SCHEMA_XY)
        est = integrate_uniform(profile, region, 200_000, RngStream(3))
        exact = profile.box_mass(Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0])))
        assert abs(est.value - exact) <= 3 * est.std_error

    def test_positive_bandwidths_required(self):
        with pytest.raises(LearningError):
            KDEProfile(SCHEMA_XY, np.zeros((1, 2)), "gaussian", (1.0, 0.0))

    def test_record_set_schema_must_match(self):
        # the same columns under swapped names would be relabelled silently
        records = QoSRecordSet(AttributeSchema(("y", "x")), np.zeros((2, 2)))
        with pytest.raises(LearningError, match="schema"):
            KDEProfile(SCHEMA_XY, records, "gaussian", (1.0, 1.0))
        assert KDEProfile(records.schema, records, "gaussian", (1.0, 1.0)).schema == records.schema

    def test_unknown_kernel(self):
        with pytest.raises(LearningError):
            KDEProfile(SCHEMA_XY, np.zeros((1, 2)), "triangular", (1.0, 1.0))

    def test_sampling_concentrates_near_records(self):
        obs = np.array([[10.0, 10.0], [10.0, 10.0]])
        profile = KDEProfile(SCHEMA_XY, obs, "gaussian", (0.1, 0.1))
        pts = profile.sample(2_000, RngStream(4))
        np.testing.assert_allclose(pts.mean(axis=0), [10.0, 10.0], atol=0.05)

    def test_region_outside_support_mass(self):
        obs = np.zeros((2, 2))
        profile = KDEProfile(SCHEMA_XY, obs, "gaussian", (0.1, 0.1))
        far = parse_region("50 <= x && x <= 51 && 50 <= y && y <= 51", SCHEMA_XY)
        est = integrate_uniform(profile, far, 1_000, RngStream(5))
        assert est.value == pytest.approx(0.0, abs=1e-12)


# scipy.stats kernel shapes, independent of learning.KERNELS
SCIPY_KERNELS = {"gaussian": stats.norm, "exponential": stats.laplace}


def quadrature_mass(profile, x_edges, y_lower, y_upper):
    """P(x_edges[0] <= x <= x_edges[-1], y_lower(x) <= y <= y_upper(x)) of a
    2-D KDE, by adaptive quadrature over x of the kernels' y-interval
    masses; the bounds must be smooth in x between consecutive x_edges."""
    shape = SCIPY_KERNELS[profile.kernel]
    (hx, hy), obs = profile.bandwidths, profile.observations

    def slab(x):
        lo = (y_lower(x) - obs[:, 1]) / hy
        hi = (y_upper(x) - obs[:, 1]) / hy
        # the difference of survival functions keeps upper-tail masses
        y_mass = np.where(lo > 0.0, shape.sf(lo) - shape.sf(hi),
                          shape.cdf(hi) - shape.cdf(lo))
        return float(np.mean(shape.pdf((x - obs[:, 0]) / hx) / hx * y_mass))

    # piecewise between the kernel centres too, where a Laplace kernel has
    # its kinks
    edges = np.unique(np.concatenate([x_edges, np.clip(obs[:, 0], x_edges[0],
                                                       x_edges[-1])]))
    return sum(integrate.quad(slab, a, b, limit=200, epsabs=1e-14, epsrel=1e-10)[0]
               for a, b in zip(edges[:-1], edges[1:]))


def _observed_points(region):
    """Make `region` keep every x' array its slices are asked about."""
    seen = []
    bounds = region.slice_bounds

    def keeping(points):
        seen.append(points.copy())
        return bounds(points)

    region.slice_bounds = keeping
    return seen


class TestTailSafeBoxMass:
    @pytest.mark.parametrize("kernel", ["gaussian", "exponential"])
    def test_far_tail_box_keeps_its_mass(self, kernel):
        # one kernel at 0, h = 1: x in [30, 31] and its mirror image
        profile = KDEProfile(SCHEMA_XY, np.zeros((1, 2)), kernel, (1.0, 1.0))
        upper = profile.box_mass(Box(np.array([30.0, -1e3]), np.array([31.0, 1e3])))
        lower = profile.box_mass(Box(np.array([-31.0, -1e3]), np.array([-30.0, 1e3])))
        exact = SCIPY_KERNELS[kernel].sf(30.0) - SCIPY_KERNELS[kernel].sf(31.0)
        assert upper == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert upper == pytest.approx(lower, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("kernel", ["gaussian", "exponential"])
    def test_mirror_image_box_agrees(self, kernel):
        obs = RngStream(6).generator().standard_normal((40, 2))
        profile = KDEProfile(SCHEMA_XY, obs, kernel, (0.3, 0.4))
        mirrored = KDEProfile(SCHEMA_XY, -obs, kernel, (0.3, 0.4))
        for lo, hi in [([6.0, 8.0], [7.0, 9.0]), ([-1.0, 6.0], [1.0, 7.0]),
                       ([-0.5, -0.5], [0.5, 0.5])]:
            lo, hi = np.array(lo), np.array(hi)
            mass = profile.box_mass(Box(lo, hi))
            assert mass > 0.0
            assert mass == pytest.approx(mirrored.box_mass(Box(-hi, -lo)), rel=1e-12,
                                         abs=0.0)


def _records_kde(kernel):
    """A KDE of 300 draws from the correlated fixture, at the Scott bandwidths."""
    records = QoSRecordSet(SCHEMA, correlated_profile().sample(300, RngStream(9)))
    return KDEProfile(SCHEMA, records, kernel, bandwidth_scott(records))


SCHEMA_XYZ = AttributeSchema(("x", "y", "z"))
# [0, 1]^3 cut by a row with a zero last coefficient, and by a lower and an
# upper end of the z-slice that cross where 2 x + y > 2
CUT_CUBE_TEXT = ("0 <= x && x <= 1 && 0 <= y && y <= 1 && 0 <= z && z <= 1"
                 " && x + y <= 1.5 && z >= x + y - 1 && z <= 1 - x")


def quadrature_cut_cube(profile, nodes=24):
    """P(X in CUT_CUBE_TEXT) of a 3-D KDE: Gauss-Legendre quadrature over x
    and y, in pieces between the points where the integrand kinks (the
    bounds, and for the Laplace kernel every kernel centre), of the kernels'
    z-slice masses."""
    shape = SCIPY_KERNELS[profile.kernel]
    h, obs = profile.bandwidths, profile.observations
    rule = np.polynomial.legendre.leggauss(nodes)

    def pieces(cuts, lo, hi):
        """Nodes and weights of the rule on each piece of [lo, hi]."""
        cuts = np.unique(np.clip(np.concatenate([[lo, hi], cuts]), lo, hi))
        a, b = cuts[:-1, None], cuts[1:, None]
        return ((a + b + (b - a) * rule[0]) / 2).ravel(), ((b - a) * rule[1] / 2).ravel()

    total = 0.0
    for x, wx in zip(*pieces(np.concatenate([[0.5], obs[:, 0], 1.0 - obs[:, 2]]),
                             0.0, 1.0)):
        top = min(1.0, 1.5 - x, 2.0 - 2.0 * x)
        y, wy = pieces(np.concatenate([[1.0 - x], obs[:, 1], 1.0 + obs[:, 2] - x]),
                       0.0, top)
        a = (np.maximum(0.0, x + y - 1.0)[:, None] - obs[:, 2]) / h[2]
        b = (1.0 - x - obs[:, 2]) / h[2]
        z_mass = np.where(a > 0.0, shape.sf(a) - shape.sf(b), shape.cdf(b) - shape.cdf(a))
        density = (shape.pdf((x - obs[:, 0]) / h[0]) / h[0]
                   * shape.pdf((y[:, None] - obs[:, 1]) / h[1]) / h[1])
        total += wx * float(wy @ np.mean(density * np.clip(z_mass, 0.0, None), axis=1))
    return total


def _calibration(profile, region, k, seeds, truth):
    """Run `region_mass` on `seeds` seeds; assert that the mean lies within 4
    s.e. of `truth` and the s.d. within 20 % of the mean reported s.e. (with
    200 runs the s.d.'s own relative s.e. is about 5 %)."""
    runs = np.array([profile.region_mass(region, k, RngStream(seed))
                     for seed in range(seeds)])
    values, errors = runs[:, 0], runs[:, 1]
    assert abs(values.mean() - truth) <= 4.0 * values.std(ddof=1) / math.sqrt(seeds)
    assert values.std(ddof=1) == pytest.approx(errors.mean(), rel=0.2)


class TestRegionMass:
    """`region_mass` draws x' from the KDE conditioned on the region's
    bounding box B, and integrates the last axis over the region's slice."""

    @pytest.mark.parametrize("kernel", ["gaussian", "exponential"])
    @pytest.mark.parametrize("centre", [(-20.0, 0.5), (21.0, 0.5), (0.5, -20.0),
                                        (0.5, 21.0), (-20.0, -20.0), (21.0, 21.0)])
    def test_draws_lie_in_the_box(self, kernel, centre):
        # one kernel 20 bandwidths outside B = [0, 1]^2 on some axis: its
        # truncated draws of x pile up near B's face nearest the centre,
        # with the conditional mean offset of the kernel's tail beyond 20
        # (about 1/20 Gaussian, 1 - 1/(e - 1) Laplace, the cut at 21
        # included)
        profile = KDEProfile(SCHEMA_XY, np.array([centre]), kernel, (1.0, 1.0))
        region = parse_region("0 <= x && x <= 1 && 0 <= y && y <= 1 && x + y <= 1.5",
                              SCHEMA_XY)
        seen = _observed_points(region)
        value, std_error = profile.region_mass(region, 4_000, RngStream(1))
        points = np.concatenate(seen)
        assert points.shape == (4_000, 1)
        assert np.all((points >= 0.0) & (points <= 1.0))
        p_box = profile.box_mass(region.bounding_box)
        if np.all(points < 0.5):
            # no slice ends below y = 1, so every w is 1
            assert value == p_box and std_error == 0.0
        else:
            assert 0.0 < std_error and 0.0 < value <= p_box
        if 0.0 <= centre[0] <= 1.0:
            return
        shape = SCIPY_KERNELS[kernel]
        u = np.linspace(20.0, 21.0, 20_001)
        tail = shape.pdf(u) / (shape.sf(20.0) - shape.sf(21.0))
        expected = integrate.trapezoid((u - 20.0) * tail, u)
        offset = np.abs(points[:, 0] - np.clip(centre[0], 0.0, 1.0))
        assert np.mean(offset == 0.0) < 0.01
        # stratified draws vary less than i.i.d. ones, so the bound is loose
        bound = 5.0 * offset.std() / math.sqrt(len(offset))
        assert abs(offset.mean() - expected) <= bound

    @pytest.mark.parametrize("kernel", ["gaussian", "exponential"])
    @pytest.mark.parametrize("centre", [-4.7, 5.0])
    def test_draws_in_a_narrow_box_stay_inside(self, kernel, centre):
        # across an interval 1e-12 bandwidths wide the inverse CDF rounds
        # some draws past B's faces
        profile = KDEProfile(SCHEMA_XY, np.array([[centre, 0.5]]), kernel, (1.0, 1.0))
        region = parse_region("0.3 <= x && x <= 0.300000000001 && 0 <= y && y <= 1"
                              " && x + y <= 1.2", SCHEMA_XY)
        seen = _observed_points(region)
        profile.region_mass(region, 20_000, RngStream(0))
        box = region.bounding_box
        assert seen[0].shape == (20_000, 1)
        assert np.all((seen[0] >= box.lower[0]) & (seen[0] <= box.upper[0]))

    @pytest.mark.parametrize("kernel", ["gaussian", "exponential"])
    def test_strata_beat_the_iid_rate(self, kernel):
        # ten times the draws cut an i.i.d. estimator's s.e. by sqrt(10),
        # to 0.32 of it; stratifying the first axis cuts it to about 0.13
        profile = _records_kde(kernel)
        region = parse_region(R_GOOD_TEXT, SCHEMA)
        errors = {k: np.mean([profile.region_mass(region, k, RngStream(seed))[1]
                              for seed in range(20)]) for k in (2_000, 20_000)}
        assert errors[20_000] < 0.2 * errors[2_000]

    @pytest.mark.parametrize("kernel", ["gaussian", "exponential"])
    def test_calibrated_against_quadrature(self, kernel):
        # R_GOOD is its bounding box [60, 100] x [0, 300] less RT > 5 TP - 100
        profile = _records_kde(kernel)
        region = parse_region(R_GOOD_TEXT, SCHEMA)
        truth = quadrature_mass(profile, (60.0, 80.0, 100.0), lambda tp: 0.0,
                                lambda tp: min(300.0, 5.0 * tp - 100.0))
        _calibration(profile, region, 2_000, 300, truth)

    @pytest.mark.parametrize("kernel", ["gaussian", "exponential"])
    def test_three_attributes_calibrated_against_quadrature(self, kernel):
        # the z-slice is empty where 2 x + y > 2, and x + y <= 1.5 tests x'
        # alone
        obs = RngStream(3).generator().normal(0.5, 0.3, (12, 3))
        profile = KDEProfile(SCHEMA_XYZ, obs, kernel, (0.2, 0.2, 0.2))
        region = parse_region(CUT_CUBE_TEXT, SCHEMA_XYZ)
        last = region.constraint_matrix[region.box_rows, -1]
        assert sorted(last) == [-1.0, 0.0, 1.0]
        _calibration(profile, region, 2_000, 200, quadrature_cut_cube(profile))

    def test_empty_slice_and_failed_row_give_no_mass(self):
        # one narrow kernel near (0.9, 0.9, 0.5): 2 x + y > 2 empties the
        # z-slice, and x + y > 1.5 fails the zero-last-coefficient row
        profile = KDEProfile(SCHEMA_XYZ, np.array([[0.9, 0.9, 0.5]]), "gaussian",
                             (0.01, 0.01, 0.2))
        region = parse_region(CUT_CUBE_TEXT, SCHEMA_XYZ)
        seen = _observed_points(region)
        value, std_error = profile.region_mass(region, 2_000, RngStream(0))
        lower, upper = region.slice_bounds(seen[0])
        assert np.all(np.isneginf(upper) | (upper < lower))
        assert value == 0.0 and std_error == 0.0

    @pytest.mark.parametrize("kernel", ["gaussian", "exponential"])
    def test_thin_diagonal_band_is_integrated(self, kernel):
        # a diagonal band 2e-6 wide: its bounding box is [-3, 3]^2, nearly
        # all of whose mass lies off the band, yet every draw of x has a
        # slice of the band and so a w above 0
        profile = KDEProfile(SCHEMA_XY, RngStream(7).generator().standard_normal((50, 2)),
                             kernel, (0.3, 0.3))
        region = parse_region(
            "-3 <= x && x <= 3 && x - y <= 1e-6 && y - x <= 1e-6", SCHEMA_XY)
        value, std_error = profile.region_mass(region, 2_000, RngStream(2))
        truth = quadrature_mass(profile, (-3.0, 3.0), lambda x: x - 1e-6,
                                lambda x: x + 1e-6)
        assert 0.0 < std_error < 0.05 * value
        assert abs(value - truth) <= 4.0 * std_error

    @pytest.mark.parametrize("kernel", ["gaussian", "exponential"])
    def test_region_holding_the_draws_reports_no_error(self, kernel):
        # [-3, 3]^2 less a corner of legs 0.001 at (3, 3), which no draw of
        # x reaches: no slice ends inside B, so every w is 1, the estimate
        # is P(B) and its s.e. 0. The corner's own mass (4e-11 for the
        # Laplace kernel) is then missed: s.e. 0 says only that every
        # stratum's two draws had equal w
        profile = KDEProfile(SCHEMA_XY, RngStream(7).generator().standard_normal((50, 2)),
                             kernel, (0.3, 0.3))
        region = parse_region(
            "-3 <= x && x <= 3 && -3 <= y && y <= 3 && x + y <= 5.999", SCHEMA_XY)
        seen = _observed_points(region)
        value, std_error = profile.region_mass(region, 2_000, RngStream(2))
        truth = quadrature_mass(profile, (-3.0, 2.999, 3.0), lambda x: -3.0,
                                lambda x: min(3.0, 5.999 - x))
        assert np.all(seen[0] < 2.999)
        assert value == profile.box_mass(region.bounding_box) and std_error == 0.0
        assert 0.0 <= value - truth <= 1e-10

    @pytest.mark.parametrize("kernel", ["gaussian", "exponential"])
    def test_slice_in_a_far_upper_tail_keeps_its_mass(self, kernel):
        # one kernel 30 bandwidths below B = [0, 1]^2 in y, and y >= x / 2:
        # the slice [x / 2, 1] lies far up the kernel's tail, where
        # cdf(upper) - cdf(lower) would round to 0
        profile = KDEProfile(SCHEMA_XY, np.array([[0.5, -30.0]]), kernel, (1.0, 1.0))
        region = parse_region("0 <= x && x <= 1 && 0 <= y && y <= 1 && 2 * y >= x",
                              SCHEMA_XY)
        value, std_error = profile.region_mass(region, 2_000, RngStream(3))
        shape = SCIPY_KERNELS[kernel]

        def conditional(x):
            # w(x) times the density of x given x in [0, 1]
            w = (shape.sf(30.0 + x / 2.0) - shape.sf(31.0)) / (shape.sf(30.0) - shape.sf(31.0))
            return w * shape.pdf(x - 0.5) / (shape.cdf(0.5) - shape.cdf(-0.5))

        mean_w = integrate.quad(conditional, 0.0, 1.0, points=[0.5], epsrel=1e-12)[0]
        p_box = profile.box_mass(region.bounding_box)
        assert p_box > 0.0 and 0.0 < std_error
        assert abs(value / p_box - mean_w) <= 4.0 * std_error / p_box

    def test_w_stepping_inside_a_stratum(self):
        # two kernels of equal mass in B: the first uniform's stratum
        # [1/3, 2/3) straddles the switch from one to the other at 1/2, where
        # w steps from 1 to about 0.001. The pairs' variance estimate stays
        # unbiased: the mean reported variance matches the variance over
        # seeds, and the mean matches the truth.
        profile = KDEProfile(SCHEMA_XY, np.array([[0.25, 0.5], [0.75, 0.9]]), "gaussian",
                             (0.05, 0.05))
        region = parse_region("0 <= x && x <= 1 && 0 <= y && y <= 1 && x + y <= 1.5",
                              SCHEMA_XY)
        truth = quadrature_mass(profile, (0.0, 0.5, 1.0), lambda x: 0.0,
                                lambda x: min(1.0, 1.5 - x))
        runs = np.array([profile.region_mass(region, 6, RngStream(seed))
                         for seed in range(2_000)])
        values, errors = runs[:, 0], runs[:, 1]
        assert abs(values.mean() - truth) <= 4.0 * values.std(ddof=1) / math.sqrt(2_000)
        assert np.mean(errors ** 2) == pytest.approx(values.var(ddof=1), rel=0.15)

    def test_odd_k_draws_one_fewer(self):
        # k // 2 strata of two draws each: k = 2001 draws what k = 2000 does
        profile = _records_kde("gaussian")
        region = parse_region(R_GOOD_TEXT, SCHEMA)
        assert (profile.region_mass(region, 2_001, RngStream(5))
                == profile.region_mass(region, 2_000, RngStream(5)))
        seen = _observed_points(region)
        value, std_error = profile.region_mass(region, 3, RngStream(5))
        assert seen[0].shape == (2, 1)
        assert 0.0 <= value <= profile.box_mass(region.bounding_box)
        assert math.isfinite(std_error)

    @pytest.mark.parametrize("kernel", ["gaussian", "exponential"])
    def test_kernels_without_mass_take_no_draw(self, kernel):
        # two kernels thousands of bandwidths past B, one of them the last,
        # have mass 0 in B: their runs of u are empty, so every draw matches
        # the KDE without them, and only P(B)'s mean over m kernels changes
        region = parse_region(R_GOOD_TEXT, SCHEMA)
        kept = _records_kde(kernel)
        far = np.array([[1e5, 150.0], [150.0, 1e5]])
        assert KDEProfile(SCHEMA, far, kernel, kept.bandwidths).box_mass(
            region.bounding_box) == 0.0
        obs = np.concatenate([kept.observations[:100], far[:1],
                              kept.observations[100:], far[1:]])
        full = KDEProfile(SCHEMA, obs, kernel, kept.bandwidths)
        for k in (2, 3, 10, 1_001):
            for seed in range(50):
                got = np.array(full.region_mass(region, k, RngStream(seed))) * full.m
                want = np.array(kept.region_mass(region, k, RngStream(seed))) * kept.m
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_a_draw_rounded_up_to_one_keeps_a_kernel(self, monkeypatch):
        # (1 - 2^-53 + 1) / 2 rounds to 1.0, the start of a last kernel
        # with no mass in B; the draw stays with the kernel before it
        class Top:
            def random(self, n):
                return np.full(n, 1.0 - 2.0 ** -53)

        profile = KDEProfile(SCHEMA_XY, np.array([[0.5, 0.5], [1e5, 0.5]]), "gaussian",
                             (0.1, 0.1))
        region = parse_region("0 <= x && x <= 1 && 0 <= y && y <= 1 && x + y <= 1.5",
                              SCHEMA_XY)
        monkeypatch.setattr(RngStream, "generator", lambda self: Top())
        value, std_error = profile.region_mass(region, 4, RngStream(0))
        assert 0.0 < value <= profile.box_mass(region.bounding_box)
        assert math.isfinite(std_error)

    def test_box_beyond_every_kernel(self):
        # 50 bandwidths out the Gaussian tail mass underflows to 0
        profile = KDEProfile(SCHEMA_XY, np.zeros((2, 2)), "gaussian", (0.1, 0.1))
        region = parse_region("5 <= x && x <= 6 && 5 <= y && y <= 6 && x + y <= 11",
                              SCHEMA_XY)
        seen = _observed_points(region)
        assert profile.region_mass(region, 1_000, RngStream(0)) == (0.0, 0.0)
        assert seen == []

    def test_fewer_than_two_samples_refused(self):
        region = parse_region(R_GOOD_TEXT, SCHEMA)
        with pytest.raises(ValueError):
            _records_kde("gaussian").region_mass(region, 1, RngStream(0))


def direct_log_density(obs, h, kernel, x):
    """log f-hat at one point: a loop over observations, log-sum-exp by math.exp."""
    if kernel == "gaussian":
        log_k = lambda u: -0.5 * u * u - 0.5 * math.log(2.0 * math.pi)  # noqa: E731
    else:
        log_k = lambda u: -abs(u) - math.log(2.0)  # noqa: E731
    terms = [sum(log_k((xj - oj) / hj) for xj, oj, hj in zip(x, o, h)) for o in obs]
    top = max(terms)
    total = sum(math.exp(t - top) for t in terms)
    return top + math.log(total) - math.log(len(obs)) - sum(math.log(hj) for hj in h)


def blockwise_log_density(profile, pts):
    """log f-hat of finite points by the block loop written out in one
    piece, without `_shifted_blocks`: the reference `log_density` must
    match bit for bit."""
    x = (pts - profile._centre) / profile._scale
    rows = max(learning._MAX_ELEMENTS // profile.m, 1)
    log_sums = np.empty(x.shape[0])
    for lo in range(0, x.shape[0], rows):
        xb = x[lo:lo + rows]
        d = np.subtract(xb[:, :1], profile._scaled_t[0])
        profile._distance(d, out=d)
        for j in range(1, profile.dim):
            t = np.subtract(xb[:, j:j + 1], profile._scaled_t[j])
            profile._distance(t, out=t)
            d += t
        d_min = d.min(axis=1)
        np.subtract(d_min[:, None], d, out=d)
        np.exp(d, out=d)
        log_sums[lo:lo + rows] = np.log(d.sum(axis=1)) - d_min
    return log_sums - profile._log_norm


def brute_force_scores(records, seed, folds=5, grid=(0.25, 0.5, 1.0, 2.0, 4.0)):
    """Held-out score per "kernel:multiplier", one KDE per candidate and fold,
    on the fold partition `fit_kde_cv(records, rng=seed)` draws."""
    order = RngStream(seed).generator().permutation(records.m)
    base = bandwidth_scott(records)
    obs = records.observations
    scores = {}
    for kernel in ("gaussian", "exponential"):
        for mult in grid:
            total = 0.0
            for f in range(folds):
                train, held = np.delete(order, np.s_[f::folds]), order[f::folds]
                model = KDEProfile(records.schema, obs[train], kernel, base * mult)
                total += float(model.log_density(obs[held]).sum())
            scores[f"{kernel}:{mult}"] = total / records.m
    return scores


def brute_force_choice(scores):
    """(kernel, multiplier) of the best score, ties to the larger multiplier."""
    best = max(scores, key=lambda key: (scores[key], float(key.split(":")[1])))
    kernel, mult = best.split(":")
    return kernel, float(mult)


class TestLogDensity:
    KERNELS = ["gaussian", "exponential"]

    @staticmethod
    def profile(kernel, n, m, seed=0):
        gen = RngStream(seed).generator()
        scales = np.array([17.0, 170.0, 2.0])[:n]
        obs = gen.standard_normal((m, n)) * scales + np.array([50.0, 300.0, -4.0])[:n]
        schema = AttributeSchema(tuple("abc"[:n]))
        return KDEProfile(schema, obs, kernel, np.array([3.0, 30.0, 0.4])[:n])

    @staticmethod
    def points(profile, k, seed=1):
        """k points over the data's spread, the last three 10^3 bandwidths away."""
        gen = RngStream(seed).generator()
        obs, h = profile.observations, profile.bandwidths
        pts = obs.mean(axis=0) + 3.0 * gen.standard_normal((k, profile.dim)) * obs.std(axis=0)
        pts[-1] = obs.mean(axis=0) + 1e3 * h
        pts[-2] = obs.mean(axis=0) - 1e3 * h
        pts[-3, 0] = obs[0, 0] + 1e3 * h[0]
        return pts

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 7, 100])
    def test_matches_direct_sum(self, kernel, n, m, monkeypatch):
        # 64-element blocks: m = 1 and 7 give 64 and 9 rows per block, and
        # m = 100 exceeds a block, so each block holds a single row; 70
        # points is a multiple of neither 64 nor 9
        monkeypatch.setattr(learning, "_MAX_ELEMENTS", 64)
        profile = self.profile(kernel, n, m)
        pts = self.points(profile, 70)
        got = profile.log_density(pts)
        want = np.array([direct_log_density(profile.observations, profile.bandwidths,
                                            kernel, x) for x in pts])
        assert np.all(np.isfinite(got))
        # 1e-10 absolute, and relative once |log f| > 1: the far Gaussian
        # points reach log f ~ -1.5e6, where adjacent doubles are 2.3e-10 apart
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("m", [1, 7, 2049])
    def test_row_independent_of_call(self, kernel, m):
        profile = self.profile(kernel, 2, m)
        pts = self.points(profile, 45)
        if m == 2049:  # 45 points span one full and one partial block
            assert learning._MAX_ELEMENTS // m in range(23, 45)
        together = profile.log_density(pts)
        alone = np.array([profile.log_density(pts[i:i + 1])[0] for i in range(len(pts))])
        assert np.array_equal(together, alone)
        assert np.array_equal(profile.log_density(pts[7:30]), together[7:30])

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("m", [7, 1000, 2049])
    def test_bit_identical_to_unshared_sweep(self, kernel, m):
        # 500 points span 8 blocks at m = 1000 and 17 at m = 2049
        profile = self.profile(kernel, 2, m)
        pts = self.points(profile, 500)
        got = hashlib.sha256(profile.log_density(pts).tobytes()).hexdigest()
        want = hashlib.sha256(blockwise_log_density(profile, pts).tobytes()).hexdigest()
        assert got == want

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_non_finite_points(self, kernel):
        profile = self.profile(kernel, 2, 7)
        inf, nan = math.inf, math.nan
        pts = np.array([[inf, 300.0], [50.0, -inf], [-inf, inf], [nan, 300.0],
                        [inf, nan], [50.0, 300.0]])
        got = profile.log_density(pts)
        assert got[:3].tolist() == [-inf, -inf, -inf]
        assert np.isnan(got[3]) and np.isnan(got[4])
        assert got[5] == profile.log_density(pts[5:])[0]
        assert profile.density(pts[:3]).tolist() == [0.0, 0.0, 0.0]


class TestBandwidthRules:
    def test_scott_formula(self):
        rs = gaussian_records(500)
        sigma = rs.observations.std(axis=0, ddof=1)
        expected = sigma * 500 ** (-1 / 6)
        np.testing.assert_allclose(bandwidth_scott(rs), expected, rtol=1e-12)

    def test_silverman_formula(self):
        rs = gaussian_records(500)
        sigma = rs.observations.std(axis=0, ddof=1)
        expected = sigma * (4 / 4) ** (1 / 6) * 500 ** (-1 / 6)
        np.testing.assert_allclose(bandwidth_silverman(rs), expected, rtol=1e-12)

    def test_n2_rules_coincide(self):
        rs = gaussian_records(200)
        np.testing.assert_allclose(bandwidth_scott(rs), bandwidth_silverman(rs),
                                   rtol=1e-12)

    def test_n1_silverman_scott_ratio(self):
        gen = RngStream(6).generator()
        rs = QoSRecordSet(AttributeSchema(("a",)), gen.standard_normal((100, 1)))
        ratio = bandwidth_silverman(rs) / bandwidth_scott(rs)
        assert ratio[0] == pytest.approx((4 / 3) ** 0.2, rel=1e-12)

    def test_scaling_homogeneity(self):
        rs = gaussian_records(100)
        scaled = QoSRecordSet(SCHEMA_XY, rs.observations * 7.0)
        np.testing.assert_allclose(bandwidth_scott(scaled),
                                   7.0 * bandwidth_scott(rs), rtol=1e-12)

    def test_zero_variance_axis(self):
        obs = np.column_stack([np.arange(5.0), np.full(5, 2.0)])
        with pytest.raises(LearningError):
            bandwidth_scott(QoSRecordSet(SCHEMA_XY, obs))


class TestFitKDECV:
    def test_multiplier_near_oracle_on_gaussian_data(self):
        rs = gaussian_records(400, seed=7)
        profile = fit_kde_cv(rs, rng=RngStream(8))
        assert 0.5 <= profile.fit_info["multiplier"] <= 2.0
        assert math.isfinite(profile.fit_info["cv_score"])

    def test_deterministic(self):
        rs = gaussian_records(150, seed=9)
        a = fit_kde_cv(rs, rng=RngStream(10))
        b = fit_kde_cv(rs, rng=RngStream(10))
        assert a.kernel == b.kernel
        assert a.fit_info["multiplier"] == b.fit_info["multiplier"]
        assert a.fit_info["cv_score"] == b.fit_info["cv_score"]

    def test_folds_validation(self):
        # 4 records cannot fill 5 folds
        with pytest.raises(LearningError):
            fit_kde_cv(gaussian_records(4))

    def test_correlated_records_fit(self):
        records = QoSRecordSet(SCHEMA, correlated_profile().sample(500, RngStream(11)))
        profile = fit_kde_cv(records, rng=RngStream(12))
        assert profile.kernel in ("gaussian", "exponential")
        assert math.isfinite(profile.fit_info["cv_score"])
        assert profile.box_mass(profile.covering_box()) == pytest.approx(1.0, abs=1e-3)

    def test_fixture_selection_unchanged(self, fixtures_dir):
        # the selection on the fixture records, pinned: kernel, multiplier
        # and held-out score
        records = QoSRecordSet.from_csv(fixtures_dir / "records_xcorr_1000.csv")
        profile = fit_kde_cv(records, rng=7)
        assert profile.kernel == "gaussian"
        assert profile.fit_info["multiplier"] == 1.0
        assert profile.fit_info["cv_score"] == pytest.approx(-10.816974072875215,
                                                             abs=1e-9)

    @pytest.mark.parametrize("m", [7, 1000])
    @pytest.mark.parametrize("grid", [(0.25, 0.5, 1.0, 2.0, 4.0)])
    def test_scores_match_brute_force(self, m, grid):
        # m = 7 gives uneven folds (2, 2, 1, 1, 1); at m = 1000 a fold's 200
        # held-out rows span 3 blocks of its 800 training records. `grid` is
        # the multipliers fit_kde_cv scores, written out for the reference.
        records = gaussian_records(m, seed=13)
        if m == 1000:
            assert -(-200 // (learning._MAX_ELEMENTS // 800)) == 3
        profile = fit_kde_cv(records, rng=14)
        assert profile.fit_info["grid"] == list(grid)
        want = brute_force_scores(records, 14, grid=grid)
        got = profile.fit_info["candidate_scores"]
        assert sorted(got) == sorted(want)
        for key in want:
            assert got[key] == pytest.approx(want[key], rel=1e-12), key
        assert (profile.kernel, profile.fit_info["multiplier"]) == brute_force_choice(want)

    def test_fixture_selections_by_seed(self, fixtures_dir):
        records = QoSRecordSet.from_csv(fixtures_dir / "records_xcorr_1000.csv")
        fits = [fit_kde_cv(records, rng=seed) for seed in range(12)]
        assert "".join(fit.kernel[0] for fit in fits) == "ggegggggeeeg"
        assert [fit.fit_info["multiplier"] for fit in fits] == [1.0] * 12

    def test_skewed_source_selections_match_brute_force(self):
        # the correlated source with a skewed response time (alpha 1.5,
        # mean RT 300), on which the fit picks the Laplace kernel
        source = CorrelatedTPRT(50.0, 300.0, 1.5, 0.005, schema=SCHEMA)
        for seed in range(20):
            records = QoSRecordSet(SCHEMA, source.sample(1000, RngStream(100 + seed)))
            profile = fit_kde_cv(records, rng=seed)
            want = brute_force_choice(brute_force_scores(records, seed))
            assert (profile.kernel, profile.fit_info["multiplier"]) == want, seed

    def test_metadata_recorded(self):
        profile = fit_kde_cv(gaussian_records(100), rng=0)
        info = profile.fit_info
        assert info["method"] == "cv"
        assert set(info) >= {"kernel", "multiplier", "bandwidths", "cv_score", "folds"}
