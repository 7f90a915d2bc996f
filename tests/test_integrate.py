import numpy as np
import pytest
from scipy import integrate, stats

from probqos import (
    AttributeSchema,
    Box,
    HPolytope,
    KDEProfile,
    RngStream,
    UniformBox,
    convergence_scan,
    estimate_volume,
    integrate_uniform,
    parse_region,
    rectangle_probability,
)
from probqos import geometry
from probqos.geometry import box_pass
from probqos.integrate import SchemaMismatchError
from probqos.sampling import rounded_frame
from probqos.reference import R_GOOD_TEXT, SCHEMA, correlated_profile, independent_profile

R_BOX = parse_region("60 <= TP && TP <= 100 && 0 <= RT && RT <= 300", SCHEMA)
R_GOOD = parse_region(R_GOOD_TEXT, SCHEMA)
# a thin diagonal band of the box [0, 100] x [0, 1000]: box acceptance ~1%
THIN = parse_region(
    "0 <= TP && TP <= 100 && 0 <= RT && RT <= 1000 && "
    "10 * TP - RT <= 5 && RT - 10 * TP <= 5",
    SCHEMA,
)
# the thin band of the roadmap: box acceptance ~2%
BAND = parse_region(
    "60 <= TP && TP <= 120 && 0 <= RT && 10 * TP - RT >= 200 && 10 * TP - RT <= 215",
    SCHEMA,
)
ORACLE = rectangle_probability(independent_profile(),
                               Box(np.array([60.0, 0.0]), np.array([100.0, 300.0])))


def constant_profile():
    schema = AttributeSchema(("x", "y"))
    return UniformBox(schema, Box(np.array([0.0, 0.0]), np.array([1.0, 1.0])))


def triangle_xy():
    return HPolytope(
        np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]),
        np.array([0.0, 0.0, 1.0]),
        ("x", "y"),
    )


class TestIntegrateUniform:
    def test_matches_oracle(self):
        est = integrate_uniform(independent_profile(), R_BOX, 200_000, RngStream(0))
        assert abs(est.value - ORACLE) <= 3 * est.std_error
        assert est.std_error < 2e-3  # default-k design target

    def test_constant_density_exact(self):
        est = integrate_uniform(constant_profile(), triangle_xy(), 10_000, RngStream(1))
        # volume cancels the constant density: estimator variance is zero
        assert est.value == pytest.approx(0.5, abs=3 * est.std_error + 1e-12)

    def test_deterministic(self):
        a = integrate_uniform(independent_profile(), R_BOX, 10_000, RngStream(5))
        b = integrate_uniform(independent_profile(), R_BOX, 10_000, RngStream(5))
        assert a == b

    def test_schema_mismatch(self):
        other = parse_region("0 <= a && a <= 1 && 0 <= b && b <= 1",
                             AttributeSchema(("a", "b")))
        with pytest.raises(SchemaMismatchError):
            integrate_uniform(independent_profile(), other, 1_000, RngStream(0))

    def test_k_validation(self):
        with pytest.raises(ValueError):
            integrate_uniform(independent_profile(), R_BOX, 1, RngStream(0))

    def test_thin_region_uses_rounded_frame(self):
        # THIN keeps about 1% of its box proposals, so the estimate is the
        # box mean of a second pass, in the rounded frame on substream 1
        prof, k, stream = independent_profile(), 5_000, RngStream(2)
        est = integrate_uniform(prof, THIN, k, stream)
        c, M, rounded, det = rounded_frame(THIN)
        hits, f = box_pass(rounded, k, stream.substream(1),
                           lambda y: prof.density(c + y @ M.T))
        vbox = rounded.bounding_box.volume * det
        assert hits / k > 0.5
        assert est.value == pytest.approx(vbox * f.sum() / k, rel=1e-12)
        assert est.volume_used == pytest.approx(vbox * hits / k, rel=1e-12)
        # the band |10 TP - RT| <= 5 loses two corner triangles of 1.25
        volume_se = vbox * np.sqrt(hits / k * (1 - hits / k) / k)
        assert abs(est.volume_used - 997.5) <= 4 * volume_se

    def test_region_without_interior_is_zero(self):
        # the diagonal x = y of the unit square: its box has volume 1
        line = HPolytope(np.array([[1.0, -1.0], [-1.0, 1.0], [-1.0, 0.0], [1.0, 0.0]]),
                         np.array([0.0, 0.0, 0.0, 1.0]), ("x", "y"))
        est = integrate_uniform(constant_profile(), line, 1_000, RngStream(3))
        assert est == (0.0, 0.0, 1_000, 0.0)


def band_quadrature(profile):
    """P(BAND) on a CorrelatedTPRT: the TP density times the conditional
    Gamma mass of RT in [10 TP - 215, 10 TP - 200], by adaptive quadrature
    over TP in [60, 120]."""
    def integrand(tp):
        rt = stats.gamma(profile.alpha - (tp - profile.mu) / profile.mu,
                         scale=1.0 / profile.beta)
        return (stats.norm.pdf(tp, profile.mu, np.sqrt(profile.sigma2))
                * (rt.cdf(10 * tp - 200) - rt.cdf(10 * tp - 215)))
    return integrate.quad(integrand, 60.0, 120.0, epsabs=1e-14, epsrel=1e-12)[0]


class TestRoundedFrame:
    def test_calibrated_on_thin_band(self):
        # BAND keeps about 2% of its box proposals: every estimate comes
        # from the rounded frame
        prof = correlated_profile()
        truth = band_quadrature(prof)
        assert truth == pytest.approx(0.0030635, abs=1e-7)
        estimates = [integrate_uniform(prof, BAND, 2_000, RngStream(s)) for s in range(200)]
        values = np.array([e.value for e in estimates])
        spread = float(values.std(ddof=1))
        reported = float(np.mean([e.std_error for e in estimates]))
        assert abs(values.mean() - truth) <= 4 * spread / np.sqrt(len(values))
        assert abs(spread / reported - 1.0) <= 0.15, (spread, reported)

    def test_frame_holds_the_unit_ball(self):
        # the Dikin ellipsoid at the analytic centre lies inside the region
        # (Boyd & Vandenberghe 8.5.3): every row of the rounded region is
        # at least distance 1 from the origin
        c, M, rounded, det = rounded_frame(BAND)
        A, b = rounded.constraint_matrix, rounded.bounds
        assert np.all(b / np.linalg.norm(A, axis=1) >= 1.0 - 1e-12)
        assert det == pytest.approx(abs(np.linalg.det(M)), rel=1e-12)
        np.testing.assert_allclose(A, BAND.constraint_matrix @ M, rtol=0, atol=0)


class TestSingleBoxPass:
    def test_reported_se_matches_spread_over_seeds(self):
        # R_GOOD takes the rejection regime (box acceptance 0.917)
        estimates = [integrate_uniform(correlated_profile(), R_GOOD, 2_000, RngStream(s))
                     for s in range(200)]
        spread = float(np.std([e.value for e in estimates], ddof=1))
        reported = float(np.mean([e.std_error for e in estimates]))
        assert abs(spread / reported - 1.0) <= 0.15, (spread, reported)

    def test_volume_used_is_the_volume_pass(self):
        stream = RngStream(21)
        est = integrate_uniform(correlated_profile(), R_GOOD, 2_000, stream)
        assert est.volume_used == estimate_volume(R_GOOD, 2_000, stream.substream(0))[0]


def span_profiles():
    """One profile of each kind on the TP/RT schema: the two parametric
    joints, a KDE and a uniform box."""
    obs = RngStream(5).generator().uniform(0.0, 1.0, size=(40, 2)) * [100.0, 600.0]
    return {
        "correlated": correlated_profile(),
        "independent": independent_profile(),
        "kde": KDEProfile(SCHEMA, obs, "gaussian", (8.0, 50.0)),
        "uniform": UniformBox(SCHEMA, R_GOOD.bounding_box),
    }


class TestWorkerCount:
    """The box pass's spans change no bit of an estimate: every profile
    density computes each row on its own."""

    CHUNK_ROWS = geometry._CHUNK_ELEMENTS // 2

    @pytest.mark.parametrize("profile", ["correlated", "independent", "kde", "uniform"])
    def test_estimates_do_not_depend_on_workers(self, monkeypatch, profile):
        prof = span_profiles()[profile]
        ks = [2, 3, 4_095, 4_097, self.CHUNK_ROWS - 1, self.CHUNK_ROWS + 1,
              5 * self.CHUNK_ROWS // 2, 200_003]
        results = {}
        for workers in (1, 2, 3, 7):
            monkeypatch.setattr(geometry, "_WORKERS", workers)
            results[workers] = [(integrate_uniform(prof, R_GOOD, k, RngStream(k)),
                                 estimate_volume(R_GOOD, k, RngStream(k)))
                                for k in ks]
        for workers in (2, 3, 7):
            assert results[workers] == results[1]

    @pytest.mark.parametrize("profile", ["correlated", "independent", "kde", "uniform"])
    def test_rounded_frame_does_not_depend_on_workers(self, monkeypatch, profile):
        # THIN's own pass and its rounded pass each split into spans at
        # k = 20,000
        prof = span_profiles()[profile]
        results = {}
        for workers in (1, 2, 3, 7):
            monkeypatch.setattr(geometry, "_WORKERS", workers)
            results[workers] = integrate_uniform(prof, THIN, 20_000, RngStream(11))
        assert results[1].value > 0.0 or profile == "uniform"
        for workers in (2, 3, 7):
            assert results[workers] == results[1]


class TestPinnedEstimates:
    """A seed fixes every draw: these values pin the layout of the box pass
    in the region's own box and in its rounded frame, so a change that
    moves a draw shows up here."""

    def test_rejection_regime(self):
        # R_GOOD keeps 92% of its box proposals: the hits are the sample
        est = integrate_uniform(correlated_profile(), R_GOOD, 20_000, RngStream(5))
        assert est.value == pytest.approx(0.1535518411121449, rel=1e-12)
        assert est.std_error == pytest.approx(0.0011778332492246395, rel=1e-12)
        assert est.volume_used == pytest.approx(10988.4, rel=1e-12)

    def test_rounded_regime(self):
        # THIN keeps about 1% of its box proposals: the rounded frame's
        # box pass supplies the sample
        est = integrate_uniform(independent_profile(), THIN, 2_000, RngStream(2))
        assert est.value == pytest.approx(0.010603985668718336, rel=1e-12)
        assert est.std_error == pytest.approx(0.00023685379908490868, rel=1e-12)
        assert est.volume_used == pytest.approx(996.7703229676998, rel=1e-12)


class TestConvergenceScan:
    def test_slope_near_half(self):
        scan = convergence_scan(independent_profile(), R_BOX,
                                ks=[100, 1_000, 10_000, 100_000],
                                seeds=range(10), truth=ORACLE)
        assert scan.slope == pytest.approx(-0.5, abs=0.15)
        errors = [e for _, e in scan.rows]
        assert errors[0] > errors[-1]

    def test_needs_three_ks(self):
        with pytest.raises(ValueError):
            convergence_scan(independent_profile(), R_BOX, ks=[100, 1_000],
                             seeds=[0], truth=ORACLE)

    def test_zero_error_slope_nan(self):
        unit_square = parse_region("0 <= x && x <= 1 && 0 <= y && y <= 1",
                                   AttributeSchema(("x", "y")))
        scan = convergence_scan(constant_profile(), unit_square,
                                ks=[100, 1_000, 10_000], seeds=[0, 1], truth=1.0)
        # constant density on its own box: every estimate is exactly 1
        assert [e for _, e in scan.rows] == [0.0, 0.0, 0.0]
        assert np.isnan(scan.slope)
