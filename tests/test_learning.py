import math

import numpy as np
import pytest

from probqos import (
    AttributeSchema,
    Box,
    KDEProfile,
    QoSRecordSet,
    RngStream,
    bandwidth_scott,
    bandwidth_silverman,
    fit_kde_cv,
    integrate_uniform,
    parse_region,
)
from probqos.geometry import DimensionMismatchError
from probqos.learning import LearningError
from probqos.reference import SCHEMA, correlated_profile

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

    def test_csv_schema_mismatch(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        with pytest.raises(LearningError):
            QoSRecordSet.from_csv(path, SCHEMA_XY)

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
        profile = fit_kde_cv(rs, bandwidth_grid=(0.25, 0.5, 1.0, 2.0, 4.0),
                             rng=RngStream(8))
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
        rs = gaussian_records(4)
        with pytest.raises(LearningError):
            fit_kde_cv(rs, folds=5)
        with pytest.raises(LearningError):
            fit_kde_cv(rs, folds=1)

    def test_empty_grid(self):
        with pytest.raises(LearningError):
            fit_kde_cv(gaussian_records(20), bandwidth_grid=())

    def test_correlated_records_fit(self):
        records = QoSRecordSet(SCHEMA, correlated_profile().sample(500, RngStream(11)))
        profile = fit_kde_cv(records, rng=RngStream(12))
        assert profile.kernel in ("gaussian", "exponential")
        assert math.isfinite(profile.fit_info["cv_score"])
        assert profile.box_mass(profile.covering_box()) == pytest.approx(1.0, abs=1e-3)

    def test_metadata_recorded(self):
        profile = fit_kde_cv(gaussian_records(100), rng=0)
        info = profile.fit_info
        assert info["method"] == "cv"
        assert set(info) >= {"kernel", "multiplier", "bandwidths", "cv_score", "folds"}
