import math

import numpy as np
import pytest
from scipy import integrate, stats

from probqos import (
    AttributeSchema,
    Box,
    CorrelatedTPRT,
    GammaMarginal,
    GaussianMarginal,
    IndependentProduct,
    KDEProfile,
    ProfileError,
    RngStream,
    UniformBox,
    rectangle_probability,
)
from probqos.geometry import DimensionMismatchError
from probqos.profiles import QoSProfile
from probqos.reference import SCHEMA, correlated_profile, independent_profile


class TestSchema:
    def test_dim(self):
        assert AttributeSchema(("TP", "RT")).dim == 2

    def test_duplicate_names(self):
        with pytest.raises(ProfileError):
            AttributeSchema(("a", "a"))

    def test_empty(self):
        with pytest.raises(ProfileError):
            AttributeSchema(())


class TestMarginals:
    def test_gaussian_pdf_peak(self):
        g = GaussianMarginal(0.0, 1.0)
        assert g.logpdf(np.array([0.0]))[0] == pytest.approx(-0.5 * math.log(2 * math.pi))

    def test_gaussian_cdf_symmetry(self):
        g = GaussianMarginal(5.0, 4.0)
        assert g.interval_mass(-math.inf, 5.0) == pytest.approx(0.5)
        assert g.interval_mass(5.0, math.inf) == pytest.approx(0.5)

    def test_gamma_mean(self):
        g = GammaMarginal(3.0, 0.01)
        pts = g.sample(RngStream(0).generator(), 100_000)
        assert pts.mean() == pytest.approx(300.0, rel=0.02)

    def test_parameter_validation(self):
        with pytest.raises(ProfileError):
            GaussianMarginal(0.0, 0.0)
        with pytest.raises(ProfileError):
            GammaMarginal(-1.0, 1.0)


class TestIndependentProduct:
    def test_density_at_reference_point(self):
        # Gaussian(50,300) x Gamma(3,0.01) at (50, 200)
        profile = independent_profile()
        tp = 1 / math.sqrt(2 * math.pi * 300)
        rt = 0.01**3 / 2 * 200**2 * math.exp(-2.0)
        assert profile.density_at([50.0, 200.0]) == pytest.approx(tp * rt, rel=1e-12)

    def test_density_vectorized(self):
        profile = independent_profile()
        pts = np.array([[50.0, 200.0], [60.0, 100.0]])
        d = profile.density(pts)
        assert d.shape == (2,)
        assert d[0] == pytest.approx(profile.density_at([50.0, 200.0]))

    def test_sampling_moments(self):
        profile = independent_profile()
        pts = profile.sample(200_000, RngStream(1))
        assert pts[:, 0].mean() == pytest.approx(50.0, abs=0.2)
        assert pts[:, 0].var() == pytest.approx(300.0, rel=0.05)
        assert pts[:, 1].mean() == pytest.approx(300.0, rel=0.02)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            independent_profile().density_at([50.0])

    def test_marginal_count_check(self):
        with pytest.raises(DimensionMismatchError):
            IndependentProduct(SCHEMA, (GaussianMarginal(0.0, 1.0),))


class TestRectangleProbability:
    def test_reference_oracle_value(self):
        box = Box(np.array([60.0, 0.0]), np.array([100.0, 300.0]))
        p = rectangle_probability(independent_profile(), box)
        assert p == pytest.approx(0.16145210854626912, rel=1e-12)

    def test_whole_plane_is_one(self):
        box = Box(np.array([-1e6, 0.0]), np.array([1e6, 1e6]))
        assert rectangle_probability(independent_profile(), box) == pytest.approx(1.0)

    def test_equals_box_mass_on_every_kind(self):
        box = Box(np.array([60.0, 0.0]), np.array([100.0, 300.0]))
        points = correlated_profile().sample(200, RngStream(4))
        kde = KDEProfile(SCHEMA, points, "gaussian", (4.0, 30.0))
        for profile in (correlated_profile(), kde):
            p = rectangle_probability(profile, box)
            assert 0.0 < p < 1.0
            assert p == profile.box_mass(box)


class TestCorrelatedTPRT:
    def test_negative_correlation(self):
        pts = correlated_profile().sample(50_000, RngStream(2))
        assert np.corrcoef(pts.T)[0, 1] < -0.1

    def test_density_zero_outside_support(self):
        profile = correlated_profile()
        assert profile.density_at([50.0, -1.0]) == 0.0
        # conditional shape alpha - (x1 - mu)/mu <= 0 when x1 >= mu (1 + alpha)
        assert profile.density_at([250.0, 100.0]) == 0.0

    def test_density_matches_factored_form(self):
        profile = correlated_profile()
        x1, x2 = 55.0, 250.0
        shape = 3.0 - (x1 - 50.0) / 50.0
        tp = np.exp(GaussianMarginal(50.0, 300.0).logpdf(np.array([x1])))[0]
        rt = np.exp(GammaMarginal(shape, 0.01).logpdf(np.array([x2])))[0]
        assert profile.density_at([x1, x2]) == pytest.approx(tp * rt, rel=1e-12)

    def test_deterministic(self):
        a = correlated_profile().sample(100, RngStream(7))
        b = correlated_profile().sample(100, RngStream(7))
        np.testing.assert_array_equal(a, b)


def quad_box_mass(profile, lower, upper, epsabs=1e-15):
    """P(box) of a CorrelatedTPRT by adaptive quadrature over the box's TP
    range of the TP density times the conditional RT probability (from the
    survival function where the RT range starts above the conditional
    mean), split at every sd within 10 sd of the mean and where the
    conditional shape reaches 0."""
    sd = math.sqrt(profile.sigma2)

    def integrand(tp):
        shape = profile.alpha - (tp - profile.mu) / profile.mu
        if shape <= 0:
            return 0.0
        rt = stats.gamma(shape, scale=1.0 / profile.beta)
        rt_mass = (rt.sf(lower[1]) - rt.sf(upper[1]) if lower[1] > rt.mean()
                   else rt.cdf(upper[1]) - rt.cdf(lower[1]))
        return stats.norm.pdf(tp, profile.mu, sd) * rt_mass

    cuts = [profile.mu + j * sd for j in range(-10, 11)] + [profile.mu * (profile.alpha + 1)]
    edges = sorted({lower[0], upper[0], *(c for c in cuts if lower[0] < c < upper[0])})
    return sum(integrate.quad(integrand, a, b, epsabs=epsabs, epsrel=1e-13)[0]
               for a, b in zip(edges, edges[1:]))


class TestBoxMass:
    def test_every_profile_kind_must_have_one(self):
        assert "box_mass" in QoSProfile.__abstractmethods__

    @pytest.mark.parametrize("profile,lower,upper", [
        (correlated_profile(), (60.0, 0.0), (100.0, 300.0)),
        (correlated_profile(), (0.0, 300.0), (40.0, 1000.0)),
        # mu * (alpha + 1) = 225 is 1.4 sd above the mean
        (CorrelatedTPRT(150.0, 3000.0, 0.5, 0.01), (150.0, 0.0), (300.0, 300.0)),
        (correlated_profile(), (40.0, -50.0), (70.0, 200.0)),
        # from 87 sd to 32 sd below the mean: the mass underflows to 0
        (correlated_profile(), (-1450.0, 0.0), (-500.0, 300.0)),
        (CorrelatedTPRT(-50.0, 300.0, 3.0, 0.01), (-100.0, 0.0), (0.0, 300.0)),
        (CorrelatedTPRT(-40.0, 90.0, 2.0, 1.5), (-130.0, 0.5), (-20.0, 2.0)),
    ], ids=["box", "bad", "shape-edge", "negative-rt", "far-tail", "negative-mu",
            "negative-mu-shape-edge"])
    def test_correlated_matches_adaptive_quadrature(self, profile, lower, upper):
        mass = profile.box_mass(Box(np.array(lower), np.array(upper)))
        assert abs(mass - quad_box_mass(profile, lower, upper)) <= 1e-12

    def test_correlated_spike_is_one_at_most(self):
        spike = CorrelatedTPRT(50.0, 1e-4, 3.0, 0.01)
        mass = spike.box_mass(Box(np.array([0.0, 0.0]), np.array([1000.0, 10000.0])))
        assert 1.0 - 1e-12 <= mass <= 1.0

    @pytest.mark.parametrize("lower,upper,expected", [
        ((3.0, 0.0), (4.0, 1.0), 0.0),
        ((1.0, 1.0), (5.0, 2.0), 0.125),
        ((0.5, 0.5), (1.5, 1.5), 0.125),
        ((-1.0, -1.0), (3.0, 5.0), 1.0),
    ], ids=["disjoint", "overlapping", "inside", "containing"])
    def test_uniform_box_is_the_overlap_share(self, lower, upper, expected):
        profile = UniformBox(AttributeSchema(("x", "y")),
                             Box(np.array([0.0, 0.0]), np.array([2.0, 4.0])))
        assert profile.box_mass(Box(np.array(lower), np.array(upper))) == expected


class TestTailSafeBoxMass:
    """Above the mean a parametric interval mass is a difference of
    survival functions, so a box in a far upper tail keeps its mass."""

    def test_independent_far_tails(self):
        profile = IndependentProduct(SCHEMA, (GaussianMarginal(0.0, 1.0),
                                              GammaMarginal(2.0, 1.0)))
        upper = profile.box_mass(Box(np.array([9.0, 0.0]), np.array([10.0, 1e3])))
        lower = profile.box_mass(Box(np.array([-10.0, 0.0]), np.array([-9.0, 1e3])))
        rt = profile.box_mass(Box(np.array([-1e3, 60.0]), np.array([1e3, 70.0])))
        exact = stats.norm.sf(9.0) - stats.norm.sf(10.0)
        assert upper == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert upper == pytest.approx(lower, rel=1e-12, abs=0.0)
        exact = stats.gamma(2.0).sf(60.0) - stats.gamma(2.0).sf(70.0)
        assert rt == pytest.approx(exact, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("lower,upper", [((40.0, 5000.0), (60.0, 6000.0)),
                                             ((0.0, 8000.0), (100.0, 9000.0))])
    def test_correlated_far_rt_tail(self, lower, upper):
        mass = correlated_profile().box_mass(Box(np.array(lower), np.array(upper)))
        exact = quad_box_mass(correlated_profile(), lower, upper, epsabs=0.0)
        assert mass > 0.0 and mass == pytest.approx(exact, rel=1e-12, abs=0.0)


def reference_density(profile, pts):
    """Product of per-marginal scipy.stats pdfs, point by point; 0 outside
    the support."""
    out = []
    with np.errstate(all="ignore"):
        for x in pts:
            if isinstance(profile, CorrelatedTPRT):
                shape = profile.alpha - (x[0] - profile.mu) / profile.mu
                if not (shape > 0 and x[1] > 0):
                    out.append(0.0)
                    continue
                pairs = [(GaussianMarginal(profile.mu, profile.sigma2), x[0]),
                         (GammaMarginal(shape, profile.beta), x[1])]
            else:
                pairs = zip(profile.marginals, x)
            f = 1.0
            for marg, xj in pairs:
                if isinstance(marg, GaussianMarginal):
                    f *= stats.norm.pdf(xj, marg.mean, marg.sd)
                else:
                    f *= stats.gamma.pdf(xj, marg.shape, scale=1.0 / marg.rate) if xj > 0 else 0.0
            out.append(f)
    return np.array(out)


PARAMETRIC = [correlated_profile(), independent_profile(),
              CorrelatedTPRT(-40.0, 90.0, 2.0, 1.5)]


@pytest.mark.filterwarnings("error")
class TestFusedDensity:
    """The joint densities sum the log densities and take one exp."""

    @pytest.mark.parametrize("profile", PARAMETRIC)
    def test_matches_scipy_product(self, profile):
        pts = profile.sample(2_000, RngStream(4))
        f = profile.density(pts)
        assert np.all(f > 0)
        np.testing.assert_allclose(f, reference_density(profile, pts), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("profile", PARAMETRIC)
    def test_edges_and_far_tails(self, profile):
        pts = np.array([
            [55.0, 0.0],     # RT = 0
            [55.0, -1.0],    # RT < 0
            [55.0, -1e300],
            [200.0, 250.0],  # conditional shape 0 (mu = 50, alpha = 3)
            [230.0, 250.0],  # conditional shape < 0
            [-1_000.0, 250.0],   # Gaussian tail: exp(-1,759) underflows
            [55.0, 1e6],     # Gamma tail: exp(-1e4) underflows
            [-1e200, 250.0],     # (x - mu)^2 overflows to inf
            [55.0, 1e300],
            [55.0, 5e-324],
            [-39.0, 1e-3],
        ])
        f = profile.density(pts)
        ref = reference_density(profile, pts)
        np.testing.assert_allclose(f, ref, rtol=1e-12, atol=0)
        assert not np.isnan(f).any()
        assert np.all(f[[0, 1, 2, 5, 6, 7, 8]] == 0.0)

    def test_non_finite_coordinates_keep_their_answers(self):
        nan, inf = math.nan, math.inf
        pts = np.array([(a, b) for a in (nan, inf, -inf, 55.0)
                        for b in (nan, inf, -inf, 250.0, 0.5)
                        if not (math.isfinite(a) and math.isfinite(b))])
        # what the product of per-factor densities gave: 0 * nan and nan
        # propagate, a zero factor beside a finite one gives 0; RT = inf is
        # outside the Gamma support, so (inf, inf), (-inf, inf) and (55, inf)
        # give 0 (the product form gave nan there, from inf - inf)
        expected = {
            "correlated": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, nan, 0, 0, 0, 0],
            "independent": [nan, nan, nan, nan, nan, 0, 0, 0, 0, 0,
                            0, 0, 0, 0, 0, 0, 0, 0],
        }
        for name, profile in (("correlated", correlated_profile()),
                              ("independent", independent_profile())):
            np.testing.assert_array_equal(profile.density(pts), expected[name])

    def test_marginal_pdf_is_exp_logpdf(self):
        assert GammaMarginal(3.0, 0.01).logpdf(np.array([-1.0, 0.0])).tolist() == [-math.inf] * 2


class TestUniformBox:
    def test_constant_density(self):
        box = Box(np.array([0.0, 0.0]), np.array([2.0, 2.0]))
        profile = UniformBox(AttributeSchema(("x", "y")), box)
        assert profile.density_at([1.0, 1.0]) == pytest.approx(0.25)
        assert profile.density_at([3.0, 1.0]) == 0.0

    def test_samples_inside(self):
        box = Box(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        profile = UniformBox(AttributeSchema(("x", "y")), box)
        pts = profile.sample(1_000, RngStream(0))
        assert np.all((pts >= 0.0) & (pts <= 1.0))
