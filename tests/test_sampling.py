import numpy as np
import pytest

from probqos import (
    HPolytope,
    KDEProfile,
    RngStream,
    UniformBox,
    dikin_walk,
    parse_region,
    rejection_sample,
)
from probqos import sampling
from probqos.geometry import box_pass
from probqos.reference import R_GOOD_TEXT, SCHEMA, correlated_profile, independent_profile
from probqos.sampling import ThinRegionError


def thin_slab(width: float = 1e-4) -> HPolytope:
    # |x - y| <= width inside the square [-1, 1]^2: a sliver of its box
    return HPolytope(
        np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, 0.0], [-1.0, 0.0],
                  [0.0, 1.0], [0.0, -1.0]]),
        np.array([width, width, 1.0, 1.0, 1.0, 1.0]),
        ("x", "y"),
    )


class TestRejection:
    def test_membership(self, triangle):
        pts = rejection_sample(triangle, 5_000, rng=0)
        assert pts.shape == (5_000, 2)
        assert triangle.contains_all(pts).all()

    def test_deterministic(self, triangle):
        a = rejection_sample(triangle, 1_000, rng=RngStream(4))
        b = rejection_sample(triangle, 1_000, rng=RngStream(4))
        np.testing.assert_array_equal(a, b)

    def test_uniform_moments(self, triangle):
        pts = rejection_sample(triangle, 100_000, rng=1)
        # uniform triangle: mean 1/3 per axis, variance 1/18, covariance -1/36
        se = np.sqrt(1 / 18 / 100_000)
        np.testing.assert_allclose(pts.mean(axis=0), [1 / 3, 1 / 3], atol=4 * se)
        cov = np.cov(pts.T)
        assert cov[0, 0] == pytest.approx(1 / 18, rel=0.05)
        assert cov[0, 1] == pytest.approx(-1 / 36, rel=0.1)

    @pytest.mark.parametrize("width,k", [(1.0, 300), (0.05, 700)])
    def test_first_k_hits_of_box_passes(self, width, k):
        # pass j draws max(2k, 1024) proposals on substream j; the sample is
        # the first k hits in draw order (the slab of width 0.05 takes
        # about ten passes)
        poly, stream = thin_slab(width), RngStream(5)
        passes = []
        while sum(len(hits) for hits in passes) < k:
            passes.append(box_pass(poly, max(2 * k, 1024), stream.substream(len(passes)),
                                   np.copy)[1])
        np.testing.assert_array_equal(rejection_sample(poly, k, stream),
                                      np.concatenate(passes)[:k])

    def test_thin_region_gives_up(self):
        with pytest.raises(ThinRegionError):
            rejection_sample(thin_slab(1e-9), 10, rng=0)

    def test_k_validation(self, triangle):
        with pytest.raises(ValueError):
            rejection_sample(triangle, 0, rng=0)


class TestDikinWalk:
    def test_membership(self, triangle):
        pts = dikin_walk(triangle, 2_000, rng=0)
        assert pts.shape == (2_000, 2)
        assert triangle.contains_all(pts).all()

    def test_deterministic(self, triangle):
        a = dikin_walk(triangle, 500, rng=RngStream(9))
        b = dikin_walk(triangle, 500, rng=RngStream(9))
        np.testing.assert_array_equal(a, b)

    def test_strictly_interior(self, triangle):
        pts = dikin_walk(triangle, 1_000, rng=2)
        slack = triangle.bounds - pts @ triangle.constraint_matrix.T
        assert np.all(slack > 0.0)

    def test_thin_region_works(self):
        pts = dikin_walk(thin_slab(1e-4), 2_000, rng=0)
        assert thin_slab(1e-4).contains_all(pts).all()
        assert abs(pts.mean()) < 0.2


R_GOOD = parse_region(R_GOOD_TEXT, SCHEMA)
KDE = KDEProfile(SCHEMA, RngStream(5).generator().uniform(0.0, 1.0, size=(40, 2)) * [100.0, 600.0],
                 "gaussian", (8.0, 50.0))
SAMPLERS = {
    "rejection_sample": lambda k: rejection_sample(R_GOOD, k, RngStream(3)),
    "dikin_walk": lambda k: dikin_walk(R_GOOD, k, RngStream(3)),
    "correlated": lambda k: correlated_profile().sample(k, RngStream(3)),
    "independent": lambda k: independent_profile().sample(k, RngStream(3)),
    "uniform": lambda k: UniformBox(SCHEMA, R_GOOD.bounding_box).sample(k, RngStream(3)),
    "kde": lambda k: KDE.sample(k, RngStream(3)),
}


@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
class TestSampleCount:
    """Every sampler takes a numpy integer as the int it equals, and refuses
    a float or a count below 1 before it draws anything."""

    def test_numpy_integer_equals_int(self, sampler):
        np.testing.assert_array_equal(SAMPLERS[sampler](np.int64(10)), SAMPLERS[sampler](10))

    @pytest.mark.parametrize("k", [10.0, 0])
    def test_float_or_below_one_refused(self, monkeypatch, sampler, k):
        def no_draws(*args):
            raise AssertionError("drew before checking k")

        monkeypatch.setattr(sampling, "box_pass", no_draws)
        monkeypatch.setattr(RngStream, "generator", no_draws)
        with pytest.raises(ValueError, match="k must be an integer >= 1"):
            SAMPLERS[sampler](k)
