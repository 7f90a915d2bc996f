import sys
import threading

import numpy as np
import pytest

from probqos import (
    AttributeSchema,
    Box,
    HPolytope,
    KDEProfile,
    UniformBox,
    analytic_center,
    RngStream,
    estimate_volume,
    integrate_uniform,
    solve_lp,
)
from probqos import geometry
from probqos.geometry import (
    box_pass,
    DimensionMismatchError,
    EmptyInteriorError,
    GeometryError,
    LPInfeasibleError,
    LPUnboundedError,
    UnboundedPolytopeError,
    _lp_min,
)


def simplex3():
    # x_i >= 0, sum x_i <= 1 in R^3
    A = np.vstack([-np.eye(3), np.ones((1, 3))])
    b = np.array([0.0, 0.0, 0.0, 1.0])
    return HPolytope(A, b, ("a", "b", "c"))


class TestLP:
    def test_min_on_square(self, unit_square):
        x, value = solve_lp(np.array([1.0, 1.0]), unit_square, sense="min")
        assert value == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_allclose(x, [0.0, 0.0], atol=1e-9)

    def test_max_on_square(self, unit_square):
        _, value = solve_lp(np.array([1.0, 0.0]), unit_square, sense="max")
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_max_on_triangle(self, triangle):
        _, value = solve_lp(np.array([1.0, 1.0]), triangle, sense="max")
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_infeasible(self):
        # x <= 0 and x >= 1 cannot hold together
        with pytest.raises(LPInfeasibleError):
            _lp_min(np.array([1.0]), np.array([[1.0], [-1.0]]), np.array([0.0, -1.0]))

    def test_unbounded(self):
        with pytest.raises(LPUnboundedError):
            _lp_min(np.array([1.0]), np.array([[1.0]]), np.array([1.0]))

    def test_negative_rhs(self):
        # x >= 2, x <= 5: minimum of x is 2 (rhs -2 exercises phase 1)
        x, value = _lp_min(np.array([1.0]), np.array([[-1.0], [1.0]]),
                           np.array([-2.0, 5.0]))
        assert value == pytest.approx(2.0, abs=1e-9)


class TestBox:
    def test_volume_and_contains(self):
        box = Box(np.array([0.0, -1.0]), np.array([2.0, 1.0]))
        assert box.volume == pytest.approx(4.0)
        assert box.contains([1.0, 0.0])
        assert not box.contains([3.0, 0.0])

    def test_invalid_bounds(self):
        with pytest.raises(GeometryError):
            Box(np.array([1.0]), np.array([0.0]))


class TestHPolytope:
    def test_bounding_box_square(self, unit_square):
        box = unit_square.bounding_box
        np.testing.assert_allclose(box.lower, [0.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(box.upper, [1.0, 1.0], atol=1e-9)

    def test_membership(self, triangle):
        assert triangle.contains([0.25, 0.25])
        assert not triangle.contains([0.75, 0.75])
        mask = triangle.contains_all(np.array([[0.1, 0.1], [0.9, 0.9]]))
        assert mask.tolist() == [True, False]

    def test_boundary_included(self, triangle):
        assert triangle.contains([0.0, 0.0])
        assert triangle.contains([0.5, 0.5])

    def test_unbounded_rejected(self):
        with pytest.raises(UnboundedPolytopeError):
            HPolytope(np.array([[1.0, 0.0]]), np.array([1.0]))

    def test_infeasible_rejected(self):
        with pytest.raises(LPInfeasibleError):
            HPolytope(np.array([[1.0], [-1.0]]), np.array([0.0, -1.0]))

    def test_zero_row_rejected(self):
        with pytest.raises(GeometryError):
            HPolytope(np.array([[0.0, 0.0]]), np.array([1.0]))

    def test_dimension_mismatch(self, triangle):
        with pytest.raises(DimensionMismatchError):
            triangle.contains([0.1, 0.1, 0.1])

    def test_structural_key_dedup(self, triangle):
        other = HPolytope(triangle.constraint_matrix, triangle.bounds, ("x", "y"))
        assert triangle.structural_key() == other.structural_key()


class TestAnalyticCenter:
    def test_triangle_center(self, triangle):
        # minimizing the log barrier of {x,y >= 0, x+y <= 1} gives (1/3, 1/3)
        np.testing.assert_allclose(analytic_center(triangle), [1 / 3, 1 / 3],
                                   atol=1e-6)

    def test_square_center(self, unit_square):
        np.testing.assert_allclose(analytic_center(unit_square), [0.5, 0.5],
                                   atol=1e-6)

    def test_strict_interior(self, triangle):
        c = analytic_center(triangle)
        assert np.all(triangle.bounds - triangle.constraint_matrix @ c > 0.0)

    def test_empty_interior(self):
        # the slab 0 <= x <= 0 has no interior point
        thin = HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                         np.array([0.0, 0.0, 1.0, 0.0]))
        with pytest.raises(EmptyInteriorError):
            analytic_center(thin)


class TestVolume:
    def test_square_exact(self, unit_square):
        volume, se = estimate_volume(unit_square, 10_000, rng_seed=0)
        assert volume == 1.0
        assert se == 0.0

    def test_triangle(self, triangle):
        volume, se = estimate_volume(triangle, 100_000, rng_seed=3)
        assert abs(volume - 0.5) <= 3 * se

    def test_3simplex(self):
        volume, se = estimate_volume(simplex3(), 1_000_000, rng_seed=5)
        assert abs(volume - 1 / 6) <= 3 * se

    def test_measure_zero(self):
        thin = HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                         np.array([0.0, 0.0, 1.0, 0.0]))
        assert estimate_volume(thin, 10_000, rng_seed=0) == (0.0, 0.0)

    def test_deterministic(self, triangle):
        a = estimate_volume(triangle, 50_000, rng_seed=11)
        b = estimate_volume(triangle, 50_000, rng_seed=11)
        assert a == b


class TestBoxPass:
    def test_box_rows(self, unit_square, triangle):
        assert unit_square.box_rows.tolist() == []
        assert triangle.box_rows.tolist() == [2]  # only x + y <= 1 cuts the box

    def test_kept_points_are_the_hits(self, triangle):
        stream = RngStream(7)
        hits, pts = box_pass(triangle, 10_000, stream, np.copy)
        # reference: gen.uniform draws on substream 0, full membership test
        box = triangle.bounding_box
        ref = stream.substream(0).generator().uniform(box.lower, box.upper,
                                                      size=(10_000, 2))
        np.testing.assert_array_equal(pts, ref[triangle.contains_all(ref)])
        volume, _ = estimate_volume(triangle, 10_000, stream)
        assert volume == box.volume * (hits / 10_000)

    def test_validation(self, triangle):
        with pytest.raises(ValueError):
            box_pass(triangle, 0, RngStream(0))


class TestBoxPassChunks:
    """Chunk boundaries change nothing: the stream equals one draw of k rows."""

    ELEMENTS = 64  # 32 rows per chunk in two dimensions
    ROWS = ELEMENTS // 2

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(geometry, "_CHUNK_ELEMENTS", self.ELEMENTS)

    @pytest.mark.parametrize("k", [ROWS - 1, ROWS, ROWS + 1, 5 * ROWS // 2])
    @pytest.mark.parametrize("region", ["unit_square", "triangle"])
    def test_hits_equal_one_shot_reference(self, request, region, k):
        poly = request.getfixturevalue(region)
        stream = RngStream(3)
        calls = []

        def keep(pts):
            calls.append(len(pts))
            return pts.copy()

        hits, pts = box_pass(poly, k, stream, keep)
        box = poly.bounding_box
        ref = stream.substream(0).generator().random((k, 2))
        ref *= box.upper - box.lower
        ref += box.lower
        ref = ref[poly.contains_all(ref)]
        assert hits == ref.shape[0] == pts.shape[0]
        np.testing.assert_array_equal(pts, ref)
        assert len(calls) == -(-k // self.ROWS)
        assert (hits, None) == box_pass(poly, k, stream)

    def test_integrate_bits_do_not_depend_on_chunk_size(self, triangle, monkeypatch):
        schema = AttributeSchema(("x", "y"))
        obs = RngStream(5).generator().uniform(0.0, 1.0, size=(40, 2))
        profiles = [KDEProfile(schema, obs, "gaussian", (0.2, 0.3)),
                    UniformBox(schema, Box(np.array([0.0, 0.0]), np.array([1.0, 1.0])))]
        for profile in profiles:
            small = integrate_uniform(profile, triangle, 1_000, RngStream(9))
            monkeypatch.setattr(geometry, "_CHUNK_ELEMENTS", 1 << 15)
            one = integrate_uniform(profile, triangle, 1_000, RngStream(9))
            monkeypatch.setattr(geometry, "_CHUNK_ELEMENTS", self.ELEMENTS)
            assert small == one


class TestBoxPassSpans:
    """Spans on worker threads draw exactly the bits of one serial pass."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 7])
    @pytest.mark.parametrize("k", [4_095, 4_097, 16_383, 16_385, 40_960, 200_003])
    def test_hits_equal_one_shot_reference(self, triangle, monkeypatch, workers, k):
        monkeypatch.setattr(geometry, "_WORKERS", workers)
        stream = RngStream(3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            hits, pts = box_pass(triangle, k, stream, np.copy)
        finally:
            sys.setswitchinterval(interval)
        ref = stream.substream(0).generator().random((k, 2))
        ref = ref[triangle.contains_all(ref)]  # the triangle's box is the unit square
        assert hits == ref.shape[0]
        np.testing.assert_array_equal(pts, ref)
        assert box_pass(triangle, k, stream) == (hits, None)

    @pytest.mark.parametrize("k,threads", [(2, 0), (4_095, 0), (4_096, 0), (4_097, 1),
                                           (3 * 4_096 + 1, 3), (200_003, 6)])
    def test_span_count(self, triangle, monkeypatch, k, threads):
        monkeypatch.setattr(geometry, "_WORKERS", 7)
        started = []

        class CountingThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(geometry.threading, "Thread", CountingThread)
        box_pass(triangle, k, RngStream(0))
        assert len(started) == threads
        assert not any(t.is_alive() for t in started)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("failing_span", ["worker", "caller"])
    def test_exception_in_a_span_reaches_the_caller(self, triangle, monkeypatch, failing_span):
        monkeypatch.setattr(geometry, "_WORKERS", 2)
        caller = threading.current_thread()

        def density(pts):
            if (threading.current_thread() is caller) == (failing_span == "caller"):
                raise ZeroDivisionError(failing_span)
            return np.ones(len(pts))

        before = threading.active_count()
        with pytest.raises(ZeroDivisionError, match=failing_span):
            box_pass(triangle, 10_000, RngStream(0), density)
        assert threading.active_count() == before
