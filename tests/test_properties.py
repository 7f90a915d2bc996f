"""Property-based checks for the pure, fast components."""

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from probqos import (
    AttributeSchema,
    Box,
    HPolytope,
    QoSConstraint,
    QoSRecordSet,
    RngStream,
    bandwidth_scott,
    estimate_volume,
    parse_region,
)
from probqos.geometry import LPInfeasibleError, LPUnboundedError, _lp_min
from probqos.learning import KDEProfile
from probqos.reference import R_BAD_TEXT, R_BOX_TEXT, R_GOOD_TEXT, SCHEMA
from probqos.reqast import Constraint, Not, Or, PropVar, and_, evaluate, iff, implies
from probqos.sat import collect_prop_vars, dpll_sat

NAMES = ("p", "q", "r")
PROP_LEAVES = st.sampled_from(NAMES).map(PropVar)

CONSTRAINTS = tuple(QoSConstraint(parse_region(text, SCHEMA), p_min, 1.0)
                    for text, p_min in ((R_BOX_TEXT, 0.1), (R_GOOD_TEXT, 0.6),
                                        (R_BAD_TEXT, 0.2)))


def formulas(depth: int = 4, leaf=PROP_LEAVES):
    def extend(children):
        unary = children.map(Not)
        binary = st.tuples(st.sampled_from([Or, and_, implies, iff]),
                           children, children).map(lambda t: t[0](t[1], t[2]))
        return unary | binary

    return st.recursive(leaf, extend, max_leaves=8)


@given(formulas())
@settings(max_examples=200, deadline=None)
def test_dpll_matches_truth_table(formula):
    present = sorted(collect_prop_vars(formula))
    brute = any(
        evaluate(formula, dict(zip(present, vals)), {})
        for vals in itertools.product([False, True], repeat=len(present)))
    sat, model = dpll_sat(formula)
    assert sat == brute
    if sat:
        assert evaluate(formula, model, {})


@given(st.integers(min_value=2, max_value=3).flatmap(
           lambda n: st.tuples(
               formulas(leaf=PROP_LEAVES
                        | st.sampled_from(CONSTRAINTS[:n]).map(Constraint)),
               st.lists(st.booleans(), min_size=n, max_size=n))))
@settings(max_examples=200, deadline=None)
def test_dpll_substitutes_constraint_truths(case):
    formula, values = case
    truths = {c.structural_key(): v for c, v in zip(CONSTRAINTS, values)}
    present = sorted(collect_prop_vars(formula))
    brute = any(
        evaluate(formula, dict(zip(present, vals)), truths)
        for vals in itertools.product([False, True], repeat=len(present)))
    sat, model = dpll_sat(formula, truths)
    assert sat == brute
    if sat:
        assert evaluate(formula, model, truths)


@given(st.integers(min_value=0, max_value=2**63 - 1),
       st.integers(min_value=0, max_value=1000))
@settings(max_examples=50, deadline=None)
def test_substreams_reproducible_and_distinct(seed, index):
    root = RngStream(seed)
    child = root.substream(index)
    assert child == root.substream(index)
    a = child.generator().random(4)
    b = child.generator().random(4)
    np.testing.assert_array_equal(a, b)


@given(st.floats(min_value=0.1, max_value=100.0, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_scott_bandwidth_homogeneous(scale):
    gen = RngStream(12).generator()
    obs = gen.standard_normal((40, 2)) + 5.0
    schema = AttributeSchema(("x", "y"))
    base = bandwidth_scott(QoSRecordSet(schema, obs))
    scaled = bandwidth_scott(QoSRecordSet(schema, obs * scale))
    np.testing.assert_allclose(scaled, scale * base, rtol=1e-9)


@given(st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=0.1, max_value=3.0),
       st.sampled_from(["gaussian", "exponential"]))
@settings(max_examples=50, deadline=None)
def test_kde_box_mass_monotone_in_box(center, width, kernel):
    profile = KDEProfile(AttributeSchema(("x", "y")),
                         np.array([[0.0, 0.0], [1.0, 1.0]]), kernel, (0.5, 0.5))
    small = Box(np.array([center - width, center - width]),
                np.array([center + width, center + width]))
    large = Box(small.lower - 1.0, small.upper + 1.0)
    m_small, m_large = profile.box_mass(small), profile.box_mass(large)
    assert 0.0 <= m_small <= m_large <= 1.0 + 1e-12


FIXTURE_REGIONS = {name: parse_region(text, SCHEMA) for name, text in
                   (("box", R_BOX_TEXT), ("good", R_GOOD_TEXT), ("bad", R_BAD_TEXT))}


@st.composite
def bounded_polytopes(draw):
    """An integer box plus up to four random cuts through a point inside it."""
    n = draw(st.integers(min_value=1, max_value=4))
    lo = np.array(draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n)), float)
    width = np.array(draw(st.lists(st.integers(1, 20), min_size=n, max_size=n)), float)
    rows = [np.eye(n), -np.eye(n)]
    bounds = [lo + width, -lo]
    center = lo + width * np.array(draw(st.lists(
        st.floats(0.1, 0.9), min_size=n, max_size=n)))
    for _ in range(draw(st.integers(0, 4))):
        a = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), float)
        if not a.any():
            continue
        rows.append(a[None, :])
        bounds.append([a @ center + draw(st.floats(0.0, 10.0))])
    return HPolytope(np.vstack(rows), np.concatenate(bounds))


def _box_proposals(poly, seed, k=2_000):
    box = poly.bounding_box
    return RngStream(seed).generator().uniform(box.lower, box.upper, size=(k, poly.dim))


@given(bounded_polytopes(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_box_rows_membership_matches_full_test(poly, seed):
    pts = _box_proposals(poly, seed)
    np.testing.assert_array_equal(poly.contains_box_points(pts), poly.contains_all(pts))


@given(bounded_polytopes(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_slice_bounds_match_membership(poly, seed):
    # a box point lies in the polytope iff its last coordinate lies in the
    # slice at its other coordinates
    pts = _box_proposals(poly, seed)
    lower, upper = poly.slice_bounds(pts[:, :-1])
    np.testing.assert_array_equal((lower <= pts[:, -1]) & (pts[:, -1] <= upper),
                                  poly.contains_box_points(pts))


@given(st.sampled_from(["box", "good", "bad"]), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_fixture_regions_box_rows(name, seed):
    region = FIXTURE_REGIONS[name]
    assert region.box_rows.size == {"box": 0, "good": 1, "bad": 0}[name]
    pts = _box_proposals(region, seed)
    np.testing.assert_array_equal(region.contains_box_points(pts),
                                  region.contains_all(pts))


@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=4),
       st.lists(st.floats(1e-3, 1e3), min_size=4, max_size=4),
       st.integers(min_value=2, max_value=5_000),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_pure_box_volume_exact(lower, widths, k, seed):
    # k = 1 is refused (tests/test_geometry.py, TestVolume)
    n = len(lower)
    lo = np.array(lower, float)
    hi = lo + np.array(widths[:n], float)
    poly = HPolytope(np.vstack([np.eye(n), -np.eye(n)]), np.concatenate([hi, -lo]))
    assert poly.box_rows.size == 0
    assert estimate_volume(poly, k, RngStream(seed)) == (poly.bounding_box.volume, 0.0)


def _lp_system(gen):
    """A seeded LP min c.x s.t. A x <= b in 1-5 free variables, with
    coefficients rounded to 0-2 decimals (so zero entries, ties and
    degenerate vertices are common); a quarter are boxed, a quarter get a
    contradictory pair of rows, and some repeat rows."""
    n = int(gen.integers(1, 6))
    m = int(gen.integers(1, 3 * n + 3))
    A = np.round(gen.normal(size=(m, n)) * 2, int(gen.integers(0, 3)))
    b = np.round(gen.normal(size=m) * 2 + 0.5, int(gen.integers(0, 2)))
    kind = gen.integers(4)
    if kind == 0:
        A = np.vstack([A, np.eye(n), -np.eye(n)])
        b = np.concatenate([b, np.full(n, 3.0), np.full(n, 3.0)])
    elif kind == 1:
        d = np.round(gen.normal(size=n), 1)
        A = np.vstack([A, d, -d])
        b = np.concatenate([b, [-1.0, -0.5]])
    if gen.random() < 0.3:
        rows = gen.integers(len(A), size=int(gen.integers(1, 4)))
        A = np.vstack([A, A[rows]])
        b = np.concatenate([b, b[rows]])
    return np.round(gen.normal(size=n), int(gen.integers(0, 2))), A, b


def _highs_lp(c, A, b):
    """(status, value) from HiGHS. Feasibility and boundedness are decided
    by two feasibility problems, the primal {A x <= b} and the dual
    {y >= 0 : A^T y = -c}: HiGHS's presolve can report a feasible LP with
    an unbounded objective as infeasible."""
    free = (None, None)
    if linprog(np.zeros_like(c), A_ub=A, b_ub=b, bounds=free, method="highs").status != 0:
        return "infeasible", None
    if linprog(np.zeros(len(b)), A_eq=A.T, b_eq=-c, bounds=(0, None),
               method="highs").status != 0:
        return "unbounded", None
    res = linprog(c, A_ub=A, b_ub=b, bounds=free, method="highs")
    assert res.status == 0, res.message
    return "optimal", res.fun


def test_lp_matches_highs():
    gen = RngStream(2024).generator()
    statuses = []
    for _ in range(500):
        c, A, b = system = _lp_system(gen)
        try:
            status, value = "optimal", _lp_min(c, A, b)[1]
        except LPInfeasibleError:
            status, value = "infeasible", None
        except LPUnboundedError:
            status, value = "unbounded", None
        expected, oracle_value = _highs_lp(c, A, b)
        assert status == expected, system
        if status == "optimal":
            assert abs(value - oracle_value) <= 1e-9 * max(1.0, abs(oracle_value)), system
        statuses.append(status)
    assert {"optimal", "infeasible", "unbounded"} <= set(statuses)
