import itertools
import math
import random
import time

import numpy as np
import pytest

from probqos import (
    AttributeSchema,
    QoSConstraint,
    RngStream,
    dpll_sat,
    evaluate_constraint,
    parse_region,
    parse_requirement,
    qos_check,
)
from probqos.geometry import UnboundedPolytopeError
from probqos.reqast import (
    Bottom,
    Constraint,
    Not,
    Or,
    PropVar,
    RequirementError,
    Top,
    and_,
    collect_constraints,
    evaluate,
    iff,
    implies,
)
from probqos.requirements import RequirementSyntaxError
from probqos.reference import SCHEMA, bad_profile, independent_profile
from probqos.sat import collect_prop_vars

BOX = "60 <= TP && TP <= 100 && 0 <= RT && RT <= 300"
# nearly all of the independent profile's mass: at k=20,000 the estimate
# exceeds 1 at rng 0, 2, 3 and 4
WIDE_099 = "P[-100 <= TP && TP <= 200 && 0 <= RT && RT <= 5000] in [0.99, _]"


def random_formula(rng: random.Random, depth: int, names):
    if depth == 0 or rng.random() < 0.3:
        return PropVar(rng.choice(names))
    kind = rng.choice(["not", "or", "and", "implies", "iff"])
    left = random_formula(rng, depth - 1, names)
    if kind == "not":
        return Not(left)
    right = random_formula(rng, depth - 1, names)
    return {"or": Or, "and": and_, "implies": implies, "iff": iff}[kind](left, right)


def brute_force_sat(formula) -> bool:
    names = sorted(collect_prop_vars(formula))
    return any(
        evaluate(formula, dict(zip(names, values)), {})
        for values in itertools.product([False, True], repeat=len(names))
    )


class TestParser:
    def test_constraint_node(self):
        req = parse_requirement(f"P[{BOX}] in [0.6, 1.0]", SCHEMA)
        assert isinstance(req.root, Constraint)
        c = req.root.constraint
        assert c.region.num_constraints == 4
        assert (c.p_min, c.p_max) == (0.6, 1.0)

    def test_prop_vars(self):
        req = parse_requirement("vars good bad ; good || bad", SCHEMA)
        assert isinstance(req.root, Or)
        assert req.prop_vars == ("bad", "good")

    def test_wildcard_bounds(self):
        req = parse_requirement(f"P[{BOX}] in [0.6, _] && P[{BOX}] in [_, 0.3]",
                                SCHEMA)
        lo, hi = collect_constraints(req.root)
        assert (lo.p_min, lo.p_max) == (0.6, 1.0)
        assert (hi.p_min, hi.p_max) == (0.0, 0.3)

    def test_unbounded_region(self):
        with pytest.raises(UnboundedPolytopeError):
            parse_requirement("P[TP >= 0] in [0, 1]", SCHEMA)

    def test_precedence_bang_tightest(self):
        req = parse_requirement("vars a b ; !a && b", SCHEMA)
        # parsed as (!a) && b, so a=F, b=T satisfies it
        assert evaluate(req.root, {"a": False, "b": True}, {})
        assert not evaluate(req.root, {"a": True, "b": True}, {})

    def test_precedence_and_over_or(self):
        req = parse_requirement("vars a b c ; a || b && c", SCHEMA)
        assert evaluate(req.root, {"a": True, "b": False, "c": False}, {})

    def test_implies_right_associative(self):
        req = parse_requirement("vars a b c ; a -> b -> c", SCHEMA)
        # a -> (b -> c): true when a holds, b holds, c holds
        assert evaluate(req.root, {"a": True, "b": False, "c": False}, {})
        assert not evaluate(req.root, {"a": True, "b": True, "c": False}, {})

    def test_syntax_error_position(self):
        with pytest.raises(RequirementSyntaxError) as err:
            parse_requirement("vars a ; a &&", SCHEMA)
        assert err.value.position >= 0

    def test_unknown_attribute(self):
        with pytest.raises(RequirementSyntaxError):
            parse_requirement("P[0 <= XX && XX <= 1] in [0, 1]", SCHEMA)

    def test_undeclared_variable(self):
        with pytest.raises(RequirementSyntaxError):
            parse_requirement("vars a ; b", SCHEMA)

    def test_bad_bounds(self):
        with pytest.raises(RequirementSyntaxError):
            parse_requirement(f"P[{BOX}] in [0.9, 0.1]", SCHEMA)
        with pytest.raises(RequirementSyntaxError):
            parse_requirement(f"P[{BOX}] in [1.5, _]", SCHEMA)

    def test_constants(self):
        assert isinstance(parse_requirement("true", SCHEMA).root, Top)
        assert isinstance(parse_requirement("false", SCHEMA).root, Bottom)

    def test_region_affine_forms(self):
        region = parse_region("5 * TP - RT >= 100 && TP <= 100 && TP >= 60 && "
                              "RT >= 0 && RT <= 300", SCHEMA)
        assert region.contains([80.0, 200.0])
        assert not region.contains([61.0, 290.0])  # cut off by the diagonal


class TestConstraintValidation:
    def test_bounds_ordering(self):
        region = parse_region(BOX, SCHEMA)
        with pytest.raises(Exception):
            QoSConstraint(region, 0.7, 0.2)


class TestSAT:
    def test_unit_propagation_example(self):
        a, b = PropVar("c1"), PropVar("c2")
        sat, model = dpll_sat(and_(Or(a, b), Not(a)))
        assert sat and model == {"c1": False, "c2": True}

    def test_contradiction(self):
        a = PropVar("c1")
        sat, model = dpll_sat(and_(a, Not(a)))
        assert (sat, model) == (False, None)

    def test_constants(self):
        assert dpll_sat(Top()) == (True, {})
        assert dpll_sat(Bottom()) == (False, None)

    def test_model_covers_all_vars(self):
        formula = Or(PropVar("a"), and_(PropVar("b"), PropVar("c")))
        sat, model = dpll_sat(formula)
        assert sat and set(model) == {"a", "b", "c"}
        assert evaluate(formula, model, {})

    @pytest.mark.parametrize("pairs", [12, 20])
    def test_unit_rule_refutes_without_splitting(self, pairs):
        # (v_i || v_j) conjuncts, then z && !z: splitting on the v's first,
        # even with each assignment folded in, walks 2^pairs branches
        v = [PropVar(f"v{i:02d}") for i in range(2 * pairs)]
        formula = Or(v[0], v[1])
        for i in range(2, 2 * pairs, 2):
            formula = and_(formula, Or(v[i], v[i + 1]))
        z = PropVar("z")
        formula = and_(and_(formula, z), Not(z))
        t0 = time.perf_counter()
        assert dpll_sat(formula) == (False, None)
        assert time.perf_counter() - t0 < 1.0

    def test_truth_table_agreement(self):
        rng = random.Random(2024)
        names = ["p", "q", "r", "s"]
        for _ in range(300):
            formula = random_formula(rng, 4, names)
            sat, model = dpll_sat(formula)
            assert sat == brute_force_sat(formula)
            if sat:
                assert evaluate(formula, model, {})


class TestConstraintSubstitution:
    def test_truths_substituted(self):
        req = parse_requirement(f"vars p ; p <-> P[{BOX}] in [0.6, _]", SCHEMA)
        (c,) = collect_constraints(req.root)
        assert dpll_sat(req.root, {c.structural_key(): True}) == (True, {"p": True})
        assert dpll_sat(req.root, {c.structural_key(): False}) == (True, {"p": False})

    def test_missing_truth_raises(self):
        req = parse_requirement(f"P[{BOX}] in [0.6, _] || true", SCHEMA)
        with pytest.raises(RequirementError):
            dpll_sat(req.root)
        with pytest.raises(RequirementError):
            dpll_sat(req.root, {})


class TestEvaluateConstraint:
    def test_vacuous_bounds(self):
        region = parse_region(BOX, SCHEMA)
        truth, est, se = evaluate_constraint(QoSConstraint(region, 0.0, 1.0),
                                             independent_profile(), 1_000,
                                             RngStream(0))
        assert (truth, est, se) == (True, 1.0, 0.0)

    def test_clearly_false(self):
        region = parse_region(BOX, SCHEMA)
        truth, est, se = evaluate_constraint(QoSConstraint(region, 0.6, 1.0),
                                             independent_profile(), 100_000,
                                             RngStream(1))
        assert truth is False
        assert est == pytest.approx(0.1615, abs=0.01)

    def test_clearly_true(self):
        region = parse_region(BOX, SCHEMA)
        truth, _, _ = evaluate_constraint(QoSConstraint(region, 0.10, 0.20),
                                          independent_profile(), 100_000,
                                          RngStream(2))
        assert truth is True

    def test_indeterminate_near_boundary(self):
        region = parse_region(BOX, SCHEMA)
        # p_min pinned within one standard error of the true 0.16145...
        truth, est, se = evaluate_constraint(QoSConstraint(region, 0.16145, 1.0),
                                             independent_profile(), 50_000,
                                             RngStream(3))
        assert truth is None

    def test_strict_mode_decides(self):
        region = parse_region(BOX, SCHEMA)
        truth, est, _ = evaluate_constraint(QoSConstraint(region, 0.16145, 1.0),
                                            independent_profile(), 50_000,
                                            RngStream(3), confidence_z=0.0)
        assert truth == (0.16145 <= est <= 1.0)


class TestQoSCheck:
    def test_top_satisfied_empty_table(self):
        report = qos_check(independent_profile(), parse_requirement("true", SCHEMA),
                           k=1_000, rng=0)
        assert report.verdict == "satisfied"
        assert report.constraint_table == ()

    def test_bottom_violated(self):
        report = qos_check(independent_profile(), parse_requirement("false", SCHEMA),
                           k=1_000, rng=0)
        assert report.verdict == "violated"

    def test_zero_constraints_matches_sat(self):
        for text in ("vars a ; a && !a", "vars a b ; (a || b) && !a"):
            req = parse_requirement(text, SCHEMA)
            report = qos_check(independent_profile(), req, k=1_000, rng=0)
            assert (report.verdict == "satisfied") == dpll_sat(req.root)[0]

    def test_constraint_variables_in_first_occurrence_order(self):
        req = parse_requirement(
            f"P[{BOX}] in [0.6, _] && (P[{BOX}] in [_, 0.3] || P[{BOX}] in [0.6, _])",
            SCHEMA)
        report = qos_check(independent_profile(), req, k=2_000, rng=0)
        assert [(row.variable, row.p_min, row.p_max)
                for row in report.constraint_table] == [("$c1", 0.6, 1.0),
                                                        ("$c2", 0.0, 0.3)]

    def test_constraint_evaluated_once(self):
        req = parse_requirement(
            f"P[{BOX}] in [0.1, 0.2] && !(P[{BOX}] in [0.1, 0.2]) || "
            f"P[{BOX}] in [0.1, 0.2]", SCHEMA)
        report = qos_check(independent_profile(), req, k=20_000, rng=0)
        assert len(report.constraint_table) == 1

    def test_witness_restricted_to_declared_vars(self):
        req = parse_requirement(f"vars p1 ; p1 || P[{BOX}] in [0.5, _]", SCHEMA)
        report = qos_check(independent_profile(), req, k=20_000, rng=0)
        assert report.verdict == "satisfied"
        assert report.witness == {"p1": True}

    def test_negation_coherence(self):
        pos = parse_requirement(f"P[{BOX}] in [0.1, 0.2]", SCHEMA)
        neg = parse_requirement(f"!(P[{BOX}] in [0.1, 0.2])", SCHEMA)
        assert qos_check(independent_profile(), pos, k=50_000, rng=1).verdict == "satisfied"
        assert qos_check(independent_profile(), neg, k=50_000, rng=1).verdict == "violated"

    def test_indeterminate_only_when_outcome_changes(self):
        # c_near is indeterminate, but OR-ed with a certainly-true constraint
        # the overall verdict does not depend on it
        req = parse_requirement(
            f"P[{BOX}] in [0.16145, _] || P[{BOX}] in [0.1, 0.2]", SCHEMA)
        report = qos_check(independent_profile(), req, k=50_000, rng=3)
        assert report.verdict == "satisfied"

    def test_indeterminate_verdict_surfaces(self):
        req = parse_requirement(f"P[{BOX}] in [0.16145, _]", SCHEMA)
        report = qos_check(independent_profile(), req, k=50_000, rng=3)
        assert report.verdict == "indeterminate"
        assert report.witness is None

    def test_two_scenario_witness(self):
        from probqos.reference import REQ_TWO_SCENARIO_TEXT

        req = parse_requirement(REQ_TWO_SCENARIO_TEXT, SCHEMA)
        report = qos_check(bad_profile(), req, k=100_000, rng=4)
        assert report.verdict == "satisfied"
        assert report.witness == {"p1": False, "p2": True}

    def test_report_dict_serializable(self):
        import json

        req = parse_requirement(f"P[{BOX}] in [0.1, 0.2]", SCHEMA)
        report = qos_check(independent_profile(), req, k=20_000, rng=0)
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["verdict"] == "satisfied"
        assert len(doc["constraints"]) == 1


class TestDecisionRule:
    """One comparison, `_decide` at confidence_z, decides every constraint;
    an undecided constraint counts at its truth for z = 0."""

    @pytest.mark.parametrize("rng", [0, 2, 3, 4])
    def test_z0_decides_estimate_above_one(self, rng):
        report = qos_check(independent_profile(), parse_requirement(WIDE_099, SCHEMA),
                           k=20_000, rng=rng, confidence_z=0.0)
        assert report.constraint_table[0].estimate > 1.0
        assert report.verdict == "satisfied"

    def test_point_truth_clips_estimate_above_one(self):
        req = parse_requirement(f"vars p ; p <-> {WIDE_099}", SCHEMA)
        report = qos_check(independent_profile(), req, k=20_000, rng=0)
        assert report.constraint_table[0].truth is None
        assert report.witness == {"p": True}

    @pytest.mark.parametrize("z", [-1.0, -500.0, math.nan, math.inf])
    def test_confidence_z_validated(self, z):
        with pytest.raises(ValueError):
            qos_check(independent_profile(), parse_requirement("true", SCHEMA),
                      k=1_000, rng=0, confidence_z=z)

    def test_sat_calls_per_undecided_constraint(self, monkeypatch):
        from probqos import sat

        calls = []
        solve = sat.dpll_sat

        def counting(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(sat, "dpll_sat", counting)
        # one undecided constraint, OR-ed with a certainly true one
        req = parse_requirement(
            f"P[{BOX}] in [0.16145, _] || P[{BOX}] in [0.1, 0.2]", SCHEMA)
        report = qos_check(independent_profile(), req, k=50_000, rng=3)
        assert [row.truth for row in report.constraint_table] == [None, True]
        assert report.verdict == "satisfied"
        assert len(calls) == 2  # the point truths, then the other assignment

    def test_margin_counts_binding_bounds_only(self):
        # RT < 0 has zero density: the estimate is exactly 0 with zero s.e.
        empty = "0 <= TP && TP <= 100 && -10 <= RT && RT <= -1"
        req = parse_requirement(f"P[{empty}] in [_, 0.3] && P[{BOX}] in [_, _]", SCHEMA)
        report = qos_check(independent_profile(), req, k=2_000, rng=0)
        assert [(row.estimate, row.std_error) for row in report.constraint_table] == [
            (0.0, 0.0), (1.0, 0.0)]
        assert [row.margin for row in report.constraint_table] == [
            pytest.approx(0.3), 1.0]
