import gc
import itertools
import json
import math
import random
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from probqos import (
    AttributeSchema,
    Box,
    QoSConstraint,
    RngStream,
    UniformBox,
    dpll_sat,
    evaluate_constraint,
    parse_region,
    parse_requirement,
    qos_check,
)
from probqos.geometry import UnboundedPolytopeError
from probqos.integrate import integrate_uniform
from probqos.learning import KDEProfile
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
    nodes,
)
from probqos import requirements
from probqos.requirements import RequirementSyntaxError
from probqos.reference import (
    R_BAD_TEXT,
    R_GOOD_TEXT,
    SCHEMA,
    bad_profile,
    correlated_profile,
    independent_profile,
)
from probqos.serialize import profile_from_dict
from probqos.sat import collect_prop_vars

BOX = "60 <= TP && TP <= 100 && 0 <= RT && RT <= 300"
# A box region gets its profile's exact box mass at standard error 0, so
# the tests of sampling add a row the bounding box does not imply: CUT is
# BOX less the corner TP + RT > 399, with the same bounding box. On the
# correlated profile its mass is 0.188294 (BOX's is 0.188295): at k=50,000
# a lower bound of NEAR lies inside the 3-s.e. band.
CUT = f"{BOX} && TP + RT <= 399"
NEAR = 0.1883
# R_BAD less its corner TP + RT > 1039, sampled in the same way
R_BAD_CUT = f"{R_BAD_TEXT} && TP + RT <= 1039"
# nearly all of the correlated profile's mass, less the corner
# TP + RT > 5199: at k=20,000 the estimate exceeds 1 at rng 0, 2, 3 and 4
WIDE_099 = ("P[-100 <= TP && TP <= 200 && 0 <= RT && RT <= 5000 && TP + RT <= 5199]"
            " in [0.99, _]")


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


def left_folded(operands, op):
    """The chain `operands` joined by `op`, parenthesized so that the parser
    builds the left-folded tree."""
    text = operands[0]
    for operand in operands[1:]:
        text = f"({text}) {op} {operand}"
    return text


def tree_depth(node) -> int:
    if isinstance(node, Not):
        return 1 + tree_depth(node.child)
    if isinstance(node, Or):
        return 1 + max(tree_depth(node.left), tree_depth(node.right))
    return 0


class TestFlatChains:
    """`&&`, `||`, `<->` and `->` chains parse to balanced trees in the
    chain's order."""

    @pytest.mark.parametrize("op", ["&&", "||", "<->"])
    def test_short_chains_keep_the_left_folded_tree(self, op):
        for operands in (["a", "b"], ["a", "!b", "c"]):
            chain = parse_requirement("vars a b c ; " + f" {op} ".join(operands), SCHEMA)
            folded = parse_requirement("vars a b c ; " + left_folded(operands, op), SCHEMA)
            assert chain.root == folded.root

    @pytest.mark.parametrize("op", ["&&", "||", "->"])
    def test_long_chain_is_shallow(self, op):
        req = parse_requirement("vars p ; " + f" {op} ".join(["p"] * 2000), SCHEMA)
        # a left fold is 2000 levels deep for ||, three times that for &&
        assert tree_depth(req.root) <= 3 * 11 + 2

    @pytest.mark.parametrize("op,verdict", [("&&", "violated"), ("||", "satisfied"),
                                            ("->", "satisfied")])
    def test_long_chain_checks(self, op, verdict):
        # every other term is p, the rest !p: the && chain is unsatisfiable,
        # and the -> chain, !p || !!p || ... || !p, is valid
        terms = ["p", "!p"] * 1000
        req = parse_requirement("vars p ; " + f" {op} ".join(terms), SCHEMA)
        report = qos_check(independent_profile(), req, k=2_000, rng=0)
        assert report.verdict == verdict

    def test_long_iff_chain_checks(self):
        # a left fold nests about five levels per term: 400 terms overflowed
        # the recursion limit in the formula walks
        names = [f"v{i}" for i in range(400)]
        text = "vars " + " ".join(names) + " ; " + " <-> ".join(names)
        req = parse_requirement(text, SCHEMA)
        report = qos_check(independent_profile(), req, k=2_000, rng=0)
        assert report.verdict == "satisfied"
        assert evaluate(req.root, report.witness, {})

    def test_mixed_chain_matches_left_fold(self):
        bands = ["[0.1, _]", "[_, 0.2]", "[0.5, _]", "[0.1, 0.2]", "[_, 0.9]"]
        atoms = [f"P[{BOX}] in {band}" for band in bands] + ["p", "!q", "!(p || q)"]
        rng = random.Random(3)
        clauses = [[rng.choice(atoms) for _ in range(rng.randint(1, 6))] for _ in range(9)]
        chain = " || ".join(" && ".join(c) for c in clauses)
        folded = left_folded([f"({left_folded(c, '&&')})" for c in clauses], "||")
        balanced = parse_requirement("vars p q ; " + chain, SCHEMA)
        reference = parse_requirement("vars p q ; " + folded, SCHEMA)
        assert balanced.root != reference.root
        order = [c.structural_key() for c in collect_constraints(balanced.root)]
        assert order == [c.structural_key() for c in collect_constraints(reference.root)]
        assert len(order) >= 4
        for truths in itertools.product([False, True], repeat=len(order)):
            constraint_truth = dict(zip(order, truths))
            for p, q in itertools.product([False, True], repeat=2):
                valuation = {"p": p, "q": q}
                assert (evaluate(balanced.root, valuation, constraint_truth)
                        == evaluate(reference.root, valuation, constraint_truth))
        for seed in range(3):
            a = qos_check(independent_profile(), balanced, k=2_000, rng=seed)
            b = qos_check(independent_profile(), reference, k=2_000, rng=seed)
            assert a.to_dict() == b.to_dict()


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

    def test_long_iff_chain_needs_no_stack(self):
        # the search keeps its untried branches on a list, so a 400-term
        # chain of free variables, one split per variable, settles within
        # 200 frames of this test's own stack depth
        names = [f"v{i}" for i in range(400)]
        text = "vars " + " ".join(names) + " ; " + " <-> ".join(names)
        root = parse_requirement(text, SCHEMA).root
        depth = 0
        frame = sys._getframe()
        while frame is not None:
            depth += 1
            frame = frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 200)
        try:
            sat, model = dpll_sat(root)
        finally:
            sys.setrecursionlimit(limit)
        assert sat and evaluate(root, model, {})

    def test_truth_table_agreement(self):
        rng = random.Random(2024)
        names = ["p", "q", "r", "s"]
        for _ in range(300):
            formula = random_formula(rng, 4, names)
            sat, model = dpll_sat(formula)
            assert sat == brute_force_sat(formula)
            if sat:
                assert evaluate(formula, model, {})


IFF_ATOMS = ["a", "!a", "b", "!c", "(a || d)", f"P[{BOX}] in [0.1, _]", f"P[{BOX}] in [_, 0.05]"]
IFF_TAILS = ["!a && !b && !c", "a && !d", "!(b || c || d)"]


def iff_chain(terms: int, seed: int) -> str:
    rng = random.Random(seed)
    chain = " <-> ".join(rng.choice(IFF_ATOMS) for _ in range(terms))
    return f"vars a b c d ; ({chain}) && {IFF_TAILS[seed % 3]}"


# (terms, seed) -> (verdict, witness) of qos_check on iff_chain(terms, seed)
# at k=2,000 and rng 0, as the walks gave before they shared subterms
IFF_PINNED = {
    (2, 0): ('violated', None),
    (2, 1): ('violated', None),
    (2, 2): ('satisfied', {'a': True, 'b': False, 'c': False, 'd': False}),
    (2, 3): ('satisfied', {'a': False, 'b': False, 'c': False, 'd': True}),
    (3, 0): ('satisfied', {'a': False, 'b': False, 'c': False, 'd': True}),
    (3, 1): ('satisfied', {'a': True, 'b': True, 'c': True, 'd': False}),
    (3, 2): ('satisfied', {'a': True, 'b': False, 'c': False, 'd': False}),
    (3, 3): ('satisfied', {'a': False, 'b': False, 'c': False, 'd': True}),
    (5, 0): ('violated', None),
    (5, 1): ('satisfied', {'a': True, 'b': True, 'c': True, 'd': False}),
    (5, 2): ('satisfied', {'a': True, 'b': False, 'c': False, 'd': False}),
    (5, 3): ('violated', None),
    (8, 0): ('satisfied', {'a': False, 'b': False, 'c': False, 'd': True}),
    (8, 1): ('satisfied', {'a': True, 'b': True, 'c': True, 'd': False}),
    (8, 2): ('violated', None),
    (8, 3): ('satisfied', {'a': False, 'b': False, 'c': False, 'd': False}),
    (12, 0): ('satisfied', {'a': False, 'b': False, 'c': False, 'd': False}),
    (12, 1): ('satisfied', {'a': True, 'b': True, 'c': True, 'd': False}),
    (12, 2): ('violated', None),
    (12, 3): ('satisfied', {'a': False, 'b': False, 'c': False, 'd': False}),
}


class TestNodes:
    def test_each_node_once_in_left_first_preorder(self):
        a, b = PropVar("a"), PropVar("b")
        root = iff(a, b)  # !(!(!a || b) || !(!b || a)), sharing a and b
        left, right = root.child.left, root.child.right
        expected = [root, root.child, left, left.child, left.child.left, a, b,
                    right, right.child, right.child.left]
        walked = list(nodes(root))
        assert len(walked) == len(expected)
        assert all(x is y for x, y in zip(walked, expected))


class TestIffChains:
    """`<->` repeats both of its sides, so a chain of n terms is a tree of
    2^n paths over shared subterms; each walk visits a subterm once."""

    @pytest.mark.parametrize("terms,seed", sorted(IFF_PINNED))
    def test_short_chains_keep_their_answers(self, terms, seed):
        req = parse_requirement(iff_chain(terms, seed), SCHEMA)
        report = qos_check(independent_profile(), req, k=2_000, rng=0)
        assert (report.verdict, report.witness) == IFF_PINNED[terms, seed]

    def test_forty_terms_check_quickly(self):
        terms = ["a", "b", f"P[{BOX}] in [0.1, _]", "!c", "d"] * 8
        t0 = time.perf_counter()
        req = parse_requirement("vars a b c d ; " + " <-> ".join(terms), SCHEMA)
        report = qos_check(independent_profile(), req, k=2_000, rng=0)
        (constraint,) = collect_constraints(req.root)
        truth = {constraint.structural_key(): report.constraint_table[0].truth}
        holds = evaluate(req.root, report.witness, truth)
        assert time.perf_counter() - t0 < 2.0
        assert report.verdict == "satisfied" and holds


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
        region = parse_region(CUT, SCHEMA)
        # p_min pinned within one standard error of the true 0.188294...
        truth, est, se = evaluate_constraint(QoSConstraint(region, NEAR, 1.0),
                                             correlated_profile(), 50_000,
                                             RngStream(3))
        assert truth is None

    def test_strict_mode_decides(self):
        region = parse_region(CUT, SCHEMA)
        truth, est, _ = evaluate_constraint(QoSConstraint(region, NEAR, 1.0),
                                            correlated_profile(), 50_000,
                                            RngStream(3), confidence_z=0.0)
        assert truth == (NEAR <= est <= 1.0)


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
            f"P[{CUT}] in [{NEAR}, _] || P[{CUT}] in [0.1, 0.2]", SCHEMA)
        report = qos_check(correlated_profile(), req, k=50_000, rng=3)
        assert report.verdict == "satisfied"

    def test_indeterminate_verdict_surfaces(self):
        req = parse_requirement(f"P[{CUT}] in [{NEAR}, _]", SCHEMA)
        report = qos_check(correlated_profile(), req, k=50_000, rng=3)
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
        report = qos_check(correlated_profile(), parse_requirement(WIDE_099, SCHEMA),
                           k=20_000, rng=rng, confidence_z=0.0)
        assert report.constraint_table[0].estimate > 1.0
        assert report.verdict == "satisfied"

    def test_point_truth_clips_estimate_above_one(self):
        req = parse_requirement(f"vars p ; p <-> {WIDE_099}", SCHEMA)
        report = qos_check(correlated_profile(), req, k=20_000, rng=0)
        assert report.constraint_table[0].truth is None
        assert report.witness == {"p": True}

    @pytest.mark.parametrize("z", [-1.0, -500.0, math.nan, math.inf])
    def test_confidence_z_validated(self, z):
        with pytest.raises(ValueError):
            qos_check(independent_profile(), parse_requirement("true", SCHEMA),
                      k=1_000, rng=0, confidence_z=z)

    @pytest.mark.parametrize("text", [f"P[{BOX}] in [0.1, 0.2]", "true"],
                             ids=["box", "true"])
    @pytest.mark.parametrize("k", [1, 0, -5, 2.5])
    def test_sample_count_validated(self, text, k):
        # on an independent profile BOX has an exact mass, and `true` has
        # no constraint: neither path integrates, and both refuse k
        with pytest.raises(ValueError, match="k must be an integer >= 2"):
            qos_check(independent_profile(), parse_requirement(text, SCHEMA),
                      k=k, rng=0)

    @pytest.mark.parametrize("z", [math.nan, -1.0])
    def test_evaluate_constraint_validates_z(self, z):
        constraint = QoSConstraint(parse_region(BOX, SCHEMA), 0.1, 0.2)
        with pytest.raises(ValueError, match="confidence_z"):
            evaluate_constraint(constraint, independent_profile(), 1_000,
                                RngStream(0), confidence_z=z)

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
            f"P[{CUT}] in [{NEAR}, _] || P[{CUT}] in [0.1, 0.2]", SCHEMA)
        report = qos_check(correlated_profile(), req, k=50_000, rng=3)
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


@pytest.fixture
def calls(monkeypatch):
    """The calls `evaluate_constraint` makes to `integrate_uniform`."""
    calls = []
    integrate = requirements.integrate_uniform

    def counting(profile, region, k, rng):
        calls.append((region.structural_key(), k, rng))
        return integrate(profile, region, k, rng)

    monkeypatch.setattr(requirements, "integrate_uniform", counting)
    return calls


def _uniform_box():
    """A uniform profile on a box that covers half of BOX."""
    return UniformBox(SCHEMA, Box(np.array([50.0, 100.0]), np.array([90.0, 400.0])))


def _bad_kde(kernel):
    """A KDE of 200 draws from the degraded service, whose mass lies mostly
    in R_BAD."""
    return KDEProfile(SCHEMA, bad_profile().sample(200, RngStream(5)), kernel, [6.0, 80.0])


class TestExactBoxMass:
    """A region that is its own bounding box gets the profile's box mass with
    standard error 0 and no sampling, on every profile kind. The benchmark's
    oracle computes the independent and KDE box references with the same
    box masses, so these comparisons with the sampling integrator are the
    independent check of those; the correlated mass is also checked against
    adaptive quadrature in tests/test_profiles.py."""

    @pytest.mark.parametrize("make,text", [
        (independent_profile, BOX),
        (bad_profile, R_BAD_TEXT),
        (lambda: _bad_kde("gaussian"), R_BAD_TEXT),
        (lambda: _bad_kde("exponential"), R_BAD_TEXT),
        (correlated_profile, BOX),
        (correlated_profile, R_BAD_TEXT),
        (_uniform_box, BOX),
    ], ids=["independent-box", "independent-bad", "kde-gaussian-bad", "kde-laplace-bad",
            "correlated-box", "correlated-bad", "uniform-box"])
    def test_box_mass_agrees_with_the_integrator(self, calls, make, text):
        region = parse_region(text, SCHEMA)
        profile = make()
        truth, est, se = evaluate_constraint(QoSConstraint(region, 0.1, 0.2), profile,
                                             200_000, RngStream(8))
        assert (calls, se) == ([], 0.0)
        assert profile not in requirements._INTEGRALS
        assert truth == (0.1 <= est <= 0.2)
        sampled = integrate_uniform(profile, region, 200_000, RngStream(8))
        assert 0.0 < sampled.std_error
        assert abs(est - sampled.value) <= 4.0 * sampled.std_error

    @pytest.mark.parametrize("make", [correlated_profile, _uniform_box],
                             ids=["correlated", "uniform-box"])
    def test_every_profile_kind_answers_a_box_exactly(self, calls, make):
        truth, est, se = evaluate_constraint(
            QoSConstraint(parse_region(BOX, SCHEMA), 0.1, 0.2), make(), 2_000,
            RngStream(0))
        assert calls == [] and se == 0.0 and 0.0 <= est <= 1.0

    def test_row_the_box_implies_keeps_the_exact_path(self, calls):
        # TP + RT <= 400 on the whole box, so the row adds nothing to it
        region = parse_region(f"{BOX} && TP + RT <= 1000", SCHEMA)
        assert region.box_rows.size == 0
        plain = evaluate_constraint(QoSConstraint(parse_region(BOX, SCHEMA), 0.1, 0.2),
                                    independent_profile(), 2_000, RngStream(0))
        got = evaluate_constraint(QoSConstraint(region, 0.1, 0.2), independent_profile(),
                                  2_000, RngStream(0))
        assert calls == [] and got == plain and got[2] == 0.0

    def test_row_the_box_does_not_imply_samples(self, calls):
        region = parse_region(R_GOOD_TEXT, SCHEMA)
        assert region.box_rows.size == 1
        truth, est, se = evaluate_constraint(QoSConstraint(region, 0.1, 0.2),
                                             independent_profile(), 2_000, RngStream(0))
        assert len(calls) == 1 and se > 0.0


class TestIntegralMemo:
    """A profile's integrals are kept for its latest (seed, k) and reused by
    any later check that repeats the (region, substream)."""

    def test_select_style_rounds_integrate_each_region_once(self, calls, fixtures_dir):
        # R_BAD_CUT has a row its box does not imply, so it is integrated too
        doc = json.loads((fixtures_dir / "profiles" / "service_c.json").read_text())
        good_min = parse_requirement(f"P[{R_GOOD_TEXT}] in [0.6, _]", SCHEMA)
        conjunction = parse_requirement(
            f"P[{R_GOOD_TEXT}] in [0.6, _] && P[{R_BAD_CUT}] in [_, 0.3]", SCHEMA)
        profile = profile_from_dict(doc)
        stream = RngStream(11)
        first = qos_check(profile, good_min, k=20_000, rng=stream)
        second = qos_check(profile, conjunction, k=20_000, rng=stream)
        # the good region on substream 0 is integrated once for both checks
        assert len(calls) == 2
        fresh = [qos_check(profile_from_dict(doc), req, k=20_000, rng=stream)
                 for req in (good_min, conjunction)]
        assert len(calls) == 2 + 3
        assert [first.to_dict(), second.to_dict()] == [r.to_dict() for r in fresh]

    @pytest.mark.parametrize("change", ["seed", "k", "region", "index"])
    def test_any_other_input_integrates_again(self, calls, change):
        box = parse_region(CUT, SCHEMA)
        profile = correlated_profile()
        evaluate_constraint(QoSConstraint(box, 0.1, 0.2), profile, 4_000,
                            RngStream(3).substream(0))
        region, k, stream = box, 4_000, RngStream(3).substream(0)
        if change == "seed":
            stream = RngStream(4).substream(0)
        elif change == "k":
            k = 4_001
        elif change == "region":
            region = parse_region(R_GOOD_TEXT, SCHEMA)
        else:
            stream = RngStream(3).substream(1)
        evaluate_constraint(QoSConstraint(region, 0.1, 0.2), profile, k, stream)
        assert len(calls) == 2

    def test_bounds_and_z_are_decided_afresh(self, calls):
        box = parse_region(CUT, SCHEMA)
        profile = correlated_profile()
        stream = RngStream(2)
        truth, est, se = evaluate_constraint(QoSConstraint(box, 0.1, 0.2), profile,
                                             100_000, stream)
        assert truth is True
        band = (est - 0.5 * se, est + 0.5 * se)
        again = evaluate_constraint(QoSConstraint(box, band[1], 1.0), profile,
                                    100_000, stream)
        assert again == (None, est, se)
        narrow = evaluate_constraint(QoSConstraint(box, band[1], 1.0), profile,
                                     100_000, stream, confidence_z=0.25)
        assert narrow == (False, est, se)
        assert len(calls) == 1

    def test_vacuous_bounds_store_nothing(self, calls):
        profile = independent_profile()
        evaluate_constraint(QoSConstraint(parse_region(BOX, SCHEMA)), profile, 1_000, 0)
        assert calls == [] and profile not in requirements._INTEGRALS

    def test_one_seed_and_k_per_profile(self, calls):
        box = parse_region(CUT, SCHEMA)
        good = parse_region(R_GOOD_TEXT, SCHEMA)
        profile = correlated_profile()
        for seed in (1, 2):
            for region in (box, good):
                evaluate_constraint(QoSConstraint(region, 0.1, 0.2), profile, 2_000,
                                    RngStream(seed))
        run, integrals = requirements._INTEGRALS[profile]
        assert run == (2, 2_000) and len(integrals) == 2
        evaluate_constraint(QoSConstraint(box, 0.1, 0.2), profile, 2_000, RngStream(1))
        assert len(calls) == 5
        evaluate_constraint(QoSConstraint(box, 0.1, 0.2), profile, 3_000, RngStream(1))
        assert len(calls) == 6
        run, integrals = requirements._INTEGRALS[profile]
        assert run == (1, 3_000) and len(integrals) == 1

    def test_dropped_profile_takes_its_entries(self):
        profile = correlated_profile()
        evaluate_constraint(QoSConstraint(parse_region(CUT, SCHEMA), 0.1, 0.2), profile,
                            2_000, RngStream(0))
        ref = weakref.ref(profile)
        gc.collect()
        size = len(requirements._INTEGRALS)
        assert profile in requirements._INTEGRALS
        del profile
        gc.collect()
        assert ref() is None
        assert len(requirements._INTEGRALS) == size - 1

    def test_threads_sharing_a_profile_get_fresh_answers(self):
        # four threads share one (seed, k) and mostly hit the memo, while
        # two others keep replacing its entries with those of another run
        regions = [parse_region(CUT, SCHEMA), parse_region(R_GOOD_TEXT, SCHEMA)]
        runs = [(1, 2_000)] * 4 + [(2, 2_000), (1, 2_001)]
        keys = [(region, index) for region in regions for index in (0, 1)]

        def evaluate(profile, run, key):
            (seed, k), (region, index) = run, key
            return evaluate_constraint(QoSConstraint(region, 0.1, 0.2), profile, k,
                                       RngStream(seed).substream(index))

        expected = {(run, j): evaluate(correlated_profile(), run, key)
                    for run in set(runs) for j, key in enumerate(keys)}
        profile = correlated_profile()
        wrong = []

        def worker(run):
            for step in range(30 * len(keys)):
                j = step % len(keys)
                got = evaluate(profile, run, keys[j])
                if got != expected[run, j]:
                    wrong.append((run, j, got))
                if run != runs[0]:
                    time.sleep(0.002)  # let the shared run's threads read

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(run,)) for run in runs]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
