"""Requirement language and decision procedure.

Parses textual requirements (Boolean combinations of probability-bound
constraints over linear-inequality regions), evaluates each distinct
constraint once (exactly for a box region, by the profile's box mass; on a
KDE by sampling the KDE's first n - 1 axes inside the region's bounding
box, stratified along the first, and integrating the last axis over the
region's slice exactly; and by Monte Carlo integration otherwise),
substitutes the truth values into the
formula and settles what remains with the DPLL solver. A profile's
integrals for one seed are kept for the checks that follow.
"""

from __future__ import annotations

import itertools
import math
import re
import weakref
from typing import NamedTuple

import numpy as np

from . import sat
from .geometry import HPolytope, _sample_count
from .integrate import DEFAULT_SAMPLES, _check_schema, integrate_uniform
from .learning import KDEProfile
from .profiles import AttributeSchema, QoSProfile
from .reqast import (
    Bottom,
    Constraint,
    Node,
    Not,
    Or,
    PropVar,
    QoSConstraint,
    RequirementError,
    Top,
    and_,
    collect_constraints,
    iff,
)
from .rng import RngStream, as_stream

__all__ = [
    "QoSRequirement",
    "CheckReport",
    "ConstraintResult",
    "RequirementSyntaxError",
    "parse_requirement",
    "parse_region",
    "evaluate_constraint",
    "qos_check",
]


class RequirementSyntaxError(RequirementError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
      | (?P<op><->|->|\|\||&&|<=|>=|[!()\[\],;+\-*_])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"vars", "true", "false", "in"}


class _Token(NamedTuple):
    kind: str  # "number" | "ident" | "op" | "eof"
    text: str
    pos: int


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise RequirementSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Parser (precedence: ! > && > || > -> > <->; -> right-associative)
# ---------------------------------------------------------------------------

class QoSRequirement(NamedTuple):
    """Parsed requirement: AST root plus its propositional variable set."""

    root: Node
    prop_vars: tuple
    source: str | None = None


def _balanced(operands: list, combine) -> Node:
    """Join the operands of a chain of one associative operator (``||``,
    ``&&`` or ``<->``, and ``->`` as a disjunction), in order, as a tree of
    depth log2(len).

    Splitting at (len + 1) // 2 keeps chains of up to three operands
    left-folded, and the leaf order, and with it the constraint order, is
    the chain's.
    """
    if len(operands) == 1:
        return operands[0]
    mid = (len(operands) + 1) // 2
    return combine(_balanced(operands[:mid], combine),
                   _balanced(operands[mid:], combine))


class _Parser:
    def __init__(self, tokens: list, schema: AttributeSchema,
                 declared: "frozenset | None"):
        self.tokens = tokens
        self.i = 0
        self.schema = schema
        self.declared = declared

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise RequirementSyntaxError(f"expected {text!r}, found {tok.text!r}",
                                         tok.pos)
        return tok

    def operands(self, op: str, parse) -> list:
        """The operands of a chain `parse (op parse)*`, in order."""
        out = [parse()]
        while self.peek().text == op:
            self.next()
            out.append(parse())
        return out

    def end(self, result):
        """`result`, once nothing but the end of input is left."""
        tail = self.peek()
        if tail.kind != "eof":
            raise RequirementSyntaxError(f"unexpected trailing input {tail.text!r}",
                                         tail.pos)
        return result

    # -- expression levels -------------------------------------------------

    def parse_iff(self) -> Node:
        return _balanced(self.operands("<->", self.parse_implies), iff)

    def parse_implies(self) -> Node:
        # a -> b -> ... -> z is a -> (b -> (... -> z)), that is
        # !a || !b || ... || z
        *premises, conclusion = self.operands("->", self.parse_or)
        return _balanced([Not(op) for op in premises] + [conclusion], Or)

    def parse_or(self) -> Node:
        return _balanced(self.operands("||", self.parse_and), Or)

    def parse_and(self) -> Node:
        return _balanced(self.operands("&&", self.parse_unary), and_)

    def parse_unary(self) -> Node:
        if self.peek().text == "!":
            self.next()
            return Not(self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> Node:
        tok = self.peek()
        if tok.text == "(":
            self.next()
            node = self.parse_iff()
            self.expect(")")
            return node
        if tok.kind == "ident":
            if tok.text == "true":
                self.next()
                return Top()
            if tok.text == "false":
                self.next()
                return Bottom()
            if tok.text == "P" and self.tokens[self.i + 1].text == "[":
                return _parse_constraint(self)
            self.next()
            if tok.text in _KEYWORDS:
                raise RequirementSyntaxError(
                    f"keyword {tok.text!r} cannot be a variable", tok.pos)
            if self.declared is not None and tok.text not in self.declared:
                raise RequirementSyntaxError(
                    f"undeclared propositional variable {tok.text!r}", tok.pos)
            return PropVar(tok.text)
        raise RequirementSyntaxError(f"unexpected token {tok.text!r}", tok.pos)


# ---------------------------------------------------------------------------
# Regions: conjunctions of linear inequalities over schema attributes
# ---------------------------------------------------------------------------

def _parse_affine(p: _Parser):
    """affine := term (('+'|'-') term)*; returns (coeff dict, constant)."""
    coeffs: dict = {}
    const = 0.0

    def term(sign: float):
        nonlocal const
        tok = p.next()
        if tok.kind == "number":
            value = float(tok.text)
            if p.peek().text == "*":
                p.next()
                name_tok = p.next()
                if name_tok.kind != "ident":
                    raise RequirementSyntaxError("expected attribute after '*'",
                                                 name_tok.pos)
                _add_coeff(p, coeffs, name_tok, sign * value)
            else:
                const += sign * value
        elif tok.kind == "ident":
            _add_coeff(p, coeffs, tok, sign)
        else:
            raise RequirementSyntaxError(f"unexpected token {tok.text!r} in term",
                                         tok.pos)

    if p.peek().text in ("+", "-"):
        term(1.0 if p.next().text == "+" else -1.0)
    else:
        term(1.0)
    while p.peek().text in ("+", "-"):
        sign = 1.0 if p.next().text == "+" else -1.0
        term(sign)
    return coeffs, const


def _add_coeff(p: _Parser, coeffs: dict, tok: _Token, value: float):
    if tok.text in _KEYWORDS:
        raise RequirementSyntaxError(f"keyword {tok.text!r} is not an attribute",
                                     tok.pos)
    if tok.text not in p.schema.names:
        raise RequirementSyntaxError(f"unknown attribute {tok.text!r}", tok.pos)
    coeffs[tok.text] = coeffs.get(tok.text, 0.0) + value


def _parse_inequality(p: _Parser):
    """lin := affine ('<='|'>=') affine; returns (row over schema, bound)."""
    lhs_c, lhs_k = _parse_affine(p)
    cmp_tok = p.next()
    if cmp_tok.text not in ("<=", ">="):
        raise RequirementSyntaxError("expected '<=' or '>='", cmp_tok.pos)
    rhs_c, rhs_k = _parse_affine(p)
    row = np.zeros(p.schema.dim)
    for j, name in enumerate(p.schema.names):
        row[j] = lhs_c.get(name, 0.0) - rhs_c.get(name, 0.0)
    bound = rhs_k - lhs_k
    if cmp_tok.text == ">=":
        row = -row
        bound = -bound
    if np.all(row == 0.0):
        raise RequirementSyntaxError("inequality involves no attribute", cmp_tok.pos)
    return row, bound


def _parse_region_body(p: _Parser) -> HPolytope:
    rows, bounds = zip(*p.operands("&&", lambda: _parse_inequality(p)))
    return HPolytope(np.array(rows), np.array(bounds), p.schema.names)


def _parse_bound(p: _Parser, default: float) -> float:
    tok = p.next()
    if tok.text == "_":
        return default
    if tok.kind != "number":
        raise RequirementSyntaxError("expected probability bound or '_'", tok.pos)
    value = float(tok.text)
    if not 0.0 <= value <= 1.0:
        raise RequirementSyntaxError("probability bound must lie in [0, 1]", tok.pos)
    return value


def _parse_constraint(p: _Parser) -> Node:
    p.expect("P")
    open_tok = p.expect("[")
    region = _parse_region_body(p)
    p.expect("]")
    kw = p.next()
    if not (kw.kind == "ident" and kw.text == "in"):
        raise RequirementSyntaxError("expected 'in' after region", kw.pos)
    p.expect("[")
    p_min = _parse_bound(p, 0.0)
    p.expect(",")
    p_max = _parse_bound(p, 1.0)
    p.expect("]")
    if p_min > p_max:
        raise RequirementSyntaxError("p_min exceeds p_max", open_tok.pos)
    return Constraint(QoSConstraint(region, p_min, p_max))


def parse_requirement(text: str, schema: AttributeSchema) -> QoSRequirement:
    """Parse a requirement, expanding &&, -> and <-> sugar.

    An optional leading ``vars p1 p2 ... ;`` declares the propositional
    variable set; idents outside it are then rejected.
    """
    tokens = _tokenize(text)
    declared = None
    if tokens and tokens[0].kind == "ident" and tokens[0].text == "vars":
        names = []
        i = 1
        while tokens[i].kind == "ident":
            if tokens[i].text in _KEYWORDS:
                raise RequirementSyntaxError(
                    f"keyword {tokens[i].text!r} cannot be declared", tokens[i].pos)
            names.append(tokens[i].text)
            i += 1
        if tokens[i].text != ";":
            raise RequirementSyntaxError("expected ';' after vars declaration",
                                         tokens[i].pos)
        declared = frozenset(names)
        tokens = tokens[i + 1:]
    parser = _Parser(tokens, schema, declared)
    root = parser.end(parser.parse_iff())
    prop_vars = tuple(sorted(declared if declared is not None
                             else sat.collect_prop_vars(root)))
    return QoSRequirement(root=root, prop_vars=prop_vars, source=text)


def parse_region(text: str, schema: AttributeSchema) -> HPolytope:
    """Parse a bare region: a conjunction of linear inequalities."""
    parser = _Parser(_tokenize(text), schema, None)
    return parser.end(_parse_region_body(parser))


# ---------------------------------------------------------------------------
# Constraint evaluation and the decision procedure
# ---------------------------------------------------------------------------

class ConstraintResult(NamedTuple):
    variable: str
    p_min: float
    p_max: float
    estimate: float
    std_error: float
    truth: "bool | None"  # None = the z-band straddles a bound
    margin: float


class CheckReport(NamedTuple):
    verdict: str  # "satisfied" | "violated" | "indeterminate"
    witness: "dict | None"
    constraint_table: tuple
    k: int
    confidence_z: float

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness": dict(self.witness) if self.witness is not None else None,
            "constraints": [c._asdict() for c in self.constraint_table],
            "k": self.k,
            "confidence_z": self.confidence_z,
        }

    @property
    def min_margin(self) -> "float | None":
        if not self.constraint_table:
            return None
        return min(c.margin for c in self.constraint_table)


def _decide(estimate: float, std_error: float, c: QoSConstraint, z: float):
    """Truth value of p_min <= P <= p_max given a noisy estimate.

    The band estimate +/- z * std_error, clipped to [0, 1], decides: True
    when it lies within the bounds, False when it lies wholly outside them,
    None when it straddles a bound. At z = 0 the band is the clipped point
    estimate, which always decides.
    """
    lo = max(estimate - z * std_error, 0.0)
    hi = min(estimate + z * std_error, 1.0)
    if lo >= c.p_min and hi <= c.p_max:
        return True
    if hi < c.p_min or lo > c.p_max:
        return False
    return None


def _check_sampling(k: int, confidence_z: float) -> int:
    """k as an int. Refuse a sample count that is not an integer or is
    below 2 (no standard error exists), and a z-band half-width that is
    negative or not finite."""
    k = _sample_count(k)
    if not (math.isfinite(confidence_z) and confidence_z >= 0.0):
        raise ValueError(f"confidence_z must be finite and >= 0, got {confidence_z}")
    return k


# profile -> ((seed, k), {(region structural key, stream id): (value,
# std_error)}), see `evaluate_constraint`; a dropped profile takes its
# entries with it
_INTEGRALS = weakref.WeakKeyDictionary()


def evaluate_constraint(constraint: QoSConstraint, profile: QoSProfile, k: int,
                        rng: "RngStream | int", confidence_z: float = 3.0):
    """Integrate the region probability and compare it with the bounds.

    Returns (truth, estimate, std_error); truth is `_decide` at confidence_z,
    None when the band straddles a bound. Vacuous [0, 1] bounds need no
    integration and give (True, 1.0, 0.0). A region that is its own
    bounding box (no row in `box_rows`) gets the profile's `box_mass` at
    standard error 0.0, and draws no samples: every profile kind has one
    (a closed form, or for the correlated profile a one-dimensional
    quadrature), so only regions with a row the box does not imply are
    sampled. On a KDE, `KDEProfile.region_mass` draws the first n - 1
    axes inside the region's bounding box, stratified along the first,
    integrates the last axis over the region's slice exactly, and never
    evaluates the density; its standard error comes from the strata's
    pairs, and is 0 when every pair has equal weight. Any other profile
    goes through `integrate_uniform`.

    Both are pure functions of (profile, region, k, stream): profiles are
    immutable, `region_mass` draws from one generator on the stream, and
    `integrate_uniform`'s estimate does not depend on the core count or
    the chunk size. So the estimate and its standard error are
    kept per profile, keyed by the region's structural key and the stream's
    id, and a repeated call, as from select's checks of several
    requirements with one seed, returns them without integrating again.
    Each profile keeps the entries of one (seed, k) only: a call with
    another seed or k replaces them. The memo lives in this process, so it
    helps repeated calls in one process only. The truth is always decided
    afresh, as the bounds and confidence_z are not part of the key.

    On every path, a k that is not an integer or is below 2, and a
    negative or non-finite confidence_z, raise ValueError. Unless the
    bounds are vacuous, a region named otherwise than the profile's schema
    raises SchemaMismatchError.
    """
    k = _check_sampling(k, confidence_z)
    if constraint.p_min == 0.0 and constraint.p_max == 1.0:
        return True, 1.0, 0.0
    region = constraint.region
    _check_schema(profile, region)
    if region.box_rows.size == 0:
        mass = profile.box_mass(region.bounding_box)
        return _decide(mass, 0.0, constraint, confidence_z), mass, 0.0
    stream = as_stream(rng)
    run = (stream.seed, k)
    # threads may replace a profile's entries while others fill them; a
    # dict only ever holds entries of its own run, so a race costs an
    # integration, never a wrong answer
    stored_run, integrals = _INTEGRALS.get(profile, (None, None))
    if stored_run != run:
        integrals = {}
        _INTEGRALS[profile] = (run, integrals)
    key = (region.structural_key(), stream.stream_id)
    if key not in integrals:
        if isinstance(profile, KDEProfile):
            integrals[key] = profile.region_mass(region, k, stream)
        else:
            est = integrate_uniform(profile, region, k, stream)
            integrals[key] = (est.value, est.std_error)
    value, std_error = integrals[key]
    truth = _decide(value, std_error, constraint, confidence_z)
    return truth, value, std_error


def _margin(estimate: float, std_error: float, c: QoSConstraint,
            z: float) -> float:
    """Distance from the estimate to the nearer binding bound (p_min > 0 or
    p_max < 1; 1.0 when neither binds), less the z-band."""
    distances = []
    if c.p_min > 0.0:
        distances.append(abs(estimate - c.p_min))
    if c.p_max < 1.0:
        distances.append(abs(estimate - c.p_max))
    return min(distances, default=1.0) - z * std_error


def qos_check(profile: QoSProfile, req: QoSRequirement, k: int = DEFAULT_SAMPLES,
              rng: "RngStream | int" = 0, confidence_z: float = 3.0) -> CheckReport:
    """Decision procedure: evaluate each constraint once, substitute, then SAT.

    Each distinct constraint, in first-occurrence order, is evaluated on
    its own substream and reported as ``$c1``, ``$c2``, ... Its truth value
    replaces it in the formula, and satisfaction then reduces to
    satisfiability over the requirement's free propositional variables. A
    constraint whose z-band straddles a bound counts at its point truth
    (`_decide` at z = 0), and the verdict is "indeterminate" when some other
    truth assignment of such constraints changes the SAT outcome. At
    confidence_z = 0 every constraint is decided on its point estimate.

    The integrals come through `evaluate_constraint`, whose memo keeps each
    profile's estimates for one (seed, k), keyed by region and substream:
    a later check in this process on the same profile, seed and k
    integrates only the (region, substream) pairs not seen before, and its
    report is the one a fresh process would give.

    k and confidence_z are checked first, so that a requirement with no
    sampled constraint refuses them too.
    """
    k = _check_sampling(k, confidence_z)
    stream = as_stream(rng)

    table = []
    truths: dict = {}
    undecided: list = []
    for idx, constraint in enumerate(collect_constraints(req.root)):
        truth, est, se = evaluate_constraint(
            constraint, profile, k, stream.substream(idx), confidence_z)
        var = f"$c{idx + 1}"  # '$' is not a lexable ident character, so never clashes
        table.append(ConstraintResult(var, constraint.p_min, constraint.p_max, est, se,
                                      truth, _margin(est, se, constraint, confidence_z)))
        key = constraint.structural_key()
        if truth is None:
            undecided.append(key)
            truth = _decide(est, se, constraint, 0.0)
        truths[key] = truth

    satisfiable, model = sat.dpll_sat(req.root, truths)
    point = tuple(truths[key] for key in undecided)
    for values in itertools.product((False, True), repeat=len(undecided)):
        if values == point:  # the assignment just solved
            continue
        flipped = {**truths, **dict(zip(undecided, values))}
        if sat.dpll_sat(req.root, flipped)[0] != satisfiable:
            return CheckReport("indeterminate", None, tuple(table), k, confidence_z)
    if not satisfiable:
        return CheckReport("violated", None, tuple(table), k, confidence_z)
    witness = {name: model.get(name, True) for name in req.prop_vars}
    return CheckReport("satisfied", witness, tuple(table), k, confidence_z)
