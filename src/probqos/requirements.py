"""Requirement language and decision procedure.

Parses textual requirements (Boolean combinations of probability-bound
constraints over linear-inequality regions), abstracts constraints into
fresh propositional variables, evaluates each constraint by Monte Carlo
integration, and settles the Boolean structure with the DPLL solver.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from . import sat
from .geometry import HPolytope
from .integrate import DEFAULT_SAMPLES, integrate_uniform
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
    iff,
    implies,
)
from .rng import RngStream, as_stream

__all__ = [
    "QoSRequirement",
    "AbstractionMap",
    "CheckReport",
    "ConstraintResult",
    "RequirementSyntaxError",
    "parse_requirement",
    "parse_region",
    "abstract",
    "evaluate_constraint",
    "dpll_sat",
    "qos_check",
]

dpll_sat = sat.dpll_sat


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


@dataclass
class _Token:
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

@dataclass(frozen=True)
class QoSRequirement:
    """Parsed requirement: AST root plus its propositional variable set."""

    root: Node
    prop_vars: tuple
    source: str | None = None


class _Parser:
    def __init__(self, tokens: list, schema: AttributeSchema,
                 declared: "frozenset | None"):
        self.tokens = tokens
        self.i = 0
        self.schema = schema
        self.declared = declared
        self.seen_vars: set = set()

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

    # -- expression levels -------------------------------------------------

    def parse_iff(self) -> Node:
        left = self.parse_implies()
        while self.peek().text == "<->":
            self.next()
            left = iff(left, self.parse_implies())
        return left

    def parse_implies(self) -> Node:
        left = self.parse_or()
        if self.peek().text == "->":
            self.next()
            return implies(left, self.parse_implies())
        return left

    def parse_or(self) -> Node:
        left = self.parse_and()
        while self.peek().text == "||":
            self.next()
            left = Or(left, self.parse_and())
        return left

    def parse_and(self) -> Node:
        left = self.parse_unary()
        while self.peek().text == "&&":
            self.next()
            left = and_(left, self.parse_unary())
        return left

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
                return self.parse_constraint()
            self.next()
            if tok.text in _KEYWORDS:
                raise RequirementSyntaxError(
                    f"keyword {tok.text!r} cannot be a variable", tok.pos)
            if self.declared is not None and tok.text not in self.declared:
                raise RequirementSyntaxError(
                    f"undeclared propositional variable {tok.text!r}", tok.pos)
            self.seen_vars.add(tok.text)
            return PropVar(tok.text)
        raise RequirementSyntaxError(f"unexpected token {tok.text!r}", tok.pos)

    def parse_constraint(self) -> Node:
        return _parse_constraint(self)


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
    rows = []
    bounds = []
    row, bnd = _parse_inequality(p)
    rows.append(row)
    bounds.append(bnd)
    while p.peek().text == "&&":
        p.next()
        row, bnd = _parse_inequality(p)
        rows.append(row)
        bounds.append(bnd)
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
    root = parser.parse_iff()
    tail = parser.peek()
    if tail.kind != "eof":
        raise RequirementSyntaxError(f"unexpected trailing input {tail.text!r}",
                                     tail.pos)
    prop_vars = tuple(sorted(declared if declared is not None else parser.seen_vars))
    return QoSRequirement(root=root, prop_vars=prop_vars, source=text)


def parse_region(text: str, schema: AttributeSchema) -> HPolytope:
    """Parse a bare region: a conjunction of linear inequalities."""
    parser = _Parser(_tokenize(text), schema, None)
    region = _parse_region_body(parser)
    tail = parser.peek()
    if tail.kind != "eof":
        raise RequirementSyntaxError(f"unexpected trailing input {tail.text!r}",
                                     tail.pos)
    return region


# ---------------------------------------------------------------------------
# Propositional abstraction (fresh variable per distinct constraint)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbstractionMap:
    """Constraint-free formula plus bindings from fresh vars to constraints."""

    formula: Node
    bindings: dict  # fresh variable name -> QoSConstraint


_FRESH_PREFIX = "$c"  # '$' is not a lexable ident character, so never clashes


def abstract(req: "QoSRequirement | Node") -> AbstractionMap:
    """Replace each distinct constraint with a fresh propositional variable."""
    root = req.root if isinstance(req, QoSRequirement) else req
    names: dict = {}
    bindings: dict = {}

    def walk(node: Node) -> Node:
        if isinstance(node, Constraint):
            key = node.constraint.structural_key()
            if key not in names:
                fresh = f"{_FRESH_PREFIX}{len(names) + 1}"
                names[key] = fresh
                bindings[fresh] = node.constraint
            return PropVar(names[key])
        if isinstance(node, Not):
            return Not(walk(node.child))
        if isinstance(node, Or):
            return Or(walk(node.left), walk(node.right))
        return node

    return AbstractionMap(formula=walk(root), bindings=bindings)


# ---------------------------------------------------------------------------
# Constraint evaluation and the decision procedure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstraintResult:
    variable: str
    label: str | None
    p_min: float
    p_max: float
    estimate: float
    std_error: float
    truth: "bool | None"  # None = indeterminate (confidence mode)
    margin: float


@dataclass(frozen=True)
class CheckReport:
    verdict: str  # "satisfied" | "violated" | "indeterminate"
    witness: "dict | None"
    constraint_table: tuple
    mode: str
    k: int
    confidence_z: float

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness": dict(self.witness) if self.witness is not None else None,
            "constraints": [
                {
                    "variable": c.variable,
                    "label": c.label,
                    "p_min": c.p_min,
                    "p_max": c.p_max,
                    "estimate": c.estimate,
                    "std_error": c.std_error,
                    "truth": c.truth,
                    "margin": c.margin,
                }
                for c in self.constraint_table
            ],
            "mode": self.mode,
            "k": self.k,
            "confidence_z": self.confidence_z,
        }

    @property
    def min_margin(self) -> "float | None":
        if not self.constraint_table:
            return None
        return min(c.margin for c in self.constraint_table)


def _decide(estimate: float, std_error: float, c: QoSConstraint, z: float,
            mode: str):
    """Truth value of p_min <= P <= p_max given a noisy estimate."""
    if mode == "strict":
        return c.p_min <= estimate <= c.p_max
    lo = max(estimate - z * std_error, 0.0)
    hi = min(estimate + z * std_error, 1.0)
    if lo >= c.p_min and hi <= c.p_max:
        return True
    if hi < c.p_min or lo > c.p_max:
        return False
    return None


def evaluate_constraint(constraint: QoSConstraint, profile: QoSProfile, k: int,
                        rng: "RngStream | int", confidence_z: float = 3.0,
                        mode: str = "confidence"):
    """Integrate the region probability and compare it with the bounds.

    Returns (truth, estimate, std_error); truth is None when the confidence
    interval straddles a bound (confidence mode only).
    """
    if mode not in ("strict", "confidence"):
        raise ValueError("mode must be 'strict' or 'confidence'")
    if constraint.p_min == 0.0 and constraint.p_max == 1.0:
        # vacuous bounds need no integration
        return True, None, None
    est = integrate_uniform(profile, constraint.region, k, rng)
    truth = _decide(est.value, est.std_error, constraint, confidence_z, mode)
    return truth, est.value, est.std_error


def _margin(estimate: float, std_error: float, c: QoSConstraint,
            z: float) -> float:
    """Distance from the estimate to the nearer bound, beyond the z-band."""
    return min(abs(estimate - c.p_min), abs(estimate - c.p_max)) - z * std_error


def qos_check(profile: QoSProfile, req: QoSRequirement, k: int = DEFAULT_SAMPLES,
              rng: "RngStream | int" = 0, mode: str = "confidence",
              confidence_z: float = 3.0) -> CheckReport:
    """Decision procedure: abstract, integrate each constraint once, then SAT.

    Each distinct constraint becomes a fresh variable whose truth value is
    pinned by a unit conjunct; satisfaction then reduces to satisfiability
    over the requirement's free propositional variables. In confidence mode
    the verdict is "indeterminate" when some constraint's interval straddles
    a bound and flipping such constraints changes the SAT outcome.
    """
    if mode not in ("strict", "confidence"):
        raise ValueError("mode must be 'strict' or 'confidence'")
    stream = as_stream(rng)
    amap = abstract(req)
    ordered = sorted(amap.bindings.items(), key=lambda kv: int(kv[0][len(_FRESH_PREFIX):]))

    table = []
    decided: dict = {}
    undecided: list = []
    for idx, (var, constraint) in enumerate(ordered):
        truth, est, se = evaluate_constraint(
            constraint, profile, k, stream.substream(idx), confidence_z, mode)
        if est is None:
            est, se = 1.0, 0.0  # vacuous bounds: probability is trivially inside
        margin = _margin(est, se, constraint, confidence_z if mode == "confidence" else 0.0)
        table.append(ConstraintResult(var, constraint.label, constraint.p_min,
                                      constraint.p_max, est, se, truth, margin))
        if truth is None:
            undecided.append(var)
        else:
            decided[var] = truth

    def sat_outcome(assignment: dict):
        formula = amap.formula
        for var, value in assignment.items():
            unit = PropVar(var) if value else Not(PropVar(var))
            formula = and_(formula, unit)
        return sat.dpll_sat(formula)

    point_truths = {
        row.variable: (row.truth if row.truth is not None
                       else row.p_min <= row.estimate <= row.p_max)
        for row in table
    }

    if undecided:
        outcomes = set()
        for mask in range(1 << len(undecided)):
            assignment = dict(point_truths)
            for j, var in enumerate(undecided):
                assignment[var] = bool(mask >> j & 1)
            outcomes.add(sat_outcome(assignment)[0])
            if len(outcomes) == 2:
                break
        if len(outcomes) == 2:
            return CheckReport("indeterminate", None, tuple(table), mode, k,
                               confidence_z)

    satisfiable, model = sat_outcome(point_truths)
    if not satisfiable:
        return CheckReport("violated", None, tuple(table), mode, k, confidence_z)
    witness = {name: bool(model.get(name, True)) for name in req.prop_vars}
    return CheckReport("satisfied", witness, tuple(table), mode, k, confidence_z)
