"""Requirement AST: Boolean formulas over probability-bound constraints.

Core node kinds are Top, Bottom, PropVar, Constraint, Not and Or; the
conjunction/implication/biconditional sugar expands to these at construction
time via the helpers below.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import HPolytope


class RequirementError(Exception):
    pass


@dataclass(frozen=True)
class QoSConstraint:
    """<region, p_min, p_max>: demand p_min <= P(X in region) <= p_max."""

    region: HPolytope
    p_min: float = 0.0
    p_max: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.p_min <= self.p_max <= 1.0):
            raise RequirementError(
                f"need 0 <= p_min <= p_max <= 1, got [{self.p_min}, {self.p_max}]"
            )

    def structural_key(self):
        """Identity under which duplicate constraints share one truth value."""
        return (self.region.structural_key(), self.p_min, self.p_max)


class Node:
    """Base class for requirement AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Top(Node):
    pass


@dataclass(frozen=True)
class Bottom(Node):
    pass


@dataclass(frozen=True)
class PropVar(Node):
    name: str


@dataclass(frozen=True)
class Constraint(Node):
    constraint: QoSConstraint


@dataclass(frozen=True)
class Not(Node):
    child: Node


@dataclass(frozen=True)
class Or(Node):
    left: Node
    right: Node


def and_(left: Node, right: Node) -> Node:
    return Not(Or(Not(left), Not(right)))


def implies(left: Node, right: Node) -> Node:
    return Or(Not(left), right)


def iff(left: Node, right: Node) -> Node:
    return and_(implies(left, right), implies(right, left))


def evaluate(node: Node, valuation: dict, constraint_truth) -> bool:
    """Ground truth of the formula under a propositional valuation.

    constraint_truth maps a QoSConstraint's structural key to its truth
    value, as in `sat.dpll_sat`; used as the brute-force entailment oracle
    in the tests. A subterm shared by several parents, as the two halves
    of an expanded `<->` are, is evaluated once per call.
    """
    memo = {}

    def value(cur: Node) -> bool:
        key = id(cur)
        if key not in memo:
            memo[key] = truth(cur)
        return memo[key]

    def truth(cur: Node) -> bool:
        if isinstance(cur, Top):
            return True
        if isinstance(cur, Bottom):
            return False
        if isinstance(cur, PropVar):
            try:
                return bool(valuation[cur.name])
            except KeyError:
                raise RequirementError(f"valuation missing variable '{cur.name}'")
        if isinstance(cur, Constraint):
            return bool(constraint_truth[cur.constraint.structural_key()])
        if isinstance(cur, Not):
            return not value(cur.child)
        if isinstance(cur, Or):
            return value(cur.left) or value(cur.right)
        raise TypeError(f"unexpected node {cur!r}")

    return value(node)


def collect_constraints(node: Node) -> list:
    """Distinct constraints in first-occurrence (depth-first) order.

    A shared subterm is walked once: its constraints were all seen on its
    first visit."""
    seen = {}
    order = []
    visited = set()

    def walk(cur: Node):
        if id(cur) in visited:
            return
        visited.add(id(cur))
        if isinstance(cur, Constraint):
            key = cur.constraint.structural_key()
            if key not in seen:
                seen[key] = cur.constraint
                order.append(cur.constraint)
        elif isinstance(cur, Not):
            walk(cur.child)
        elif isinstance(cur, Or):
            walk(cur.left)
            walk(cur.right)

    walk(node)
    return order
