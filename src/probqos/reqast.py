"""Requirement AST: Boolean formulas over probability-bound constraints.

Core node kinds are Top, Bottom, PropVar, Constraint, Not and Or; the
conjunction/implication/biconditional sugar expands to these at construction
time via the helpers below.
"""

from __future__ import annotations

from .geometry import HPolytope


class RequirementError(Exception):
    pass


class QoSConstraint:
    """<region, p_min, p_max>: demand p_min <= P(X in region) <= p_max."""

    def __init__(self, region: HPolytope, p_min: float = 0.0, p_max: float = 1.0):
        if not (0.0 <= p_min <= p_max <= 1.0):
            raise RequirementError(
                f"need 0 <= p_min <= p_max <= 1, got [{p_min}, {p_max}]"
            )
        self.region, self.p_min, self.p_max = region, p_min, p_max

    def __repr__(self):
        # `broker.requirement_hash` hashes the repr of a formula built
        # without source text, so this format is part of that hash
        return (f"QoSConstraint(region={self.region!r}, p_min={self.p_min!r}, "
                f"p_max={self.p_max!r})")

    def structural_key(self):
        """Identity under which duplicate constraints share one truth value."""
        return (self.region.structural_key(), self.p_min, self.p_max)


class Node:
    """Base class for requirement AST nodes.

    Each kind names its fields in `__slots__`; construction takes them in
    that order, and equality, hash and repr go by kind and field values.
    The repr is part of `broker.requirement_hash` for a formula built
    without source text.
    """

    __slots__ = ()

    def __init__(self, *values, **named):
        if named:
            values += tuple(named.pop(name) for name in self.__slots__[len(values):]
                            if name in named)
        if named or len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes the fields {self.__slots__}")
        for name, value in zip(self.__slots__, values):
            setattr(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Top(Node):
    __slots__ = ()


class Bottom(Node):
    __slots__ = ()


class PropVar(Node):
    __slots__ = ("name",)


class Constraint(Node):
    __slots__ = ("constraint",)


class Not(Node):
    __slots__ = ("child",)


class Or(Node):
    __slots__ = ("left", "right")


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


def nodes(root: Node):
    """Each distinct node of the formula once, in left-first preorder.

    A subterm shared by several parents, as the two halves of an expanded
    `<->` are, is yielded on its first visit only. The walk keeps its own
    stack, so a deep formula cannot overflow the recursion limit; marking
    a node when it is popped gives the order of the recursive walk.
    """
    visited = set()
    stack = [root]
    while stack:
        cur = stack.pop()
        if id(cur) in visited:
            continue
        visited.add(id(cur))
        yield cur
        if isinstance(cur, Not):
            stack.append(cur.child)
        elif isinstance(cur, Or):
            stack.append(cur.right)
            stack.append(cur.left)


def collect_constraints(node: Node) -> list:
    """Distinct constraints in first-occurrence (depth-first) order."""
    seen = {}
    for cur in nodes(node):
        if isinstance(cur, Constraint):
            seen.setdefault(cur.constraint.structural_key(), cur.constraint)
    return list(seen.values())
