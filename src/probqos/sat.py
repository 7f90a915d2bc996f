"""Propositional satisfiability: DPLL on the requirement formula itself.

Each probability-bound constraint is replaced by its known truth value, and
Boolean identities fold the constants away. DPLL then searches the folded
formula directly: it assigns the literals the formula forces (the unit
rule), folds them in, and splits on the first remaining variable by name,
each assignment again folded in as a constant.
"""

from __future__ import annotations

from .reqast import Bottom, Constraint, Node, Not, Or, PropVar, RequirementError, Top


def _fold_constants(node: Node, constraint_truth, valuation=None) -> Node:
    """Substitute each constraint's truth and each variable assigned in
    `valuation`, then eliminate Top/Bottom by Boolean identities. A subtree
    that folds to itself is returned as is, so that DPLL's repeated folds
    rebuild only the paths that change, and a subterm shared by several
    parents (as the two halves of an expanded `<->` are) is folded once per
    call and stays shared in the result."""
    memo = {}

    def fold(cur: Node) -> Node:
        key = id(cur)
        if key not in memo:
            memo[key] = fold_once(cur)
        return memo[key]

    def fold_once(cur: Node) -> Node:
        if isinstance(cur, PropVar):
            if valuation is None or cur.name not in valuation:
                return cur
            return Top() if valuation[cur.name] else Bottom()
        if isinstance(cur, (Top, Bottom)):
            return cur
        if isinstance(cur, Constraint):
            key = cur.constraint.structural_key()
            if constraint_truth is None or key not in constraint_truth:
                raise RequirementError("no truth value given for a constraint")
            return Top() if constraint_truth[key] else Bottom()
        if isinstance(cur, Not):
            child = fold(cur.child)
            if isinstance(child, Top):
                return Bottom()
            if isinstance(child, Bottom):
                return Top()
            return cur if child is cur.child else Not(child)
        if isinstance(cur, Or):
            left = fold(cur.left)
            right = fold(cur.right)
            if isinstance(left, Top) or isinstance(right, Top):
                return Top()
            if isinstance(left, Bottom):
                return right
            if isinstance(right, Bottom):
                return left
            if left is cur.left and right is cur.right:
                return cur
            return Or(left, right)
        raise TypeError(f"unexpected node {cur!r}")

    return fold(node)


def collect_prop_vars(node: Node) -> set:
    out: set = set()
    visited = set()
    stack = [node]
    while stack:
        cur = stack.pop()
        if id(cur) in visited:
            continue
        visited.add(id(cur))
        if isinstance(cur, PropVar):
            out.add(cur.name)
        elif isinstance(cur, Not):
            stack.append(cur.child)
        elif isinstance(cur, Or):
            stack.append(cur.left)
            stack.append(cur.right)
    return out


def _forced(node: Node, value: bool = True, visited=None):
    """(name, value) literals that every valuation giving `node` the truth
    `value` assigns: the variable itself, or the disjuncts of a false Or.
    A shared subterm is visited once per truth value it is asked for."""
    if visited is None:
        visited = set()
    if (id(node), value) in visited:
        return
    visited.add((id(node), value))
    if isinstance(node, PropVar):
        yield node.name, value
    elif isinstance(node, Not):
        yield from _forced(node.child, not value, visited)
    elif isinstance(node, Or) and not value:
        yield from _forced(node.left, False, visited)
        yield from _forced(node.right, False, visited)


def _dpll(node: Node, valuation: dict):
    """A valuation extending `valuation` that makes the folded formula true,
    or None. A variable forced both ways folds the formula to Bottom."""
    while not isinstance(node, (Top, Bottom)):
        units = dict(_forced(node))
        if not units:
            name = min(collect_prop_vars(node))
            for value in (True, False):
                found = _dpll(_fold_constants(node, None, {name: value}),
                              {**valuation, name: value})
                if found is not None:
                    return found
            return None
        valuation = {**valuation, **units}
        node = _fold_constants(node, None, units)
    return valuation if isinstance(node, Top) else None


def dpll_sat(formula: Node, constraint_truth=None):
    """Complete satisfiability check for a requirement AST.

    constraint_truth maps a QoSConstraint's structural key to its truth
    value, as in `reqast.evaluate`; a constraint missing from it raises
    RequirementError. The constraint truths are folded in, and DPLL with the
    unit rule runs on the remaining formula over its propositional
    variables. Returns (satisfiable, model): the model covers every
    propositional variable of the formula, defaulting unconstrained
    variables to True; model is None when unsatisfiable.
    """
    names = sorted(collect_prop_vars(formula))
    valuation = _dpll(_fold_constants(formula, constraint_truth), {})
    if valuation is None:
        return False, None
    return True, {name: valuation.get(name, True) for name in names}
