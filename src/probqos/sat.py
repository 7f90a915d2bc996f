"""Propositional satisfiability: Tseitin CNF transformation plus DPLL.

Each probability-bound constraint is first replaced by its known truth
value and the constants are folded away. The DPLL core does unit
propagation and pure-literal elimination over integer-literal clauses;
Tseitin keeps the CNF linear in formula size while preserving models over
the original variables.
"""

from __future__ import annotations

from .reqast import Bottom, Constraint, Node, Not, Or, PropVar, RequirementError, Top


def _fold_constants(node: Node, constraint_truth) -> Node:
    """Substitute each constraint's truth, then eliminate Top/Bottom by
    Boolean identities."""
    if isinstance(node, (Top, Bottom, PropVar)):
        return node
    if isinstance(node, Constraint):
        key = node.constraint.structural_key()
        if constraint_truth is None or key not in constraint_truth:
            raise RequirementError("no truth value given for a constraint")
        return Top() if constraint_truth[key] else Bottom()
    if isinstance(node, Not):
        child = _fold_constants(node.child, constraint_truth)
        if isinstance(child, Top):
            return Bottom()
        if isinstance(child, Bottom):
            return Top()
        return Not(child)
    if isinstance(node, Or):
        left = _fold_constants(node.left, constraint_truth)
        right = _fold_constants(node.right, constraint_truth)
        if isinstance(left, Top) or isinstance(right, Top):
            return Top()
        if isinstance(left, Bottom):
            return right
        if isinstance(right, Bottom):
            return left
        return Or(left, right)
    raise TypeError(f"unexpected node {node!r}")


def collect_prop_vars(node: Node) -> set:
    out: set = set()
    stack = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, PropVar):
            out.add(cur.name)
        elif isinstance(cur, Not):
            stack.append(cur.child)
        elif isinstance(cur, Or):
            stack.append(cur.left)
            stack.append(cur.right)
    return out


def tseitin_cnf(node: Node):
    """CNF equisatisfiable with the formula; models agree on original vars.

    Returns (clauses, var_ids) where clauses use signed integer literals and
    var_ids maps PropVar names to positive integers. Assumes constants have
    been folded away.
    """
    var_ids: dict = {}
    for name in sorted(collect_prop_vars(node)):
        var_ids[name] = len(var_ids) + 1
    clauses: list = []
    counter = [len(var_ids)]

    def encode(cur: Node) -> int:
        if isinstance(cur, PropVar):
            return var_ids[cur.name]
        if isinstance(cur, Not):
            return -encode(cur.child)
        if isinstance(cur, Or):
            la = encode(cur.left)
            lb = encode(cur.right)
            counter[0] += 1
            o = counter[0]
            clauses.append([-o, la, lb])
            clauses.append([o, -la])
            clauses.append([o, -lb])
            return o
        raise TypeError(f"unexpected node {cur!r}")

    root = encode(node)
    clauses.append([root])
    return clauses, var_ids


def _dpll(clauses: list, assignment: dict):
    """Recursive DPLL with unit propagation and pure-literal elimination."""
    while True:
        simplified = []
        unit = 0
        for clause in clauses:
            reduced = []
            satisfied = False
            for lit in clause:
                val = assignment.get(abs(lit))
                if val is None:
                    reduced.append(lit)
                elif (lit > 0) == val:
                    satisfied = True
                    break
            if satisfied:
                continue
            if not reduced:
                return None  # conflict
            if len(reduced) == 1 and unit == 0:
                unit = reduced[0]
            simplified.append(reduced)
        if not simplified:
            return assignment
        if unit:
            assignment = dict(assignment)
            assignment[abs(unit)] = unit > 0
            clauses = simplified
            continue
        polarity: dict = {}
        for clause in simplified:
            for lit in clause:
                v = abs(lit)
                p = 1 if lit > 0 else -1
                if v not in polarity:
                    polarity[v] = p
                elif polarity[v] != p:
                    polarity[v] = 0
        pure = [v for v, p in polarity.items() if p != 0]
        if pure:
            assignment = dict(assignment)
            for v in pure:
                assignment[v] = polarity[v] > 0
            clauses = simplified
            continue
        clauses = simplified
        break
    var = min(abs(lit) for clause in clauses for lit in clause)
    for value in (True, False):
        trial = dict(assignment)
        trial[var] = value
        result = _dpll(clauses, trial)
        if result is not None:
            return result
    return None


def dpll_sat(formula: Node, constraint_truth=None):
    """Complete satisfiability check for a requirement AST.

    constraint_truth maps a QoSConstraint's structural key to its truth
    value, as in `reqast.evaluate`; a constraint missing from it raises
    RequirementError. Returns (satisfiable, model): the model covers every
    propositional variable of the formula, defaulting unconstrained
    variables to True; model is None when unsatisfiable.
    """
    names = sorted(collect_prop_vars(formula))
    folded = _fold_constants(formula, constraint_truth)
    if isinstance(folded, Top):
        return True, {name: True for name in names}
    if isinstance(folded, Bottom):
        return False, None
    clauses, var_ids = tseitin_cnf(folded)
    result = _dpll(clauses, {})
    if result is None:
        return False, None
    model = {name: result.get(vid, True) for name, vid in var_ids.items()}
    for name in names:
        model.setdefault(name, True)
    return True, model
