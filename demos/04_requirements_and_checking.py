"""Requirements: probability bounds over regions, combined with Boolean logic.

A requirement like

    P[region] in [0.6, _] && P[other] in [_, 0.3]

demands the profile put at least 60% of its mass in one region and at most
30% in another. Checking estimates each constraint's probability once,
substitutes the resulting truth values into the formula, and hands what
remains to a SAT solver; free propositional variables get a witness
valuation.
"""

from probqos import parse_requirement, qos_check
from probqos.reference import (
    REQ_CONJUNCTION_TEXT,
    REQ_TWO_SCENARIO_TEXT,
    SCHEMA,
    bad_profile,
    correlated_profile,
    shifted_profile,
)

req = parse_requirement(REQ_CONJUNCTION_TEXT, SCHEMA)

# The correlated service is mostly mediocre: the "good" constraint fails.
report = qos_check(correlated_profile(), req, k=100_000, rng=0)
print("correlated service vs conjunction:", report.verdict)
for row in report.constraint_table:
    print(f"  {row.variable}: estimate {row.estimate:.4f} +/- {row.std_error:.4f} "
          f"in [{row.p_min}, {row.p_max}] -> {row.truth}")

# The strong service passes both conjuncts.
print("\nstrong service vs conjunction:",
      qos_check(shifted_profile(), req, k=100_000, rng=0).verdict)

# Two-scenario requirement: p1/p2 record which scenario held. A degraded
# service satisfies only the "bad" scenario, so the witness sets p1 false.
two = parse_requirement(REQ_TWO_SCENARIO_TEXT, SCHEMA)
report = qos_check(bad_profile(), two, k=100_000, rng=0)
print("\ndegraded service vs two-scenario requirement:", report.verdict)
print("witness valuation:", report.witness)
