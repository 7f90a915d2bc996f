"""QoS profiles and region probabilities.

A profile is a joint density over the service's attribute vector — here
throughput (TP) and response time (RT). The probability that an execution
falls in a region R is the integral of the density over R, estimated by
Monte Carlo as volume(R) times the mean density at uniform points of R.
"""

import numpy as np

from probqos import (
    Box,
    convergence_scan,
    integrate_uniform,
    parse_region,
    rectangle_probability,
)
from probqos.reference import SCHEMA, correlated_profile, independent_profile

profile = independent_profile()  # Gaussian(50, 300) TP x Gamma(3, 0.01) RT
print("density at (TP=50, RT=200):", profile.density_at([50.0, 200.0]))

region = parse_region("60 <= TP && TP <= 100 && 0 <= RT && RT <= 300", SCHEMA)

# For an independent product over a rectangle the probability has a closed
# form (product of marginal CDF differences) — an oracle for the estimator.
oracle = rectangle_probability(profile, Box(np.array([60.0, 0.0]), np.array([100.0, 300.0])))
print("closed-form P(X in R):", oracle)

est = integrate_uniform(profile, region, k=200_000, rng=0)
print(f"monte carlo        : {est.value:.6f} +/- {est.std_error:.6f}")

replicate = integrate_uniform(profile, region, k=200_000, rng=1)
print(f"another seed       : {replicate.value:.6f} +/- {replicate.std_error:.6f}")

# The error shrinks like 1/sqrt(k) regardless of dimension.
scan = convergence_scan(profile, region, ks=[10**2, 10**3, 10**4, 10**5],
                        seeds=range(10), truth=oracle)
for k, err in scan.rows:
    print(f"  k={k:>7d}  mean |error| = {err:.2e}")
print(f"log-log slope: {scan.slope:+.3f} (expect about -0.5)")

# The correlated profile couples RT against TP: faster services respond sooner.
corr = correlated_profile()
pts = corr.sample(20_000, rng=0)
print("correlated profile sample correlation:", np.corrcoef(pts.T)[0, 1])
