"""
Monte Carlo audit of the closed-form log-density moments
========================================================

The derivation of the matching conditions rests on a table of exact
expectations of log-density derivatives, such as

    E[(d log f / d theta)^3]            =  2 / theta^3
    E[d^3 log f / d theta^3]            =  4 / theta^3
    E[d^3 log f / d beta^2 d theta]     =  1 / (theta eta^2)

This demo re-derives each number by brute force: draw a million
observations, differentiate the log density at every one of them, and
average. The derivatives are exact closed forms, so every estimate must
land within four Monte Carlo standard errors of the claim, and a
derivative that vanishes identically (d^3 log f / d beta^3) averages to
exactly zero.
"""

from bvnprior import OrthogonalParams, verify_score_moments
from bvnprior.matching import moment_report_table

# an asymmetric point, so no two nonzero claims coincide
point = OrthogonalParams(mu1=0.0, mu2=0.0, beta=0.8, theta=1.6, eta=0.9)

print(f"checking at beta={point.beta}, theta={point.theta}, eta={point.eta}")
checks = verify_score_moments(point, n_samples=1_000_000, seed=31)
print(moment_report_table(checks))

failed = [c for c in checks if not c.passed]
print(f"{len(checks) - len(failed)} of {len(checks)} moment identities confirmed")
if failed:
    raise SystemExit("unexpected moment failure")
