"""
Why 1/(theta eta): the matching conditions as executable checks
===============================================================

A probability-matching prior makes credible intervals double as honest
confidence intervals. For this model the matching requirements reduce to
eleven differential identities in the prior over (beta, theta, eta):
five from distribution-function matching, three from HPD-region matching,
and three from likelihood-ratio-region matching. This demo evaluates all
of them on a grid, twice: from hand-coded derivatives of the prior, and
from finite differences of its density alone.
"""

from bvnprior import FLAT_PRIOR, MATCHING_PRIOR, GridSpec, verify_prior
from bvnprior.matching import PriorSpec, residual_report_table

grid = GridSpec(beta=(-2.0, 2.0, 9), theta=(0.5, 3.0, 9), eta=(0.5, 3.0, 9))

# the prior under test: pi proportional to 1/(theta eta)
print("matching prior, analytic derivatives:")
print(residual_report_table(verify_prior(MATCHING_PRIOR, grid)))

# same identities, but differentiating the prior density numerically;
# residuals grow from rounding level to the finite-difference error floor
fd_only = PriorSpec("matching (finite differences)", MATCHING_PRIOR.log_prior)
print("matching prior, finite differences of the density:")
print(residual_report_table(verify_prior(fd_only, grid)))

# a counterexample: the flat prior satisfies a few identities by accident
# but fails the rest, so flat-prior credible intervals over- or
# under-cover. Its HPD scale identity residual is the constant -2.
print("flat prior (counterexample):")
print(residual_report_table(verify_prior(FLAT_PRIOR, grid)))
