"""Property-based round trips: cdf(quantile(p)) and 1 - cdf(isf(q)) for every
standard family (and for the t at df 1e9), and the original <-> orthogonal
parameter maps."""

import math
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

from bvnprior.model import OriginalParams, to_original, to_orthogonal
from bvnprior.posterior import GAMMA, INVERSE_GAMMA, SQRT_BETA_PRIME, STUDENT_T

FAMILIES = {"t": STUDENT_T, "inverse_gamma": INVERSE_GAMMA, "gamma": GAMMA, "eta": SQRT_BETA_PRIME}


def _log_uniform(lo, hi):
    return hs.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0 ** x)


# uniform on a 2^-53 grid, within 1e-12..1e-2 of the median, and within
# 1e-12..1e-1 of each end
PROBABILITIES = hs.one_of(
    hs.integers(1, 2 ** 53 - 1).map(lambda k: k / 2.0 ** 53),
    hs.tuples(_log_uniform(1e-12, 1e-2), hs.sampled_from((-1.0, 1.0))).map(
        lambda d: 0.5 + d[1] * d[0]
    ),
    hs.tuples(_log_uniform(1e-12, 1e-1), hs.booleans()).map(
        lambda d: 1.0 - d[0] if d[1] else d[0]
    ),
)


SIZES = hs.sampled_from((3, 4, 5, 10, 50, 1000, 100_000))


@pytest.mark.parametrize("name", sorted(FAMILIES))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n=SIZES, p=PROBABILITIES)
def test_cdf_inverts_quantile(name, n, p):
    family = FAMILIES[name]
    assert abs(float(family.cdf(n, family.quantile(n, p))) - p) <= 1e-11


@pytest.mark.parametrize("name", sorted(FAMILIES))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n=SIZES, q=PROBABILITIES)
def test_cdf_inverts_isf(name, n, q):
    # isf(n, q) is the upper-tail quantile, the hi end of every tail split
    family = FAMILIES[name]
    assert abs(1.0 - float(family.cdf(n, family.isf(n, q))) - q) <= 1e-11


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(p=PROBABILITIES)
def test_t_cdf_inverts_quantile_at_df_1e9(p):
    # the slope family of a coverage cell at n = 1e9 + 2
    n = 1_000_000_002
    assert abs(float(STUDENT_T.cdf(n, STUDENT_T.quantile(n, p))) - p) <= 1e-11


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    log_sigma1=hs.floats(-200.0, 200.0),
    log_sigma2=hs.floats(-200.0, 200.0),
    rho=hs.floats(-0.999999, 0.999999, allow_subnormal=False),
)
def test_orthogonal_parameters_round_trip(log_sigma1, log_sigma2, rho):
    # theta = sigma1 sigma2 sqrt(1 - rho^2) and eta = sigma2 sqrt(1 - rho^2) / sigma1
    # must be normal floats to carry the precision, and so must a non-zero beta
    assume(abs(log_sigma1 + log_sigma2) < 300.0 and abs(log_sigma2 - log_sigma1) < 300.0)
    original = OriginalParams(1.5, -2.0, 10.0 ** log_sigma1, 10.0 ** log_sigma2, rho)
    orthogonal = to_orthogonal(original)
    assume(rho == 0.0 or abs(orthogonal.beta) >= sys.float_info.min)
    back = to_original(orthogonal)
    assert (back.mu1, back.mu2) == (original.mu1, original.mu2)
    assert math.isclose(back.sigma1, original.sigma1, rel_tol=1e-14)
    assert math.isclose(back.sigma2, original.sigma2, rel_tol=1e-14)
    assert math.isclose(back.rho, original.rho, rel_tol=1e-14)
