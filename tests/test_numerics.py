"""Special functions, root finding, and quadrature.

Reference values were computed with mpmath at 40 significant digits via
direct integral definitions (density quadrature plus bisection for the
Student t quantiles), so they are independent of the implementations
under test.
"""

import math

import numpy as np
import pytest

from bvnprior.errors import BracketError, DomainError, NumericalError
from bvnprior.numerics import (
    Bracket,
    find_root,
    integrate,
    log_beta,
    log_gamma,
    reg_inc_beta,
    reg_inc_beta_inv,
    reg_inc_gamma,
    reg_inc_gamma_c,
    reg_inc_gamma_c_inv,
    reg_inc_gamma_inv,
    student_t_cdf,
    student_t_quantile,
)

# mpmath reference values, 20 significant digits
LOG_GAMMA_REF = {
    0.5: 0.57236494292470008707,
    3.7: 1.4280723266653879219,
    12.0: 17.502307845873885839,
    120.5: 455.41760044623451043,
}
LOG_BETA_REF = {
    (4.5, 4.0): -5.3037712172305004904,
    (0.5, 0.5): 1.1447298858494001741,
    (310.5, 309.0): -431.0048265256481912,
    (1500.0, 1499.5): -2081.4858577846058485,
}
REG_INC_GAMMA_REF = {
    (3.0, 3.0): 0.57680991887315648468,
    (0.5, 0.25): 0.52049987781304653768,
    (8.0, 6.5): 0.32724221986943273384,
}
REG_INC_BETA_REF = {
    (4.5, 4.0, 0.3): 0.086115429205332880456,
    (2.0, 7.0, 0.85): 0.9999881252734375,
}
T_QUANTILE_REF = {
    (2, 0.975): 4.3026527297494638523,
    (8, 0.975): 2.3060041352041666833,
    (8, 0.95): 1.85954803753089839,
    (3, 0.9): 1.6377443536962101055,
    (18, 0.975): 2.1009220402410384881,
}
T_CDF_REF = {
    (5, 1.3): 0.87484968291466138099,
    (5, -2.1): 0.044876624942299383525,
    (12, 0.4): 0.65190734730366639459,
}


def test_log_gamma_reference_values():
    for x, ref in LOG_GAMMA_REF.items():
        assert log_gamma(x) == pytest.approx(ref, rel=1e-14)


def test_log_gamma_rejects_nonpositive():
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-2.5)


def test_log_beta_reference_values_and_domain():
    for (a, b), ref in LOG_BETA_REF.items():
        assert log_beta(a, b) == pytest.approx(ref, rel=1e-14)
    out = log_beta(np.array([4.5, 0.5]), np.array([4.0, 0.5]))
    assert out == pytest.approx([LOG_BETA_REF[4.5, 4.0], LOG_BETA_REF[0.5, 0.5]], rel=1e-14)
    for a, b in ((0.0, 1.0), (1.0, -2.0), (math.inf, 1.0), (1.0, math.nan)):
        with pytest.raises(DomainError):
            log_beta(a, b)


def test_reg_inc_gamma_reference_values():
    for (a, x), ref in REG_INC_GAMMA_REF.items():
        assert reg_inc_gamma(a, x) == pytest.approx(ref, rel=1e-13)
        assert reg_inc_gamma_c(a, x) == pytest.approx(1.0 - ref, rel=1e-12)


def test_reg_inc_gamma_inverses_round_trip():
    for a in (0.5, 3.0, 8.0):
        for p in (1e-6, 0.01, 0.4, 0.97):
            x = reg_inc_gamma_inv(a, p)
            assert reg_inc_gamma(a, x) == pytest.approx(p, rel=1e-11)
            xc = reg_inc_gamma_c_inv(a, p)
            assert reg_inc_gamma_c(a, xc) == pytest.approx(p, rel=1e-11)


def test_reg_inc_beta_reference_values():
    for (a, b, x), ref in REG_INC_BETA_REF.items():
        assert reg_inc_beta(a, b, x) == pytest.approx(ref, rel=1e-13)


def test_reg_inc_beta_inverse_round_trip():
    for a, b in ((4.5, 4.0), (2.0, 7.0), (0.5, 0.5)):
        for p in (0.001, 0.25, 0.5, 0.999):
            x = reg_inc_beta_inv(a, b, p)
            assert reg_inc_beta(a, b, x) == pytest.approx(p, rel=1e-10)


def test_reg_inc_beta_rejects_out_of_range_x():
    with pytest.raises(DomainError):
        reg_inc_beta(2.0, 3.0, 1.5)
    with pytest.raises(DomainError):
        reg_inc_beta(2.0, 3.0, -0.1)


def test_special_functions_accept_arrays():
    a = np.array([1.0, 2.0, 3.0])
    out = reg_inc_gamma(a, np.array([1.0, 2.0, 3.0]))
    assert out.shape == (3,)
    assert np.all((out > 0.0) & (out < 1.0))


def test_student_t_quantile_reference_values():
    for (df, p), ref in T_QUANTILE_REF.items():
        assert student_t_quantile(df, p) == pytest.approx(ref, rel=1e-13)
        # symmetry about the median
        assert student_t_quantile(df, 1.0 - p) == pytest.approx(-ref, rel=1e-13)
    assert student_t_quantile(7, 0.5) == 0.0


def test_student_t_cdf_reference_values():
    for (df, x), ref in T_CDF_REF.items():
        assert student_t_cdf(df, x) == pytest.approx(ref, rel=1e-13)
    assert student_t_cdf(4, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert student_t_cdf(4, math.inf) == 1.0
    assert student_t_cdf(4, -math.inf) == 0.0


def test_student_t_cdf_quantile_round_trip():
    for df in (2, 8, 18):
        for p in (0.001, 0.3, 0.5, 0.9, 0.9999):
            assert student_t_cdf(df, student_t_quantile(df, p)) == pytest.approx(
                p, abs=1e-13
            )


@pytest.mark.parametrize("df", [1, 2, 8])
def test_student_t_near_the_median_matches_mpmath(df):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        nu = mpmath.mpf(df)

        def central(x):
            """P(|T| < |x|) = I_{x^2/(nu + x^2)}(1/2, nu/2)."""
            return mpmath.betainc(mpmath.mpf(1) / 2, nu / 2, 0, x * x / (nu + x * x),
                                  regularized=True)

        for d in (1e-2, 1e-6, 1e-8, 1e-10, 1e-14):
            for p in (0.5 + d, 0.5 - d):
                t = student_t_quantile(df, p)
                target = abs(2 * mpmath.mpf(p) - 1)
                # solved for log|t|, on which log central(t) is close to linear
                exact = mpmath.exp(mpmath.findroot(
                    lambda s: mpmath.log(central(mpmath.exp(s))) - mpmath.log(target),
                    mpmath.log(abs(t)),
                ))
                assert math.copysign(1.0, t) == math.copysign(1.0, p - 0.5)
                assert abs(abs(t) - exact) <= 1e-12 * exact, (p, t)
                # the cdf keeps every bit that F - 1/2 has near the centre
                exact_cdf = mpmath.mpf(1) / 2 + mpmath.sign(t) * central(mpmath.mpf(t)) / 2
                assert abs(student_t_cdf(df, t) - exact_cdf) <= 1.2e-16, (p, t)


def test_bracket_validates_ordering():
    with pytest.raises(DomainError):
        Bracket(2.0, 1.0)
    with pytest.raises(DomainError):
        Bracket(1.0, math.nan)
    b = Bracket(0.0, 2.0)
    assert (b.lo, b.hi) == (0.0, 2.0)


def test_find_root_simple_polynomial():
    root = find_root(lambda x: x * x - 2.0, Bracket(0.0, 2.0))
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_find_root_accepts_root_at_endpoint():
    assert find_root(lambda x: x - 1.0, Bracket(1.0, 3.0)) == 1.0


def test_find_root_rejects_unbracketed_sign():
    with pytest.raises(BracketError):
        find_root(lambda x: x * x + 1.0, Bracket(-1.0, 1.0))


def test_find_root_rejects_nonfinite_endpoint_value():
    with pytest.raises(BracketError):
        find_root(lambda x: math.inf if x == 0.0 else 1.0 / x, Bracket(0.0, 1.0))


def test_integrate_finite_interval():
    res = integrate(lambda x: x * x, 0.0, 3.0)
    assert res.value == pytest.approx(9.0, rel=1e-12)
    assert res.abs_error_estimate < 1e-8
    assert res.evaluations > 0


def test_integrate_semi_infinite_gaussian():
    res = integrate(lambda x: math.exp(-x * x / 2.0), 0.0, math.inf)
    assert res.value == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-10)


def test_integrate_semi_infinite_shifted():
    # integral of exp(-(x-5)) over [5, inf) is 1
    res = integrate(lambda x: math.exp(-(x - 5.0)), 5.0, math.inf)
    assert res.value == pytest.approx(1.0, rel=1e-10)


def test_integrate_reports_failure_with_best_estimate():
    # cos(x) over [0, inf) is not absolutely integrable
    with pytest.raises(NumericalError) as excinfo:
        integrate(lambda x: math.cos(x), 0.0, math.inf)
    assert excinfo.value.best_estimate is not None
