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


def test_log_beta_reference_values():
    for (a, b), ref in LOG_BETA_REF.items():
        assert log_beta(a, b) == pytest.approx(ref, rel=1e-14)
    out = log_beta(np.array([4.5, 0.5]), np.array([4.0, 0.5]))
    assert out == pytest.approx([LOG_BETA_REF[4.5, 4.0], LOG_BETA_REF[0.5, 0.5]], rel=1e-14)


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


def test_special_functions_accept_arrays():
    a = np.array([1.0, 2.0, 3.0])
    out = reg_inc_gamma(a, np.array([1.0, 2.0, 3.0]))
    assert out.shape == (3,)
    assert np.all((out > 0.0) & (out < 1.0))


# The argument and return contract of the ten special functions: each
# entry is (function, valid arguments, positions of shape parameters, the
# position of the bounded argument and values that lie outside its domain)
# 10**400 is a Python int too large for a float
SHAPE_BAD = (0.0, -1.0, -2.0, -2.5, math.nan, math.inf, -math.inf, 10**400)
PROB_BAD = (-0.1, 1.5, -1e-300, 1.0 + 2.0**-52, math.nan, math.inf, -math.inf, 10**400)
X_GAMMA_BAD = (-0.1, -1e-300, math.nan, -math.inf, 10**400)
CONTRACT = {
    "log_gamma": (log_gamma, (3.0,), (0,), None, ()),
    "log_beta": (log_beta, (2.5, 3.0), (0, 1), None, ()),
    "reg_inc_gamma": (reg_inc_gamma, (3.0, 1.5), (0,), 1, X_GAMMA_BAD),
    "reg_inc_gamma_c": (reg_inc_gamma_c, (3.0, 1.5), (0,), 1, X_GAMMA_BAD),
    "reg_inc_gamma_inv": (reg_inc_gamma_inv, (3.0, 0.3), (0,), 1, PROB_BAD),
    "reg_inc_gamma_c_inv": (reg_inc_gamma_c_inv, (3.0, 0.3), (0,), 1, PROB_BAD),
    "reg_inc_beta": (reg_inc_beta, (2.5, 3.0, 0.3), (0, 1), 2, PROB_BAD),
    "reg_inc_beta_inv": (reg_inc_beta_inv, (2.5, 3.0, 0.3), (0, 1), 2, PROB_BAD),
    "student_t_cdf": (student_t_cdf, (5.0, 1.3), (0,), 1, (math.nan, 10**400)),
    "student_t_quantile": (student_t_quantile, (5.0, 0.3), (0,), 1, PROB_BAD),
}


def _with(args, position, value):
    return args[:position] + (value,) + args[position + 1:]


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_special_function_argument_and_return_contract(name):
    fn, args, shapes, bounded, bad_values = CONTRACT[name]
    for position in shapes:
        for bad in SHAPE_BAD:
            with pytest.raises(DomainError):
                fn(*_with(args, position, bad))
            # the same check for every element of an array argument
            with pytest.raises(DomainError):
                fn(*_with(args, position, np.array([args[position], bad])))
    for bad in bad_values:
        with pytest.raises(DomainError):
            fn(*_with(args, bounded, bad))
        with pytest.raises(DomainError):
            fn(*_with(args, bounded, np.array([args[bounded], bad])))
    expected = fn(*args)
    assert type(expected) is float and math.isfinite(expected)
    # a Python int wherever the valid argument is integral, as the
    # posteriors pass the int n - 2
    integral = tuple(int(a) if float(a).is_integer() else a for a in args)
    assert int in map(type, integral)
    for case in (
        tuple(map(float, args)), tuple(map(np.float64, args)), tuple(map(np.array, args)), integral
    ):
        out = fn(*case)
        assert type(out) is float and out == expected, case
    # the scalar and the array rule give the same bits
    bits = np.full(3, expected).tobytes()
    for position in range(len(args)):
        out = fn(*_with(args, position, np.array([args[position]] * 3)))
        assert type(out) is np.ndarray and out.shape == (3,), position
        assert out.tobytes() == bits, position
        # size 1 is not 0-d
        out = fn(*_with(args, position, np.array([args[position]])))
        assert type(out) is np.ndarray and out.shape == (1,), position
    out = fn(*(np.array([a] * 3) for a in args))
    assert out.tobytes() == bits


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


@pytest.mark.parametrize("df", [1e5, 1e9, 1e12])
def test_student_t_quantile_at_large_df_matches_mpmath(df):
    # the slope bounds of a huge-n coverage cell: t^2 <= df, where
    # x = t^2/(df + t^2) taken as 1 - z loses up to 6.5e-6 relative at df = 1e12
    mpmath = pytest.importorskip("mpmath")
    for p in (1e-6, 0.025, 0.1, 0.4):
        t = student_t_quantile(df, p)
        with mpmath.workdps(50):
            nu, half = mpmath.mpf(df), mpmath.mpf(1) / 2

            def central(x):
                """I_x(1/2, nu/2) by its hypergeometric series, convergent here."""
                return (mpmath.sqrt(x) * (1 - x) ** (nu / 2) / (half * mpmath.beta(half, nu / 2))
                        * mpmath.hyp2f1((nu + 1) / 2, 1, 3 * half, x))

            x0 = mpmath.mpf(t) ** 2 / (nu + mpmath.mpf(t) ** 2)
            x = mpmath.findroot(
                lambda x: central(x) - (1 - 2 * mpmath.mpf(p)), (x0 / 2, 2 * x0), solver="illinois"
            )
            exact = -mpmath.sqrt(nu * x / (1 - x))
            assert abs(t - exact) <= 1e-15 * abs(exact), (p, t)


@pytest.mark.parametrize("df", [1, 2])
def test_student_t_far_tails_match_mpmath(df):
    # past |t| of about 1.3e154 t^2 overflows, and at df = 1 the far branch's
    # z = df/(df + t^2) leaves the normal range from |t| of about 6.7e153, where
    # the cdf read 0 and the quantile -inf; both take the tail in logs there
    mpmath = pytest.importorskip("mpmath")
    ts = -np.geomspace(1e100, 1e300, 47)
    ps = np.geomspace(1e-100, 1e-300, 47)
    cdf, quantile = student_t_cdf(df, ts), student_t_quantile(df, ps)
    assert [student_t_cdf(df, float(t)) for t in ts] == list(cdf)
    assert [student_t_quantile(df, float(p)) for p in ps] == list(quantile)
    tiny = np.finfo(float).tiny
    with mpmath.workdps(40):
        nu = mpmath.mpf(df)

        def lower(t):
            """P(T < t) for t < 0: I_z(nu/2, 1/2)/2 at z = nu/(nu + t^2)."""
            return mpmath.betainc(nu / 2, mpmath.mpf(1) / 2, 0, nu / (nu + t * t),
                                  regularized=True) / 2

        for t, got in zip(ts, cdf):
            exact = lower(mpmath.mpf(t))
            # relative, or below the normal range relative to the smallest normal float
            assert abs(got - exact) <= 1e-12 * max(exact, tiny), (t, got)
        for p, t in zip(ps, quantile):
            assert -math.inf < t < 0.0, (p, t)
            exact = mpmath.exp(mpmath.findroot(
                lambda s: mpmath.log(lower(-mpmath.exp(s))) - mpmath.log(mpmath.mpf(p)),
                mpmath.log(-t),
            ))
            assert abs(-t - exact) <= 1e-12 * exact, (p, t)


def _mp_beta_inv(mpmath, a, b, p, guess):
    """x with I_x(a, b) = p, solved in log x at 50 digits from a guess."""
    with mpmath.workdps(50):
        big_a, big_b = mpmath.mpf(a), mpmath.mpf(b)
        return mpmath.exp(mpmath.findroot(
            lambda s: mpmath.log(mpmath.betainc(big_a, big_b, 0, mpmath.exp(s),
                                                regularized=True))
            - mpmath.log(mpmath.mpf(p)),
            math.log(guess),
        ))


@pytest.mark.parametrize("n", [7, 8, 9, 10, 11])
def test_reg_inc_beta_inv_below_scipy_range_matches_mpmath(n):
    # scipy's betaincinv returns NaN at these eta shapes for tiny p
    mpmath = pytest.importorskip("mpmath")
    for a, b in (((n - 1) / 2, (n - 2) / 2), ((n - 2) / 2, (n - 1) / 2)):
        for p in (1e-130, 1e-200, 1e-300, 5e-324):
            x = reg_inc_beta_inv(a, b, p)
            assert 0.0 < x < 1.0, (a, b, p, x)
            exact = _mp_beta_inv(mpmath, a, b, p, x)
            assert abs(x - exact) <= 1e-13 * exact, (a, b, p, x)


@pytest.mark.parametrize("n", [7, 12, 16, 20, 30, 50])
def test_reg_inc_beta_inv_at_subnormal_p_matches_mpmath(n):
    # below the smallest normal float scipy's betaincinv can return finite
    # but wrong values: 1.07e-33 for 3.11e-35 at (9.5, 9), p = 5e-324
    mpmath = pytest.importorskip("mpmath")
    for a, b in (((n - 1) / 2, (n - 2) / 2), ((n - 2) / 2, (n - 1) / 2)):
        for p in (1e-310, 1e-320, 5e-324):
            x = reg_inc_beta_inv(a, b, p)
            assert 0.0 < x < 1.0, (a, b, p, x)
            exact = _mp_beta_inv(mpmath, a, b, p, x)
            assert abs(x - exact) <= 1e-9 * exact, (a, b, p, x)


def test_find_root_validates_bracket_ends():
    with pytest.raises(DomainError, match="lo < hi"):
        find_root(lambda x: x - 1.5, 2.0, 1.0)
    with pytest.raises(DomainError, match="finite"):
        find_root(lambda x: x - 1.5, 1.0, math.nan)


def test_find_root_simple_polynomial():
    root = find_root(lambda x: x * x - 2.0, 0.0, 2.0)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_find_root_accepts_root_at_endpoint():
    assert find_root(lambda x: x - 1.0, 1.0, 3.0) == 1.0


def test_find_root_rejects_unbracketed_sign():
    with pytest.raises(BracketError):
        find_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_find_root_rejects_nonfinite_endpoint_value():
    with pytest.raises(BracketError):
        find_root(lambda x: math.inf if x == 0.0 else 1.0 / x, 0.0, 1.0)


def test_find_root_wraps_a_failed_iteration():
    # a step function across 2e300 needs about 1,000 bisections, past maxiter 200
    with pytest.raises(NumericalError, match="root iteration failed"):
        find_root(lambda x: 1.0 if x > 0.3 else -1.0, -1e300, 1e300)


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
