"""Special functions and root finding used by every other module.

Thin, validated wrappers around scipy primitives plus the Student-t
CDF/quantile pair built from the regularized incomplete beta function.
Keeping them behind one surface pins down domains and error types, and
gives the rest of the package a single place to swap implementations.
Every posterior quantity is a closed form in these functions; the
adaptive quadrature `integrate` is not called by the package.
find_root(f, lo, hi) is Brent's method on two plain floats, to an
absolute tolerance of 1e-12. Importing this module loads no scipy:
scipy.special is imported at the first special-function call (through
_sp), and the solvers behind find_root and integrate at their first call,
so `import bvnprior` loads numpy only.

The ten special functions share one argument rule and one return rule.
Every shape parameter (a, b, df) must be finite and > 0; a probability p,
and the x of reg_inc_beta, must lie in [0, 1]; the x of the incomplete
gamma functions must be >= 0 (inf allowed); the t of student_t_cdf may be
+-inf. NaN fails everywhere, and so does an int too large for a float
(10**400 is not taken as inf); every failure is a DomainError. A Python
float or int (or a numpy float) is checked as one Python float, with plain
comparisons; anything else becomes a float array, checked by one
vectorized comparison. Either way the arithmetic is the same, so a value
gives the same bits as a scalar and as an array element. Arguments
broadcast as numpy arrays, and the result is a float exactly when every
argument is 0-d (a Python or numpy scalar, or a 0-d array), an array
otherwise. The posteriors and model densities follow the same return rule.

Two scalar rules serve the whole package: a level lies in (0, 1) with
1 - level not rounding to 1 (_check_level); a count or seed is an int or
numpy integer, not a bool, in a stated range (_check_count).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BracketError, DomainError, NumericalError

__all__ = [
    "QuadratureResult",
    "log_gamma",
    "log_beta",
    "reg_inc_gamma",
    "reg_inc_gamma_c",
    "reg_inc_gamma_inv",
    "reg_inc_gamma_c_inv",
    "reg_inc_beta",
    "reg_inc_beta_inv",
    "student_t_cdf",
    "student_t_quantile",
    "find_root",
    "integrate",
]


@dataclass(frozen=True)
class QuadratureResult:
    """Value, error estimate, and cost of a numerical integral."""

    value: float
    abs_error_estimate: float
    evaluations: int


# the smallest normal float, as a Python float: a Python float compares with
# another several times faster than with a numpy scalar
_TINY = float(np.finfo(float).tiny)


def _float(fn, x):
    """An argument of fn as a float if it is a Python (or numpy) float or an
    int, else as a float array; an int too large for a float raises
    DomainError, not OverflowError."""
    try:
        return float(x) if isinstance(x, (float, int)) else np.asarray(x, dtype=float)
    except OverflowError:
        raise DomainError(f"{fn} requires arguments within the float range") from None


def _all(mask):
    """Whether a comparison of floats or float arrays holds for every element."""
    return mask.all() if isinstance(mask, np.ndarray) else bool(mask)


def _any(mask):
    """Whether a comparison of floats or float arrays holds for some element."""
    return mask.any() if isinstance(mask, np.ndarray) else bool(mask)


def _require(fn, *shapes):
    """The shape parameters of fn as floats or float arrays; each must be finite and > 0."""
    shapes = [_float(fn, s) for s in shapes]
    for s in shapes:
        if not _all((s > 0.0) & (s < math.inf)):
            raise DomainError(f"{fn} requires finite shape parameters > 0")
    return shapes


def _check_prob(fn, x, name="p"):
    """The argument name of fn as a float or float array; it must lie in [0, 1], and NaN fails."""
    x = _float(fn, x)
    if not _all((x >= 0.0) & (x <= 1.0)):
        raise DomainError(f"{name} must lie in [0, 1]")
    return x


def _check_x(fn, x):
    """The x of the incomplete gamma functions; it must be >= 0 (inf allowed)."""
    x = _float(fn, x)
    if not _all(x >= 0.0):
        raise DomainError(f"{fn} requires x >= 0")
    return x


def _check_level(level):
    """A credibility level must lie in (0, 1) with 1 - level not rounding to 1."""
    if not 0.0 < level < 1.0:
        raise DomainError("level must lie strictly between 0 and 1")
    if 1.0 - level == 1.0:
        raise DomainError(f"level {level!r} is too small: 1 - level rounds to 1")


def _check_count(value, name, minimum, below=math.inf):
    """value as a Python int; an int or numpy integer, not a bool, in [minimum, below)."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integer and minimum <= int(value) < below):
        bound = "" if below == math.inf else f" and < {below}"
        raise DomainError(f"{name} must be an integer >= {minimum}{bound}")
    return int(value)


@functools.cache
def _sp():
    """scipy.special, imported at the first special-function call."""
    from scipy import special
    return special


def _result(out, *args):
    """float when every argument is 0-d, the array otherwise."""
    for a in args:
        if type(a) is not float and np.ndim(a) != 0:
            return out
    return float(out)


def log_gamma(a):
    """Natural log of the gamma function, a > 0."""
    (a,) = _require("log_gamma", a)
    return _result(_sp().gammaln(a), a)


def log_beta(a, b):
    """Natural log of the beta function B(a, b), a, b > 0."""
    a, b = _require("log_beta", a, b)
    return _result(_sp().betaln(a, b), a, b)


def reg_inc_gamma(a, x):
    """Regularized lower incomplete gamma P(a, x), a > 0, x >= 0."""
    (a,) = _require("reg_inc_gamma", a)
    x = _check_x("reg_inc_gamma", x)
    return _result(_sp().gammainc(a, x), a, x)


def reg_inc_gamma_c(a, x):
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x)."""
    (a,) = _require("reg_inc_gamma_c", a)
    x = _check_x("reg_inc_gamma_c", x)
    return _result(_sp().gammaincc(a, x), a, x)


def reg_inc_gamma_inv(a, p):
    """Inverse of P(a, .): returns x with P(a, x) = p."""
    (a,) = _require("reg_inc_gamma_inv", a)
    p = _check_prob("reg_inc_gamma_inv", p)
    return _result(_sp().gammaincinv(a, p), a, p)


def reg_inc_gamma_c_inv(a, p):
    """Inverse of Q(a, .): returns x with Q(a, x) = p."""
    (a,) = _require("reg_inc_gamma_c_inv", a)
    p = _check_prob("reg_inc_gamma_c_inv", p)
    return _result(_sp().gammainccinv(a, p), a, p)


def reg_inc_beta(a, b, x):
    """Regularized incomplete beta I_x(a, b), a, b > 0, x in [0, 1]."""
    a, b = _require("reg_inc_beta", a, b)
    x = _check_prob("reg_inc_beta", x, "x")
    return _result(_sp().betainc(a, b, x), a, b, x)


def reg_inc_beta_inv(a, b, p):
    """Inverse of I_.(a, b): returns x with I_x(a, b) = p.

    scipy returns NaN for some tiny p (below about 1e-100 at a few shapes)
    and finite but wrong values for subnormal p; there x is the leading
    term (p a B(a, b))^(1/a) of the small-x series
    I_x(a, b) = x^a / (a B(a, b)) (1 + O(x)), which is exact to O(x).
    """
    a, b = _require("reg_inc_beta_inv", a, b)
    p = _check_prob("reg_inc_beta_inv", p)
    out = _sp().betaincinv(a, b, p)
    lost = (out != out) | ((p > 0.0) & (p < _TINY))
    if _any(lost):
        out = np.array(out)
        la, lb, lp = (np.broadcast_to(v, out.shape)[lost] for v in (a, b, p))
        out[lost] = np.exp((np.log(lp) + np.log(la) + _sp().betaln(la, lb)) / la)
    return _result(out, a, b, p)


def student_t_cdf(df, t):
    """CDF of the standard Student t with df > 0 degrees of freedom.

    The tail mass P(|T| > |t|) is I_z(df/2, 1/2) with z = df/(df + t^2).
    Where t^2 < df, z rounds towards 1, so the central mass
    P(|T| < |t|) = I_x(1/2, df/2) at x = t^2/(df + t^2) is used instead:
    F(t) = 1/2 +- I_x(1/2, df/2)/2. Where df/t^2, which z then equals to
    rounding, falls below the normal range (t^2 may overflow), the tail mass
    is taken in logs from the leading term z^(df/2) / ((df/2) B(df/2, 1/2))
    of the small-z series, whose relative error is O(z).
    """
    (df,) = _require("student_t_cdf", df)
    t = _float("student_t_cdf", t)
    if not _all(t == t):
        raise DomainError("student_t_cdf requires t that is not NaN (+-inf is allowed)")
    half = df / 2.0
    # t^2 = inf gives z = 0, which the far tail replaces; a df/tiny past the
    # float range is inf, and no t^2 is lost to it
    with np.errstate(over="ignore"):
        t2 = t * t
        lost = t2 > df / _TINY  # t = +-inf too, where the far tail is 0 as well
    near = t2 < df
    mass = _sp().betainc(
        np.where(near, 0.5, half), np.where(near, half, 0.5), np.where(near, t2, df) / (df + t2)
    )
    if _any(lost):
        mass = np.array(mass)
        lh, ldf, lt = (np.broadcast_to(v, mass.shape)[lost] for v in (half, df, t))
        log_z = np.log(ldf) - 2.0 * np.log(np.abs(lt))
        mass[lost] = np.exp(lh * log_z - np.log(lh) - _sp().betaln(lh, 0.5))
    far = np.where(t >= 0.0, 1.0 - 0.5 * mass, 0.5 * mass)
    out = np.where(near, 0.5 + np.copysign(0.5 * mass, t), far)
    return _result(out, df, t)


def student_t_quantile(df, p):
    """Quantile of the standard Student t; exact inverse of student_t_cdf.

    Inverts the incomplete-beta representation directly from the tail
    mass 2 min(p, 1-p), which is exact in floating point. Where t^2 <= df,
    x = t^2/(df + t^2) = I^{-1}_c(1/2, df/2; tail), the inverse of the
    complement, and t = sqrt(df x/(1-x)). Where t^2 > df, x rounds towards
    1, so z = 1 - x = I^{-1}(df/2, 1/2; tail) gives t = sqrt(df (1-z)/z).
    Where a positive tail gives z below the normal range or t^2 past the
    float range, z inverts student_t_cdf's far tail in logs and t = sqrt(df/z).
    """
    (df,) = _require("student_t_quantile", df)
    p = _check_prob("student_t_quantile", p)
    half = df / 2.0
    tail = 2.0 * np.minimum(p, 1.0 - p)
    with np.errstate(divide="ignore", over="ignore"):
        x = _sp().betainccinv(0.5, half, tail)
        z = _sp().betaincinv(half, 0.5, tail)
        mag = np.sqrt(df * np.where(x <= 0.5, x / (1.0 - x), (1.0 - z) / z))
        lost = (tail > 0.0) & ((z < _TINY) | (mag == math.inf))
        if _any(lost):
            mag = np.array(mag)
            lh, ldf, ltail = (np.broadcast_to(v, mag.shape)[lost] for v in (half, df, tail))
            # a t past the float range stays inf
            log_z = (np.log(ltail) + np.log(lh) + _sp().betaln(lh, 0.5)) / lh
            mag[lost] = np.exp(0.5 * (np.log(ldf) - log_z))
    out = np.where(p >= 0.5, mag, -mag)
    return _result(out, df, p)


def find_root(f: Callable[[float], float], lo: float, hi: float):
    """Root of a continuous scalar function on [lo, hi], where f changes sign.

    Brent's method: bisection-safeguarded secant / inverse quadratic
    steps, never leaving [lo, hi], to an absolute tolerance of 1e-12.
    Raises DomainError unless lo < hi are finite, BracketError when f is
    not finite or has the same sign at both ends, NumericalError when the
    iteration fails. f is evaluated at both ends for the sign check, and
    brentq evaluates them again before its first step, so a costly f
    should remember its values (interval._solve_hpd does).
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("bracket endpoints must be finite")
    if not lo < hi:
        raise DomainError(f"bracket requires lo < hi, got [{lo}, {hi}]")
    f_lo = f(lo)
    f_hi = f(hi)
    if not (math.isfinite(f_lo) and math.isfinite(f_hi)):
        raise BracketError("find_root requires finite f at the bracket ends")
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise BracketError(f"no sign change on [{lo}, {hi}]: f(lo)={f_lo:g}, f(hi)={f_hi:g}")
    from scipy.optimize import brentq
    try:
        root = brentq(f, lo, hi, xtol=1e-12, rtol=4 * np.finfo(float).eps, maxiter=200)
    except Exception as exc:  # brentq raises RuntimeError past maxiter
        raise NumericalError(f"root iteration failed: {exc}") from exc
    return float(root)


# kept although nothing in the package calls it: bench/spans.py wraps
# numerics.integrate (and reads QuadratureResult.evaluations) by name;
# scipy.integrate loads only if it is called
def integrate(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-10,
) -> QuadratureResult:
    """Adaptive quadrature of f over [lo, hi]; hi may be +inf.

    An infinite upper limit is mapped to the unit interval with
    u = (x - lo)/(1 + x - lo), i.e. x = lo + u/(1 - u), dx = du/(1-u)^2,
    and the transformed integrand is handled by the same adaptive rule.
    Non-convergence raises NumericalError carrying the best estimate.
    """
    if not tol > 0.0:
        raise DomainError("integrate requires tol > 0")
    if math.isnan(lo) or math.isnan(hi):
        raise DomainError("integrate requires non-NaN limits")
    if not math.isfinite(lo):
        raise DomainError("integrate requires a finite lower limit")
    if hi <= lo:
        raise DomainError("integrate requires hi > lo")

    if math.isinf(hi):
        def g(u):
            if u >= 1.0:
                return 0.0
            w = 1.0 - u
            return f(lo + u / w) / (w * w)

        integrand, a, b = g, 0.0, 1.0
    else:
        integrand, a, b = f, lo, hi

    from scipy.integrate import quad
    # full_output=1 turns accuracy warnings into a message element instead
    # of an IntegrationWarning, so failure is detected from the tuple shape
    result = quad(
        integrand, a, b, epsabs=tol, epsrel=tol, limit=200, full_output=1
    )
    value, abserr, info = result[0], result[1], result[2]
    out = QuadratureResult(float(value), float(abserr), int(info["neval"]))
    if len(result) > 3 or not math.isfinite(out.value):
        reason = str(result[3]).strip() if len(result) > 3 else "non-finite value"
        raise NumericalError(
            f"quadrature did not reach the requested accuracy: {reason}",
            best_estimate=out,
        )
    return out
