"""Special functions and root finding used by every other module.

Thin, validated wrappers around scipy primitives plus the Student-t
CDF/quantile pair built from the regularized incomplete beta function.
Keeping them behind one surface pins down domains and error types, and
gives the rest of the package a single place to swap implementations.
Every posterior quantity is a closed form in these functions; the
adaptive quadrature `integrate` is not called by the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate as _sp_integrate
from scipy import optimize as _sp_optimize
from scipy import special as _sp

from .errors import BracketError, DomainError, NumericalError

__all__ = [
    "Bracket",
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
class Bracket:
    """A closed interval [lo, hi] believed to contain a root."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError("bracket endpoints must be finite")
        if not self.lo < self.hi:
            raise DomainError(f"bracket requires lo < hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class QuadratureResult:
    """Value, error estimate, and cost of a numerical integral."""

    value: float
    abs_error_estimate: float
    evaluations: int


def _check_prob(p, name="p"):
    p_arr = np.asarray(p, dtype=float)
    if np.any(np.isnan(p_arr)) or np.any(p_arr < 0.0) or np.any(p_arr > 1.0):
        raise DomainError(f"{name} must lie in [0, 1]")


def log_gamma(a):
    """Natural log of the gamma function for a > 0. Accepts arrays."""
    a_arr = np.asarray(a, dtype=float)
    if np.any(~np.isfinite(a_arr)) or np.any(a_arr <= 0.0):
        raise DomainError("log_gamma requires a > 0")
    out = _sp.gammaln(a_arr)
    return float(out) if np.isscalar(a) or a_arr.ndim == 0 else out


def log_beta(a, b):
    """Natural log of the beta function B(a, b) for a, b > 0. Accepts arrays."""
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if np.any(~np.isfinite(a_arr)) or np.any(a_arr <= 0.0) or np.any(
        ~np.isfinite(b_arr)
    ) or np.any(b_arr <= 0.0):
        raise DomainError("log_beta requires a > 0 and b > 0")
    out = _sp.betaln(a_arr, b_arr)
    return float(out) if np.isscalar(a) and np.isscalar(b) else out


def reg_inc_gamma(a, x):
    """Regularized lower incomplete gamma P(a, x), a > 0, x >= 0."""
    a_arr = np.asarray(a, dtype=float)
    x_arr = np.asarray(x, dtype=float)
    if np.any(~np.isfinite(a_arr)) or np.any(a_arr <= 0.0):
        raise DomainError("reg_inc_gamma requires a > 0")
    if np.any(np.isnan(x_arr)) or np.any(x_arr < 0.0):
        raise DomainError("reg_inc_gamma requires x >= 0")
    out = _sp.gammainc(a_arr, x_arr)
    scalar = np.isscalar(a) and np.isscalar(x)
    return float(out) if scalar else out


def reg_inc_gamma_c(a, x):
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x)."""
    a_arr = np.asarray(a, dtype=float)
    x_arr = np.asarray(x, dtype=float)
    if np.any(~np.isfinite(a_arr)) or np.any(a_arr <= 0.0):
        raise DomainError("reg_inc_gamma_c requires a > 0")
    if np.any(np.isnan(x_arr)) or np.any(x_arr < 0.0):
        raise DomainError("reg_inc_gamma_c requires x >= 0")
    out = _sp.gammaincc(a_arr, x_arr)
    scalar = np.isscalar(a) and np.isscalar(x)
    return float(out) if scalar else out


def reg_inc_gamma_inv(a, p):
    """Inverse of P(a, .): returns x with P(a, x) = p."""
    if not np.all(np.asarray(a, dtype=float) > 0.0):
        raise DomainError("reg_inc_gamma_inv requires a > 0")
    _check_prob(p)
    out = _sp.gammaincinv(a, p)
    return float(out) if np.isscalar(a) and np.isscalar(p) else out


def reg_inc_gamma_c_inv(a, p):
    """Inverse of Q(a, .): returns x with Q(a, x) = p."""
    if not np.all(np.asarray(a, dtype=float) > 0.0):
        raise DomainError("reg_inc_gamma_c_inv requires a > 0")
    _check_prob(p)
    out = _sp.gammainccinv(a, p)
    return float(out) if np.isscalar(a) and np.isscalar(p) else out


def reg_inc_beta(a, b, x):
    """Regularized incomplete beta I_x(a, b), a, b > 0, x in [0, 1]."""
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if np.any(~np.isfinite(a_arr)) or np.any(a_arr <= 0.0) or np.any(
        ~np.isfinite(b_arr)
    ) or np.any(b_arr <= 0.0):
        raise DomainError("reg_inc_beta requires a > 0 and b > 0")
    _check_prob(x, "x")
    out = _sp.betainc(a_arr, b_arr, x)
    scalar = np.isscalar(a) and np.isscalar(b) and np.isscalar(x)
    return float(out) if scalar else out


def reg_inc_beta_inv(a, b, p):
    """Inverse of I_.(a, b): returns x with I_x(a, b) = p."""
    if not (np.all(np.asarray(a, dtype=float) > 0.0) and np.all(np.asarray(b, dtype=float) > 0.0)):
        raise DomainError("reg_inc_beta_inv requires a > 0 and b > 0")
    _check_prob(p)
    out = _sp.betaincinv(a, b, p)
    scalar = np.isscalar(a) and np.isscalar(b) and np.isscalar(p)
    return float(out) if scalar else out


def student_t_cdf(df, t):
    """CDF of the standard Student t with df > 0 degrees of freedom.

    The tail mass P(|T| > |t|) is I_z(df/2, 1/2) with z = df/(df + t^2).
    Where t^2 < df, z rounds towards 1, so the central mass
    P(|T| < |t|) = I_x(1/2, df/2) at x = t^2/(df + t^2) is used instead:
    F(t) = 1/2 +- I_x(1/2, df/2)/2. Accepts array t.
    """
    if not np.all(np.asarray(df, dtype=float) > 0.0):
        raise DomainError("student_t_cdf requires df > 0")
    t_arr = np.asarray(t, dtype=float)
    if np.any(np.isnan(t_arr)):
        raise DomainError("student_t_cdf requires finite t")
    half = np.asarray(df, dtype=float) / 2.0
    t2 = t_arr * t_arr
    near = t2 < df
    mass = _sp.betainc(
        np.where(near, 0.5, half), np.where(near, half, 0.5), np.where(near, t2, df) / (df + t2)
    )
    far = np.where(t_arr >= 0.0, 1.0 - 0.5 * mass, 0.5 * mass)
    out = np.where(near, 0.5 + np.copysign(0.5 * mass, t_arr), far)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def student_t_quantile(df, p):
    """Quantile of the standard Student t; exact inverse of student_t_cdf.

    Inverts the incomplete-beta representation directly. With tail
    2 min(p, 1-p): z = I^{-1}(df/2, 1/2; tail) and t = sqrt(df (1-z)/z).
    Where tail > 1/2, z rounds towards 1, so the complement
    x = I^{-1}(1/2, df/2; |1-2p|) = 1 - z gives t = sqrt(df x/(1-x)).
    """
    if not np.all(np.asarray(df, dtype=float) > 0.0):
        raise DomainError("student_t_quantile requires df > 0")
    _check_prob(p)
    p_arr = np.asarray(p, dtype=float)
    half = np.asarray(df, dtype=float) / 2.0
    tail = 2.0 * np.minimum(p_arr, 1.0 - p_arr)
    near = tail > 0.5
    with np.errstate(divide="ignore"):
        x = _sp.betaincinv(
            np.where(near, 0.5, half), np.where(near, half, 0.5),
            np.where(near, np.abs(1.0 - 2.0 * p_arr), tail),
        )
        mag = np.sqrt(df * np.where(near, x / (1.0 - x), (1.0 - x) / x))
    out = np.where(p_arr >= 0.5, mag, -mag)
    return float(out) if np.isscalar(p) or p_arr.ndim == 0 else out


def find_root(f: Callable[[float], float], bracket: Bracket, tol: float = 1e-12):
    """Root of a continuous scalar function inside a sign-changing bracket.

    Brent's method: bisection-safeguarded secant / inverse quadratic
    steps, never leaving the bracket. Raises BracketError when f has the
    same sign at both ends, NumericalError when the iteration fails.
    """
    if not tol > 0.0:
        raise DomainError("find_root requires tol > 0")
    f_lo = f(bracket.lo)
    f_hi = f(bracket.hi)
    if not (math.isfinite(f_lo) and math.isfinite(f_hi)):
        raise BracketError("find_root requires finite f at the bracket ends")
    if f_lo == 0.0:
        return bracket.lo
    if f_hi == 0.0:
        return bracket.hi
    if f_lo * f_hi > 0.0:
        raise BracketError(
            f"no sign change on [{bracket.lo}, {bracket.hi}]: "
            f"f(lo)={f_lo:g}, f(hi)={f_hi:g}"
        )
    try:
        root, result = _sp_optimize.brentq(
            f, bracket.lo, bracket.hi, xtol=tol, rtol=4 * np.finfo(float).eps,
            maxiter=200, full_output=True,
        )
    except Exception as exc:  # pragma: no cover - brentq rarely raises here
        raise NumericalError(f"root iteration failed: {exc}") from exc
    if not result.converged:  # pragma: no cover
        raise NumericalError("root iteration did not converge", best_estimate=root)
    return float(root)


# kept although nothing in the package calls it: bench/spans.py wraps
# numerics.integrate (and reads QuadratureResult.evaluations) by name
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

    # full_output=1 turns accuracy warnings into a message element instead
    # of an IntegrationWarning, so failure is detected from the tuple shape
    result = _sp_integrate.quad(
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
