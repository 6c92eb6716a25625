"""Exact marginal posteriors under the prior proportional to 1/(theta eta).

With flat priors on the means and prior density 1/(theta eta) on the
orthogonal block, integrating the means and nuisance parameters out of the
likelihood leaves the joint posterior

    pi(beta, theta, eta | data)
        ~ theta^-n eta^-1 exp{ -Q(beta)/(2 theta eta) - eta S11/(2 theta) }

with Q(beta) = S22 - 2 beta S12 + beta^2 S11 = S22.1 + S11 (beta - S12/S11)^2.
Each marginal is an exact pivot: the parameter equals location + scale * Z,
where the law of Z is a textbook family in its own shape parameters, and
the shape, location and scale come from the sufficient statistics:

  * beta      : Z ~ Student t with df = n-2,
                (location, scale) = (S12/S11, sqrt(S22.1 / (df S11))).
  * theta     : Z ~ inverted gamma with shape k = n-2 and scale 1, scale r,
                r = sqrt(S11 S22.1).
  * w=1/theta : Z ~ gamma with shape k = n-2 and rate 1, scale 1/r.
  * eta       : Z^2 ~ beta-prime(a, b) with (a, b) = ((n-1)/2, (n-2)/2),
                scale sqrt(c), c = S22.1/S11; Z^2/(1 + Z^2) is beta(a, b).

PosteriorDistribution writes the location-scale algebra once; each subclass
declares its StandardFamily and its pivot, the one map from the statistics
to (shape, location, scale), which accepts arrays of statistics, so the
coverage engine uses the same definitions replicate-wise.

A note on the beta scale: the 1/S11 factor inside the scale is easy to drop
when simplifying Q(beta)/S11, and dropping it silently destroys the
frequentist coverage this prior is built for. The implemented scale
sqrt(S22.1/((n-2) S11)) is the one the 2-D quadrature oracle and the
coverage simulation both confirm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numerics
from .errors import DegenerateDataError, DomainError, NumericalError
from .model import SufficientStats
from .numerics import _TINY, _any, _log_small_inverse, _result

__all__ = [
    "StandardFamily",
    "PosteriorDistribution",
    "BetaPosterior",
    "ThetaPosterior",
    "PrecisionPosterior",
    "EtaPosterior",
    "beta_posterior",
    "theta_posterior",
    "precision_posterior",
    "eta_posterior",
]


def _check_level_prob(p):
    p = np.asarray(p, dtype=float)
    if not ((p > 0.0) & (p < 1.0)).all():
        raise DomainError("probabilities must lie strictly inside (0, 1)")


@dataclass(frozen=True, eq=False)
class StandardFamily:
    """Law of the pivot Z as functions of its shape parameters (df, k or a, b).

    log_norm(*shape) + log_kernel(*shape, z) is the log density of Z on
    (lower, inf); log_kernel, cdf(*shape, z), quantile(*shape, p) and the
    upper-tail quantile isf(*shape, q) accept floats and arrays, and give a
    float the bits it gets as an array element; under np.errstate(divide="ignore")
    quantile(*shape, 0) is lower and isf(*shape, 0) is inf. mean(*shape) is
    None where the mean does not exist. symmetric families have the HPD
    interval that leaves alpha/2 in each tail. Instances hash by identity,
    so they key the interval memo.
    """

    log_norm: Callable
    log_kernel: Callable
    cdf: Callable
    quantile: Callable
    isf: Callable
    mode: Callable
    mean: Callable
    lower: float = 0.0
    symmetric: bool = False


def _eta_inverse(a, b, mass, upper):
    # z with P(Z <= z) = mass, or P(Z > z) = mass if upper. P(Z <= z) is
    # I_u(a, b) at u = z^2/(1 + z^2) and P(Z > z) is I_v(b, a) at v = 1 - u.
    # The smaller tail is inverted (at 1/2, the one asked for): u or v
    # rounds to 1 long before the other tail's mass is negligible. z^2 is
    # 1/v or u to O(x), so where x falls below the normal range z comes
    # from log x, the leading term of the small-x series
    mass = np.asarray(mass, dtype=float)
    v_side = (mass > 0.5) != upper
    shape = np.where(v_side, b, a), np.where(v_side, a, b)
    tail = np.minimum(mass, 1.0 - mass)
    x = np.asarray(numerics.reg_inc_beta_inv(*shape, tail))
    with np.errstate(divide="ignore", over="ignore"):
        z = np.sqrt(np.where(v_side, (1.0 - x) / x, x / (1.0 - x)))
        lost = x < _TINY
        if lost.any():
            half_log_x = 0.5 * _log_small_inverse(*shape, tail)
            z = np.where(lost, np.exp(np.where(v_side, -half_log_x, half_log_x)), z)
    return z


def _eta_cdf(a, b, z):
    # I_u(a, b) at u = z^2/(1 + z^2); above z = 1 the tail comes from
    # v = 1 - u, since u rounds to 1 long before the tail mass is negligible.
    # np.where picks the shapes and 1/u - 1 = 1/z^2 or 1/v - 1 = z^2 per
    # element, so the masses are one call; 1/z^2 is formed everywhere but
    # divides by zero only where z^2 rounds to 0. A z^2 or 1/z^2 past the
    # float range is inf, so v or u is 0 and the mass that of z = inf or
    # z = 0, without an overflow warning.
    # |far - mass| is 1 - mass where far and mass elsewhere, bit for bit,
    # and costs less than a third np.where on a mask in random order
    arr = np.asarray(z, dtype=float)
    far = arr > 1.0
    with np.errstate(over="ignore"):
        z2 = arr * arr
        u_or_v = 1.0 / (1.0 + np.where(far, z2, 1.0 / z2))
    mass = numerics.reg_inc_beta(np.where(far, b, a), np.where(far, a, b), u_or_v)
    return _result(np.abs(far - mass), z)


def _t_log_kernel(df, z):
    # where z^2/df passes the float range (z = +-inf too) the log form
    # -(df + 1)(log|z| - log(df)/2) is exact to rounding
    with np.errstate(over="ignore"):
        z2 = z * z / df
    out = -0.5 * (df + 1) * np.log1p(z2)
    lost = z2 == math.inf
    if _any(lost):
        with np.errstate(divide="ignore"):  # at z = 0, which is not lost
            out = np.where(lost, -(df + 1) * (np.log(np.abs(z)) - 0.5 * np.log(df)), out)
    return out


def _eta_log_kernel(a, b, z):
    # where z^2 passes the float range (z = inf too) log1p(z^2) is 2 log z to
    # rounding, and the kernel (2a - 1) log z - 2(a + b) log z = -(2b + 1) log z
    log_z = np.log(z)
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf at z = inf
        z2 = z * z
        out = (2 * a - 1) * log_z - (a + b) * np.log1p(z2)
    lost = z2 == math.inf
    if _any(lost):
        out = np.where(lost, -(2 * b + 1) * log_z, out)
    return out


# Student t with df degrees of freedom
STUDENT_T = StandardFamily(
    log_norm=lambda df: (
        numerics.log_gamma((df + 1) / 2.0) - numerics.log_gamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    ),
    log_kernel=_t_log_kernel,
    cdf=lambda df, z: numerics.student_t_cdf(df, z),
    quantile=lambda df, p: numerics.student_t_quantile(df, p),
    isf=lambda df, q: -numerics.student_t_quantile(df, q),
    mode=lambda df: 0.0,
    mean=lambda df: 0.0 if df > 1 else None,
    lower=-math.inf,
    symmetric=True,
)

# inverse gamma with shape k and scale 1: 1/Z ~ gamma(k)
INVERSE_GAMMA = StandardFamily(
    log_norm=lambda k: -numerics.log_gamma(k),
    log_kernel=lambda k, z: -(k + 1) * np.log(z) - 1.0 / z,
    cdf=lambda k, z: numerics.reg_inc_gamma_c(k, 1.0 / z),
    quantile=lambda k, p: 1.0 / np.asarray(numerics.reg_inc_gamma_c_inv(k, p)),
    isf=lambda k, q: 1.0 / np.asarray(numerics.reg_inc_gamma_inv(k, q)),
    mode=lambda k: 1.0 / (k + 1),
    mean=lambda k: 1.0 / (k - 1) if k > 1 else None,
)

# gamma with shape k and rate 1
GAMMA = StandardFamily(
    log_norm=lambda k: -numerics.log_gamma(k),
    log_kernel=lambda k, z: (k - 1) * np.log(z) - z,
    cdf=lambda k, z: numerics.reg_inc_gamma(k, z),
    quantile=lambda k, p: numerics.reg_inc_gamma_inv(k, p),
    isf=lambda k, q: numerics.reg_inc_gamma_c_inv(k, q),
    # a monotone decreasing density for k <= 1: boundary mode
    mode=lambda k: float(max(k - 1, 0)),
    mean=lambda k: float(k),
)

# Z > 0 with Z^2 ~ beta-prime(a, b), so Z^2/(1 + Z^2) ~ beta(a, b)
SQRT_BETA_PRIME = StandardFamily(
    log_norm=lambda a, b: math.log(2.0) - numerics.log_beta(a, b),
    log_kernel=_eta_log_kernel,
    cdf=_eta_cdf,
    quantile=lambda a, b, p: _eta_inverse(a, b, p, upper=False),
    isf=lambda a, b, q: _eta_inverse(a, b, q, upper=True),
    # a monotone decreasing density for a <= 1/2: boundary mode
    mode=lambda a, b: math.sqrt(max(2 * a - 1, 0) / (2 * b + 1)),
    mean=lambda a, b: (
        math.exp(numerics.log_beta(a + 0.5, b - 0.5) - numerics.log_beta(a, b))
        if b > 0.5 else None
    ),
)


class PosteriorDistribution:
    """One marginal posterior, location + scale * Z.

    Attributes
    ----------
    param_id : one of "beta", "theta", "precision_w", "eta".
    stats : the SufficientStats the posterior was built from.
    shape, location, scale : the pivot map at stats; shape is the tuple
        of family shape parameters.
    family : the StandardFamily of Z (class attribute).

    Subclasses declare family and pivot(n, s11, s12, s22_1), which returns
    (shape, location, scale) and accepts arrays of statistics. Methods
    pdf/logpdf/cdf/quantile return a float for a 0-d argument and an
    array otherwise; mode() and mean() are the posterior's own.
    """

    param_id: str = ""
    family: StandardFamily

    @staticmethod
    def pivot(n, s11, s12, s22_1):
        raise NotImplementedError

    def __init__(self, stats: SufficientStats):
        # SufficientStats itself rejects n < 3 and s11 <= 0
        if stats.s22_1 <= 0.0:
            raise DegenerateDataError("s22.1 must be positive")
        self.stats = stats
        # a pivot that leaves the float range shows as inf or 0, not as a warning
        with np.errstate(all="ignore"):
            self.shape, location, scale = self.pivot(stats.n, stats.s11, stats.s12, stats.s22_1)
        self.location, self.scale = float(location), float(scale)
        if not (math.isfinite(self.location) and math.isfinite(self.scale) and self.scale > 0.0):
            raise NumericalError(
                f"the {self.param_id} posterior (location {self.location!r}, scale "
                f"{self.scale!r}) leaves the float range at this data scale"
            )
        self._log_norm = self.family.log_norm(*self.shape) - math.log(self.scale)

    def _z(self, x):
        arr = np.asarray(x, dtype=float)
        if np.isnan(arr).any():
            raise DomainError("argument must not be NaN")
        return (arr - self.location) / self.scale

    def logpdf(self, x):
        z = self._z(x)
        inside = z > self.family.lower
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            kernel = self.family.log_kernel(*self.shape, np.where(inside, z, 1.0))
        return _result(np.where(inside, self._log_norm + kernel, -math.inf), x)

    def pdf(self, x):
        with np.errstate(over="ignore"):
            return _result(np.exp(self.logpdf(x)), x)

    def cdf(self, x):
        z = np.maximum(self._z(x), self.family.lower)
        with np.errstate(divide="ignore"):
            return _result(self.family.cdf(*self.shape, z), x)

    def quantile(self, p):
        _check_level_prob(p)
        z = np.asarray(self.family.quantile(*self.shape, p), dtype=float)
        return _result(self.location + self.scale * z, p)

    def mode(self):
        return self.location + self.scale * self.family.mode(*self.shape)

    def mean(self):
        m = self.family.mean(*self.shape)
        return None if m is None else self.location + self.scale * m


class BetaPosterior(PosteriorDistribution):
    """Marginal posterior of the regression slope: a location-scale t."""

    param_id = "beta"
    family = STUDENT_T

    @staticmethod
    def pivot(n, s11, s12, s22_1):
        df = n - 2
        return (df,), s12 / s11, np.sqrt(s22_1 / (df * s11))

    @property
    def df(self) -> int:
        return self.shape[0]


class ThetaPosterior(PosteriorDistribution):
    """Marginal posterior of theta: density ~ theta^-(n-1) exp(-r/theta)."""

    param_id = "theta"
    family = INVERSE_GAMMA

    @staticmethod
    def pivot(n, s11, s12, s22_1):
        return (n - 2,), 0.0, np.sqrt(s11 * s22_1)


class PrecisionPosterior(PosteriorDistribution):
    """Marginal posterior of w = 1/theta: gamma, shape n-2, rate r."""

    param_id = "precision_w"
    family = GAMMA

    @staticmethod
    def pivot(n, s11, s12, s22_1):
        return (n - 2,), 0.0, 1.0 / np.sqrt(s11 * s22_1)


class EtaPosterior(PosteriorDistribution):
    """Marginal posterior of eta, the conditional-to-marginal spread ratio.

    Density ~ eta^(n-2) (eta^2 + c)^-(n-3/2) with c = S22.1/S11, so
    eta = sqrt(c) Z with Z^2 beta-prime(a, b), (a, b) = ((n-1)/2, (n-2)/2):
    the normalizer is 2 / B(a, b) in Z units, the CDF is I_u(a, b) at
    u = Z^2/(1 + Z^2), and the mean is sqrt(c) B(a+1/2, b-1/2)/B(a, b)
    for b > 1/2, i.e. n >= 4.
    """

    param_id = "eta"
    family = SQRT_BETA_PRIME

    @staticmethod
    def pivot(n, s11, s12, s22_1):
        return ((n - 1) / 2.0, (n - 2) / 2.0), 0.0, np.sqrt(s22_1 / s11)


def beta_posterior(stats: SufficientStats) -> BetaPosterior:
    """Student-t marginal posterior of the slope beta."""
    return BetaPosterior(stats)


def theta_posterior(stats: SufficientStats) -> ThetaPosterior:
    """Inverted-gamma marginal posterior of theta."""
    return ThetaPosterior(stats)


def precision_posterior(stats: SufficientStats) -> PrecisionPosterior:
    """Gamma marginal posterior of w = 1/theta."""
    return PrecisionPosterior(stats)


def eta_posterior(stats: SufficientStats) -> EtaPosterior:
    """Marginal posterior of eta (scaled square root of a beta-prime)."""
    return EtaPosterior(stats)
