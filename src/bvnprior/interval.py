"""Credible intervals: HPD, equal-tailed, and one-sided.

Every marginal is location + scale * Z with the law of Z depending only
on its StandardFamily and n (see posterior), and every interval kind is
equivariant under that map. standard_bounds therefore solves each
(family, n, level, kind) once in Z units, memoized for the process (the
1024 most recent keys), and the interval API and the coverage engine
both rescale it.

The HPD solve exploits that every family here is strictly unimodal: for
a given left endpoint lo below the mode there is exactly one right
endpoint hi above the mode with equal density, and the enclosed mass
decreases strictly as lo moves up toward the mode. It runs a scalar root
find on lo with a nested root find for hi, both via the bracketed hybrid
in numerics.find_root. A symmetric family (the slope's t) needs no root
find: its HPD interval is -+ quantile(1/2 + level/2).
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass

from . import numerics
from .errors import BracketError, DomainError, NumericalError
from .model import SufficientStats
from .posterior import PosteriorDistribution, StandardFamily, beta_posterior

__all__ = [
    "CredibleInterval",
    "hpd_beta",
    "hpd_unimodal",
    "equal_tailed",
    "one_sided",
    "standard_bounds",
]

_KINDS = ("hpd", "equal_tailed", "upper_one_sided", "lower_one_sided")


@dataclass(frozen=True)
class CredibleInterval:
    """A posterior interval [lo, hi] with its credibility bookkeeping.

    lo may be 0 or -inf and hi may be +inf for one-sided intervals.
    achieved_mass is cdf(hi) - cdf(lo) as actually computed, not the
    nominal level.
    """

    param: str
    kind: str
    level: float
    lo: float
    hi: float
    achieved_mass: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown interval kind {self.kind!r}")
        if not 0.0 < self.level < 1.0:
            raise DomainError("level must lie strictly between 0 and 1")
        if not self.lo < self.hi:
            raise DomainError("interval requires lo < hi")

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def width(self) -> float:
        return self.hi - self.lo

    def to_dict(self) -> dict:
        def jsonable(x):
            return None if math.isinf(x) else x

        return {
            "param": self.param,
            "kind": self.kind,
            "level": self.level,
            "lo": jsonable(self.lo),
            "hi": jsonable(self.hi),
            "achieved_mass": self.achieved_mass,
        }

    def to_json(self, indent=None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _check_level(level: float):
    if not 0.0 < level < 1.0:
        raise DomainError("level must lie strictly between 0 and 1")


def _solve_upper_crossing(logpdf, target_logpdf, mode, hint):
    """Rightmost point above the mode where logpdf crosses target_logpdf."""
    hi = max(hint, mode + 1e-12 * max(1.0, abs(mode)))
    span = max(hi - mode, 1e-8 * max(1.0, abs(mode)))
    for _ in range(200):
        if logpdf(hi) < target_logpdf:
            break
        span *= 2.0
        hi = mode + span
    else:
        raise NumericalError("could not bracket the upper HPD endpoint")
    bracket = numerics.Bracket(mode, hi)
    tol = 1e-13 * max(abs(mode), abs(hi))
    return numerics.find_root(lambda x: logpdf(x) - target_logpdf, bracket, tol=tol)


def _solve_hpd(family: StandardFamily, n: int, level: float):
    """HPD endpoints of a strictly unimodal standard family.

    Outer root find on the left endpoint lo between the lower support end
    and the mode; for each lo a nested root find locates the matching
    hi > mode with equal density; the outer objective
    cdf(hi) - cdf(lo) - level is strictly decreasing in lo. The initial lo
    bracket is [quantile(eps), quantile(alpha)] with
    eps = min(1e-6, alpha * 1e-3), and its left edge is pushed a factor
    1e-3 further into the tail once on failure. The search for hi starts
    at the quantile 1 - max(min(1e-7, alpha * 1e-3), 2^-52), or at the mode
    if that quantile is not finite. Both root finds stop at 1e-13 relative
    to their bracket, since Z itself may be far from 1 (theta's is ~1/n).
    """
    alpha = 1.0 - level
    mode = family.mode(n)

    def logpdf(z):
        return family.log_kernel(n, z)

    def cdf(z):
        return family.cdf(n, z)

    def quantile(p):
        return float(family.quantile(n, p))

    upper_hint = quantile(1.0 - max(min(1e-7, alpha * 1e-3), 2.0 ** -52))
    if not math.isfinite(upper_hint):
        upper_hint = mode

    def objective(lo):
        hi = _solve_upper_crossing(logpdf, logpdf(lo), mode, upper_hint)
        return cdf(hi) - cdf(lo) - level

    # the left edge must lie deeper in the tail than alpha at every level
    eps_lo = min(1e-6, alpha * 1e-3)
    lo_lo = quantile(eps_lo)
    lo_hi = quantile(alpha)
    for attempt in range(2):
        try:
            if objective(lo_lo) < 0.0:
                raise BracketError("left edge of the lo bracket already under-covers")
            lo = numerics.find_root(
                objective,
                numerics.Bracket(lo_lo, lo_hi),
                tol=1e-13 * max(abs(lo_lo), abs(lo_hi)),
            )
            break
        except (BracketError, NumericalError):
            if attempt == 1:
                raise
            # widen once: push the left edge further into the tail
            eps_lo *= 1e-3
            lo_lo = quantile(eps_lo)
    return lo, _solve_upper_crossing(logpdf, logpdf(lo), mode, upper_hint)


@functools.lru_cache(maxsize=1024)
def standard_bounds(family: StandardFamily, n: int, level: float, kind: str):
    """Interval endpoints (lo, hi) in Z units for one family, n, level, kind.

    An interval of a posterior location + scale * Z is
    (location + scale * lo, location + scale * hi). The "hpd" kind assumes
    a unimodal family with its mode inside the support; hpd_unimodal
    handles monotone densities before asking. Memoized: the result depends
    only on the arguments.
    """
    _check_level(level)
    alpha = 1.0 - level
    if kind == "hpd":
        if family.symmetric:
            half = float(family.quantile(n, 0.5 + level / 2.0))
            return -half, half
        return _solve_hpd(family, n, level)
    if kind == "equal_tailed":
        return float(family.quantile(n, alpha / 2.0)), float(family.quantile(n, 1.0 - alpha / 2.0))
    if kind == "upper_one_sided":
        return family.lower, float(family.quantile(n, level))
    if kind == "lower_one_sided":
        return float(family.quantile(n, 1.0 - level)), math.inf
    raise DomainError(f"unknown interval kind {kind!r}")


def _interval(dist: PosteriorDistribution, kind: str, level: float) -> CredibleInterval:
    lo, hi = (
        dist.location + dist.scale * b
        for b in standard_bounds(dist.family, dist.stats.n, level, kind)
    )
    return CredibleInterval(
        param=dist.param_id,
        kind=kind,
        level=level,
        lo=lo,
        hi=hi,
        achieved_mass=dist.cdf(hi) - dist.cdf(lo),
    )


def hpd_unimodal(dist: PosteriorDistribution, level: float) -> CredibleInterval:
    """HPD interval of a unimodal posterior (see standard_bounds).

    If the density is monotone (mode on the support boundary, e.g. the
    n = 3 precision posterior) the HPD region is one-sided; the upper
    one-sided interval is returned with a RuntimeWarning, on every call.
    """
    _check_level(level)
    family = dist.family
    if family.mode(dist.stats.n) <= family.lower:
        warnings.warn(
            "density is monotone on its support; returning the one-sided "
            "highest-density region",
            RuntimeWarning,
            stacklevel=2,
        )
        return _interval(dist, "upper_one_sided", level)
    return _interval(dist, "hpd", level)


def hpd_beta(stats: SufficientStats, level: float) -> CredibleInterval:
    """HPD interval for the slope beta: location -+ scale * t_{n-2}(1/2 + level/2)."""
    return hpd_unimodal(beta_posterior(stats), level)


def equal_tailed(dist: PosteriorDistribution, level: float) -> CredibleInterval:
    """Interval cutting probability (1-level)/2 from each tail."""
    return _interval(dist, "equal_tailed", level)


def one_sided(dist: PosteriorDistribution, level: float, side: str) -> CredibleInterval:
    """One-sided interval: side="upper" bounds the parameter from above
    by quantile(level); side="lower" bounds it from below by
    quantile(1 - level)."""
    if side not in ("upper", "lower"):
        raise DomainError(f"side must be 'upper' or 'lower', got {side!r}")
    return _interval(dist, f"{side}_one_sided", level)
