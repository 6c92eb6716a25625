"""Credible intervals: HPD, equal-tailed, and one-sided.

The HPD solver exploits that every marginal here is strictly unimodal:
for a given left endpoint lo below the mode there is exactly one right
endpoint hi above the mode with pdf(hi) = pdf(lo), and the enclosed mass
decreases strictly as lo moves up toward the mode. The solver therefore
runs a scalar root find on lo with a nested root find for hi, both via
the bracketed hybrid in numerics.find_root.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

from . import numerics
from .errors import BracketError, DomainError, NumericalError
from .model import SufficientStats
from .posterior import PosteriorDistribution, beta_posterior

__all__ = [
    "CredibleInterval",
    "hpd_beta",
    "hpd_unimodal",
    "equal_tailed",
    "one_sided",
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


def hpd_beta(stats: SufficientStats, level: float) -> CredibleInterval:
    """Closed-form HPD interval for the slope beta.

    The t posterior is symmetric about S12/S11, so the HPD interval is
    location +- scale * t_{n-2}(1 - alpha/2).
    """
    _check_level(level)
    dist = beta_posterior(stats)
    half = dist.scale * numerics.student_t_quantile(dist.df, 0.5 + level / 2.0)
    lo = dist.location - half
    hi = dist.location + half
    return CredibleInterval(
        param=dist.param_id,
        kind="hpd",
        level=level,
        lo=lo,
        hi=hi,
        achieved_mass=dist.cdf(hi) - dist.cdf(lo),
    )


def _solve_upper_crossing(dist, target_logpdf, mode, hint):
    """Rightmost point above the mode where logpdf crosses target_logpdf."""
    hi = max(hint, mode + 1e-12 * max(1.0, abs(mode)))
    span = max(hi - mode, 1e-8 * max(1.0, abs(mode)))
    for _ in range(200):
        if dist.logpdf(hi) < target_logpdf:
            break
        span *= 2.0
        hi = mode + span
    else:
        raise NumericalError("could not bracket the upper HPD endpoint")
    bracket = numerics.Bracket(mode, hi)
    tol = 1e-13 * max(1.0, abs(mode), abs(hi))
    return numerics.find_root(lambda x: dist.logpdf(x) - target_logpdf, bracket, tol=tol)


def hpd_unimodal(dist: PosteriorDistribution, level: float) -> CredibleInterval:
    """HPD interval of a strictly unimodal posterior.

    Outer root find on the left endpoint lo between the lower support end
    and the mode; for each lo a nested root find locates the matching
    hi > mode with equal density; the outer objective
    cdf(hi) - cdf(lo) - level is strictly decreasing in lo. The initial lo
    bracket is [quantile(eps), quantile(alpha)] with
    eps = min(1e-6, alpha * 1e-3), and its left edge is pushed a factor
    1e-3 further into the tail once on failure. If the density is
    monotone (mode on the support boundary) the HPD region is one-sided;
    a one-sided interval is returned with a warning.
    """
    _check_level(level)
    alpha = 1.0 - level
    support_lo, _ = dist.support()
    mode = dist.mode()

    if mode <= support_lo or not math.isfinite(dist.logpdf(mode)):
        warnings.warn(
            "density is monotone on its support; returning the one-sided "
            "highest-density region",
            RuntimeWarning,
            stacklevel=2,
        )
        hi = dist.quantile(level)
        return CredibleInterval(
            param=dist.param_id,
            kind="upper_one_sided",
            level=level,
            lo=support_lo,
            hi=hi,
            achieved_mass=dist.cdf(hi) - dist.cdf(support_lo),
        )

    upper_hint = dist.quantile(1.0 - min(1e-7, alpha * 1e-3))

    def objective(lo):
        hi = _solve_upper_crossing(dist, dist.logpdf(lo), mode, upper_hint)
        return dist.cdf(hi) - dist.cdf(lo) - level

    # the left edge must lie deeper in the tail than alpha at every level
    eps_lo = min(1e-6, alpha * 1e-3)
    lo_lo = dist.quantile(eps_lo)
    lo_hi = dist.quantile(alpha)
    for attempt in range(2):
        try:
            if objective(lo_lo) < 0.0:
                raise BracketError("left edge of the lo bracket already under-covers")
            lo = numerics.find_root(
                objective,
                numerics.Bracket(lo_lo, lo_hi),
                tol=1e-13 * max(1.0, abs(lo_lo), abs(lo_hi)),
            )
            break
        except (BracketError, NumericalError):
            if attempt == 1:
                raise
            # widen once: push the left edge further into the tail
            eps_lo *= 1e-3
            lo_lo = dist.quantile(eps_lo)
    hi = _solve_upper_crossing(dist, dist.logpdf(lo), mode, upper_hint)
    return CredibleInterval(
        param=dist.param_id,
        kind="hpd",
        level=level,
        lo=lo,
        hi=hi,
        achieved_mass=dist.cdf(hi) - dist.cdf(lo),
    )


def equal_tailed(dist: PosteriorDistribution, level: float) -> CredibleInterval:
    """Interval cutting probability (1-level)/2 from each tail."""
    _check_level(level)
    alpha = 1.0 - level
    lo = dist.quantile(alpha / 2.0)
    hi = dist.quantile(1.0 - alpha / 2.0)
    return CredibleInterval(
        param=dist.param_id,
        kind="equal_tailed",
        level=level,
        lo=lo,
        hi=hi,
        achieved_mass=dist.cdf(hi) - dist.cdf(lo),
    )


def one_sided(dist: PosteriorDistribution, level: float, side: str) -> CredibleInterval:
    """One-sided interval: side="upper" bounds the parameter from above
    by quantile(level); side="lower" bounds it from below by
    quantile(1 - level)."""
    _check_level(level)
    support_lo, support_hi = dist.support()
    if side == "upper":
        hi = dist.quantile(level)
        return CredibleInterval(
            param=dist.param_id,
            kind="upper_one_sided",
            level=level,
            lo=support_lo,
            hi=hi,
            achieved_mass=dist.cdf(hi),
        )
    if side == "lower":
        lo = dist.quantile(1.0 - level)
        return CredibleInterval(
            param=dist.param_id,
            kind="lower_one_sided",
            level=level,
            lo=lo,
            hi=support_hi,
            achieved_mass=1.0 - dist.cdf(lo),
        )
    raise DomainError(f"side must be 'upper' or 'lower', got {side!r}")
