"""Credible intervals: HPD, equal-tailed, and one-sided.

Every marginal is location + scale * Z with the law of Z depending only
on its StandardFamily and shape (see posterior), and every interval kind
is equivariant under that map. standard_bounds therefore solves each
(family, shape, level, kind) once in Z units, memoized for the process
(the 1024 most recent keys), and the interval API and the coverage engine
both rescale it.

Every kind is a tail split: with alpha = 1 - level, the interval leaves
mass p below and alpha - p above, (quantile(p), isf(alpha - p)).
Equal-tailed takes p = alpha/2, upper one-sided p = 0 and lower
one-sided p = alpha. An interval of a strictly unimodal density is the
shortest of its mass (HPD) exactly where its end densities are equal, so
the HPD split is the one root of log_kernel(lo) - log_kernel(hi), which
runs from -inf (p -> 0) to +inf (p -> alpha). One bracketed root find on
s = log(p / (alpha - p)) locates it. The symmetric t needs none: its HPD
split is p = alpha/2.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import DomainError, NumericalError
from .model import SufficientStats
from .posterior import PosteriorDistribution, StandardFamily, beta_posterior

__all__ = [
    "CredibleInterval",
    "hpd_beta",
    "hpd_unimodal",
    "equal_tailed",
    "one_sided",
    "standard_bounds",
    "KINDS",
]

KINDS = ("hpd", "equal_tailed", "upper_one_sided", "lower_one_sided")


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
        _check_kind(self.kind)
        numerics._check_level(self.level)
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


def _check_kind(kind: str):
    if kind not in KINDS:
        raise DomainError(f"unknown interval kind {kind!r}")


def _solve_hpd(family: StandardFamily, shape: tuple, alpha: float):
    """Bounds (quantile(p), isf(alpha - p)) of the HPD interval of a
    strictly unimodal family, at the split p where the end densities meet.

    The objective log_kernel(quantile(p)) - log_kernel(isf(alpha - p)) is
    negative below the HPD split and positive above it. It is solved on
    s = log(p / (alpha - p)) by find_root(gap, s_lo, s_hi), from the ends
    -1 and 1, each doubled until the sign is right; past |s| = 512 the
    split is out of reach and find_root raises BracketError. gap calls the
    family on plain floats and remembers each s it is asked for: the
    doubling loop, find_root's sign check and Brent's start all ask for
    the ends, and the root is a point Brent evaluated, so its bounds are
    returned as computed.
    """
    seen = {}  # s -> (objective, lo, hi)

    def gap(s):
        if s not in seen:
            p = alpha / (1.0 + math.exp(-s))
            lo, hi = family.quantile(*shape, p), family.isf(*shape, alpha - p)
            objective = family.log_kernel(*shape, lo) - family.log_kernel(*shape, hi)
            seen[s] = (float(objective), float(lo), float(hi))
        return seen[s][0]

    s_lo, s_hi = -1.0, 1.0
    while not gap(s_lo) < 0.0 and s_lo > -512.0:
        s_lo *= 2.0
    while not gap(s_hi) > 0.0 and s_hi < 512.0:
        s_hi *= 2.0
    s = numerics.find_root(gap, s_lo, s_hi)
    return seen[s][1:]


@functools.lru_cache(maxsize=1024)
def standard_bounds(family: StandardFamily, shape: tuple, level: float, kind: str):
    """Interval endpoints (lo, hi) in Z units for one family, shape, level, kind.

    An interval of a posterior location + scale * Z is
    (location + scale * lo, location + scale * hi). Every kind returns
    (quantile(p), isf(alpha - p)) for its lower tail mass p; the HPD split
    of an asymmetric family comes with its bounds from _solve_hpd, so the
    family is not called again at the root. The "hpd" kind assumes a
    unimodal family with its mode inside the support; hpd_unimodal
    handles monotone densities before asking. Memoized: the result
    depends only on the arguments.
    """
    _check_kind(kind)
    numerics._check_level(level)
    alpha = 1.0 - level
    tails = {
        "hpd": alpha / 2.0,
        "equal_tailed": alpha / 2.0,
        "upper_one_sided": 0.0,
        "lower_one_sided": alpha,
    }
    with np.errstate(divide="ignore"):
        if kind == "hpd" and not family.symmetric:
            return _solve_hpd(family, shape, alpha)
        p = tails[kind]
        return float(family.quantile(*shape, p)), float(family.isf(*shape, alpha - p))


def _interval(dist: PosteriorDistribution, kind: str, level: float) -> CredibleInterval:
    lo, hi = (
        dist.location + dist.scale * b
        for b in standard_bounds(dist.family, dist.shape, level, kind)
    )
    if not lo < hi:
        raise NumericalError(f"the {dist.param_id} interval at level {level!r} is narrower "
                             f"than one float step at {lo!r}")
    upper, lower = dist.cdf([hi, lo]).tolist()
    return CredibleInterval(
        param=dist.param_id,
        kind=kind,
        level=level,
        lo=lo,
        hi=hi,
        achieved_mass=upper - lower,
    )


def hpd_unimodal(dist: PosteriorDistribution, level: float) -> CredibleInterval:
    """HPD interval of a unimodal posterior (see standard_bounds).

    If the density is monotone (mode on the support boundary, e.g. the
    n = 3 precision posterior) the HPD region is one-sided; the upper
    one-sided interval is returned with a RuntimeWarning, on every call.
    """
    numerics._check_level(level)
    family = dist.family
    if family.mode(*dist.shape) <= family.lower:
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
