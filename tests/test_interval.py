"""Credible intervals: HPD, equal-tailed, one-sided.

HPD reference endpoints were produced by an independent mpmath
density-level sweep at 30 significant digits: bisect the density cutoff
k, find both crossings of kernel(x) = k by high-precision bisection, and
integrate the kernel directly for the enclosed mass.
"""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from bvnprior.errors import BracketError, DomainError
from bvnprior.interval import (
    KINDS,
    CredibleInterval,
    equal_tailed,
    hpd_beta,
    hpd_unimodal,
    one_sided,
    standard_bounds,
)
from bvnprior.model import OriginalParams, SufficientStats, sample, sufficient_stats
from bvnprior.posterior import (
    EtaPosterior,
    PrecisionPosterior,
    ThetaPosterior,
    beta_posterior,
    eta_posterior,
    precision_posterior,
    theta_posterior,
)

REF = SufficientStats(n=10, xbar1=0.0, xbar2=0.0, s11=9.0, s22=5.0, s12=3.0, s22_1=4.0)

HPD_ORACLE = {
    ("theta", 0.90): (0.38080152751737873, 1.3267578671051601),
    ("theta", 0.95): (0.34662334083544961, 1.537604992726889),
    ("theta", 0.99): (0.29146773483016908, 2.0848016975900592),
    ("precision_w", 0.95): (0.49564398846801337, 2.271920883798059),
    ("eta", 0.90): (0.32995229215949291, 1.1789344329839092),
    ("eta", 0.95): (0.28824892772008956, 1.3403451640670967),
    ("eta", 0.99): (0.21745430229163232, 1.7459687394151306),
}
BETA_HPD_ORACLE_95 = (-0.21019705381569548, 0.87686372048236215)


POSTERIORS = {
    "beta": beta_posterior,
    "theta": theta_posterior,
    "precision_w": precision_posterior,
    "eta": eta_posterior,
}


def _dist(param):
    return POSTERIORS[param](REF)


@pytest.mark.parametrize("key", sorted(HPD_ORACLE), ids=lambda k: f"{k[0]}-{k[1]}")
def test_hpd_matches_level_sweep_oracle(key):
    param, level = key
    olo, ohi = HPD_ORACLE[key]
    iv = hpd_unimodal(_dist(param), level)
    assert iv.lo == pytest.approx(olo, abs=1e-9)
    assert iv.hi == pytest.approx(ohi, abs=1e-9)
    assert iv.kind == "hpd"
    assert iv.level == level


def test_hpd_beta_matches_oracle_and_generic_solver():
    iv = hpd_beta(REF, 0.95)
    assert iv.lo == pytest.approx(BETA_HPD_ORACLE_95[0], abs=1e-12)
    assert iv.hi == pytest.approx(BETA_HPD_ORACLE_95[1], abs=1e-12)
    generic = hpd_unimodal(beta_posterior(REF), 0.95)
    assert abs(iv.lo - generic.lo) < 1e-8
    assert abs(iv.hi - generic.hi) < 1e-8


@pytest.mark.parametrize("param", ["beta", "theta", "precision_w", "eta"])
@pytest.mark.parametrize("level", [0.9, 0.95, 0.99, 1.0 - 1e-9])
def test_hpd_mass_and_endpoint_density(param, level):
    dist = _dist(param)
    iv = hpd_beta(REF, level) if param == "beta" else hpd_unimodal(dist, level)
    # 1e-6 absolute at the usual levels; near level 1 the excluded tail
    # mass alpha itself must be right to 0.1%
    tol = min(1e-6, 1e-3 * (1.0 - level))
    assert iv.kind == "hpd"
    assert abs(iv.achieved_mass - level) < tol
    assert abs(dist.cdf(iv.hi) - dist.cdf(iv.lo) - level) < tol
    flo, fhi = dist.pdf(iv.lo), dist.pdf(iv.hi)
    assert abs(flo - fhi) <= 1e-6 * max(flo, fhi)


# the n = 3 precision density is monotone, so its HPD region is one-sided
FAR_CASES = [
    (param, n)
    for param in ("theta", "precision_w", "eta")
    for n in (3, 4, 5, 10)
    if (param, n) != ("precision_w", 3)
]


@pytest.mark.parametrize("level", [0.999, 0.999999, 1.0 - 1e-9, 1.0 - 1e-14],
                         ids=["0.999", "0.999999", "1-1e-9", "1-1e-14"])
@pytest.mark.parametrize("param,n", FAR_CASES)
def test_hpd_at_level_one_minus_1e14(param, n, level):
    # far levels on small n put the HPD left end at tail masses far below
    # alpha (eta at n = 3: 5e-13 at level 0.999, 5e-25 at 0.999999), and
    # the excluded tail alpha itself must come out right
    dist = {
        "theta": theta_posterior,
        "precision_w": precision_posterior,
        "eta": eta_posterior,
    }[param](replace(REF, n=n))
    iv = hpd_unimodal(dist, level)
    assert iv.kind == "hpd"
    assert abs(iv.achieved_mass - level) <= 1e-15
    assert abs(dist.cdf(iv.hi) - dist.cdf(iv.lo) - level) <= 1e-15
    assert abs(dist.logpdf(iv.lo) - dist.logpdf(iv.hi)) <= 1e-9


@pytest.mark.parametrize("param", ["theta", "precision_w", "eta"])
@pytest.mark.parametrize("level", [0.8, 0.95, 0.99])
def test_hpd_contracts_hold_at_large_n(param, level):
    # in pivot units theta is about 1/n, so the HPD root finds must stop
    # relative to the bracket, not at an absolute 1e-13
    n = 20000
    st = SufficientStats(
        n=n, xbar1=0.0, xbar2=0.0, s11=float(n), s22=1.25 * n, s12=0.5 * n, s22_1=float(n)
    )
    dist = {
        "theta": theta_posterior,
        "precision_w": precision_posterior,
        "eta": eta_posterior,
    }[param](st)
    iv = hpd_unimodal(dist, level)
    assert abs(iv.achieved_mass - level) <= 1e-10
    assert abs(dist.logpdf(iv.lo) - dist.logpdf(iv.hi)) <= 1e-9


def _solve(dist, level, kind):
    if kind == "hpd":
        return hpd_unimodal(dist, level)
    if kind == "equal_tailed":
        return equal_tailed(dist, level)
    return one_sided(dist, level, kind.split("_")[0])


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    param=hs.sampled_from(["beta", "theta", "precision_w", "eta"]),
    n=hs.integers(4, 20000),
    level=hs.floats(0.5, 0.9999),
    kind=hs.sampled_from(KINDS),
    log_s11=hs.floats(-4.0, 4.0),
    log_s22_1=hs.floats(-4.0, 4.0),
    slope_in_scales=hs.floats(-1e3, 1e3),
)
def test_intervals_rescale_the_standard_bounds(
    param, n, level, kind, log_s11, log_s22_1, slope_in_scales
):
    s11, s22_1 = 10.0**log_s11, 10.0**log_s22_1
    # the slope posterior sits this many of its scales from 0; far more
    # and its endpoints round to multiples of eps * |location|
    slope = slope_in_scales * math.sqrt(s22_1 / ((n - 2) * s11))
    st = SufficientStats(
        n=n, xbar1=0.0, xbar2=0.0, s11=s11, s22=s22_1 + slope * slope * s11,
        s12=slope * s11, s22_1=s22_1,
    )
    dist = POSTERIORS[param](st)
    iv = _solve(dist, level, kind)
    lo, hi = standard_bounds(dist.family, dist.shape, level, kind)
    assert (iv.lo, iv.hi) == (dist.location + dist.scale * lo, dist.location + dist.scale * hi)
    assert iv.achieved_mass == dist.cdf(iv.hi) - dist.cdf(iv.lo)
    assert abs(iv.achieved_mass - level) <= 1e-9
    if kind == "hpd":
        assert abs(dist.logpdf(iv.lo) - dist.logpdf(iv.hi)) <= 1e-9


def test_hpd_is_narrower_than_equal_tailed():
    for param in ("theta", "precision_w", "eta"):
        dist = _dist(param)
        h = hpd_unimodal(dist, 0.95)
        e = equal_tailed(dist, 0.95)
        assert h.width() < e.width()
        # skewed-right densities push the equal-tailed interval rightward
        assert e.hi > h.hi


def test_theta_and_precision_hpds_are_not_reciprocal():
    th = hpd_unimodal(theta_posterior(REF), 0.95)
    wh = hpd_unimodal(precision_posterior(REF), 0.95)
    # reciprocating the w interval gives a *different* valid 95% set
    assert abs(th.lo - 1.0 / wh.hi) > 1e-3
    assert abs(th.hi - 1.0 / wh.lo) > 1e-3
    td = theta_posterior(REF)
    assert td.cdf(1.0 / wh.lo) - td.cdf(1.0 / wh.hi) == pytest.approx(0.95, abs=1e-9)


def test_hpd_beta_is_scale_equivariant():
    # rescaling x2 by a factor rescales the slope interval by the same
    iv = hpd_beta(REF, 0.95)
    scaled = SufficientStats(
        n=REF.n,
        xbar1=REF.xbar1,
        xbar2=REF.xbar2 * 3.0,
        s11=REF.s11,
        s22=REF.s22 * 9.0,
        s12=REF.s12 * 3.0,
        s22_1=REF.s22_1 * 9.0,
    )
    iv3 = hpd_beta(scaled, 0.95)
    assert iv3.lo == pytest.approx(3.0 * iv.lo, rel=1e-12)
    assert iv3.hi == pytest.approx(3.0 * iv.hi, rel=1e-12)


def test_equal_tailed_splits_tail_mass():
    for param in ("beta", "theta", "precision_w", "eta"):
        dist = _dist(param)
        iv = equal_tailed(dist, 0.9)
        assert dist.cdf(iv.lo) == pytest.approx(0.05, abs=1e-10)
        assert dist.cdf(iv.hi) == pytest.approx(0.95, abs=1e-10)
        assert iv.kind == "equal_tailed"


def test_one_sided_intervals():
    dist = _dist("theta")
    up = one_sided(dist, 0.95, "upper")
    assert up.lo == 0.0
    assert dist.cdf(up.hi) == pytest.approx(0.95, abs=1e-12)
    lo = one_sided(dist, 0.95, "lower")
    assert math.isinf(lo.hi)
    assert dist.cdf(lo.lo) == pytest.approx(0.05, abs=1e-12)
    b = one_sided(_dist("beta"), 0.9, "lower")
    assert math.isinf(b.hi) and b.lo > -math.inf
    with pytest.raises(DomainError):
        one_sided(dist, 0.95, "sideways")


def test_monotone_density_falls_back_to_one_sided():
    # n = 3 makes the precision density monotone decreasing (shape 1)
    st = SufficientStats(n=3, xbar1=0.0, xbar2=0.0, s11=2.0, s22=2.0, s12=0.5, s22_1=1.875)
    dist = precision_posterior(st)
    with pytest.warns(RuntimeWarning):
        iv = hpd_unimodal(dist, 0.95)
    assert iv.kind == "upper_one_sided"
    assert iv.lo == 0.0
    assert dist.cdf(iv.hi) == pytest.approx(0.95, abs=1e-10)


def test_hpd_is_shortest_interval_at_its_mass():
    # shifting the HPD interval while keeping its mass can only widen it
    dist = _dist("eta")
    iv = hpd_unimodal(dist, 0.9)
    for eps in (-0.02, -0.005, 0.005, 0.02):
        lo = iv.lo + eps
        hi = dist.quantile(min(1 - 1e-12, dist.cdf(lo) + 0.9))
        assert hi - lo >= iv.width() - 1e-9


def test_interval_validation_and_serialization():
    with pytest.raises(DomainError):
        hpd_beta(REF, 1.0)
    with pytest.raises(DomainError):
        equal_tailed(_dist("theta"), 0.0)
    with pytest.raises(DomainError):
        CredibleInterval("theta", "hpd", 0.95, 2.0, 1.0, 0.95)
    with pytest.raises(DomainError):
        CredibleInterval("theta", "banana", 0.95, 1.0, 2.0, 0.95)

    iv = one_sided(_dist("beta"), 0.95, "lower")
    payload = json.loads(iv.to_json())
    assert payload["hi"] is None  # infinite endpoint serializes as null
    assert payload["param"] == "beta"
    assert payload["kind"] == "lower_one_sided"

    box = hpd_unimodal(_dist("theta"), 0.9)
    assert box.contains(box.lo + 1e-9)
    assert not box.contains(box.hi + 1e-9)
    d = box.to_dict()
    assert set(d) == {"param", "kind", "level", "lo", "hi", "achieved_mass"}


@pytest.mark.parametrize("level", [1e-6, 1e-9])
def test_beta_hpd_at_a_tiny_level_keeps_its_mass(level):
    # the t quantile and cdf near the median come from the central mass
    # I_x(1/2, df/2), so neither end rounds onto the median
    iv = hpd_beta(REF, level)
    assert iv.lo < iv.hi
    assert abs(iv.achieved_mass - level) <= 1e-6 * level


@pytest.mark.parametrize("param,n,level", [
    (param, n, level)
    for param in ("theta", "precision_w", "eta")
    for n, level in ((3, 0.999999), (4, 0.95), (5, 1.0 - 1e-14), (10, 0.5), (20000, 0.8))
    if (param, n) != ("precision_w", 3)
])
def test_hpd_solve_evaluates_each_tail_mass_once(param, n, level):
    # a copied family hashes apart from the original, so the memo is cold
    dist = POSTERIORS[param](replace(REF, n=n))
    family = dist.family
    calls = []

    def counted(name, f):
        def call(*shape_and_q):
            out = f(*shape_and_q)
            calls.append((name, shape_and_q[-1], float(out)))
            return out
        return call

    cold = replace(family, quantile=counted("quantile", family.quantile),
                   isf=counted("isf", family.isf))
    lo, hi = standard_bounds(cold, dist.shape, level, "hpd")
    # each tail mass reaches the family as one Python float
    assert {type(q) for _, q, _ in calls} == {float}
    masses, bounds = {}, {}
    for name in ("quantile", "isf"):
        masses[name] = [q for called, q, _ in calls if called == name]
        bounds[name] = [b for called, _, b in calls if called == name]
    # a split is its pair of tail masses: far out, alpha - p rounds alike
    # for distinct p
    splits = list(zip(masses["quantile"], masses["isf"]))
    assert len(splits) == len(set(splits))
    # the root is a split Brent evaluated, so its bounds are returned as
    # computed; a call after the root find would repeat its tail masses
    assert (lo, hi) in zip(bounds["quantile"], bounds["isf"])


# every asymmetric family at n from 4 to 59 and far out, at levels from
# 0.5 to 1 - 1e-12: 1,512 HPD solves
_HPD_SWEEP_NS = (*range(4, 60), 100, 200, 500, 1000, 5000, 100_000, 1_000_000)
_HPD_SWEEP_LEVELS = (0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 1.0 - 1e-6, 1.0 - 1e-12)


def test_hpd_sweep_is_pinned():
    # any change to how an HPD split is solved or evaluated shows here;
    # such a change must update this hash knowingly
    text = "".join(
        repr(standard_bounds(posterior.family, posterior.pivot(n, 1.0, 0.0, 1.0)[0], level, "hpd"))
        for n in _HPD_SWEEP_NS
        for level in _HPD_SWEEP_LEVELS
        for posterior in (ThetaPosterior, PrecisionPosterior, EtaPosterior)
    )
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "37ab665b3c3d945310169c04079c88be5b3d09a7d684de03bda58abf30edfd0c"


# the lower-triangular group x1 -> a11 x1, x2 -> a21 x1 + a22 x2 acts on each
# parameter by an increasing map
_GROUP_MAPS = {
    "beta": lambda v, a11, a21, a22: (a22 * v + a21) / a11,
    "theta": lambda v, a11, a21, a22: a11 * a22 * v,
    "precision_w": lambda v, a11, a21, a22: v / (a11 * a22),
    "eta": lambda v, a11, a21, a22: a22 * v / a11,
}


def test_intervals_are_equivariant_under_the_lower_triangular_group():
    # interval(g data) = g interval(data) for every param and kind, up to
    # rounding in the moved data and statistics: measured at most 1.5e-14
    # of |endpoint| + posterior scale over these 60 draws (5.5e-14 over
    # 1,000 on another seed), asserted at 1e-12
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(60):
        n = int(rng.choice([4, 5, 9, 30, 400]))
        data = sample(OriginalParams(0.0, 0.0, 1.0, 1.0, float(rng.uniform(-0.9, 0.9))),
                      n, int(rng.integers(1 << 32)))
        a11, a22 = np.exp(2.0 * rng.normal(size=2))
        a21 = 3.0 * rng.normal()
        moved = np.column_stack([a11 * data[:, 0], a21 * data[:, 0] + a22 * data[:, 1]])
        level = float(rng.choice([0.5, 0.9, 0.95, 0.999]))
        stats, moved_stats = sufficient_stats(data), sufficient_stats(moved)
        for param, posterior in POSTERIORS.items():
            dist = posterior(moved_stats)
            for kind in KINDS:
                iv, moved_iv = _solve(posterior(stats), level, kind), _solve(dist, level, kind)
                for end, moved_end in ((iv.lo, moved_iv.lo), (iv.hi, moved_iv.hi)):
                    mapped = _GROUP_MAPS[param](end, a11, a21, a22)
                    if math.isinf(mapped) or mapped == 0.0:
                        assert mapped == moved_end, (param, kind)
                    else:
                        worst = max(worst, abs(mapped - moved_end) / (abs(moved_end) + dist.scale))
    assert worst <= 1e-12
