"""Correctness oracles for the benchmark outputs.

Nothing here calls into bvnprior. Sufficient statistics are recomputed
from the raw pairs (the residual sum of squares directly, not as
S22 - S12^2/S11), and each marginal posterior is rebuilt from scipy.stats:

  beta  : t(n-2), location S12/S11, scale sqrt(S22.1 / ((n-2) S11))
  theta : invgamma(n-2, scale r), r = sqrt(S11 S22.1)
  w     : gamma(n-2, scale 1/r)
  eta   : z = x^2 S11 / (x^2 S11 + S22.1) follows beta((n-1)/2, (n-2)/2)

Each check returns None when the output is right and a one-line reason
when it is not. Tolerances follow the package's acceptance suite (1e-6 on
probability mass and on relative endpoint density), tightened in the far
tails to 1% of the tail probability, so a level of 0.999999 is held to
1e-8 rather than to a band as wide as its tail.

The statistical checks (coverage against its binomial band, KS uniformity
of posterior CDF values, Monte Carlo moment bands) are Bonferroni-corrected
so that a correct program is flagged in a run with probability at most
FAMILY_ALPHA, whatever the number of checks the run makes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special, stats

FAMILY_ALPHA = 1e-6

PARAM_IDS = {"beta": "beta", "theta": "theta", "w": "precision_w", "eta": "eta"}


def prob_tol(p: float) -> float:
    """Allowed error of a probability p: 1e-6, or 1% of a smaller tail."""
    return min(1e-6, 0.01 * min(p, 1.0 - p))


@dataclass(frozen=True)
class Stats:
    n: int
    s11: float
    s12: float
    s22_1: float


def sufficient_stats(data: np.ndarray) -> Stats:
    """Two-pass statistics with compensated sums."""
    x1 = data[:, 0]
    x2 = data[:, 1]
    d1 = x1 - math.fsum(x1) / len(x1)
    d2 = x2 - math.fsum(x2) / len(x2)
    s11 = math.fsum(d1 * d1)
    s12 = math.fsum(d1 * d2)
    resid = d2 - (s12 / s11) * d1
    return Stats(n=len(x1), s11=s11, s12=s12, s22_1=math.fsum(resid * resid))


class Marginal:
    """One exact marginal posterior: cdf, logpdf, mode, mean, support."""

    def __init__(self, param: str, st: Stats):
        self.param = param
        nu = st.n - 2
        self.monotone = False
        if param == "beta":
            self.scale = math.sqrt(st.s22_1 / (nu * st.s11))
            self.dist = stats.t(df=nu, loc=st.s12 / st.s11, scale=self.scale)
            self.support_lo = -math.inf
            self.mode = st.s12 / st.s11
            self.mean = self.mode if nu > 1 else None
            return
        self.support_lo = 0.0
        r = math.sqrt(st.s11 * st.s22_1)
        if param == "theta":
            self.dist = stats.invgamma(a=nu, scale=r)
            self.mode = r / (nu + 1)
            self.mean = r / (nu - 1) if nu > 1 else None
        elif param == "w":
            self.dist = stats.gamma(a=nu, scale=1.0 / r)
            self.monotone = nu <= 1
            self.mode = (nu - 1) / r if nu > 1 else 0.0
            self.mean = nu / r
        else:
            self.dist = None
            self._s11, self._s22_1 = st.s11, st.s22_1
            a, b = (st.n - 1) / 2.0, nu / 2.0
            self._z = stats.beta(a, b)
            c = st.s22_1 / st.s11
            self.mode = math.sqrt(c * nu / (st.n - 1))
            self.mean = (
                math.sqrt(c) * math.exp(special.betaln(a + 0.5, b - 0.5) - special.betaln(a, b))
                if st.n >= 4 else None
            )
        self.scale = self.mode if self.mode > 0 else self.mean

    def cdf(self, x: float) -> float:
        if x <= self.support_lo:
            return 0.0
        if math.isinf(x):
            return 1.0
        if self.dist is not None:
            return float(self.dist.cdf(x))
        x2s = x * x * self._s11
        return float(self._z.cdf(x2s / (x2s + self._s22_1)))

    def eta_unit_width(self) -> float:
        """Length of the central 98% of the eta posterior after the map
        u = x / (1 + x) of [0, inf) onto the unit interval."""
        def u(p):
            z = float(self._z.ppf(p))
            x = math.sqrt(self._s22_1 * z / ((1.0 - z) * self._s11))
            return x / (1.0 + x)

        return u(0.99) - u(0.01)

    def logpdf(self, x: float) -> float:
        if self.dist is not None:
            return float(self.dist.logpdf(x))
        x2s = x * x * self._s11
        denom = x2s + self._s22_1
        dz_dx = 2.0 * x * self._s11 * self._s22_1 / (denom * denom)
        return float(self._z.logpdf(x2s / denom)) + math.log(dz_dx)


# The package integrates the eta kernel over [0, inf) mapped onto the unit
# interval by u = x / (1 + x), and its adaptive rule can miss a peak that is
# narrow there (see the README's known failures). A wrong eta output counts
# as that defect only when the exact posterior is at least this narrow on
# the unit interval. Among 3000 datasets drawn like the interval workload's,
# with n log-uniform on [30, 5000], the 62 that failed all had a width below
# 0.0121.
NARROW_ETA_WIDTH = 0.025


def marginals(data: np.ndarray) -> dict:
    st = sufficient_stats(data)
    return {param: Marginal(param, st) for param in PARAM_IDS}


def _close(value, expected, rel: float, scale: float = 0.0) -> bool:
    """value within rel of expected, measured against |expected| or scale."""
    if value is None or expected is None:
        return value is None and expected is None
    return abs(value - expected) <= rel * max(abs(expected), scale)


def check_interval(payload: dict, marg: Marginal, kind: str, level: float):
    """An `interval` JSON against the exact marginal."""
    if payload.get("param") != PARAM_IDS[marg.param]:
        return f"param {payload.get('param')!r}"
    if payload.get("level") != level:
        return f"level {payload.get('level')!r} != {level!r}"
    got_kind = payload.get("kind")
    if kind == "hpd" and marg.monotone:
        # a monotone density has a one-sided highest-density region
        kind = "upper_one_sided"
    if got_kind != kind:
        return f"kind {got_kind!r} != {kind!r}"
    lo = -math.inf if payload["lo"] is None else payload["lo"]
    hi = math.inf if payload["hi"] is None else payload["hi"]
    if not lo < hi:
        return f"empty interval [{lo}, {hi}]"
    if kind == "upper_one_sided" and lo != marg.support_lo:
        return f"upper one-sided lo {lo} is not the support end"
    if kind == "lower_one_sided" and hi != math.inf:
        return f"lower one-sided hi {hi} is not +inf"
    mass = marg.cdf(hi) - marg.cdf(lo)
    tol = prob_tol(level)
    if abs(mass - level) > tol:
        return f"mass {mass!r} vs level {level} (tol {tol:g})"
    if abs(payload["achieved_mass"] - mass) > tol:
        return f"achieved_mass {payload['achieved_mass']!r} vs exact {mass!r}"
    if kind == "hpd":
        if not lo < marg.mode < hi:
            return f"mode {marg.mode} outside HPD [{lo}, {hi}]"
        gap = abs(marg.logpdf(lo) - marg.logpdf(hi))
        if gap > 1e-6:
            return f"HPD endpoint log-densities differ by {gap:.3g}"
    return None


def check_posterior(payload: dict, marg: Marginal, n: int):
    """A `posterior` JSON summary against the exact marginal."""
    if payload.get("param") != PARAM_IDS[marg.param] or payload.get("n") != n:
        return f"param/n {payload.get('param')!r}/{payload.get('n')!r}"
    if not _close(payload.get("mode"), marg.mode, 1e-7, marg.scale):
        return f"mode {payload.get('mode')!r} vs {marg.mode!r}"
    if not _close(payload.get("mean"), marg.mean, 1e-7, marg.scale):
        return f"mean {payload.get('mean')!r} vs {marg.mean!r}"
    probes = [(0.5, payload.get("median"))]
    probes += [(float(p), q) for p, q in payload.get("quantiles", {}).items()]
    if len(probes) != 6:
        return f"expected 5 quantiles, got {len(probes) - 1}"
    for p, q in probes:
        if q is None:
            return f"quantile {p} missing"
        err = abs(marg.cdf(q) - p)
        if err > prob_tol(p):
            return f"quantile {p}: cdf error {err:.3g}"
    return None


# -- coverage -----------------------------------------------------------------


def binomial_p(hits: int, trials: int, level: float) -> float:
    """Exact two-sided binomial p-value of hits out of trials at rate level."""
    lower = stats.binom.cdf(hits, trials, level)
    upper = stats.binom.sf(hits - 1, trials, level)
    return float(min(1.0, 2.0 * min(lower, upper)))


def ks_statistic(values) -> float:
    """Kolmogorov-Smirnov distance of values from U(0, 1)."""
    u = np.sort(np.asarray(values, dtype=float))
    k = np.arange(1, len(u) + 1)
    return float(max(np.max(k / len(u) - u), np.max(u - (k - 1) / len(u))))


def ks_p(values) -> float:
    return float(stats.kstwo.sf(ks_statistic(values), len(values)))


# -- verifiers ----------------------------------------------------------------

# closed-form moments of the log density at (theta t, eta e), in the order
# verify_score_moments reports them
MOMENT_CLAIMS = (
    ("E[(dl/dbeta)^3]", lambda t, e: 0.0),
    ("E[(dl/dbeta)(d2l/dbeta2)]", lambda t, e: 0.0),
    ("E[d3l/dbeta3]", lambda t, e: 0.0),
    ("E[d3l/dbeta2 dtheta]", lambda t, e: 1.0 / (t * e * e)),
    ("E[d3l/dbeta2 deta]", lambda t, e: 1.0 / e ** 3),
    ("E[d3l/dbeta dtheta2]", lambda t, e: 0.0),
    ("E[d3l/dbeta deta2]", lambda t, e: 0.0),
    ("E[(dl/dtheta)^3]", lambda t, e: 2.0 / t ** 3),
    ("E[(dl/dtheta)(d2l/dtheta2)]", lambda t, e: -2.0 / t ** 3),
    ("E[d3l/dtheta3]", lambda t, e: 4.0 / t ** 3),
    ("E[d3l/dtheta2 deta]", lambda t, e: 0.0),
    ("E[d3l/dtheta deta2]", lambda t, e: 1.0 / (t * e * e)),
    ("E[(dl/deta)^3]", lambda t, e: 0.0),
    ("E[(dl/deta)(d2l/deta2)]", lambda t, e: -1.0 / e ** 3),
    ("E[d3l/deta3]", lambda t, e: 3.0 / e ** 3),
)

# |residual| of each identity under the flat prior (value 1, all partials 0):
# the reduced identities collapse to these constants at every grid point
FLAT_RESIDUALS = {
    "dist_fn_A1_beta": 2.0,
    "dist_fn_A2_beta": 0.0,
    "dist_fn_theta": 10.0,
    "dist_fn_eta_main": 0.0,
    "dist_fn_eta_aux": 3.0,
    "hpd_beta_pde": 2.0,
    "hpd_theta_pde": 2.0,
    "hpd_eta_pde": 0.0,
    "lr_beta_pde": 2.0,
    "lr_theta_pde": 4.0,
    "lr_eta_pde": 3.0,
}


def moment_band(z: float, stderr: float) -> float:
    """Allowed |estimate - claim|: z standard errors plus the 1e-6
    finite-difference budget the package documents."""
    return z * stderr + 1e-6


def check_moments(checks, theta: float, eta: float, n_samples: int, z: float):
    """verify_score_moments output against the closed forms, at z sigma."""
    if len(checks) != len(MOMENT_CLAIMS):
        return f"{len(checks)} moment checks, expected {len(MOMENT_CLAIMS)}"
    for check, (label, claim) in zip(checks, MOMENT_CLAIMS):
        expected = claim(theta, eta)
        if check.label != label:
            return f"moment label {check.label!r} != {label!r}"
        if check.n_samples != n_samples:
            return f"{label}: n_samples {check.n_samples}"
        if not _close(check.claimed, expected, 1e-12):
            return f"{label}: claimed {check.claimed!r} vs {expected!r}"
        if abs(check.estimate - expected) > moment_band(z, check.stderr):
            return f"{label}: estimate {check.estimate!r} vs {expected!r} +- {z:.2f} se"
    return None


def check_residuals(reports, prior: str, n_points: int):
    """verify_prior reports: the matching prior passes every identity (to
    1e-12 analytically, 1e-6 by finite differences); the flat prior fails
    exactly the identities with a nonzero constant residual."""
    got = {r.condition_id: r for r in reports}
    if set(got) != set(FLAT_RESIDUALS) or len(reports) != len(FLAT_RESIDUALS):
        return f"condition ids {sorted(got)}"
    for cid, r in got.items():
        if r.n_points != n_points:
            return f"{cid}: {r.n_points} grid points, expected {n_points}"
        if prior == "flat":
            expected = FLAT_RESIDUALS[cid]
            if abs(r.max_abs_residual - expected) > 1e-12 or r.passed != (expected == 0.0):
                return f"flat {cid}: residual {r.max_abs_residual!r} passed={r.passed}"
        else:
            bound = 1e-12 if prior == "analytic" else 1e-6
            if not (r.passed and r.max_abs_residual <= bound):
                return f"{prior} {cid}: residual {r.max_abs_residual!r} passed={r.passed}"
    return None
