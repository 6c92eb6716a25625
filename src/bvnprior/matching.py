"""Checks that a prior satisfies the probability-matching conditions.

Two independent kinds of evidence are produced:

* verify_score_moments draws from the model and confirms, by Monte Carlo,
  the closed-form moment identities for products and third derivatives of
  the log density that every matching argument below relies on (for
  example E[d^3 log f / d theta^3] = 4/theta^3). Every integrand is a
  polynomial in the residuals u = x2 - mu2 - beta (x1 - mu1) and
  v = x1 - mu1, so u and v are computed once per draw and each integrand
  is built from the shared powers u^2, v^2, uv and
  A = u^2/(2 eta) + eta v^2/2.

* pde_residual / verify_prior evaluate the reduced partial differential
  identities that characterize matching priors - for posterior quantiles,
  HPD regions, and likelihood-ratio regions of each of beta, theta, eta -
  on a grid, either from hand-coded prior partials or from finite
  differences of the prior density. A matching prior drives every residual
  to zero; the flat prior is kept as a built-in counterexample.

Each residual is the left side of the corresponding reduced identity,
expanded by the product rule into the prior value and its first/second
partials, so both the analytic and the finite-difference route evaluate
the same linear functional of the prior. The partials are taken once per
grid point and shared by every identity; each beta plane of them is one
PriorPartials of arrays, on which the residuals are plain array
arithmetic. A NaN residual anywhere fails its identity.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields
from functools import partial
from operator import attrgetter
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError
# log_density_partial is not called here; it stays bound in this namespace
# because the benchmark's span recorder wraps matching.log_density_partial
from .model import (
    OrthogonalParams,
    _residuals,
    log_density_partial,  # noqa: F401
    sample,
    to_original,
)

__all__ = [
    "PriorPartials",
    "PriorSpec",
    "MATCHING_PRIOR",
    "FLAT_PRIOR",
    "GridSpec",
    "DEFAULT_GRID",
    "MatchingCondition",
    "CONDITIONS",
    "CONDITION_IDS",
    "ResidualReport",
    "ExpectationCheck",
    "pde_residual",
    "verify_prior",
    "verify_score_moments",
    "residual_report_csv",
    "residual_report_table",
    "moment_report_csv",
    "moment_report_table",
]


@dataclass(frozen=True)
class PriorPartials:
    """Prior density and its partials at one (beta, theta, eta) point.

    Mixed partials never enter the reduced identities, so only the pure
    first and second partials are carried. verify_prior fills the fields
    with arrays over a beta plane of the grid.
    """

    value: float
    d_beta: float
    d_theta: float
    d_eta: float
    d2_beta: float
    d2_theta: float
    d2_eta: float


@dataclass(frozen=True)
class PriorSpec:
    """A prior on (beta, theta, eta) given by its log density.

    analytic_partials, when provided, must return PriorPartials of the
    *density* (not the log density) at a point; otherwise partials are
    taken by finite differences of exp(log_prior).
    """

    name: str
    log_prior: Callable[[float, float, float], float]
    analytic_partials: Callable[[float, float, float], PriorPartials] | None = None


def _matching_log(b, t, e):
    return -math.log(t) - math.log(e)


def _matching_partials(b, t, e):
    v = 1.0 / (t * e)
    return PriorPartials(
        value=v,
        d_beta=0.0,
        d_theta=-v / t,
        d_eta=-v / e,
        d2_beta=0.0,
        d2_theta=2.0 * v / (t * t),
        d2_eta=2.0 * v / (e * e),
    )


def _flat_log(b, t, e):
    return 0.0


def _flat_partials(b, t, e):
    return PriorPartials(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


MATCHING_PRIOR = PriorSpec("matching", _matching_log, _matching_partials)
FLAT_PRIOR = PriorSpec("flat", _flat_log, _flat_partials)


@dataclass(frozen=True)
class GridSpec:
    """Evaluation box: per-axis (lo, hi, count) for beta, theta, eta."""

    beta: tuple[float, float, int] = (-2.0, 2.0, 9)
    theta: tuple[float, float, int] = (0.5, 3.0, 9)
    eta: tuple[float, float, int] = (0.5, 3.0, 9)

    def __post_init__(self):
        for name in ("beta", "theta", "eta"):
            lo, hi, count = getattr(self, name)
            if not lo < hi or count < 2:
                raise DomainError(f"grid axis {name} needs lo < hi and count >= 2")
        if self.theta[0] <= 0.0 or self.eta[0] <= 0.0:
            raise DomainError("theta and eta grid must stay positive")

    def axes(self):
        return (
            np.linspace(*self.beta[:2], self.beta[2]),
            np.linspace(*self.theta[:2], self.theta[2]),
            np.linspace(*self.eta[:2], self.eta[2]),
        )


DEFAULT_GRID = GridSpec()


@dataclass(frozen=True)
class MatchingCondition:
    """One reduced matching identity, as a functional of prior partials."""

    id: str
    target: str  # parameter whose region the identity belongs to
    region: str  # "quantile", "hpd", or "likelihood_ratio"
    description: str
    residual: Callable[[PriorPartials, float, float, float], float]


def _r_dist_a1_beta(p, b, t, e):
    return (p.value + t * p.d_theta) + (p.value + e * p.d_eta)


def _r_dist_a2_beta(p, b, t, e):
    return (t + e) * p.d_beta


def _r_dist_theta(p, b, t, e):
    # expanded from d2/dtheta2(theta^2 pi) - 2 d/dtheta(theta^2 dpi/dtheta)
    #               - 12 d/dtheta(theta pi)
    return -10.0 * p.value - 12.0 * t * p.d_theta - t * t * p.d2_theta


def _r_dist_eta_main(p, b, t, e):
    return -e * p.d_eta - e * e * p.d2_eta - t * p.d_theta


def _r_dist_eta_aux(p, b, t, e):
    return 3.0 * (p.value + e * p.d_eta)


def _r_hpd_beta(p, b, t, e):
    return (p.value + t * p.d_theta) + (p.value + e * p.d_eta) - e * e * p.d2_beta


def _r_hpd_theta(p, b, t, e):
    return -2.0 * p.value - 2.0 * t * p.d_theta - 2.0 * p.d_theta - t * p.d2_theta


def _r_hpd_eta(p, b, t, e):
    return t * p.d_theta - 3.0 * e * p.d_eta - e * e * p.d2_eta


def _r_lr_beta(p, b, t, e):
    return (p.value + t * p.d_theta) + (p.value + e * p.d_eta) + e * e * p.d2_beta


def _r_lr_theta(p, b, t, e):
    return 4.0 * p.value + 6.0 * t * p.d_theta + t * t * p.d2_theta


def _r_lr_eta(p, b, t, e):
    return 3.0 * p.value + t * p.d_theta + 4.0 * e * p.d_eta + e * e * p.d2_eta


CONDITIONS = {
    c.id: c
    for c in (
        MatchingCondition(
            "dist_fn_A1_beta",
            "beta",
            "quantile",
            "d/dtheta(theta pi) + d/deta(eta pi) = 0",
            _r_dist_a1_beta,
        ),
        MatchingCondition(
            "dist_fn_A2_beta",
            "beta",
            "quantile",
            "d/dbeta((theta + eta) pi) = 0",
            _r_dist_a2_beta,
        ),
        MatchingCondition(
            "dist_fn_theta",
            "theta",
            "quantile",
            "d2/dtheta2(theta^2 pi) - 2 d/dtheta(theta^2 dpi/dtheta)"
            " - 12 d/dtheta(theta pi) = 0"
            " [the trailing coefficient is kept at 12 as derived upstream;"
            " doubling the third-moment term would give 8, and any prior"
            " proportional to g(beta,eta)/theta satisfies the identity for"
            " either value]",
            _r_dist_theta,
        ),
        MatchingCondition(
            "dist_fn_eta_main",
            "eta",
            "quantile",
            "d2/deta2(eta^2 pi) - 2 d/deta(eta^2 dpi/deta)"
            " - d/dtheta(theta pi) - d/deta(eta pi) = 0",
            _r_dist_eta_main,
        ),
        MatchingCondition(
            "dist_fn_eta_aux",
            "eta",
            "quantile",
            "d/deta(3 eta pi) = 0",
            _r_dist_eta_aux,
        ),
        MatchingCondition(
            "hpd_beta_pde",
            "beta",
            "hpd",
            "d/dtheta(theta pi) + d/deta(eta pi) - d2/dbeta2(eta^2 pi) = 0",
            _r_hpd_beta,
        ),
        MatchingCondition(
            "hpd_theta_pde",
            "theta",
            "hpd",
            "-2 d/dtheta(theta pi) - d2/dtheta2(theta pi) = 0",
            _r_hpd_theta,
        ),
        MatchingCondition(
            "hpd_eta_pde",
            "eta",
            "hpd",
            "d/dtheta(theta pi) + d/deta(eta pi) - d2/deta2(eta^2 pi) = 0",
            _r_hpd_eta,
        ),
        MatchingCondition(
            "lr_beta_pde",
            "beta",
            "likelihood_ratio",
            "d/dtheta(theta pi) + d/deta(eta pi) + eta^2 d2pi/dbeta2 = 0",
            _r_lr_beta,
        ),
        MatchingCondition(
            "lr_theta_pde",
            "theta",
            "likelihood_ratio",
            "d/dtheta(theta^2 dpi/dtheta + 4 theta pi) = 0",
            _r_lr_theta,
        ),
        MatchingCondition(
            "lr_eta_pde",
            "eta",
            "likelihood_ratio",
            "d/dtheta(theta pi) + d/deta(eta^2 dpi/deta + 2 eta pi) = 0",
            _r_lr_eta,
        ),
    )
}

CONDITION_IDS = tuple(CONDITIONS)


def _fd_partials(log_prior, b, t, e) -> PriorPartials:
    """Prior partials by 4th-order central differences of exp(log_prior).

    Step 1e-4 * max(1, |coordinate|), clamped so theta and eta stay
    positive across the 5-point stencil. 4th-order stencils keep the
    truncation error of the stiffest identity below 1e-7 on the default
    grid, which 3-point stencils at the same step do not.
    """

    def pi(bb, tt, ee):
        return math.exp(log_prior(bb, tt, ee))

    def steps(x, positive):
        h = 1e-4 * max(1.0, abs(x))
        if positive:
            h = min(h, x / 4.0)
        return h

    def d1(f, x, h):
        return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)

    def d2(f, x, h):
        return (
            -f(x + 2 * h) + 16 * f(x + h) - 30 * f(x) + 16 * f(x - h) - f(x - 2 * h)
        ) / (12 * h * h)

    hb = steps(b, False)
    ht = steps(t, True)
    he = steps(e, True)
    fb = lambda x: pi(x, t, e)
    ft = lambda x: pi(b, x, e)
    fe = lambda x: pi(b, t, x)
    return PriorPartials(
        value=pi(b, t, e),
        d_beta=d1(fb, b, hb),
        d_theta=d1(ft, t, ht),
        d_eta=d1(fe, e, he),
        d2_beta=d2(fb, b, hb),
        d2_theta=d2(ft, t, ht),
        d2_eta=d2(fe, e, he),
    )


@dataclass(frozen=True)
class ResidualReport:
    """Worst-case residual of one condition for one prior over a grid."""

    condition_id: str
    prior_name: str
    grid: GridSpec
    used_analytic_partials: bool
    max_abs_residual: float
    worst_point: tuple[float, float, float]
    n_points: int
    pass_tol: float

    @property
    def passed(self) -> bool:
        return self.max_abs_residual <= self.pass_tol


def _pass_tol(used_analytic: bool) -> float:
    return 1e-5 if used_analytic else 1e-3


_PARTIAL_FIELDS = tuple(f.name for f in fields(PriorPartials))
_PARTIAL_VALUES = attrgetter(*_PARTIAL_FIELDS)


def _plane_partials(prior: PriorSpec, b, theta_ax, eta_ax) -> PriorPartials:
    """The prior's partials on the plane beta = b, one evaluation per point.

    Each field is a (len(theta_ax), len(eta_ax)) array; only one plane of
    the grid is held at a time.
    """
    at = prior.analytic_partials or partial(_fd_partials, prior.log_prior)
    plane = np.empty((len(theta_ax), len(eta_ax), len(_PARTIAL_FIELDS)))
    for i, t in enumerate(theta_ax):
        plane[i] = [_PARTIAL_VALUES(at(b, t, e)) for e in eta_ax]
    return PriorPartials(*np.moveaxis(plane, -1, 0))


def _residual_reports(conditions, prior: PriorSpec, grid: GridSpec) -> list[ResidualReport]:
    """Worst absolute residual of each condition over the grid.

    The worst point is the first maximum in row-major (beta, theta, eta)
    order; a NaN residual counts above every number, so the first NaN
    point is reported with max_abs_residual nan and the identity fails.
    """
    beta_ax, theta_ax, eta_ax = grid.axes()
    theta_col, eta_row = theta_ax[:, None], eta_ax[None, :]
    worst = [-1.0] * len(conditions)
    worst_point = [None] * len(conditions)
    for b in beta_ax:
        partials = _plane_partials(prior, b, theta_ax, eta_ax)
        # the residuals are plain arithmetic: an overflow or an invalid
        # operation shows as inf or NaN in the result
        with np.errstate(all="ignore"):
            for k, condition in enumerate(conditions):
                if math.isnan(worst[k]):
                    continue
                r = np.abs(condition.residual(partials, b, theta_col, eta_row))
                i, j = np.unravel_index(np.argmax(r), r.shape)
                if r[i, j] > worst[k] or math.isnan(r[i, j]):
                    worst[k] = float(r[i, j])
                    worst_point[k] = (float(b), float(theta_ax[i]), float(eta_ax[j]))
    use_analytic = prior.analytic_partials is not None
    return [
        ResidualReport(
            condition_id=condition.id,
            prior_name=prior.name,
            grid=grid,
            used_analytic_partials=use_analytic,
            max_abs_residual=worst[k],
            worst_point=worst_point[k],
            n_points=beta_ax.size * theta_ax.size * eta_ax.size,
            pass_tol=_pass_tol(use_analytic),
        )
        for k, condition in enumerate(conditions)
    ]


def pde_residual(
    condition: MatchingCondition | str,
    prior: PriorSpec,
    grid: GridSpec = DEFAULT_GRID,
) -> ResidualReport:
    """Worst absolute residual of one matching identity over the grid.

    Residuals scale linearly with the prior (they are linear functionals),
    so an unnormalized prior is fine. The worst point is the first
    attaining the maximum in row-major (beta, theta, eta) order, and any
    NaN residual makes the identity fail at the first NaN point.
    """
    if isinstance(condition, str):
        try:
            condition = CONDITIONS[condition]
        except KeyError:
            raise DomainError(f"unknown condition id {condition!r}") from None
    return _residual_reports((condition,), prior, grid)[0]


def verify_prior(prior: PriorSpec, grid: GridSpec = DEFAULT_GRID) -> list[ResidualReport]:
    """Residual reports for all matching conditions, in registry order.

    The prior's partials are taken once per grid point and shared by all
    eleven conditions.
    """
    return _residual_reports(tuple(CONDITIONS.values()), prior, grid)


@dataclass(frozen=True)
class ExpectationCheck:
    """Monte Carlo check of one closed-form log-density moment."""

    label: str
    claimed: float
    estimate: float
    stderr: float
    n_samples: int
    passed: bool


class _ResidualPowers(NamedTuple):
    """Shared powers of the residuals u = x2 - mu2 - beta v, v = x1 - mu1."""

    u2: np.ndarray
    v2: np.ndarray
    uv: np.ndarray
    a: np.ndarray  # A = u^2/(2 eta) + eta v^2/2, so log f = -log(2 pi theta) - A/theta


def _residual_powers(params: OrthogonalParams, data) -> _ResidualPowers:
    u, v = _residuals(params, data[:, 0], data[:, 1])
    uv = u * v
    # u and v are fresh arrays: square them in place
    u2, v2 = np.square(u, out=u), np.square(v, out=v)
    return _ResidualPowers(u2, v2, uv, 0.5 * (u2 / params.eta + params.eta * v2))


def _cube(x):
    # an array ** 3 goes through the general pow, several times slower
    return x * x * x


# Each entry: (label, integrand(r, theta, eta), claim(theta, eta)), with r
# the _ResidualPowers of the draws. The integrands are products of the
# exact partials of log f = -log(2 pi theta) - A/theta:
#   dl/dbeta  = uv / (eta theta)          d2l/dbeta2  = -v^2 / (eta theta)
#   dl/dtheta = A/theta^2 - 1/theta       d2l/dtheta2 = 1/theta^2 - 2A/theta^3
#   dl/deta   = (u^2/eta^2 - v^2) / (2 theta)
#   d2l/deta2 = -u^2 / (eta^3 theta)
# and their further derivatives (du/dbeta = -v, dA/deta = -u^2/(2 eta^2) + v^2/2).
_MOMENTS = (
    ("E[(dl/dbeta)^3]",
     lambda r, t, e: _cube(r.uv / (e * t)),
     lambda t, e: 0.0),
    ("E[(dl/dbeta)(d2l/dbeta2)]",
     lambda r, t, e: r.uv * r.v2 * (-1.0 / (e * t) ** 2),
     lambda t, e: 0.0),
    ("E[d3l/dbeta3]",
     lambda r, t, e: np.zeros_like(r.uv),
     lambda t, e: 0.0),
    ("E[d3l/dbeta2 dtheta]",
     lambda r, t, e: r.v2 / (e * t * t),
     lambda t, e: 1.0 / (t * e * e)),
    ("E[d3l/dbeta2 deta]",
     lambda r, t, e: r.v2 / (e * e * t),
     lambda t, e: 1.0 / e ** 3),
    ("E[d3l/dbeta dtheta2]",
     lambda r, t, e: r.uv * (2.0 / (e * t ** 3)),
     lambda t, e: 0.0),
    ("E[d3l/dbeta deta2]",
     lambda r, t, e: r.uv * (2.0 / (e ** 3 * t)),
     lambda t, e: 0.0),
    ("E[(dl/dtheta)^3]",
     lambda r, t, e: _cube(r.a / t ** 2 - 1.0 / t),
     lambda t, e: 2.0 / t ** 3),
    ("E[(dl/dtheta)(d2l/dtheta2)]",
     lambda r, t, e: (r.a / t ** 2 - 1.0 / t) * (1.0 / t ** 2 - r.a * (2.0 / t ** 3)),
     lambda t, e: -2.0 / t ** 3),
    ("E[d3l/dtheta3]",
     lambda r, t, e: r.a * (6.0 / t ** 4) - 2.0 / t ** 3,
     lambda t, e: 4.0 / t ** 3),
    ("E[d3l/dtheta2 deta]",
     lambda r, t, e: (r.u2 / e ** 2 - r.v2) / t ** 3,
     lambda t, e: 0.0),
    ("E[d3l/dtheta deta2]",
     lambda r, t, e: r.u2 / (e ** 3 * t * t),
     lambda t, e: 1.0 / (t * e * e)),
    ("E[(dl/deta)^3]",
     lambda r, t, e: _cube((r.u2 / e ** 2 - r.v2) / (2.0 * t)),
     lambda t, e: 0.0),
    ("E[(dl/deta)(d2l/deta2)]",
     lambda r, t, e: (r.u2 / e ** 2 - r.v2) * r.u2 * (-1.0 / (2.0 * e ** 3 * t * t)),
     lambda t, e: -1.0 / e ** 3),
    ("E[d3l/deta3]",
     lambda r, t, e: r.u2 * (3.0 / (e ** 4 * t)),
     lambda t, e: 3.0 / e ** 3),
)


def verify_score_moments(
    params: OrthogonalParams,
    n_samples: int = 1_000_000,
    seed: int = 0,
) -> list[ExpectationCheck]:
    """Monte Carlo confirmation of the moment identities at one point.

    Draws n_samples observations from the model at params and averages the
    corresponding product of log-density derivatives for each identity.
    The derivatives are exact, built from the residual powers shared by
    all identities, so a check passes when |estimate - claim| <= 4 * stderr;
    an identically zero integrand gives estimate 0 with stderr 0.
    """
    if n_samples < 100_000:
        raise DomainError("verify_score_moments needs n_samples >= 100000")
    powers = _residual_powers(params, sample(to_original(params), n_samples, seed))
    t, e = params.theta, params.eta
    checks = []
    # one integrand at a time keeps as few n_samples-long arrays alive as possible
    for label, integrand, claim in _MOMENTS:
        vals = integrand(powers, t, e)
        estimate = float(np.mean(vals))
        stderr = float(np.std(vals, ddof=1) / math.sqrt(n_samples))
        claimed = claim(t, e)
        passed = abs(estimate - claimed) <= 4.0 * stderr
        checks.append(
            ExpectationCheck(
                label=label,
                claimed=claimed,
                estimate=estimate,
                stderr=stderr,
                n_samples=n_samples,
                passed=passed,
            )
        )
    return checks


def residual_report_csv(reports: list[ResidualReport]) -> str:
    """CSV with columns condition_id,prior,max_abs_residual,worst_beta,
    worst_theta,worst_eta,pass."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["condition_id", "prior", "max_abs_residual", "worst_beta", "worst_theta",
         "worst_eta", "pass"]
    )
    for r in reports:
        writer.writerow(
            [
                r.condition_id,
                r.prior_name,
                f"{r.max_abs_residual:.6e}",
                repr(r.worst_point[0]),
                repr(r.worst_point[1]),
                repr(r.worst_point[2]),
                str(r.passed).lower(),
            ]
        )
    return buf.getvalue()


def residual_report_table(reports: list[ResidualReport]) -> str:
    """Human-readable aligned table of residual reports."""
    lines = [
        f"{'condition':18s} {'target':6s} {'region':16s} {'max |residual|':>15s} {'pass':>5s}"
    ]
    for r in reports:
        cond = CONDITIONS[r.condition_id]
        lines.append(
            f"{r.condition_id:18s} {cond.target:6s} {cond.region:16s}"
            f" {r.max_abs_residual:15.3e} {'yes' if r.passed else 'NO':>5s}"
        )
    return "\n".join(lines) + "\n"


def moment_report_csv(checks: list[ExpectationCheck]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["moment", "claimed", "estimate", "stderr", "n_samples", "pass"])
    for c in checks:
        writer.writerow(
            [c.label, repr(c.claimed), repr(c.estimate), repr(c.stderr),
             c.n_samples, str(c.passed).lower()]
        )
    return buf.getvalue()


def moment_report_table(checks: list[ExpectationCheck]) -> str:
    lines = [
        f"{'moment':30s} {'claimed':>12s} {'estimate':>12s} {'stderr':>10s} {'pass':>5s}"
    ]
    for c in checks:
        lines.append(
            f"{c.label:30s} {c.claimed:12.6f} {c.estimate:12.6f}"
            f" {c.stderr:10.2e} {'yes' if c.passed else 'NO':>5s}"
        )
    return "\n".join(lines) + "\n"
