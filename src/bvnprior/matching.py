"""Checks that a prior satisfies the probability-matching conditions.

Two independent kinds of evidence are produced:

* verify_score_moments draws from the model and confirms, by Monte Carlo,
  the closed-form moment identities for products and third derivatives of
  the log density that every matching argument below relies on (for
  example E[d^3 log f / d theta^3] = 4/theta^3).

* pde_residual / verify_prior evaluate the reduced partial differential
  identities that characterize matching priors - for posterior quantiles,
  HPD regions, and likelihood-ratio regions of each of beta, theta, eta -
  on a grid, either from hand-coded prior partials or from finite
  differences of the prior density. A matching prior drives every residual
  to zero; the flat prior is kept as a built-in counterexample.

Each residual is the left side of the corresponding reduced identity,
expanded by the product rule into the prior value and its first/second
partials, so both the analytic and the finite-difference route evaluate
the same linear functional of the prior.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .model import OrthogonalParams, log_density_partial, sample, to_original

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
    first and second partials are carried.
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


def pde_residual(
    condition: MatchingCondition | str,
    prior: PriorSpec,
    grid: GridSpec = DEFAULT_GRID,
) -> ResidualReport:
    """Worst absolute residual of one matching identity over the grid.

    Residuals scale linearly with the prior (they are linear functionals),
    so an unnormalized prior is fine. The worst point is the first
    attaining the maximum in row-major (beta, theta, eta) order.
    """
    if isinstance(condition, str):
        try:
            condition = CONDITIONS[condition]
        except KeyError:
            raise DomainError(f"unknown condition id {condition!r}") from None
    beta_ax, theta_ax, eta_ax = grid.axes()
    use_analytic = prior.analytic_partials is not None
    worst = -1.0
    worst_point = (beta_ax[0], theta_ax[0], eta_ax[0])
    count = 0
    for b in beta_ax:
        for t in theta_ax:
            for e in eta_ax:
                if use_analytic:
                    partials = prior.analytic_partials(b, t, e)
                else:
                    partials = _fd_partials(prior.log_prior, b, t, e)
                r = float(abs(condition.residual(partials, b, t, e)))
                count += 1
                if r > worst:
                    worst = r
                    worst_point = (float(b), float(t), float(e))
    return ResidualReport(
        condition_id=condition.id,
        prior_name=prior.name,
        grid=grid,
        used_analytic_partials=use_analytic,
        max_abs_residual=worst,
        worst_point=worst_point,
        n_points=count,
        pass_tol=_pass_tol(use_analytic),
    )


def verify_prior(prior: PriorSpec, grid: GridSpec = DEFAULT_GRID) -> list[ResidualReport]:
    """Residual reports for all matching conditions, in registry order."""
    return [pde_residual(CONDITIONS[cid], prior, grid) for cid in CONDITION_IDS]


@dataclass(frozen=True)
class ExpectationCheck:
    """Monte Carlo check of one closed-form log-density moment."""

    label: str
    claimed: float
    estimate: float
    stderr: float
    n_samples: int
    passed: bool


# each entry: (label, kind, payload, claim(theta, eta))
# kind "cube": E[(dl/dx)^3]; "pair": E[(dl/dx)(d2l/dx2)]; "third": E[d3l/...]
_MOMENTS = (
    ("E[(dl/dbeta)^3]", "cube", (1, 0, 0), lambda t, e: 0.0),
    ("E[(dl/dbeta)(d2l/dbeta2)]", "pair", (1, 0, 0), lambda t, e: 0.0),
    ("E[d3l/dbeta3]", "third", (3, 0, 0), lambda t, e: 0.0),
    ("E[d3l/dbeta2 dtheta]", "third", (2, 1, 0), lambda t, e: 1.0 / (t * e * e)),
    ("E[d3l/dbeta2 deta]", "third", (2, 0, 1), lambda t, e: 1.0 / e ** 3),
    ("E[d3l/dbeta dtheta2]", "third", (1, 2, 0), lambda t, e: 0.0),
    ("E[d3l/dbeta deta2]", "third", (1, 0, 2), lambda t, e: 0.0),
    ("E[(dl/dtheta)^3]", "cube", (0, 1, 0), lambda t, e: 2.0 / t ** 3),
    ("E[(dl/dtheta)(d2l/dtheta2)]", "pair", (0, 1, 0), lambda t, e: -2.0 / t ** 3),
    ("E[d3l/dtheta3]", "third", (0, 3, 0), lambda t, e: 4.0 / t ** 3),
    ("E[d3l/dtheta2 deta]", "third", (0, 2, 1), lambda t, e: 0.0),
    ("E[d3l/dtheta deta2]", "third", (0, 1, 2), lambda t, e: 1.0 / (t * e * e)),
    ("E[(dl/deta)^3]", "cube", (0, 0, 1), lambda t, e: 0.0),
    ("E[(dl/deta)(d2l/deta2)]", "pair", (0, 0, 1), lambda t, e: -1.0 / e ** 3),
    ("E[d3l/deta3]", "third", (0, 0, 3), lambda t, e: 3.0 / e ** 3),
)

def verify_score_moments(
    params: OrthogonalParams,
    n_samples: int = 1_000_000,
    seed: int = 0,
) -> list[ExpectationCheck]:
    """Monte Carlo confirmation of the moment identities at one point.

    Draws n_samples observations from the model at params and averages the
    corresponding product of log-density derivatives for each identity.
    The derivatives are exact (model.log_density_partial), so a check
    passes when |estimate - claim| <= 4 * stderr; an identically zero
    integrand gives estimate 0 with stderr 0.
    """
    if n_samples < 100_000:
        raise DomainError("verify_score_moments needs n_samples >= 100000")
    data = sample(to_original(params), n_samples, seed)
    x1, x2 = data[:, 0], data[:, 1]
    t, e = params.theta, params.eta
    checks = []
    for label, kind, payload, claim in _MOMENTS:
        if kind == "cube":
            vals = log_density_partial(params, x1, x2, payload) ** 3
        elif kind == "pair":
            second = tuple(2 * k for k in payload)
            vals = log_density_partial(params, x1, x2, payload) * log_density_partial(
                params, x1, x2, second
            )
        else:
            vals = log_density_partial(params, x1, x2, payload)
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
