"""Checks that a prior satisfies the probability-matching conditions.

Two independent kinds of evidence are produced:

* verify_score_moments confirms by Monte Carlo the closed-form moment
  identities for products and third derivatives of the log density that
  every matching argument below relies on (for example
  E[d^3 log f / d theta^3] = 4/theta^3). Every integrand is a product of
  the exact log-density partials of model._partial, which depend on a draw
  only through its residuals u ~ N(0, theta eta) and v ~ N(0, theta/eta);
  those are drawn from their law, from the normals sample() would use, so
  the means do not enter. Each integrand is built in two reused buffers, in
  table order; one with a factor of beta order 3 is 0 and costs no pass.

* pde_residual / verify_prior evaluate the reduced partial differential
  identities that characterize matching priors - for the posterior
  distribution function, HPD regions, and likelihood-ratio regions of each
  of beta, theta, eta - on a grid, either from closed-form prior partials
  or from finite differences of the prior density. A matching prior drives
  every residual to zero. Both built-ins are the power prior theta^a eta^b:
  the matching prior 1/(theta eta) at (-1, -1), and the flat prior, a
  counterexample, at (0, 0).

Each identity is written once, in CONDITIONS, as the rows of its
product-rule expansion: (c, i, j, field) stands for the term
c theta^i eta^j field, with field the prior's value or one of its pure
first or second partials, and MatchingCondition.residual evaluates every
identity from its rows. So the analytic and the finite-difference route
evaluate the same linear functional of the prior, and for a power prior
theta^a eta^b, residual / pi is a sum of monomials read off the rows. The
grid is taken in blocks of whole beta planes, at most _BLOCK_POINTS
points (or one plane) each; a block's partials are one PriorPartials of
arrays, shared by every identity, and each row is one array pass over
the block. Analytic partials are one call on broadcastable axes per
block; finite differences evaluate each of their 13 stencils over the
whole block, one log_prior call per point, and take each axis's first
and second differences once per block. A NaN residual anywhere fails its
identity.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields
from functools import reduce
from itertools import product, starmap
from operator import add, attrgetter, mul
from typing import Callable

import numpy as np

from .errors import DomainError, NumericalError
from .numerics import _check_count
# log_density_partial and sample are not called here; they stay bound in this
# namespace because the benchmark's span recorder wraps them as matching attributes
from .model import (
    OrthogonalParams,
    _draw_residual_powers,
    _partial,
    log_density_partial,  # noqa: F401
    sample,  # noqa: F401
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
    """Prior density and its partials at (beta, theta, eta) points.

    Mixed partials never enter the reduced identities, so only the pure
    first and second partials are carried. Fields are floats or arrays;
    verify_prior broadcasts each to a (beta, theta, eta) block of the grid.
    """

    value: float | np.ndarray
    d_beta: float | np.ndarray
    d_theta: float | np.ndarray
    d_eta: float | np.ndarray
    d2_beta: float | np.ndarray
    d2_theta: float | np.ndarray
    d2_eta: float | np.ndarray


@dataclass(frozen=True)
class PriorSpec:
    """A prior on (beta, theta, eta) given by its log density.

    analytic_partials, when provided, must return PriorPartials of the
    *density* (not the log density). verify_prior calls it once per block
    with arrays beta (n, 1, 1), theta (1, m, 1) and eta (1, 1, k), and each
    field must broadcast to (n, m, k); without it, partials are taken by
    finite differences of exp(log_prior), which is called with np.float64
    coordinates, one point at a time.
    """

    name: str
    log_prior: Callable[[float, float, float], float]
    analytic_partials: Callable[[np.ndarray, np.ndarray, np.ndarray], PriorPartials] | None = None


def _power_prior(name: str, a: float, b: float) -> PriorSpec:
    """The prior theta^a eta^b, with the closed-form partials of its density."""

    def log_prior(_, t, e):
        return a * math.log(t) + b * math.log(e)

    def analytic_partials(_, t, e):
        v = 1.0 / (t**-a * e**-b)
        return PriorPartials(v, 0.0, a * v / t, b * v / e,
                             0.0, a * (a - 1) * v / (t * t), b * (b - 1) * v / (e * e))

    return PriorSpec(name, log_prior, analytic_partials)


MATCHING_PRIOR = _power_prior("matching", -1.0, -1.0)
FLAT_PRIOR = _power_prior("flat", 0.0, 0.0)


@dataclass(frozen=True)
class GridSpec:
    """Evaluation box: per-axis (lo, hi, count) for beta, theta, eta; count is an int >= 2."""

    beta: tuple[float, float, int] = (-2.0, 2.0, 9)
    theta: tuple[float, float, int] = (0.5, 3.0, 9)
    eta: tuple[float, float, int] = (0.5, 3.0, 9)

    def __post_init__(self):
        for name in ("beta", "theta", "eta"):
            axis = getattr(self, name)
            try:
                lo, hi, count = axis
                lo, hi = float(lo), float(hi)
            except (TypeError, ValueError):
                raise DomainError(f"grid axis {name} must be (lo, hi, count), got {axis!r}") from None
            # a finite span makes both bounds finite
            if not (math.isfinite(hi - lo) and lo < hi):
                raise DomainError(f"grid axis {name} needs finite bounds lo < hi and a finite span")
            object.__setattr__(self, name, (lo, hi, _check_count(count, f"grid {name} count", 2)))
        if self.theta[0] <= 0.0 or self.eta[0] <= 0.0:
            raise DomainError("theta and eta grid must stay positive")

    def axes(self):
        return (
            np.linspace(*self.beta[:2], self.beta[2]),
            np.linspace(*self.theta[:2], self.theta[2]),
            np.linspace(*self.eta[:2], self.eta[2]),
        )


DEFAULT_GRID = GridSpec()


# how MatchingCondition.description writes each PriorPartials field
_FIELD_TEXT = {
    "value": "pi",
    "d_beta": "dpi/dbeta",
    "d_theta": "dpi/dtheta",
    "d_eta": "dpi/deta",
    "d2_beta": "d2pi/dbeta2",
    "d2_theta": "d2pi/dtheta2",
    "d2_eta": "d2pi/deta2",
}


@dataclass(frozen=True)
class MatchingCondition:
    """One reduced matching identity, as the rows of its product-rule expansion.

    rows ((c, i, j, field), ...) stand for sum c theta^i eta^j field = 0,
    with c an integer and field a PriorPartials name: the identity's
    differential operator applied to the prior, expanded into the prior's
    value and pure first and second partials.
    """

    id: str
    target: str  # parameter whose region the identity belongs to
    region: str  # "distribution_function", "hpd", or "likelihood_ratio"
    rows: tuple[tuple[int, int, int, str], ...]

    @property
    def description(self) -> str:
        """The rows as text, e.g. "-2 pi - 2 theta dpi/dtheta - ... = 0"."""
        terms = []
        for c, i, j, field in self.rows:
            powers = [x if k == 1 else f"{x}^{k}" for x, k in (("theta", i), ("eta", j)) if k]
            terms.append(" ".join([str(c), *powers, _FIELD_TEXT[field]]))
        return " + ".join(terms).replace("+ -", "- ") + " = 0"

    def residual(self, p: PriorPartials, b, t, e):
        """The left side at partials p of the points (b, t, e), floats or arrays.

        Each term is (c theta^i eta^j) * field, multiplied left to right,
        and the terms are summed in row order; the coefficients' common
        integer factor is taken out and applies to the sum last, so
        3 pi + 3 eta dpi/deta rounds as 3 (pi + eta dpi/deta). No row has
        a power of beta, so b does not enter.
        """
        g = math.gcd(*(c for c, _, _, _ in self.rows))
        terms = (reduce(mul, (t,) * i + (e,) * j, c // g) * getattr(p, field)
                 for c, i, j, field in self.rows)
        total = reduce(add, terms)
        return total if g == 1 else g * total


# registry order is report order; rows are summed in the order written
CONDITIONS = {
    c.id: c
    for c in (
        MatchingCondition("dist_fn_A1_beta", "beta", "distribution_function", (
            (1, 0, 0, "value"), (1, 1, 0, "d_theta"), (1, 0, 0, "value"),
            (1, 0, 1, "d_eta"),
        )),
        MatchingCondition("dist_fn_A2_beta", "beta", "distribution_function", (
            (1, 1, 0, "d_beta"), (1, 0, 1, "d_beta"),
        )),
        MatchingCondition("dist_fn_theta", "theta", "distribution_function", (
            (-10, 0, 0, "value"), (-12, 1, 0, "d_theta"), (-1, 2, 0, "d2_theta"),
        )),
        MatchingCondition("dist_fn_eta_main", "eta", "distribution_function", (
            (-1, 0, 1, "d_eta"), (-1, 0, 2, "d2_eta"), (-1, 1, 0, "d_theta"),
        )),
        MatchingCondition("dist_fn_eta_aux", "eta", "distribution_function", (
            (3, 0, 0, "value"), (3, 0, 1, "d_eta"),
        )),
        MatchingCondition("hpd_beta_pde", "beta", "hpd", (
            (1, 0, 0, "value"), (1, 1, 0, "d_theta"), (1, 0, 0, "value"),
            (1, 0, 1, "d_eta"), (-1, 0, 2, "d2_beta"),
        )),
        MatchingCondition("hpd_theta_pde", "theta", "hpd", (
            (-2, 0, 0, "value"), (-2, 1, 0, "d_theta"), (-2, 0, 0, "d_theta"),
            (-1, 1, 0, "d2_theta"),
        )),
        MatchingCondition("hpd_eta_pde", "eta", "hpd", (
            (1, 1, 0, "d_theta"), (-3, 0, 1, "d_eta"), (-1, 0, 2, "d2_eta"),
        )),
        MatchingCondition("lr_beta_pde", "beta", "likelihood_ratio", (
            (1, 0, 0, "value"), (1, 1, 0, "d_theta"), (1, 0, 0, "value"),
            (1, 0, 1, "d_eta"), (1, 0, 2, "d2_beta"),
        )),
        MatchingCondition("lr_theta_pde", "theta", "likelihood_ratio", (
            (4, 0, 0, "value"), (6, 1, 0, "d_theta"), (1, 2, 0, "d2_theta"),
        )),
        MatchingCondition("lr_eta_pde", "eta", "likelihood_ratio", (
            (3, 0, 0, "value"), (1, 1, 0, "d_theta"), (4, 0, 1, "d_eta"),
            (1, 0, 2, "d2_eta"),
        )),
    )
}

CONDITION_IDS = tuple(CONDITIONS)


def _fd_block(log_prior, b, theta_ax, eta_ax) -> PriorPartials:
    """Prior partials on the beta planes b by 4th-order central differences.

    Step 1e-4 * max(1, |coordinate|), clamped so theta and eta stay
    positive across the 5-point stencil. 4th-order stencils keep the
    truncation error of the stiffest identity below 1e-7 on the default
    grid, which 3-point stencils at the same step do not. The centre and
    the +-h, +-2h points of each axis are evaluated once over the whole
    block and shared by the first and second differences: 13 log_prior
    calls per point, on numpy float64 coordinates boxed once per stencil.
    An axis's four shifted stencils are held only while its differences
    are taken. The differences are array arithmetic in the order of the
    scalar formulas, so each value rounds as a pointwise stencil's does.
    """
    shape = (b.size, theta_ax.size, eta_ax.size)

    def steps(x, positive):
        h = 1e-4 * np.maximum(1.0, np.abs(x))
        return np.minimum(h, x / 4.0) if positive else h

    def pi(bs, thetas, etas):
        # row-major (beta, theta, eta) order, without a Python list of the values
        values = map(math.exp, starmap(log_prior, product(bs, thetas, etas)))
        return np.fromiter(values, float, math.prod(shape)).reshape(shape)

    def differences(p2, p1, m1, m2, h):
        return ((-p2 + 8 * p1 - 8 * m1 + m2) / (12 * h),
                (-p2 + 16 * p1 - 30 * centre + 16 * m1 - m2) / (12 * h * h))

    hb, ht, he = steps(b, False), steps(theta_ax, True), steps(eta_ax, True)
    bs, ts, es = list(b), list(theta_ax), list(eta_ax)
    centre = pi(bs, ts, es)
    stencils = (
        (lambda k: pi(list(b + k * hb), ts, es), hb[:, None, None]),
        (lambda k: pi(bs, list(theta_ax + k * ht), es), ht[:, None]),
        (lambda k: pi(bs, ts, list(eta_ax + k * he)), he),
    )
    # as in Python float arithmetic, an overflow or an invalid operation
    # gives inf or NaN without a warning
    with np.errstate(all="ignore"):
        (b1, b2), (t1, t2), (e1, e2) = (
            differences(*map(stencil, (2, 1, -1, -2)), h) for stencil, h in stencils
        )
    return PriorPartials(centre, b1, t1, e1, b2, t2, e2)


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


_PARTIAL_VALUES = attrgetter(*(f.name for f in fields(PriorPartials)))
_BLOCK_POINTS = 1 << 16  # grid points held at a time, but at least one beta plane
_CHUNK = 1 << 14  # samples of a score-moment pair's second factor built at a time


def _block_partials(prior: PriorSpec, b, theta_ax, eta_ax) -> PriorPartials:
    """The prior's partials on the beta planes b, as (b.size, theta, eta) arrays."""
    if prior.analytic_partials is None:
        return _fd_block(prior.log_prior, b, theta_ax, eta_ax)
    shape = (b.size, theta_ax.size, eta_ax.size)
    p = prior.analytic_partials(b[:, None, None], theta_ax[None, :, None], eta_ax[None, None, :])
    return PriorPartials(*(np.broadcast_to(np.asarray(f, float), shape)
                           for f in _PARTIAL_VALUES(p)))


def _residual_reports(conditions, prior: PriorSpec, grid: GridSpec) -> list[ResidualReport]:
    """Worst absolute residual of each condition over the grid.

    The worst point is the first maximum in row-major (beta, theta, eta)
    order; a NaN residual counts above every number, so the first NaN
    point is reported with max_abs_residual nan and the identity fails.
    """
    beta_ax, theta_ax, eta_ax = grid.axes()
    t, e = theta_ax[None, :, None], eta_ax[None, None, :]
    planes = max(1, _BLOCK_POINTS // (theta_ax.size * eta_ax.size))
    worst, worst_point = [-1.0] * len(conditions), [None] * len(conditions)
    for start in range(0, beta_ax.size, planes):
        b = beta_ax[start:start + planes]
        # plain arithmetic: an overflow or invalid operation shows as inf or NaN
        with np.errstate(all="ignore"):
            partials = _block_partials(prior, b, theta_ax, eta_ax)
            for k, condition in enumerate(conditions):
                if math.isnan(worst[k]):
                    continue
                r = np.abs(condition.residual(partials, b[:, None, None], t, e))
                at = np.argmax(r)  # first maximum or first NaN, in row-major order
                if r.flat[at] > worst[k] or math.isnan(r.flat[at]):
                    worst[k] = float(r.flat[at])
                    i, j, m = np.unravel_index(at, r.shape)
                    worst_point[k] = (float(b[i]), float(theta_ax[j]), float(eta_ax[m]))
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

    The prior's partials are taken once per block of the grid and shared
    by all eleven conditions.
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


# Each entry: (label, factors, claim(theta, eta)). factors lists the
# (beta, theta, eta) derivative orders of the log-density partials whose
# product is the integrand: one partial, a pair, or the cube of one
# (verify_score_moments builds no other product and raises on one).
_MOMENTS = (
    ("E[(dl/dbeta)^3]", ((1, 0, 0),) * 3, lambda t, e: 0.0),
    ("E[(dl/dbeta)(d2l/dbeta2)]", ((1, 0, 0), (2, 0, 0)), lambda t, e: 0.0),
    ("E[d3l/dbeta3]", ((3, 0, 0),), lambda t, e: 0.0),
    ("E[d3l/dbeta2 dtheta]", ((2, 1, 0),), lambda t, e: 1.0 / (t * e * e)),
    ("E[d3l/dbeta2 deta]", ((2, 0, 1),), lambda t, e: 1.0 / e ** 3),
    ("E[d3l/dbeta dtheta2]", ((1, 2, 0),), lambda t, e: 0.0),
    ("E[d3l/dbeta deta2]", ((1, 0, 2),), lambda t, e: 0.0),
    ("E[(dl/dtheta)^3]", ((0, 1, 0),) * 3, lambda t, e: 2.0 / t ** 3),
    ("E[(dl/dtheta)(d2l/dtheta2)]", ((0, 1, 0), (0, 2, 0)), lambda t, e: -2.0 / t ** 3),
    ("E[d3l/dtheta3]", ((0, 3, 0),), lambda t, e: 4.0 / t ** 3),
    ("E[d3l/dtheta2 deta]", ((0, 2, 1),), lambda t, e: 0.0),
    ("E[d3l/dtheta deta2]", ((0, 1, 2),), lambda t, e: 1.0 / (t * e * e)),
    ("E[(dl/deta)^3]", ((0, 0, 1),) * 3, lambda t, e: 0.0),
    ("E[(dl/deta)(d2l/deta2)]", ((0, 0, 1), (0, 0, 2)), lambda t, e: -1.0 / e ** 3),
    ("E[d3l/deta3]", ((0, 0, 3),), lambda t, e: 3.0 / e ** 3),
)


def verify_score_moments(
    params: OrthogonalParams,
    n_samples: int = 1_000_000,
    seed: int = 0,
) -> list[ExpectationCheck]:
    """Monte Carlo confirmation of the moment identities at one point.

    Draws the residuals u and v of n_samples observations from their exact
    law, from the normals of sample(to_original(params), n_samples, seed)
    (see model._draw_residual_powers; the means do not enter), and averages
    the corresponding product of log-density derivatives for each identity.
    The partials are exact (model._partial) and built from residual powers
    shared by all identities, so a check passes when
    |estimate - claim| <= 4 * stderr. An integrand with a factor of beta
    order 3 is identically zero, as log f is quadratic in beta: it gives
    estimate 0 with stderr 0 and costs no pass over the samples. n_samples
    must be an integer >= 100000 and seed an integer >= 0 (else
    DomainError). A claimed value that is not a finite float at
    (theta, eta) raises NumericalError, and an entry of _MOMENTS that is
    not one partial, a pair or a cube raises NotImplementedError, both
    before any sampling; a floating-point overflow, division by zero or
    invalid operation in the integrands raises FloatingPointError.
    """
    n_samples = _check_count(n_samples, "n_samples", 100_000)
    t, e = params.theta, params.eta
    claims = []
    for label, factors, claim in _MOMENTS:
        if not (len(factors) in (1, 2) or len(factors) == 3 and len(set(factors)) == 1):
            raise NotImplementedError(
                f"{label}: an integrand must be one partial, a pair or a cube, "
                f"got {len(factors)} factors"
            )
        try:
            claimed = float(claim(t, e))
        except ArithmeticError:  # Python floats raise on some overflows
            claimed = math.inf
        if not math.isfinite(claimed):
            raise NumericalError(
                f"the claimed value of {label} is not a finite float at theta={t!r}, eta={e!r}"
            )
        claims.append(claimed)
    # a floating-point error fails the check instead of warning its way to
    # a meaningless estimate
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        powers = _draw_residual_powers(params, n_samples, seed)
        # the operations of _partial and reduce(mul) in their order, so each
        # integrand rounds as theirs does: the first factor in a (scratch b),
        # a cube (a * a) * a in b, and a pair's second factor in b, _CHUNK
        # samples at a time, so that its v^2 scratch is one chunk, not a row
        a, b = np.empty(n_samples), np.empty(n_samples)
        checks = []
        for (label, factors, _), claimed in zip(_MOMENTS, claims):
            first, *rest = factors
            if any(f[0] == 3 for f in factors):
                # log f is quadratic in beta, so the integrand is identically 0
                estimate = stderr = 0.0
            else:
                vals = _partial(powers, t, e, first, out=a, scratch=b)
                if rest == [first, first]:  # a cube, (P * P) * P
                    vals = np.multiply(a, a, out=b)
                    vals *= a
                elif rest:
                    for s in range(0, n_samples, _CHUNK):
                        _partial(powers[:, s:s + _CHUNK], t, e, rest[0], out=b[s:s + _CHUNK])
                    vals *= b
                # np.mean's sum and division, without its Python wrapper
                estimate = float(np.add.reduce(vals)) / n_samples
                # np.std's sum of squares without its copy: vals is not used again
                vals -= estimate
                variance = float(np.dot(vals, vals)) / (n_samples - 1)
                stderr = math.sqrt(variance) / math.sqrt(n_samples)
            passed = abs(estimate - claimed) <= 4.0 * stderr
            checks.append(ExpectationCheck(label, claimed, estimate, stderr, n_samples, passed))
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
        f"{'condition':18s} {'target':6s} {'region':21s} {'max |residual|':>15s} {'pass':>5s}"
    ]
    for r in reports:
        cond = CONDITIONS[r.condition_id]
        lines.append(
            f"{r.condition_id:18s} {cond.target:6s} {cond.region:21s}"
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
