"""Matching-condition residuals and the score-moment Monte Carlo suite."""

import csv
import io
import math
import re

import numpy as np
import pytest

from bvnprior.errors import DomainError
from bvnprior.matching import (
    _MOMENTS,
    CONDITION_IDS,
    CONDITIONS,
    DEFAULT_GRID,
    FLAT_PRIOR,
    MATCHING_PRIOR,
    GridSpec,
    PriorPartials,
    ResidualReport,
    _fd_partials,
    PriorSpec,
    moment_report_csv,
    moment_report_table,
    pde_residual,
    residual_report_csv,
    residual_report_table,
    verify_prior,
    verify_score_moments,
)
from bvnprior.model import OrthogonalParams, log_density_partial, sample, to_original

MATCHING_FD = PriorSpec("matching-fd", MATCHING_PRIOR.log_prior)
FLAT_FD = PriorSpec("flat-fd", FLAT_PRIOR.log_prior)

# conditions the flat prior happens to satisfy; the rest it must fail
FLAT_PASSES = {"dist_fn_A2_beta", "dist_fn_eta_main", "hpd_eta_pde"}


def test_condition_registry_shape():
    assert len(CONDITION_IDS) == 11
    assert set(CONDITION_IDS) == set(CONDITIONS)
    targets = {c.target for c in CONDITIONS.values()}
    regions = {c.region for c in CONDITIONS.values()}
    assert targets == {"beta", "theta", "eta"}
    assert regions == {"quantile", "hpd", "likelihood_ratio"}


@pytest.mark.parametrize("cid", CONDITION_IDS)
def test_matching_prior_analytic_residuals_vanish(cid):
    report = pde_residual(cid, MATCHING_PRIOR)
    assert report.used_analytic_partials
    assert report.max_abs_residual <= 1e-12
    assert report.passed
    assert report.n_points == 9 * 9 * 9


@pytest.mark.parametrize("cid", CONDITION_IDS)
def test_matching_prior_finite_difference_residuals_vanish(cid):
    report = pde_residual(cid, MATCHING_FD)
    assert not report.used_analytic_partials
    assert report.max_abs_residual <= 1e-6
    assert report.passed


def test_flat_prior_fails_exactly_the_expected_conditions():
    for report in verify_prior(FLAT_PRIOR):
        assert report.passed == (report.condition_id in FLAT_PASSES)


def test_flat_prior_constant_residuals_at_every_grid_point():
    # with a constant prior two of the failing identities reduce to exact
    # constants, everywhere on any grid
    for b in np.linspace(-2.0, 2.0, 5):
        for t in np.linspace(0.5, 3.0, 5):
            for e in np.linspace(0.5, 3.0, 5):
                partials = FLAT_PRIOR.analytic_partials(b, t, e)
                assert CONDITIONS["hpd_theta_pde"].residual(
                    partials, b, t, e
                ) == pytest.approx(-2.0, abs=1e-8)
                assert CONDITIONS["lr_theta_pde"].residual(
                    partials, b, t, e
                ) == pytest.approx(4.0, abs=1e-8)


def test_flat_prior_finite_difference_route_matches_analytic():
    flat_fd = PriorSpec("flat-fd", FLAT_PRIOR.log_prior)
    for cid in ("hpd_theta_pde", "lr_theta_pde", "dist_fn_A1_beta"):
        a = pde_residual(cid, FLAT_PRIOR)
        f = pde_residual(cid, flat_fd)
        assert f.max_abs_residual == pytest.approx(a.max_abs_residual, abs=1e-8)


def test_residuals_are_linear_in_the_prior():
    # scaling the prior by 7 scales every residual by 7
    scaled = PriorSpec("flat-x7", lambda b, t, e: math.log(7.0))
    r1 = pde_residual("hpd_theta_pde", PriorSpec("flat-fd", FLAT_PRIOR.log_prior))
    r7 = pde_residual("hpd_theta_pde", scaled)
    assert r7.max_abs_residual == pytest.approx(7.0 * r1.max_abs_residual, rel=1e-9)


def test_pde_residual_rejects_unknown_condition():
    with pytest.raises(DomainError):
        pde_residual("no_such_condition", MATCHING_PRIOR)


def test_grid_spec_validation_and_axes():
    with pytest.raises(DomainError):
        GridSpec(beta=(1.0, -1.0, 9))
    with pytest.raises(DomainError):
        GridSpec(theta=(0.0, 2.0, 9))
    with pytest.raises(DomainError):
        GridSpec(eta=(0.5, 2.0, 1))
    for bad in (
        dict(theta=(0.5, math.inf, 3)),
        dict(beta=(-math.inf, 1.0, 3)),
        dict(eta=(math.nan, 2.0, 3)),
    ):
        with pytest.raises(DomainError, match="finite"):
            GridSpec(**bad)
    g = GridSpec(beta=(-1.0, 1.0, 3), theta=(1.0, 2.0, 2), eta=(1.0, 2.0, 2))
    bax, tax, eax = g.axes()
    assert list(bax) == [-1.0, 0.0, 1.0]
    assert list(tax) == [1.0, 2.0]
    report = pde_residual("lr_eta_pde", MATCHING_PRIOR, g)
    assert report.n_points == 12


def test_verify_prior_covers_all_conditions_in_order():
    reports = verify_prior(MATCHING_PRIOR)
    assert [r.condition_id for r in reports] == list(CONDITION_IDS)
    assert all(r.passed for r in reports)


POINT = OrthogonalParams(0.0, 0.0, 0.6, 1.7, 0.8)


def test_score_moments_all_pass_at_asymmetric_point():
    checks = verify_score_moments(POINT, n_samples=200_000, seed=14)
    assert len(checks) == 15
    assert all(c.passed for c in checks)
    # theta and eta differ here, so the nonzero claims are all distinct
    nonzero = {c.label: c.claimed for c in checks if c.claimed != 0.0}
    assert len(set(nonzero.values())) >= 4


def test_score_moment_claim_formulas():
    checks = {c.label: c for c in verify_score_moments(POINT, 100_000, seed=2)}
    t, e = POINT.theta, POINT.eta
    assert checks["E[(dl/dtheta)^3]"].claimed == pytest.approx(2.0 / t**3)
    assert checks["E[d3l/dtheta3]"].claimed == pytest.approx(4.0 / t**3)
    assert checks["E[d3l/deta3]"].claimed == pytest.approx(3.0 / e**3)
    assert checks["E[(dl/deta)(d2l/deta2)]"].claimed == pytest.approx(-1.0 / e**3)
    assert checks["E[d3l/dbeta2 dtheta]"].claimed == pytest.approx(1.0 / (t * e * e))
    assert checks["E[d3l/dbeta2 deta]"].claimed == pytest.approx(1.0 / e**3)


def test_score_moments_deterministic_in_seed():
    a = verify_score_moments(POINT, 100_000, seed=8)
    b = verify_score_moments(POINT, 100_000, seed=8)
    assert [c.estimate for c in a] == [c.estimate for c in b]


def test_score_moments_rejects_tiny_sample():
    with pytest.raises(DomainError):
        verify_score_moments(POINT, n_samples=1000, seed=0)


def test_report_serializations():
    reports = verify_prior(MATCHING_PRIOR)
    text = residual_report_csv(reports)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == [
        "condition_id", "prior", "max_abs_residual",
        "worst_beta", "worst_theta", "worst_eta", "pass",
    ]
    assert len(rows) == 1 + 11
    assert all(row[-1] == "true" for row in rows[1:])
    table = residual_report_table(reports)
    assert table.count("\n") == 12

    checks = verify_score_moments(POINT, 100_000, seed=4)
    mtext = moment_report_csv(checks)
    mrows = list(csv.reader(io.StringIO(mtext)))
    assert mrows[0] == ["moment", "claimed", "estimate", "stderr", "n_samples", "pass"]
    assert len(mrows) == 1 + 15
    mtable = moment_report_table(checks)
    assert mtable.count("\n") == 16


# -- references: one condition and one grid point at a time ---------------


def reference_fd_partials(log_prior, b, t, e):
    """The 28-evaluation stencil: every difference evaluates its own points."""

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

    hb, ht, he = steps(b, False), steps(t, True), steps(e, True)
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


def _skewed_log_prior(b, t, e):
    # depends on every coordinate, so no difference is trivially zero
    return 0.3 * b * b - 0.7 * b - 1.5 * math.log(t) + math.sin(e) - 2.0 * math.log(e)


@pytest.mark.parametrize("log_prior", [MATCHING_PRIOR.log_prior, FLAT_PRIOR.log_prior, _skewed_log_prior])
def test_fd_partials_share_13_evaluations_and_equal_the_28_call_stencil(log_prior):
    calls = []

    def counted(b, t, e):
        calls.append((b, t, e))
        return log_prior(b, t, e)

    for b, t, e in [(-2.0, 0.5, 0.5), (0.3, 1.7, 2.9), (1e-9, 4e-4, 3.0), (15.0, 2.0, 1e-3)]:
        del calls[:]
        fast = _fd_partials(counted, b, t, e)
        assert len(calls) == len(set(calls)) == 13
        assert fast == reference_fd_partials(log_prior, b, t, e)


def reference_pde_residual(condition, prior, grid):
    """Per-condition scalar loop: the prior's partials at every grid point."""
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
        pass_tol=1e-5 if use_analytic else 1e-3,
    )


# non-cubic grids with distinct bounds, so that a swapped axis shows
EQUALITY_GRIDS = (
    DEFAULT_GRID,
    GridSpec(beta=(-1.5, 2.0, 3), theta=(0.7, 2.6, 2), eta=(0.6, 2.9, 4)),
    GridSpec(beta=(-0.5, 1.0, 2), theta=(0.55, 3.2, 5), eta=(0.8, 2.1, 3)),
)


@pytest.mark.parametrize("grid", EQUALITY_GRIDS)
@pytest.mark.parametrize("prior", [MATCHING_PRIOR, MATCHING_FD, FLAT_PRIOR, FLAT_FD],
                         ids=lambda p: p.name)
def test_verify_prior_equals_the_per_condition_scalar_loop(prior, grid):
    expected = [reference_pde_residual(c, prior, grid) for c in CONDITIONS.values()]
    assert verify_prior(prior, grid) == expected
    assert pde_residual("lr_eta_pde", prior, grid) == expected[-1]


def test_worst_point_ties_go_to_the_first_grid_point():
    # flat hpd_theta_pde is exactly -2 everywhere
    for grid in EQUALITY_GRIDS:
        report = pde_residual("hpd_theta_pde", FLAT_PRIOR, grid)
        assert report.max_abs_residual == 2.0
        assert report.worst_point == tuple(float(ax[0]) for ax in grid.axes())


def test_nan_prior_fails_every_condition_at_the_first_point():
    nan_prior = PriorSpec("nan", lambda b, t, e: math.nan)
    reports = verify_prior(nan_prior)
    first = (-2.0, 0.5, 0.5)
    for r in reports:
        assert math.isnan(r.max_abs_residual)
        assert not r.passed
        assert r.worst_point == first
        assert all(type(x) is float for x in r.worst_point)
    rows = list(csv.reader(io.StringIO(residual_report_csv(reports))))[1:]
    assert all(row[2:] == ["nan", "-2.0", "0.5", "0.5", "false"] for row in rows)


def test_nan_residual_on_part_of_the_grid_fails_at_its_first_nan_point():
    # NaN for theta >= 2 only; the first such grid theta is 2.0625
    def log_prior(b, t, e):
        return math.nan if t >= 2.0 else -math.log(t * e)

    for r in verify_prior(PriorSpec("nan-above-2", log_prior)):
        assert math.isnan(r.max_abs_residual)
        assert not r.passed
        assert r.worst_point == (-2.0, 2.0625, 0.5)


# the parent table: (label, kind, payload, claim(theta, eta)); kind "cube" is
# E[(dl/dx)^3], "pair" E[(dl/dx)(d2l/dx2)], "third" E[d3l/...]
REFERENCE_MOMENTS = (
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


def reference_score_moments(params, n_samples, seed):
    """(label, claimed, estimate, stderr, passed), one log_density_partial per factor."""
    data = sample(to_original(params), n_samples, seed)
    x1, x2 = data[:, 0], data[:, 1]
    out = []
    for label, kind, payload, claim in REFERENCE_MOMENTS:
        first = log_density_partial(params, x1, x2, payload)
        if kind == "cube":
            vals = first ** 3
        elif kind == "pair":
            vals = first * log_density_partial(params, x1, x2, tuple(2 * k for k in payload))
        else:
            vals = first
        estimate = float(np.mean(vals))
        stderr = float(np.std(vals, ddof=1) / math.sqrt(n_samples))
        claimed = claim(params.theta, params.eta)
        out.append((label, claimed, estimate, stderr, abs(estimate - claimed) <= 4.0 * stderr))
    return out


@pytest.mark.parametrize("params, seed", [
    (POINT, 5),
    (OrthogonalParams(0.3, -0.2, -1.1, 0.7, 2.2), 17),
    (OrthogonalParams(1.0, 1.0, 0.0, 2.4, 0.65), 29),
])
def test_score_moments_match_the_per_partial_reference(params, seed):
    checks = verify_score_moments(params, 100_000, seed)
    expected = reference_score_moments(params, 100_000, seed)
    assert [c.label for c in checks] == [x[0] for x in expected]
    for c, (label, claimed, estimate, stderr, passed) in zip(checks, expected):
        assert c.claimed == claimed
        assert c.n_samples == 100_000
        assert c.passed == passed
        assert abs(c.estimate - estimate) <= 1e-9 * stderr
        assert abs(c.stderr - stderr) <= 1e-9 * stderr


def test_moment_claims_follow_from_gaussian_residual_moments():
    sp = pytest.importorskip("sympy")
    b, t, e, mu1, mu2, x1, x2, u, v = sp.symbols("beta theta eta mu1 mu2 x1 x2 u v", real=True)
    wrt = {"beta": b, "theta": t, "eta": e}
    log_f = (-sp.log(2 * sp.pi * t) - (x2 - mu2 - b * (x1 - mu1)) ** 2 / (2 * t * e)
             - e * (x1 - mu1) ** 2 / (2 * t))

    def orders(spec):
        # "d3l/dbeta2 deta" is d^3 log f / dbeta^2 deta, orders (2, 0, 1)
        order, names = re.fullmatch(r"d(\d?)l/(.+)", spec).groups()
        counts = dict.fromkeys(wrt, 0)
        for name, power in re.findall(r"d(beta|theta|eta)(\d?)", names):
            counts[name] += int(power or 1)
        assert sum(counts.values()) == int(order or 1)
        return tuple(counts.values())

    def derivative(factor):
        expr = log_f
        for symbol, k in zip(wrt.values(), factor):
            expr = sp.diff(expr, symbol, k)
        return expr

    def gaussian_moment(k, var):
        # E z^k for z ~ N(0, var): (k-1)!! var^(k/2) for even k, else 0
        return 0 if k % 2 else sp.factorial2(k - 1) * var ** (k // 2)

    for label, factors, claim in _MOMENTS:
        inner = re.fullmatch(r"E\[(.+)\]", label).group(1)
        parsed = [orders(f) for f in re.findall(r"\(([^()]+)\)", inner) or [inner]]
        if inner.endswith("^3"):
            parsed *= 3
        # the table's factors are exactly the derivatives its label names
        assert tuple(parsed) == factors, label
        integrand = sp.Mul(*(derivative(f) for f in parsed))
        integrand = sp.expand(integrand.subs({x2: mu2 + b * v + u, x1: mu1 + v}))
        moment = sum(
            coeff * gaussian_moment(i, t * e) * gaussian_moment(j, t / e)
            for (i, j), coeff in sp.Poly(integrand, u, v).terms()
        )
        assert sp.simplify(moment - sp.nsimplify(claim(t, e))) == 0, label
