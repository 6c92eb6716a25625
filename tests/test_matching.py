"""Matching-condition residuals and the score-moment Monte Carlo suite."""

import csv
import io
import math
import re
import tracemalloc
import warnings
from dataclasses import replace
from functools import cache, reduce
from itertools import product
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from bvnprior import matching
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
    PriorSpec,
    ResidualReport,
    _fd_block,
    moment_report_csv,
    moment_report_table,
    pde_residual,
    residual_report_csv,
    residual_report_table,
    verify_prior,
    verify_score_moments,
)
from bvnprior.model import (
    OriginalParams,
    OrthogonalParams,
    _draw_residual_powers,
    _partial,
    _residual_powers,
    log_density_partial,
    sample,
    to_original,
    to_orthogonal,
)

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
    assert regions == {"distribution_function", "hpd", "likelihood_ratio"}


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
    # an axis that is not three items, or whose bounds are not numbers
    for axis in ((1, 2), ("a", "b", 3), None):
        with pytest.raises(DomainError, match="must be \\(lo, hi, count\\)"):
            GridSpec(theta=axis)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lo, hi in ((-1e308, 1e308), (np.float64(-1e308), np.float64(1e308))):
            with pytest.raises(DomainError, match="finite span"):
                GridSpec(beta=(lo, hi, 3))
    for count in (9.5, 3.0, "3", True, np.float64(3), None):
        with pytest.raises(DomainError, match="count must be an integer"):
            GridSpec(theta=(0.5, 3.0, count))
    assert list(GridSpec(beta=(-8e307, 8e307, np.int64(3))).axes()[0]) == [-8e307, 0.0, 8e307]
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


@pytest.mark.parametrize("n_samples", [1e5, 100_000.0, "100000", None])
def test_score_moments_rejects_a_non_integer_sample_size(n_samples):
    with pytest.raises(DomainError, match="n_samples must be an integer"):
        verify_score_moments(POINT, n_samples, seed=0)


def test_score_moments_rejects_a_negative_seed():
    with pytest.raises(DomainError, match="seed must be an integer >= 0"):
        verify_score_moments(POINT, 100_000, seed=-1)


def test_score_moments_do_not_depend_on_the_means():
    # at |mu| = 1e16 floats are 2 apart, so x - mu would round every
    # residual to a multiple of 2 and fail 14 of the 15 identities; the
    # residuals are drawn without the means
    far = verify_score_moments(replace(POINT, mu1=1e16, mu2=-1e16), 100_000, seed=3)
    near = verify_score_moments(POINT, 100_000, seed=3)
    assert [(c.estimate, c.stderr) for c in far] == [(c.estimate, c.stderr) for c in near]
    assert all(c.passed for c in far)


@pytest.mark.parametrize("params, seed", [
    (POINT, 11),
    (OrthogonalParams(0.0, 0.0, -1.4, 0.7, 2.2), 12),
    (OrthogonalParams(0.0, 0.0, 0.0, 2.4, 0.65), 13),
    (OrthogonalParams(0.0, 0.0, 3.0, 1e-3, 50.0), 14),
])
def test_drawn_residual_powers_equal_the_sampled_ones(params, seed):
    # the same normals as sample(to_original(p), n, seed), minus the data
    # round trip: v^2 is bit-identical, and u^2 and uv differ by the
    # rounding of x2 - beta x1
    direct = _draw_residual_powers(params, 100_000, seed)
    via_sample = _residual_powers(params, *sample(to_original(params), 100_000, seed).T)
    assert np.array_equal(direct[2], via_sample[2])
    error = np.abs(direct - via_sample).max(axis=1)
    assert np.all(error <= 1e-12 * np.abs(via_sample).max(axis=1))


def reference_integrand_moments(powers, theta, eta, n_samples, moments=_MOMENTS):
    """(estimate, stderr) per moments entry: a new array per partial and product."""
    out = []
    for _, factors, _ in moments:
        partials = {f: _partial(powers, theta, eta, f) for f in factors}
        vals = reduce(mul, (partials[f] for f in factors))
        estimate = float(np.mean(vals))
        centred = vals - estimate
        variance = float(np.dot(centred, centred)) / (n_samples - 1)
        out.append((estimate, math.sqrt(variance) / math.sqrt(n_samples)))
    return out


@pytest.mark.parametrize("params, seed", [
    (POINT, 21),
    (OrthogonalParams(0.3, -0.2, -1.1, 0.7, 2.2), 22),
    (OrthogonalParams(1.0, 1.0, 0.0, 2.4, 0.65), 23),
])
def test_buffered_integrands_equal_the_partial_product_loop(params, seed, monkeypatch):
    powers = _draw_residual_powers(params, 100_000, seed)
    expected = reference_integrand_moments(powers, params.theta, params.eta, 100_000)
    # verify_score_moments overwrites one row of its powers, so it gets a copy
    monkeypatch.setattr(matching, "_draw_residual_powers", lambda *args: powers.copy())
    checks = verify_score_moments(params, 100_000, seed)
    assert [(c.estimate, c.stderr) for c in checks] == expected
    assert [c.passed for c in checks] == [
        abs(estimate - c.claimed) <= 4.0 * stderr for c, (estimate, stderr) in zip(checks, expected)
    ]


def _theta_pair_first(moments):
    pair = next(m for m in moments if m[0] == "E[(dl/dtheta)(d2l/dtheta2)]")
    return (pair,) + tuple(m for m in moments if m is not pair)


def _pairs_reversed(moments):
    return tuple((label, factors[::-1], claim) for label, factors, claim in moments)


@pytest.mark.parametrize("permute", [lambda m: m[::-1], _theta_pair_first, _pairs_reversed],
                         ids=["reversed", "theta_pair_first", "pairs_reversed"])
def test_score_moments_do_not_depend_on_the_table_order(permute, monkeypatch):
    # the pure theta pair borrows the uv row as scratch; moved first, it
    # used to hand garbage to four beta identities that read uv after it
    point = OrthogonalParams(0.0, 0.0, 0.4, 1.7, 0.8)
    expected = {c.label: (c.estimate, c.stderr, c.passed)
                for c in verify_score_moments(point, 100_000, seed=5)}
    permuted = permute(_MOMENTS)
    assert permuted != _MOMENTS
    monkeypatch.setattr(matching, "_MOMENTS", permuted)
    checks = verify_score_moments(point, 100_000, seed=5)
    assert [c.label for c in checks] == [m[0] for m in permuted]
    assert {c.label: (c.estimate, c.stderr, c.passed) for c in checks} == expected
    assert all(c.passed for c in checks)


def test_pairs_whose_second_factor_needs_a_scratch_equal_the_reference(monkeypatch):
    # cross pairs that read uv in one factor and need a v^2 scratch in the
    # other, in both factor orders, placed after the pure theta pair, and
    # pairs with an identically zero factor of beta order 3
    zero = lambda t, e: 0.0  # noqa: E731
    cross = tuple(
        (f"cross {k}", factors, zero)
        for k, factors in enumerate([
            ((1, 0, 0), (0, 1, 0)), ((0, 1, 0), (1, 0, 0)),
            ((2, 0, 0), (0, 0, 1)), ((0, 0, 1), (1, 1, 0)),
            ((3, 0, 0), (0, 1, 0)), ((0, 0, 2), (3, 0, 0)),
        ])
    )
    moments = _theta_pair_first(_MOMENTS)[:1] + cross + _theta_pair_first(_MOMENTS)[1:]
    point = OrthogonalParams(0.0, 0.0, 0.4, 1.7, 0.8)
    powers = _draw_residual_powers(point, 100_000, 6)
    expected = reference_integrand_moments(powers, point.theta, point.eta, 100_000, moments)
    monkeypatch.setattr(matching, "_draw_residual_powers", lambda *args: powers.copy())
    monkeypatch.setattr(matching, "_MOMENTS", moments)
    checks = verify_score_moments(point, 100_000, seed=6)
    assert [(c.estimate, c.stderr) for c in checks] == expected


def test_score_moments_only_read_the_residual_powers(monkeypatch):
    # every integrand is built in buffers of its own: a read-only draw gives
    # the reference moments, where a write to it would raise
    point = OrthogonalParams(0.0, 0.0, 0.4, 1.7, 0.8)
    powers = _draw_residual_powers(point, 100_000, 9)
    expected = reference_integrand_moments(powers, point.theta, point.eta, 100_000)
    powers.setflags(write=False)
    monkeypatch.setattr(matching, "_draw_residual_powers", lambda *args: powers)
    checks = verify_score_moments(point, 100_000, seed=9)
    assert [(c.estimate, c.stderr) for c in checks] == expected


def test_identically_zero_integrands_make_no_pass(monkeypatch):
    # log f is quadratic in beta, so a factor of beta order 3 makes the
    # integrand 0 without a partial being built
    orders = []
    partial = matching._partial

    def recorded(powers, t, e, factor, **buffers):
        orders.append(factor)
        return partial(powers, t, e, factor, **buffers)

    zero_pairs = (("zero pair", ((3, 0, 0), (0, 1, 0)), lambda t, e: 0.0),
                  ("zero, claimed 1", ((0, 0, 1), (3, 0, 0)), lambda t, e: 1.0))
    monkeypatch.setattr(matching, "_partial", recorded)
    monkeypatch.setattr(matching, "_MOMENTS", _MOMENTS + zero_pairs)
    checks = {c.label: c for c in verify_score_moments(POINT, 100_000, seed=8)}
    assert (3, 0, 0) not in orders
    for label in ("E[d3l/dbeta3]", "zero pair", "zero, claimed 1"):
        check = checks[label]
        assert (check.estimate, check.stderr) == (0.0, 0.0)
        assert check.passed == (check.claimed == 0.0)


@pytest.mark.parametrize("factors", [
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((0, 0, 1), (0, 0, 1), (0, 0, 2)),
    ((0, 1, 0),) * 4,
], ids=["three_distinct", "pair_times_other", "fourth_power"])
def test_integrands_beyond_a_pair_or_a_cube_raise_before_sampling(factors, monkeypatch):
    # the integrand loop builds one partial, a pair or a cube; any other
    # product must fail, not pass as the moment of its first two factors
    draws = []
    monkeypatch.setattr(matching, "_draw_residual_powers", lambda *args: draws.append(args))
    monkeypatch.setattr(matching, "_MOMENTS", _MOMENTS + (("extra", factors, lambda t, e: 0.0),))
    with pytest.raises(NotImplementedError, match="extra"):
        verify_score_moments(POINT, 100_000, seed=3)
    assert draws == []


def test_score_moments_hold_at_most_six_sample_length_arrays():
    # the residual powers are three arrays and the integrands are built in
    # two more; drawing through sample and x - mu took eight
    n_samples = 1_000_000
    tracemalloc.start()
    try:
        verify_score_moments(POINT, n_samples, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * n_samples


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
                    partials = reference_fd_partials(prior.log_prior, b, t, e)
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


# extreme points as one-point blocks: a beta step below and above its
# floor, a theta step clamped to theta / 4, and an eta step clamped to eta / 4
EXTREME_BLOCKS = [
    (np.array([b]), np.array([t]), np.array([e]))
    for b, t, e in [(-2.0, 0.5, 0.5), (0.3, 1.7, 2.9), (1e-9, 4e-4, 3.0), (15.0, 2.0, 1e-3)]
]
# every beta plane of a grid in one block
GRID_BLOCKS = [grid.axes() for grid in EQUALITY_GRIDS]


def _bits(x):
    return np.float64(x).view(np.uint64)


def _assert_pointwise_stencil(partials, log_prior, beta_ax, theta_ax, eta_ax):
    """Each field of partials, (beta, theta, eta) arrays, is bit-equal to
    the 28-call stencil's at its point; the stencils run in row-major order."""
    axes = (enumerate(beta_ax), enumerate(theta_ax), enumerate(eta_ax))
    for (i, b), (j, t), (m, e) in product(*axes):
        expected = reference_fd_partials(log_prior, b, t, e)
        for name in PriorPartials.__dataclass_fields__:
            got = getattr(partials, name)[i, j, m]
            assert _bits(got) == _bits(getattr(expected, name)), (name, b, t, e)


@pytest.mark.parametrize("log_prior", [MATCHING_PRIOR.log_prior, FLAT_PRIOR.log_prior, _skewed_log_prior])
def test_fd_plane_equals_28_call_stencil_with_13_calls_a_point(log_prior):
    # _fd_block evaluates each stencil over a block of beta planes
    def recording(calls):
        def counted(b, t, e):
            calls.append((b, t, e))
            assert all(type(x) is np.float64 for x in (b, t, e))
            return log_prior(b, t, e)
        return counted

    for beta_ax, theta_ax, eta_ax in EXTREME_BLOCKS + GRID_BLOCKS:
        calls = []
        block = _fd_block(recording(calls), beta_ax, theta_ax, eta_ax)
        assert len(calls) == len(set(calls)) == 13 * beta_ax.size * theta_ax.size * eta_ax.size
        reference_calls = []
        _assert_pointwise_stencil(block, recording(reference_calls), beta_ax, theta_ax, eta_ax)
        # 28 calls a point in the reference, 13 of them distinct
        points = [reference_calls[k:k + 28] for k in range(0, len(reference_calls), 28)]
        assert len(points) == beta_ax.size * theta_ax.size * eta_ax.size
        assert all(len(set(point_calls)) == 13 for point_calls in points)
        # the same 13 coordinate triples per point as the pointwise stencil
        assert set(calls) == set(reference_calls)


@pytest.mark.parametrize("grid", EQUALITY_GRIDS)
def test_verify_prior_calls_each_route_a_fixed_number_of_times(grid):
    counts = {"log_prior": 0, "analytic_partials": 0}

    def log_prior(b, t, e):
        counts["log_prior"] += 1
        return MATCHING_PRIOR.log_prior(b, t, e)

    def analytic_partials(b, t, e):
        counts["analytic_partials"] += 1
        return MATCHING_PRIOR.analytic_partials(b, t, e)

    points = grid.beta[2] * grid.theta[2] * grid.eta[2]
    verify_prior(PriorSpec("counted-fd", log_prior), grid)
    assert counts == {"log_prior": 13 * points, "analytic_partials": 0}
    counts["log_prior"] = 0
    # the whole grid is one block
    verify_prior(PriorSpec("counted", log_prior, analytic_partials), grid)
    assert counts == {"log_prior": 0, "analytic_partials": 1}


def test_analytic_partials_are_called_once_a_block_on_broadcastable_axes():
    # 128 x 128 points a plane, so 2^16 points are 4 planes: blocks of 4, 4, 1
    grid = GridSpec(beta=(-2.0, 2.0, 9), theta=(0.5, 3.0, 128), eta=(0.5, 3.0, 128))
    shapes = []

    def analytic_partials(b, t, e):
        shapes.append((b.shape, t.shape, e.shape))
        return MATCHING_PRIOR.analytic_partials(b, t, e)

    reports = verify_prior(PriorSpec("counted", MATCHING_PRIOR.log_prior, analytic_partials), grid)
    assert all(r.passed and r.n_points == 9 * 128 * 128 for r in reports)
    axes = ((1, 128, 1), (1, 1, 128))
    assert shapes == [((4, 1, 1), *axes), ((4, 1, 1), *axes), ((1, 1, 1), *axes)]


@cache
def _reference_reports(prior, grid):
    return [reference_pde_residual(c, prior, grid) for c in CONDITIONS.values()]


@pytest.mark.parametrize("grid", EQUALITY_GRIDS)
@pytest.mark.parametrize("prior", [MATCHING_PRIOR, MATCHING_FD, FLAT_PRIOR, FLAT_FD],
                         ids=lambda p: p.name)
def test_verify_prior_equals_the_per_condition_scalar_loop(prior, grid):
    expected = _reference_reports(prior, grid)
    assert verify_prior(prior, grid) == expected
    assert pde_residual("lr_eta_pde", prior, grid) == expected[-1]


@pytest.fixture(params=[1, 2], ids=["one-plane", "two-planes"])
def small_blocks(request, monkeypatch):
    """Blocks of one beta plane (a block size below one plane), or of two
    (a size one point above two planes). Returns a function that sets the
    size for a grid and gives the list that records each block's planes,
    and the list it must end up as."""
    planes = []
    block_partials = matching._block_partials

    def recorded(prior, b, theta_ax, eta_ax):
        planes.append(b.size)
        return block_partials(prior, b, theta_ax, eta_ax)

    monkeypatch.setattr(matching, "_block_partials", recorded)
    k = request.param

    def use(grid):
        planes.clear()
        size = 1 if k == 1 else k * grid.theta[2] * grid.eta[2] + 1
        monkeypatch.setattr(matching, "_BLOCK_POINTS", size)
        n = grid.beta[2]
        return planes, [k] * (n // k) + [n % k] * (n % k > 0)

    return use


@pytest.mark.parametrize("grid", EQUALITY_GRIDS)
@pytest.mark.parametrize("prior", [MATCHING_PRIOR, MATCHING_FD, FLAT_PRIOR, FLAT_FD],
                         ids=lambda p: p.name)
def test_verify_prior_equals_the_scalar_loop_in_small_blocks(prior, grid, small_blocks):
    planes, expected = small_blocks(grid)
    assert verify_prior(prior, grid) == _reference_reports(prior, grid)
    assert planes == expected


@pytest.mark.parametrize("grid", EQUALITY_GRIDS)
@pytest.mark.parametrize("prior", [MATCHING_FD, FLAT_FD, PriorSpec("skewed-fd", _skewed_log_prior)],
                         ids=lambda p: p.name)
def test_fd_partials_equal_the_pointwise_stencil_in_small_blocks(prior, grid, small_blocks,
                                                                   monkeypatch):
    # block boundaries fall between every plane, or after every second one
    planes, expected = small_blocks(grid)
    blocks = []
    block_partials = matching._block_partials

    def kept(prior, b, theta_ax, eta_ax):
        blocks.append(block_partials(prior, b, theta_ax, eta_ax))
        return blocks[-1]

    monkeypatch.setattr(matching, "_block_partials", kept)
    assert verify_prior(prior, grid) == _reference_reports(prior, grid)
    assert planes == expected
    partials = PriorPartials(*(np.concatenate([getattr(p, name) for p in blocks])
                               for name in PriorPartials.__dataclass_fields__))
    _assert_pointwise_stencil(partials, prior.log_prior, *grid.axes())


def test_worst_point_ties_go_to_the_first_grid_point():
    # flat hpd_theta_pde is exactly -2 everywhere
    for grid in EQUALITY_GRIDS:
        report = pde_residual("hpd_theta_pde", FLAT_PRIOR, grid)
        assert report.max_abs_residual == 2.0
        assert report.worst_point == tuple(float(ax[0]) for ax in grid.axes())


NAN_PRIOR = PriorSpec("nan", lambda b, t, e: math.nan)


def _nan_above_2_log(b, t, e):
    return math.nan if t >= 2.0 else -math.log(t * e)


def _nan_above_2_partials(b, t, e):
    p = MATCHING_PRIOR.analytic_partials(b, t, e)
    return PriorPartials(*(np.where(t >= 2.0, np.nan, getattr(p, name))
                           for name in PriorPartials.__dataclass_fields__))


# NaN for theta >= 2 only, on either route; the first such grid theta is 2.0625
NAN_ABOVE_2 = (
    PriorSpec("nan-above-2-fd", _nan_above_2_log),
    PriorSpec("nan-above-2", _nan_above_2_log, _nan_above_2_partials),
)


def test_nan_prior_fails_every_condition_at_the_first_point():
    reports = verify_prior(NAN_PRIOR)
    first = (-2.0, 0.5, 0.5)
    for r in reports:
        assert math.isnan(r.max_abs_residual)
        assert not r.passed
        assert r.worst_point == first
        assert all(type(x) is float for x in r.worst_point)
    rows = list(csv.reader(io.StringIO(residual_report_csv(reports))))[1:]
    assert all(row[2:] == ["nan", "-2.0", "0.5", "0.5", "false"] for row in rows)


def test_nan_residual_on_part_of_the_grid_fails_at_its_first_nan_point():
    for prior in NAN_ABOVE_2:
        for r in verify_prior(prior):
            assert math.isnan(r.max_abs_residual)
            assert not r.passed
            assert r.worst_point == (-2.0, 2.0625, 0.5)


def test_ties_and_nans_go_to_the_first_point_in_small_blocks(small_blocks):
    for grid in EQUALITY_GRIDS:
        planes, expected = small_blocks(grid)
        report = pde_residual("hpd_theta_pde", FLAT_PRIOR, grid)
        assert report.max_abs_residual == 2.0
        assert report.worst_point == tuple(float(ax[0]) for ax in grid.axes())
        assert planes == expected
    firsts = [(NAN_PRIOR, (-2.0, 0.5, 0.5))] + [(p, (-2.0, 2.0625, 0.5)) for p in NAN_ABOVE_2]
    for prior, first in firsts:
        planes, expected = small_blocks(DEFAULT_GRID)
        for r in verify_prior(prior, DEFAULT_GRID):
            assert math.isnan(r.max_abs_residual)
            assert r.worst_point == first
        assert planes == expected and len(planes) > 1


def test_verify_prior_holds_one_block_at_a_time():
    # a million points in blocks of 2^16; one float64 array over the whole
    # grid would be 8 MiB, and the 4 MiB bound is eight arrays of one block
    grid = GridSpec(beta=(-2.0, 2.0, 64), theta=(0.5, 3.0, 128), eta=(0.5, 3.0, 128))
    tracemalloc.start()
    try:
        reports = verify_prior(MATCHING_PRIOR, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in reports)
    assert peak <= 8 * 8 * 2**16


def test_finite_differences_hold_each_stencil_only_while_its_axis_needs_it():
    # two blocks of 2^16 points, within 23 arrays of one block; holding all
    # twelve shifted stencils of a block until its differences takes 28
    grid = GridSpec(beta=(-2.0, 2.0, 8), theta=(0.5, 3.0, 128), eta=(0.5, 3.0, 128))
    tracemalloc.start()
    try:
        reports = verify_prior(MATCHING_FD, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in reports)
    assert peak <= 23 * 8 * 2**16


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



def test_matching_prior_is_the_right_haar_prior_in_sigma_rho():
    # Berger & Sun (2008): in (sigma1, sigma2, rho) the prior 1/(theta eta)
    # is 2/(sigma1^2 (1 - rho^2)), the right-Haar prior of the group
    # x1 -> a11 x1, x2 -> a21 x1 + a22 x2
    sp = pytest.importorskip("sympy")
    s1, s2 = sp.symbols("sigma1 sigma2", positive=True)
    r = sp.symbols("rho", real=True)
    root = sp.sqrt(1 - r**2)
    b, t, e = r * s2 / s1, s1 * s2 * root, s2 * root / s1
    point = OriginalParams(0.0, 0.0, 1.3, 0.7, -0.4)
    at = {s1: point.sigma1, s2: point.sigma2, r: point.rho}
    orth = to_orthogonal(point)
    assert [float(x.subs(at)) for x in (b, t, e)] == pytest.approx(
        [orth.beta, orth.theta, orth.eta], rel=1e-15)
    assert math.exp(MATCHING_PRIOR.log_prior(orth.beta, orth.theta, orth.eta)) == pytest.approx(
        1.0 / (orth.theta * orth.eta), rel=1e-15)
    det = sp.Matrix([b, t, e]).jacobian([s1, s2, r]).det()
    assert sp.simplify(det - 2 * s2**2 / s1**2) == 0
    assert sp.simplify(det / (t * e) - 2 / (s1**2 * (1 - r**2))) == 0


# -- the rows of each identity ---------------------------------------------


def field_orders(field):
    """(k_beta, k_theta, k_eta): the derivative orders of a PriorPartials field."""
    if field == "value":
        return (0, 0, 0)
    order, axis = re.fullmatch(r"d(2?)_(beta|theta|eta)", field).groups()
    return tuple(int(order or 1) * (axis == x) for x in ("beta", "theta", "eta"))


@cache
def operator_forms():
    """Each identity as its differential operator, applied to a prior pi: the
    PDEs as first derived, before any product-rule expansion."""
    sp = pytest.importorskip("sympy")
    b, t, e = sp.symbols("beta theta eta", positive=True)
    D = sp.diff
    forms = {
        "dist_fn_A1_beta": lambda pi: D(t * pi, t) + D(e * pi, e),
        "dist_fn_A2_beta": lambda pi: D((t + e) * pi, b),
        "dist_fn_theta": lambda pi: (D(t**2 * pi, t, 2) - 2 * D(t**2 * D(pi, t), t)
                                     - 12 * D(t * pi, t)),
        "dist_fn_eta_main": lambda pi: (D(e**2 * pi, e, 2) - 2 * D(e**2 * D(pi, e), e)
                                        - D(t * pi, t) - D(e * pi, e)),
        "dist_fn_eta_aux": lambda pi: D(3 * e * pi, e),
        "hpd_beta_pde": lambda pi: D(t * pi, t) + D(e * pi, e) - D(e**2 * pi, b, 2),
        "hpd_theta_pde": lambda pi: -2 * D(t * pi, t) - D(t * pi, t, 2),
        "hpd_eta_pde": lambda pi: D(t * pi, t) + D(e * pi, e) - D(e**2 * pi, e, 2),
        "lr_beta_pde": lambda pi: D(t * pi, t) + D(e * pi, e) + e**2 * D(pi, b, 2),
        "lr_theta_pde": lambda pi: D(t**2 * D(pi, t) + 4 * t * pi, t),
        "lr_eta_pde": lambda pi: D(t * pi, t) + D(e**2 * D(pi, e) + 2 * e * pi, e),
    }
    return sp, (b, t, e), forms


def rows_expression(rows, pi):
    """sum c theta^i eta^j field over the rows, for a sympy prior pi."""
    sp, (b, t, e), _ = operator_forms()
    return sum(c * t**i * e**j * sp.diff(pi, *zip((b, t, e), field_orders(field)))
               for c, i, j, field in rows)


def test_operator_forms_cover_the_registry():
    assert list(operator_forms()[2]) == list(CONDITION_IDS)


@pytest.mark.parametrize("cid", CONDITION_IDS)
def test_rows_are_the_expanded_operator_form(cid):
    sp, symbols, forms = operator_forms()
    pi = sp.Function("pi")(*symbols)
    rows = CONDITIONS[cid].rows
    assert sp.expand(forms[cid](pi) - rows_expression(rows, pi)) == 0
    # the oracle sees a mistyped coefficient, power or field in any row
    for k, (c, i, j, field) in enumerate(rows):
        other = "d2_eta" if field == "d2_theta" else "d2_theta"
        for typo in ((c + 1, i, j, field), (c, i + 1, j, field), (c, i, j, other)):
            mistyped = rows[:k] + (typo,) + rows[k + 1:]
            assert sp.expand(forms[cid](pi) - rows_expression(mistyped, pi)) != 0, (cid, typo)


def test_descriptions_are_generated_from_the_rows():
    assert CONDITIONS["hpd_theta_pde"].description == (
        "-2 pi - 2 theta dpi/dtheta - 2 dpi/dtheta - 1 theta d2pi/dtheta2 = 0")
    assert CONDITIONS["lr_eta_pde"].description == (
        "3 pi + 1 theta dpi/dtheta + 4 eta dpi/deta + 1 eta^2 d2pi/deta2 = 0")


def power_prior(a, b):
    """theta^a eta^b, with exact partials."""

    def partials(beta, t, e):
        v = t**a * e**b
        return PriorPartials(v, 0.0, a * v / t, b * v / e, 0.0,
                             a * (a - 1) * v / (t * t), b * (b - 1) * v / (e * e))

    return PriorSpec(f"power({a}, {b})", lambda beta, t, e: a * math.log(t) + b * math.log(e),
                     partials)


def power_reading(condition, a, b, t, e, falling=lambda x, k: math.prod(x - m for m in range(k))):
    """The terms of residual / pi for theta^a eta^b, read off the rows:
    c theta^(i - k_theta) eta^(j - k_eta) (a)_k_theta (b)_k_eta, where (x)_k is
    the falling factorial, and a row on a beta partial gives no term."""
    return [c * t ** (i - kt) * e ** (j - ke) * falling(a, kt) * falling(b, ke)
            for c, i, j, field in condition.rows
            for kb, kt, ke in [field_orders(field)] if kb == 0]


POWERS = [(-1, -1), (0, 0), (-1, -2), (0.5, 2), (-2.5, 1.5), (3, -1)]


@pytest.mark.parametrize("grid", EQUALITY_GRIDS[:2])
@pytest.mark.parametrize("a, b", POWERS)
def test_power_prior_residuals_are_read_off_the_rows(a, b, grid):
    _, theta_ax, eta_ax = grid.axes()
    t, e = theta_ax[:, None], eta_ax[None, :]
    pi = t**a * e**b
    for report in verify_prior(power_prior(a, b), grid):
        terms = power_reading(CONDITIONS[report.condition_id], a, b, t, e)
        expected = np.abs(pi * sum(terms, np.zeros_like(pi)))
        size = pi * sum(map(np.abs, terms), np.zeros_like(pi))
        assert abs(report.max_abs_residual - expected.max()) <= 1e-12 * size.max(), report


def test_power_prior_readings_in_closed_form():
    sp, (_, t, e), forms = operator_forms()
    a, b = sp.symbols("a b")
    power = t**a * e**b
    readings = {cid: sum(power_reading(c, a, b, t, e, falling=sp.ff), sp.Integer(0))
                for cid, c in CONDITIONS.items()}
    for cid, reading in readings.items():
        # the operator form applied to theta^a eta^b reads the same
        assert sp.simplify(forms[cid](power) / power - reading) == 0, cid
        # every identity holds for the matching prior 1/(theta eta)
        assert sp.simplify(reading.subs({a: -1, b: -1})) == 0, cid
    assert sp.simplify(readings["hpd_theta_pde"] + (a + 1) * (a + 2 * t) / t) == 0
    assert sp.simplify(readings["hpd_eta_pde"] - (a - 2 * b - b**2)) == 0
    assert sp.simplify(readings["dist_fn_A1_beta"] - (a + b + 2)) == 0


@pytest.mark.parametrize("cid", CONDITION_IDS)
def test_residuals_do_not_read_beta(cid):
    # the shear x2 -> x2 + a21 x1 moves beta to beta + a21 and leaves theta
    # and eta, and a prior's partials move with beta; so an identity covariant
    # under the shear has no term that reads beta, and its residual at
    # beta + a21 is the same float
    rng = np.random.default_rng(41)
    shape = (6, 5)
    partials = PriorPartials(*rng.standard_normal((7, *shape)))
    b = rng.uniform(-3.0, 3.0, shape)
    t, e = rng.uniform(0.2, 5.0, (2, *shape))
    residual = CONDITIONS[cid].residual
    expected = residual(partials, b, t, e).tobytes()
    for a21 in (0.5, -4.0, 1.7, 1e6):
        assert residual(partials, b + a21, t, e).tobytes() == expected, a21


# under theta -> s theta and beta, eta -> r beta, r eta (the diagonal group
# elements) a term c theta^i eta^j d^k pi scales by s^(i - k_theta) r^(j - k_eta - k_beta)
NOT_SCALE_COVARIANT = {
    "hpd_theta_pde": "-(a+1)(a + 2 theta)/theta mixes weights; ROADMAP item 4 decides it",
    "dist_fn_A2_beta": "theta dpi/dbeta and eta dpi/dbeta differ in weight; ROADMAP item 4 decides it",
}


@pytest.mark.parametrize("cid", [
    pytest.param(cid, marks=pytest.mark.xfail(strict=True, reason=NOT_SCALE_COVARIANT[cid]))
    if cid in NOT_SCALE_COVARIANT else cid
    for cid in CONDITION_IDS
])
def test_every_row_of_an_identity_has_one_weight(cid):
    weights = set()
    for _, i, j, field in CONDITIONS[cid].rows:
        kb, kt, ke = field_orders(field)
        weights.add((i - kt, j - ke - kb))
    assert len(weights) == 1, weights


# -- exact score moments from _partial's linear forms -----------------------


def linear_form(theta, eta, orders):
    """(c0, c1, c2, c3) with the partial c0 + c1 u^2 + c2 uv + c3 v^2: _partial
    is affine in its powers, so its values at the columns 0, e1, e2, e3 give them."""
    columns = _partial(np.hstack([np.zeros((3, 1)), np.eye(3)]), theta, eta, orders)
    return columns[0], *(columns[1:] - columns[0])


def normal_moment(k, var):
    """E z^k for z ~ N(0, var): (k-1)!! var^(k/2) for even k, else 0."""
    return 0.0 if k % 2 else math.prod(range(k - 1, 0, -2)) * var ** (k // 2)


def isserlis_moment(factors, theta, eta):
    """E of the product of the partials, and the sum of its terms' sizes: the
    product as a polynomial in (u, v), with u ~ N(0, theta eta) and
    v ~ N(0, theta/eta) independent."""
    poly = {(0, 0): 1.0}
    for f in factors:
        c0, c1, c2, c3 = linear_form(theta, eta, f)
        product = {}
        for (p, q), x in poly.items():
            for (r, s), y in (((0, 0), c0), ((2, 0), c1), ((1, 1), c2), ((0, 2), c3)):
                product[p + r, q + s] = product.get((p + r, q + s), 0.0) + x * y
        poly = product
    terms = [x * normal_moment(p, theta * eta) * normal_moment(q, theta / eta)
             for (p, q), x in poly.items()]
    return sum(terms), sum(map(abs, terms))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(theta=hs.floats(0.2, 5.0), eta=hs.floats(0.2, 5.0))
def test_moment_claims_equal_their_isserlis_moments(theta, eta):
    powers = np.abs(np.random.default_rng(0).standard_normal((3, 5)))
    for label, factors, claim in _MOMENTS:
        for f in set(factors):
            c0, *c = linear_form(theta, eta, f)
            assert np.allclose(_partial(powers, theta, eta, f), c0 + np.dot(c, powers),
                               rtol=1e-12, atol=0.0), (label, f)
        moment, size = isserlis_moment(factors, theta, eta)
        claimed = claim(theta, eta)
        # relative to the claim, or to the terms' sizes where the claim is 0
        assert abs(moment - claimed) <= 1e-12 * (abs(claimed) or size), label


@pytest.mark.parametrize("theta, eta, seed", [(1.2, 0.9, 1), (0.4, 3.0, 2), (2.5, 0.3, 3)])
def test_moment_gate_stderr_matches_the_exact_variance(theta, eta, seed):
    # Var X = E[X^2] - (E X)^2 of each integrand X, exact from Isserlis. The
    # estimated stderr is a sample sd over sqrt(n); by the delta method that
    # sd has relative error sqrt((mu4/Var^2 - 1) / (4n)), mu4 the exact fourth
    # central moment, and it must land within 5 of those of sqrt(Var X / n).
    # Measured on these seeds: at most 1.9 of them, 0.047 relative, for the
    # cubes of the scores, whose kurtosis is about 2,600. So the library gate
    # |estimate - claim| <= 4 stderr is, under the normal approximation of a
    # mean, a two-sided 4-sigma test: 2 Phi(-4) = 6.3e-5 false alarms per
    # identity, at most 9.5e-4 per run of the 15 (the constant d3l/dbeta3
    # never fails).
    n = 1_000_000
    checks = verify_score_moments(OrthogonalParams(0.0, 0.0, 0.5, theta, eta), n, seed)
    for check, (label, factors, _) in zip(checks, _MOMENTS):
        m1, m2, m3, m4 = (isserlis_moment(factors * k, theta, eta)[0] for k in (1, 2, 3, 4))
        var = m2 - m1 * m1
        if var == 0.0:  # d3l/dbeta3 is a constant
            assert check.stderr == 0.0, label
            continue
        central4 = m4 - 4 * m1 * m3 + 6 * m1 * m1 * m2 - 3 * m1 ** 4
        sd_error = math.sqrt((central4 / var ** 2 - 1.0) / (4 * n))
        assert abs(check.stderr / math.sqrt(var / n) - 1.0) <= 5.0 * sd_error, label


def test_numpy_float_params_report_python_float_claims():
    # a claim computed from numpy scalars used to reach the CSV as its repr,
    # np.float64(1.02880658436214)
    values = (1.0, -2.0, 0.3, 1.2, 0.9)
    checks = verify_score_moments(OrthogonalParams(*map(np.float64, values)), 100_000, seed=4)
    assert all(type(c.claimed) is float for c in checks)
    text = moment_report_csv(checks)
    assert "np." not in text and "1.02880658436214" in text
    python_floats = verify_score_moments(OrthogonalParams(*values), 100_000, seed=4)
    assert text == moment_report_csv(python_floats)
