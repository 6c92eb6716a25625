"""Acceptance suite: every shipped guarantee at its stated tolerance.

Each test prints a [acceptance] PASS line (visible with pytest -s or -rA)
after its assertions hold. The frozen coverage references are prior
simulation results for the same grid; both carry Monte Carlo noise of
about 0.003 at 5000 replicates, which sets the 0.015 comparison band.

A correct engine's hit count in an estimate is binomial(replicates, 0.95),
so the false-alarm rate of each reference band is computed exactly, by
putting every hit count through the tests' own float comparison
(test_reference_band_false_alarm_rates). Summed over the 45 estimates,
which bounds the rate of the grid, it is 0.0097 for the 0.015 band at 5000
replicates (worst estimate 0.0024, at reference 0.956) and 0.037 for the
0.025 band at 1000 replicates (worst 0.0035). The float comparison trips at
some gaps that equal the band in exact arithmetic (|0.971 - 0.956| is
0.015000000000000013); compared exactly, the sums would be 0.0078 and
0.031.

Under the matching prior every coverage equals the level exactly, so the
exact binomial gate tests each of the 45 hit counts against the level,
with Holm's step-down correction at family-wise alpha 0.001: a correct
engine trips it with probability at most 0.001. The mutation tests show
that this gate and the per-cell KS gate both reject real defects.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

import bvnprior.coverage as coverage
from bvnprior.cli import main
from bvnprior.coverage import DEFAULT_SEED, ks_uniformity, run_table
from bvnprior.interval import equal_tailed, hpd_beta, hpd_unimodal
from bvnprior.matching import (
    CONDITION_IDS,
    CONDITIONS,
    FLAT_PRIOR,
    MATCHING_PRIOR,
    DEFAULT_GRID,
    PriorSpec,
    pde_residual,
    verify_score_moments,
)
from bvnprior.model import OrthogonalParams, SufficientStats
from bvnprior.posterior import (
    GAMMA,
    BetaPosterior,
    EtaPosterior,
    PrecisionPosterior,
    ThetaPosterior,
    beta_posterior,
    eta_posterior,
    precision_posterior,
    theta_posterior,
)

# frozen reference coverage for the default hpd/0.95 grid (beta, theta, eta)
REFERENCE_COVERAGE = {
    (0.25, 4): (0.952, 0.947, 0.949),
    (0.25, 8): (0.946, 0.955, 0.950),
    (0.25, 12): (0.954, 0.952, 0.948),
    (0.25, 16): (0.952, 0.954, 0.950),
    (0.25, 20): (0.945, 0.948, 0.950),
    (0.50, 4): (0.950, 0.952, 0.949),
    (0.50, 8): (0.944, 0.952, 0.948),
    (0.50, 12): (0.954, 0.953, 0.944),
    (0.50, 16): (0.946, 0.950, 0.949),
    (0.50, 20): (0.952, 0.948, 0.949),
    (0.75, 4): (0.955, 0.952, 0.953),
    (0.75, 8): (0.953, 0.948, 0.949),
    (0.75, 12): (0.950, 0.946, 0.947),
    (0.75, 16): (0.948, 0.946, 0.951),
    (0.75, 20): (0.956, 0.946, 0.951),
}

REF_STATS = SufficientStats(
    n=10, xbar1=0.0, xbar2=0.0, s11=9.0, s22=5.0, s12=3.0, s22_1=4.0
)

PARAMS = ("beta", "theta", "eta")

KS_ALPHA = 0.01  # per-cell, per-parameter KS gate
FAMILY_ALPHA = 0.001  # Holm family-wise alpha of the exact binomial gate


@pytest.fixture(scope="module")
def full_table():
    return run_table(replicates=5000, seed=DEFAULT_SEED)


def _ks_pvalues(report):
    """{(rho, n, param): KS p-value of the posterior CDF values at the truth}."""
    return {
        (cell.rho, cell.n, param): pvalue
        for cell in report.cells
        for param, (_, pvalue) in ks_uniformity(cell).items()
    }


def _binomial_pvalues(report):
    """{(rho, n, param): exact two-sided binomial p of the hits against level}."""
    out = {}
    for cell in report.cells:
        for param in PARAMS:
            hits = round(cell.coverage[param] * cell.replicates_used)
            test = stats.binomtest(hits, cell.replicates_used, report.level)
            out[(cell.rho, cell.n, param)] = test.pvalue
    return out


def _holm_rejections(pvalues, alpha=FAMILY_ALPHA):
    """Keys that Holm's step-down procedure rejects at family-wise alpha."""
    ordered = sorted(pvalues.items(), key=lambda item: item[1])
    rejected = []
    for i, (key, pvalue) in enumerate(ordered):
        if pvalue > alpha / (len(ordered) - i):
            break
        rejected.append(key)
    return rejected


def test_acceptance_coverage_grid(full_table):
    """45 coverage estimates at 5000 replicates, each within 0.015."""
    assert len(full_table.cells) == 15
    worst = 0.0
    for cell in full_table.cells:
        assert cell.ok, cell.error
        ref = REFERENCE_COVERAGE[(cell.rho, cell.n)]
        for param, expected in zip(PARAMS, ref):
            gap = abs(cell.coverage[param] - expected)
            worst = max(worst, gap)
            assert gap <= 0.015, (cell.rho, cell.n, param, cell.coverage[param])
    print(f"[acceptance] coverage grid 5000 reps: PASS (worst gap {worst:.4f})")


def test_acceptance_coverage_grid_fast_variant():
    """The reduced 1000-replicate run stays within the wider 0.025 band."""
    table = run_table(replicates=1000, seed=DEFAULT_SEED)
    worst = 0.0
    for cell in table.cells:
        ref = REFERENCE_COVERAGE[(cell.rho, cell.n)]
        for param, expected in zip(PARAMS, ref):
            gap = abs(cell.coverage[param] - expected)
            worst = max(worst, gap)
            assert gap <= 0.025, (cell.rho, cell.n, param)
    print(f"[acceptance] coverage grid 1000 reps: PASS (worst gap {worst:.4f})")


def _band_trip_rates(replicates, band):
    """{(rho, n, param): probability that a correct engine's estimate leaves the band}.

    The hits are binomial(replicates, 0.95), as no replicate of a correct
    engine is degenerate, and each hit count goes through the comparison
    the two band tests make.
    """
    hits = np.arange(replicates + 1)
    pmf = stats.binom.pmf(hits, replicates, 0.95)
    coverage = hits / replicates
    return {
        (rho, n, param): float(pmf[np.abs(coverage - expected) > band].sum())
        for (rho, n), ref in REFERENCE_COVERAGE.items()
        for param, expected in zip(PARAMS, ref)
    }


# (replicates, band): (sum of the 45 false-alarm rates, the largest one)
BAND_FALSE_ALARMS = {
    (5000, 0.015): (0.0097020, 0.0023908),
    (1000, 0.025): (0.036657, 0.0034746),
}


def test_reference_band_false_alarm_rates():
    """The exact false-alarm rates of the two reference bands, as the docstring states."""
    for (replicates, band), (total, worst) in BAND_FALSE_ALARMS.items():
        rates = _band_trip_rates(replicates, band)
        assert len(rates) == 45
        assert sum(rates.values()) == pytest.approx(total, rel=1e-4)
        assert max(rates.values()) == pytest.approx(worst, rel=1e-4)


def test_acceptance_coverage_exact_binomial(full_table):
    """Each of the 45 hit counts is binomial(used, level), Holm at 0.001."""
    pvalues = _binomial_pvalues(full_table)
    assert len(pvalues) == 45
    assert _holm_rejections(pvalues) == []
    print(
        "[acceptance] exact binomial coverage gate: PASS "
        f"(min p {min(pvalues.values()):.3f}, first Holm threshold "
        f"{FAMILY_ALPHA / len(pvalues):.1e})"
    )


def test_acceptance_posterior_cdf_uniformity(full_table):
    """Exact matching: posterior CDF values of the truth are U(0,1) per cell."""
    pvalues = _ks_pvalues(full_table)
    for key, pvalue in pvalues.items():
        assert pvalue >= KS_ALPHA, (key, pvalue)
    print(f"[acceptance] KS uniformity of CDF values: PASS (min p {min(pvalues.values()):.3f})")


def _slope_scale_without_1_over_s11(monkeypatch):
    def pivot(n, s11, s12, s22_1):
        return (n - 2,), s12 / s11, np.sqrt(s22_1 / (n - 2))

    monkeypatch.setattr(BetaPosterior, "pivot", staticmethod(pivot))


def _eta_exponent_off_by_one(monkeypatch):
    # density eta^(n-1) (eta^2 + c)^-(n-3/2) in place of eta^(n-2) (...):
    # the posterior of a prior that lost its 1/eta factor, with
    # Z^2 ~ beta-prime(n/2, (n-3)/2) instead of ((n-1)/2, (n-2)/2)
    def pivot(n, s11, s12, s22_1):
        return (n / 2.0, (n - 3) / 2.0), 0.0, np.sqrt(s22_1 / s11)

    monkeypatch.setattr(EtaPosterior, "pivot", staticmethod(pivot))


def _theta_and_precision_swapped(monkeypatch):
    monkeypatch.setattr(ThetaPosterior, "pivot", staticmethod(PrecisionPosterior.pivot))
    monkeypatch.setattr(ThetaPosterior, "family", GAMMA)


def _residual_chi2_with_n_minus_1_df(monkeypatch):
    # S22.1 ~ (1 - rho^2) chi2(n-1), the law without the fitted slope: the
    # correct chi2(n-2) draw plus an independent chi2(1)
    draw = coverage._draw_stats

    def mutant(rho, n, replicates, rng):
        s11, s12, s22_1 = draw(rho, n, replicates, rng)
        extra = (1.0 - rho**2) * rng.standard_normal(replicates) ** 2
        return s11, s12, s22_1 + extra

    monkeypatch.setattr(coverage, "_draw_stats", mutant)


@pytest.mark.parametrize(
    "mutate",
    [
        _slope_scale_without_1_over_s11,
        _eta_exponent_off_by_one,
        _theta_and_precision_swapped,
        _residual_chi2_with_n_minus_1_df,
    ],
)
def test_acceptance_gates_reject_mutants(mutate, monkeypatch):
    """Both coverage gates, as run above, reject each broken posterior."""
    mutate(monkeypatch)
    table = run_table(replicates=5000, seed=DEFAULT_SEED)
    ks = _ks_pvalues(table)
    rejected = _holm_rejections(_binomial_pvalues(table))
    assert min(ks.values()) < KS_ALPHA
    assert rejected
    print(
        f"[acceptance] gates reject {mutate.__name__.strip('_')}: PASS "
        f"(min KS p {min(ks.values()):.1e}, {len(rejected)} binomial rejections)"
    )


@pytest.mark.slow
def test_gate_false_alarm_rates_over_many_seeds():
    """How often a correct engine trips the per-cell KS gate and the 0.025 band.

    The 1000-replicate grid on 200 seeds. Each of the 45 KS tests rejects
    with probability KS_ALPHA, so if they were independent the grid would
    fail with probability 1 - 0.99^45; the observed rate must lie within
    a 4 sigma binomial band of that. The 0.025 band trips with probability
    at most the sum of its 45 exact rates (_band_trip_rates); the observed
    rate must not exceed that bound by more than 4 sigma.
    """
    seeds = range(1, 201)
    ks_trips = band_trips = 0
    for seed in seeds:
        table = run_table(replicates=1000, seed=seed)
        ks_trips += min(_ks_pvalues(table).values()) < KS_ALPHA
        band_trips += any(
            abs(cell.coverage[param] - expected) > 0.025
            for cell in table.cells
            for param, expected in zip(PARAMS, REFERENCE_COVERAGE[(cell.rho, cell.n)])
        )
    runs = len(seeds)
    expected = 1.0 - (1.0 - KS_ALPHA) ** 45
    sigma = math.sqrt(expected * (1.0 - expected) / runs)
    band_bound = sum(_band_trip_rates(1000, 0.025).values())
    band_sigma = math.sqrt(band_bound * (1.0 - band_bound) / runs)
    print(
        f"[acceptance] false alarms over {runs} seeds: KS gate {ks_trips / runs:.3f} "
        f"(independent tests: {expected:.3f} +- {sigma:.3f}), "
        f"0.025 band {band_trips / runs:.3f} (at most {band_bound:.3f} +- {band_sigma:.3f})"
    )
    assert abs(ks_trips / runs - expected) <= 4.0 * sigma
    assert band_trips / runs <= band_bound + 4.0 * band_sigma


def test_acceptance_score_moment_suite():
    """All moment identities at 5 random points, 1e6 samples, < 1 minute."""
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    for point_idx in range(5):
        point = OrthogonalParams(
            mu1=float(rng.uniform(-1, 1)),
            mu2=float(rng.uniform(-1, 1)),
            beta=float(rng.uniform(-1.5, 1.5)),
            theta=float(rng.uniform(0.6, 2.5)),
            eta=float(rng.uniform(0.6, 2.5)),
        )
        checks = verify_score_moments(
            point, n_samples=1_000_000, seed=1000 + point_idx
        )
        assert len(checks) == 15
        for check in checks:
            band = 4.0 * check.stderr + 1e-6
            assert abs(check.estimate - check.claimed) <= band, (point, check)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"moment suite took {elapsed:.1f}s"
    print(f"[acceptance] score moment suite: PASS ({elapsed:.1f}s for 5 points)")


def test_acceptance_matching_pde_suite():
    """Matching prior: residual <= 1e-12 analytic / 1e-6 finite differences.

    The flat prior must fail the HPD scale identity with the constant
    residual -2 at every grid point.
    """
    fd_prior = PriorSpec("matching-fd", MATCHING_PRIOR.log_prior)
    worst_analytic = 0.0
    worst_fd = 0.0
    for cid in CONDITION_IDS:
        ra = pde_residual(cid, MATCHING_PRIOR)
        assert ra.max_abs_residual <= 1e-12, (cid, ra.max_abs_residual)
        worst_analytic = max(worst_analytic, ra.max_abs_residual)
        rf = pde_residual(cid, fd_prior)
        assert rf.max_abs_residual <= 1e-6, (cid, rf.max_abs_residual)
        worst_fd = max(worst_fd, rf.max_abs_residual)

    residual = CONDITIONS["hpd_theta_pde"].residual
    bax, tax, eax = DEFAULT_GRID.axes()
    for b in bax:
        for t in tax:
            for e in eax:
                p = FLAT_PRIOR.analytic_partials(b, t, e)
                assert residual(p, b, t, e) == pytest.approx(-2.0, abs=1e-8)
    print(
        "[acceptance] matching PDE suite: PASS "
        f"(worst analytic {worst_analytic:.1e}, worst FD {worst_fd:.1e}, "
        "flat prior residual -2 everywhere)"
    )


def _beta_pdf_by_joint_quadrature(st):
    """Slope marginal via nested numeric quadrature of the joint posterior.

    The joint density of (slope b, scale t, ratio e) is proportional to
    t^-n e^-1 exp(-[s22.1 + s11 (b-m)^2]/(2 t e) - e s11/(2 t)). Both
    nuisance axes are integrated numerically (the scale axis after
    substituting u = 1/t, which maps (0, inf) onto itself).
    """
    m = st.s12 / st.s11

    def over_scale(b, e):
        q = (st.s22_1 + st.s11 * (b - m) ** 2) / (2.0 * e) + e * st.s11 / 2.0
        return quad(
            lambda u: u ** (st.n - 2) * math.exp(-q * u),
            0.0,
            np.inf,
            epsabs=1e-12,
            epsrel=1e-12,
        )[0]

    def unnorm(b):
        return quad(
            lambda e: over_scale(b, e) / e, 0.0, np.inf, epsabs=1e-12, epsrel=1e-12
        )[0]

    width = math.sqrt(st.s22_1 / ((st.n - 2) * st.s11))
    norm = quad(
        unnorm, m - 60 * width, m + 60 * width, epsabs=1e-11, epsrel=1e-11, limit=200
    )[0]
    return lambda b: unnorm(b) / norm


def test_acceptance_posterior_quadrature_equivalence():
    """Closed-form marginals against direct joint-posterior quadrature."""
    # slope marginal: 20 points, 1e-5
    oracle = _beta_pdf_by_joint_quadrature(REF_STATS)
    dist = beta_posterior(REF_STATS)
    grid = dist.location + dist.scale * np.linspace(-4.5, 4.5, 20)
    worst_beta = max(
        abs(dist.pdf(float(b)) - oracle(float(b))) for b in grid
    )
    assert worst_beta <= 1e-5

    # eta CDF identity: 50 points, 1e-8
    ed = eta_posterior(REF_STATS)
    c = REF_STATS.s22_1 / REF_STATS.s11
    kernel = lambda e: e ** (REF_STATS.n - 2) * (e * e + c) ** (-(REF_STATS.n - 1.5))
    total = quad(kernel, 0.0, np.inf, epsabs=1e-13, epsrel=1e-13)[0]
    worst_eta = 0.0
    for x in np.geomspace(0.05, 5.0, 50) * math.sqrt(c):
        direct = quad(kernel, 0.0, float(x), epsabs=1e-13, epsrel=1e-13)[0] / total
        worst_eta = max(worst_eta, abs(ed.cdf(float(x)) - direct))
    assert worst_eta <= 1e-8

    # scale/precision complementarity: 1e-10
    td = theta_posterior(REF_STATS)
    wd = precision_posterior(REF_STATS)
    worst_comp = max(
        abs(td.cdf(float(x)) + wd.cdf(1.0 / float(x)) - 1.0)
        for x in np.geomspace(0.02, 50.0, 50)
    )
    assert worst_comp <= 1e-10
    print(
        "[acceptance] posterior quadrature equivalence: PASS "
        f"(beta {worst_beta:.1e}, eta {worst_eta:.1e}, complement {worst_comp:.1e})"
    )


def test_acceptance_hpd_contracts():
    """Mass, endpoint density equality, closed-form agreement, and the
    scale-vs-precision asymmetry, on the reference n=10 statistics."""
    dists = {
        "beta": beta_posterior(REF_STATS),
        "theta": theta_posterior(REF_STATS),
        "w": precision_posterior(REF_STATS),
        "eta": eta_posterior(REF_STATS),
    }
    worst_mass = 0.0
    worst_density = 0.0
    for level in (0.9, 0.95, 0.99):
        for name, dist in dists.items():
            iv = hpd_beta(REF_STATS, level) if name == "beta" else hpd_unimodal(
                dist, level
            )
            mass_gap = abs(dist.cdf(iv.hi) - dist.cdf(iv.lo) - level)
            worst_mass = max(worst_mass, mass_gap)
            assert mass_gap <= 1e-6, (name, level)
            flo, fhi = dist.pdf(iv.lo), dist.pdf(iv.hi)
            rel = abs(flo - fhi) / max(flo, fhi)
            worst_density = max(worst_density, rel)
            assert rel <= 1e-6, (name, level)

    worst_closed = 0.0
    for level in (0.9, 0.95, 0.99):
        closed = hpd_beta(REF_STATS, level)
        generic = hpd_unimodal(dists["beta"], level)
        worst_closed = max(
            worst_closed, abs(closed.lo - generic.lo), abs(closed.hi - generic.hi)
        )
        assert worst_closed <= 1e-8

    th = hpd_unimodal(dists["theta"], 0.95)
    wh = hpd_unimodal(dists["w"], 0.95)
    gap = min(abs(th.lo - 1.0 / wh.hi), abs(th.hi - 1.0 / wh.lo))
    assert gap > 1e-3
    print(
        "[acceptance] HPD contracts: PASS "
        f"(mass {worst_mass:.1e}, density {worst_density:.1e}, "
        f"closed-vs-generic {worst_closed:.1e}, reciprocity gap {gap:.3f})"
    )


def test_acceptance_determinism(tmp_path, capsys):
    """Byte-identical reruns for the same seed, for any worker count."""
    a = run_table(rhos=(0.25, 0.75), ns=(4, 12), replicates=400, seed=2718, workers=1)
    b = run_table(rhos=(0.25, 0.75), ns=(4, 12), replicates=400, seed=2718, workers=4)
    assert a.to_csv() == b.to_csv()
    assert a.to_markdown() == b.to_markdown()

    argv = [
        "coverage", "--rhos", "0.25", "--ns", "4,8", "--replicates", "300",
        "--seed", "5", "--format", "csv",
    ]
    assert main(list(argv)) == 0
    first = capsys.readouterr().out
    assert main(list(argv)) == 0
    second = capsys.readouterr().out
    assert first == second and first

    for argv in (
        ["sample", "--n", "25", "--seed", "12"],
        ["verify-lemma", "--samples", "150000", "--seed", "8", "--format", "csv"],
    ):
        assert main(list(argv)) == 0
        first = capsys.readouterr().out
        assert main(list(argv)) == 0
        second = capsys.readouterr().out
        assert first == second and first
    print("[acceptance] determinism: PASS (library and CLI reruns byte-identical)")
