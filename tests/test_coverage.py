"""Coverage simulation: seeding, determinism, and estimates."""

import csv
import hashlib
import io
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from bvnprior.coverage import (
    DEFAULT_SEED,
    TABLE_NS,
    TABLE_RHOS,
    CoverageCellSpec,
    CoverageReport,
    _cell_seed,
    _splitmix64,
    ks_uniformity,
    run_cell,
    run_table,
)
import bvnprior.coverage as coverage
import bvnprior.interval as interval
from bvnprior.errors import BracketError, DegenerateDataError, DomainError
from bvnprior.interval import CredibleInterval, standard_bounds
from bvnprior.matching import verify_score_moments
from bvnprior.model import (
    OriginalParams,
    OrthogonalParams,
    sample,
    sufficient_stats,
    to_orthogonal,
)
from bvnprior.numerics import reg_inc_beta, reg_inc_gamma_c, student_t_cdf
from bvnprior.posterior import BetaPosterior, EtaPosterior, ThetaPosterior


def test_cell_seed_is_a_fixed_function():
    # frozen values: changing the mixing chain would silently re-randomize
    # every published table, so the exact outputs are pinned here

    # published splitmix64 outputs for state 0 with the golden-ratio gamma
    assert _splitmix64(0) == 0xE220A8397B1DCDAF
    assert _splitmix64(0x9E3779B97F4A7C15) == 0x6E789E6AA1B965F4
    assert _cell_seed(0, 0) == 12035550249420947055
    assert _cell_seed(20250815, 0) == 11298917987528620332
    assert _cell_seed(20250815, 3) == 14620909545031286804
    assert _cell_seed(2**64 - 1, 14) == 18428307901362949951


def test_cell_seed_avoids_collisions_across_axes():
    seen = {_cell_seed(s, k) for s in range(40) for k in range(200)}
    assert len(seen) == 40 * 200
    assert all(0 <= v < 2**64 for v in seen)


def test_run_table_stream_is_pinned():
    # any change to the seeding chain, the draw order or the Bartlett map
    # changes these bytes; a stream change must update this hash knowingly
    csv_text = run_table(rhos=(0.25, 0.75), ns=(4, 8), replicates=200, seed=77).to_csv()
    digest = hashlib.sha256(csv_text.encode()).hexdigest()
    assert digest == "cd350f9dcc1d2b4bd139a73fcc96fc9a874b4d9f16a3ade574f421d29be9a7d6"


def test_sample_stream_is_pinned():
    # sample() feeds the CLI sample command and verify-lemma; its draws are
    # default_rng(seed).standard_normal((n, 2)) through the X1/X2 transform
    p = OriginalParams(1.0, -2.0, 0.5, 3.0, -0.7)
    data = sample(p, 6, 12)
    assert data.shape == (6, 2)
    digest = hashlib.sha256(data.tobytes()).hexdigest()
    assert digest == "a92055db2393c0d16a3f502191e130a65d3a5016e8c0dea03c2df9a91b743f9e"


def test_cell_spec_validation():
    with pytest.raises(DomainError):
        CoverageCellSpec(rho=1.0, n=8)
    with pytest.raises(DomainError):
        CoverageCellSpec(rho=0.5, n=3)
    with pytest.raises(DomainError):
        CoverageCellSpec(rho=0.5, n=8, level=1.0)
    with pytest.raises(DomainError):
        CoverageCellSpec(rho=0.5, n=8, replicates=10)
    with pytest.raises(DomainError):
        CoverageCellSpec(rho=0.5, n=8, kind="central")


UNIT = OriginalParams(0.0, 0.0, 1.0, 1.0, 0.3)
POINT = OrthogonalParams(0.0, 0.0, 0.4, 1.7, 0.8)


# every count, size, seed and cell index goes through one integer rule, every
# level through one level rule and every rho through one rho rule, whichever
# entry point it comes in by
@pytest.mark.parametrize(
    "call",
    [
        lambda: CoverageCellSpec(rho=0.5, n=4.5),
        lambda: CoverageCellSpec(rho=0.5, n=8, replicates=100.0),
        lambda: CoverageCellSpec(rho=0.5, n=8, seed=2**64),
        lambda: CoverageCellSpec(rho=0.5, n=8, seed=-1),
        lambda: CoverageCellSpec(rho=0.5, n=8, seed=1.0),
        lambda: CoverageCellSpec(rho=0.5, n=8, seed=True),
        lambda: CoverageCellSpec(rho=0.5, n=8, level=1e-17),
        lambda: run_table(ns=(4.7,), replicates=100),
        lambda: run_table(replicates=100.0),
        lambda: run_table(replicates=100, workers=2.0),
        lambda: run_table(replicates=100, workers=True),
        lambda: run_table(replicates=100, seed=2**64),
        lambda: run_table(replicates=100, level=1e-17),
        lambda: run_table(rhos=("abc",), replicates=100),
        lambda: run_table(rhos=(None,), replicates=100),
        lambda: run_table(rhos=(float("nan"),), replicates=100),
        lambda: CoverageCellSpec(rho="abc", n=8),
        lambda: run_cell(CoverageCellSpec(rho=0.5, n=8, replicates=100), 1.5),
        lambda: run_cell(CoverageCellSpec(rho=0.5, n=8, replicates=100), -1),
        lambda: run_cell(CoverageCellSpec(rho=0.5, n=8, replicates=100), 2**64),
        lambda: sample(UNIT, 5.0, 0),
        lambda: sample(UNIT, True, 0),
        lambda: sample(UNIT, 5, 1.5),
        lambda: sample(UNIT, 5, True),
        lambda: verify_score_moments(POINT, 100_000, seed=1.5),
        lambda: CredibleInterval("beta", "hpd", 1e-17, 0.0, 1.0, 0.5),
        lambda: standard_bounds(BetaPosterior.family, (6,), 1e-17, "equal_tailed"),
        lambda: standard_bounds(BetaPosterior.family, (6,), 0.95, "central"),
    ],
    ids=[
        "cell_n_float", "cell_replicates_float", "cell_seed_2**64", "cell_seed_negative",
        "cell_seed_float", "cell_seed_bool", "cell_level_tiny", "table_ns_float",
        "table_replicates_float", "table_workers_float", "table_workers_bool",
        "table_seed_2**64", "table_level_tiny", "table_rho_text", "table_rho_none",
        "table_rho_nan", "cell_rho_text", "cell_index_float", "cell_index_negative",
        "cell_index_2**64", "sample_n_float", "sample_n_bool",
        "sample_seed_float", "sample_seed_bool", "moments_seed_float", "interval_level_tiny",
        "bounds_level_tiny", "bounds_kind",
    ],
)
def test_bad_counts_seeds_levels_and_kinds_are_domain_errors(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("integer", [np.int64, np.uint64, np.int32, np.uint8])
def test_numpy_integers_act_as_the_equal_python_int(integer, recwarn):
    # np.int64 seeds overflowed the 64-bit mask and np.uint64 ones warned
    # inside splitmix64; every count is taken as a Python int
    grid = dict(rhos=(0.5,), level=0.9)
    ref = run_table(ns=(4, 8), replicates=100, seed=3, workers=1, **grid)
    got = run_table(
        ns=(integer(4), integer(8)), replicates=integer(100), seed=integer(3),
        workers=integer(1), **grid,
    )
    assert (got.to_csv(), got.to_markdown()) == (ref.to_csv(), ref.to_markdown())
    assert all(type(v) is int for v in (got.seed, got.replicates, got.cells[1].n))
    spec = CoverageCellSpec(rho=0.5, n=integer(8), replicates=integer(100), seed=integer(3))
    assert spec == CoverageCellSpec(rho=0.5, n=8, replicates=100, seed=3)
    assert np.array_equal(sample(UNIT, integer(5), integer(7)), sample(UNIT, 5, 7))
    assert recwarn.list == []


def test_seeds_at_the_ends_of_the_splitmix_domain_run():
    # [0, 2**64) is the whole domain of the seed chain; outside it seeds
    # used to alias (2**64 gave the seed-0 table, -1 the 2**64 - 1 table)
    low, high = (run_table(rhos=(0.5,), ns=(4,), replicates=100, seed=s) for s in (0, 2**64 - 1))
    assert low.all_ok and high.all_ok
    assert low.to_csv() != high.to_csv()


def test_run_cell_estimates_near_nominal():
    spec = CoverageCellSpec(rho=0.5, n=8, level=0.95, replicates=2000, seed=17)
    cell = run_cell(spec, cell_index=5)
    assert cell.ok
    assert cell.replicates_used + cell.failures == 2000
    for param in ("beta", "theta", "eta"):
        assert abs(cell.coverage[param] - 0.95) < 4 * cell.stderr[param] + 0.005
        assert cell.cdf_values[param].shape == (cell.replicates_used,)
        assert np.all((cell.cdf_values[param] > 0) & (cell.cdf_values[param] < 1))


def test_run_cell_is_deterministic_and_index_sensitive():
    spec = CoverageCellSpec(rho=0.25, n=4, replicates=300, seed=5)
    a = run_cell(spec, cell_index=2)
    b = run_cell(spec, cell_index=2)
    other = run_cell(spec, cell_index=3)
    assert a.coverage == b.coverage
    assert np.array_equal(a.cdf_values["theta"], b.cdf_values["theta"])
    assert a.coverage != other.coverage


@pytest.mark.parametrize("c1, c2", [(4.0, 0.125), (2.5, 0.3), (1e-3, 7e2)])
def test_hits_are_invariant_to_the_data_scales(c1, c2):
    # cells draw at unit scale because the pivots are scale-equivariant:
    # data scaled by (c1, c2) scale (s11, s12, s22_1) by (c1^2, c1 c2, c2^2)
    # and the truth by sd (c1, c2), and every replicate's hit is unchanged
    n, level, rho = 8, 0.95, 0.5
    s11, s12, s22_1 = coverage._draw_stats(rho, n, 400, np.random.default_rng(23))
    scaled = (c1 * c1 * s11, c1 * c2 * s12, c2 * c2 * s22_1)
    unit = to_orthogonal(OriginalParams(0.0, 0.0, 1.0, 1.0, rho))
    truth = to_orthogonal(OriginalParams(0.0, 0.0, c1, c2, rho))
    for posterior in (BetaPosterior, ThetaPosterior, EtaPosterior):
        param = posterior.param_id
        for kind in interval.KINDS:
            hits = []
            for stats_, value in (((s11, s12, s22_1), getattr(unit, param)),
                                  (scaled, getattr(truth, param))):
                shape, location, scale = posterior.pivot(n, *stats_)
                lo, hi = standard_bounds(posterior.family, shape, level, kind)
                hits.append((value >= location + scale * lo) & (value <= location + scale * hi))
            assert np.array_equal(hits[0], hits[1]), (param, kind)
            assert 0 < hits[0].sum() < hits[0].size


@pytest.mark.parametrize("a21", [0.5, -4.0, 2.0**-20])
def test_hits_are_invariant_to_a_shear_of_the_data(a21):
    # x2 -> x2 + a21 x1 maps (s11, s12, s22_1) to (s11, s12 + a21 s11, s22_1)
    # and the truth's beta to beta + a21, leaving theta and eta; a21 a power
    # of two makes a21 s11 exact, and every replicate's hit is unchanged
    n, level, rho = 8, 0.95, 0.5
    s11, s12, s22_1 = coverage._draw_stats(rho, n, 400, np.random.default_rng(29))
    sheared = (s11, s12 + a21 * s11, s22_1)
    truth = to_orthogonal(OriginalParams(0.0, 0.0, 1.0, 1.0, rho))
    moved = replace(truth, beta=truth.beta + a21)
    for posterior in (BetaPosterior, ThetaPosterior, EtaPosterior):
        param = posterior.param_id
        for kind in interval.KINDS:
            hits = []
            for stats_, value in (((s11, s12, s22_1), getattr(truth, param)),
                                  (sheared, getattr(moved, param))):
                shape, location, scale = posterior.pivot(n, *stats_)
                lo, hi = standard_bounds(posterior.family, shape, level, kind)
                hits.append((value >= location + scale * lo) & (value <= location + scale * hi))
            assert np.array_equal(hits[0], hits[1]), (param, kind)
            assert 0 < hits[0].sum() < hits[0].size



@pytest.mark.parametrize("n", [4, 20, 2000])
def test_one_stream_covers_alike_at_every_rho(n):
    # x2 -> rho x1 + sqrt(1 - rho^2) x2 maps the rho = 0 model onto the
    # others, and the intervals are equivariant under it, so rho moves each
    # replicate's pivot by rounding only: one stream has the same hit count
    # for every param at every rho, and its PIT values agree to 5.3e-14
    # (measured at 4,000 replicates), asserted at 1e-12
    for kind in interval.KINDS:
        cells = [
            run_cell(CoverageCellSpec(rho=rho, n=n, replicates=4000, kind=kind, seed=31), 5)
            for rho in (-0.9, 0.0, 0.25, 0.75, 0.99)
        ]
        for cell in cells[1:]:
            assert cell.coverage == cells[0].coverage, (kind, cell.rho)
            for param, values in cell.cdf_values.items():
                assert np.max(np.abs(values - cells[0].cdf_values[param])) <= 1e-12, (kind, param)


def test_one_sided_coverage_matches_level():
    for kind in ("upper_one_sided", "lower_one_sided"):
        spec = CoverageCellSpec(rho=0.75, n=12, replicates=2000, kind=kind, seed=29)
        cell = run_cell(spec, 0)
        for param in ("beta", "theta", "eta"):
            assert abs(cell.coverage[param] - 0.95) < 0.02


def test_run_table_layout_and_determinism():
    report = run_table(rhos=(0.75, 0.25), ns=(8, 4), replicates=200, seed=77)
    # sorted ascending regardless of input order
    assert [(c.rho, c.n) for c in report.cells] == [
        (0.25, 4), (0.25, 8), (0.75, 4), (0.75, 8),
    ]
    again = run_table(rhos=(0.25, 0.75), ns=(4, 8), replicates=200, seed=77)
    assert report.to_csv() == again.to_csv()
    assert report.all_ok
    assert report.cell(0.75, 8).n == 8
    with pytest.raises(KeyError):
        report.cell(0.9, 8)


def test_run_table_worker_count_does_not_change_output():
    serial = run_table(rhos=(0.25, 0.5), ns=(4, 8), replicates=300, seed=31, workers=1)
    parallel = run_table(rhos=(0.25, 0.5), ns=(4, 8), replicates=300, seed=31, workers=3)
    assert serial.to_csv() == parallel.to_csv()
    assert serial.to_markdown() == parallel.to_markdown()


def test_run_table_rejects_fewer_than_one_worker():
    with pytest.raises(DomainError):
        run_table(rhos=(0.5,), ns=(4,), replicates=50, workers=0)


def test_csv_format():
    report = run_table(rhos=(0.5,), ns=(4, 8), replicates=150, seed=3)
    rows = list(csv.reader(io.StringIO(report.to_csv())))
    assert rows[0] == [
        "rho", "n", "param", "kind", "level", "coverage", "stderr",
        "replicates", "failures",
    ]
    assert len(rows) == 1 + 2 * 3
    assert rows[1][0] == "0.5" and rows[1][2] == "beta"
    assert rows[1][3] == "hpd" and rows[1][4] == "0.95"
    float(rows[1][5]), float(rows[1][6])  # numeric fields parse


def test_markdown_format():
    report = run_table(rhos=(0.5,), ns=(4,), replicates=150, seed=3)
    text = report.to_markdown()
    lines = text.strip().splitlines()
    assert lines[2] == "| rho | n | beta | theta | eta |"
    assert lines[4].startswith("| 0.5 | 4 | 0.")


def test_default_grid_constants():
    assert TABLE_RHOS == (0.25, 0.5, 0.75)
    assert TABLE_NS == (4, 8, 12, 16, 20)
    assert DEFAULT_SEED == 20250815


def test_fast_table_matches_nominal_loosely():
    # the documented CI-speed variant: 1000 replicates, tolerance 0.025
    report = run_table(replicates=1000, seed=DEFAULT_SEED)
    assert len(report.cells) == 15
    for cell in report.cells:
        for param in ("beta", "theta", "eta"):
            assert abs(cell.coverage[param] - 0.95) <= 0.025


def test_ks_uniformity_returns_tests_per_parameter():
    cell = run_cell(CoverageCellSpec(rho=0.5, n=8, replicates=1500, seed=13), 0)
    out = ks_uniformity(cell)
    assert set(out) == {"beta", "theta", "eta"}
    for stat, pvalue in out.values():
        assert 0.0 <= stat <= 1.0
        assert pvalue > 0.01


@pytest.mark.parametrize("replicates", [400, 5000])
def test_ks_uniformity_equals_scipy_kstest(replicates):
    cell = run_cell(CoverageCellSpec(rho=0.25, n=4, replicates=replicates, seed=61), 1)
    out = ks_uniformity(cell)
    for param in ("beta", "theta", "eta"):
        ref = stats.kstest(cell.cdf_values[param], "uniform")
        assert out[param] == (float(ref.statistic), float(ref.pvalue))
    # a sample far from uniform, where D- is the larger side
    skewed = replace(cell, cdf_values={p: v**0.5 for p, v in cell.cdf_values.items()})
    for param, (stat, pvalue) in ks_uniformity(skewed).items():
        ref = stats.kstest(skewed.cdf_values[param], "uniform")
        assert (stat, pvalue) == (float(ref.statistic), float(ref.pvalue))
        assert ref.statistic_sign == -1


def test_ks_uniformity_rejects_failed_cell():
    failed = run_table(rhos=(0.5,), ns=(4,), replicates=150, seed=3).cells[0]
    # fabricate a failed result to exercise the guard
    broken = replace(failed, error="boom")
    with pytest.raises(DomainError):
        ks_uniformity(broken)


def test_run_table_rejects_empty_grid():
    with pytest.raises(DomainError):
        run_table(rhos=(), ns=(4,), replicates=200)


def _reference_cell(spec, cell_index):
    """Replicate-by-replicate coverage cell in scalar arithmetic.

    The cell's generator yields a ~ chi2(n-1), then Z ~ N(0, 1), then
    c ~ chi2(n-2), one array each; replicate j is element j of the three,
    mapped to (S11, S12, S22.1) by Bartlett's decomposition.
    """
    base = OriginalParams(0.0, 0.0, 1.0, 1.0, spec.rho)
    truth = to_orthogonal(base)
    rng = np.random.default_rng(_cell_seed(spec.seed, cell_index))
    chi_a = rng.chisquare(spec.n - 1, spec.replicates)
    normals = rng.standard_normal(spec.replicates)
    chi_c = rng.chisquare(spec.n - 2, spec.replicates)
    root = math.sqrt(1.0 - spec.rho * spec.rho)
    nu = spec.n - 2
    beta_b, theta_b, eta_b = (
        standard_bounds(cls.family, shape, spec.level, spec.kind)
        for cls, shape in ((BetaPosterior, (nu,)), (ThetaPosterior, (nu,)),
                           (EtaPosterior, ((spec.n - 1) / 2.0, nu / 2.0)))
    )
    hits = {"beta": 0, "theta": 0, "eta": 0}
    cdf = {"beta": [], "theta": [], "eta": []}
    failures = 0
    for a, z, c in zip(chi_a.tolist(), normals.tolist(), chi_c.tolist()):
        s11 = a
        s12 = math.sqrt(a) * (spec.rho * math.sqrt(a) + root * z)
        s22_1 = root * root * c
        if not (s11 > 0.0 and s22_1 > 0.0):
            failures += 1
            continue
        m = s12 / s11
        s = math.sqrt(s22_1 / (nu * s11))
        r = math.sqrt(s11 * s22_1)
        ratio = s22_1 / s11
        hits["beta"] += m + s * beta_b[0] <= truth.beta <= m + s * beta_b[1]
        hits["theta"] += r * theta_b[0] <= truth.theta <= r * theta_b[1]
        hits["eta"] += math.sqrt(ratio) * eta_b[0] <= truth.eta <= math.sqrt(ratio) * eta_b[1]
        cdf["beta"].append(student_t_cdf(nu, (truth.beta - m) / s))
        cdf["theta"].append(reg_inc_gamma_c(nu, r / truth.theta))
        u = truth.eta**2 / (truth.eta**2 + ratio)
        cdf["eta"].append(reg_inc_beta((spec.n - 1) / 2.0, nu / 2.0, u))
    return hits, cdf, failures


@pytest.mark.parametrize(
    "rho, n, kind",
    [(0.5, 4, "hpd"), (0.75, 20, "hpd"), (0.25, 8, "lower_one_sided")],
)
def test_run_cell_matches_replicate_by_replicate_reference(rho, n, kind):
    spec = CoverageCellSpec(rho=rho, n=n, replicates=300, kind=kind, seed=41)
    cell = run_cell(spec, cell_index=6)
    hits, cdf, failures = _reference_cell(spec, 6)
    assert cell.failures == failures
    assert cell.replicates_used == spec.replicates - failures
    for param in ("beta", "theta", "eta"):
        assert round(cell.coverage[param] * cell.replicates_used) == hits[param]
        np.testing.assert_allclose(cell.cdf_values[param], cdf[param], rtol=0, atol=1e-12)


def test_repeated_table_reuses_standardized_bounds(monkeypatch):
    calls = []
    solver = interval._solve_hpd

    def counted(*args, **kwargs):
        calls.append(args)
        return solver(*args, **kwargs)

    monkeypatch.setattr(interval, "_solve_hpd", counted)
    standard_bounds.cache_clear()
    grid = dict(rhos=(0.25, 0.5), ns=(4, 8), replicates=100, seed=2)
    first = run_table(**grid)
    assert len(calls) == 2 * 2  # theta and eta at each n
    del calls[:]
    second = run_table(**grid)
    assert calls == []
    assert second.to_csv() == first.to_csv()


@pytest.mark.parametrize("n", [4, 20])
def test_draw_stats_follow_the_exact_laws(n):
    # Bartlett at unit scale: S11 ~ chi2(n-1), S22.1/(1-rho^2) ~ chi2(n-2),
    # and the standardized slope error ~ N(0, 1); each statistic also
    # matches sufficient_stats of raw sample() datasets (two-sample KS).
    # Twelve tests over both n, Bonferroni at family alpha 1e-3.
    replicates, rho = 20_000, 0.5
    alpha = 1e-3 / 12
    base = OriginalParams(0.0, 0.0, 1.0, 1.0, rho)
    beta = rho
    resid_var = 1.0 - rho * rho
    s11, s12, s22_1 = coverage._draw_stats(rho, n, replicates, np.random.default_rng(9000 + n))
    exact = {
        "s11": stats.kstest(s11, stats.chi2(n - 1).cdf).pvalue,
        "s22_1": stats.kstest(s22_1 / resid_var, stats.chi2(n - 2).cdf).pvalue,
        "slope": stats.kstest(
            (s12 / s11 - beta) * np.sqrt(s11) / math.sqrt(resid_var), "norm"
        ).pvalue,
    }
    raw = [
        sufficient_stats(sample(replace(base, mu1=1.0, mu2=-3.0), n, 50_000 + j))
        for j in range(replicates)
    ]
    drawn = {"s11": s11, "s12": s12, "s22_1": s22_1}
    for name, values in drawn.items():
        data = np.array([getattr(st, name) for st in raw])
        exact[f"{name} vs data"] = stats.ks_2samp(values, data).pvalue
    for name, pvalue in exact.items():
        assert pvalue >= alpha, (n, name, pvalue)


def test_numpy_level_is_stored_as_a_python_float():
    # a numpy scalar level used to reach the CSV as its repr, np.float64(0.95)
    grid = dict(rhos=(0.5,), ns=(4,), replicates=100)
    report = run_table(level=np.float64(0.95), **grid)
    assert type(report.level) is float and type(report.cells[0].level) is float
    assert type(CoverageCellSpec(rho=0.5, n=4, level=np.float64(0.95)).level) is float
    assert "np." not in report.to_csv()
    assert report.to_csv() == run_table(level=0.95, **grid).to_csv()
    assert report.to_markdown() == run_table(level=0.95, **grid).to_markdown()


def _assert_same_cell(cell, alone):
    for field in ("rho", "n", "kind", "level", "replicates"):
        assert getattr(cell, field) == getattr(alone, field)
    assert cell.coverage == alone.coverage
    assert cell.stderr == alone.stderr
    assert cell.replicates_used == alone.replicates_used
    assert cell.failures == alone.failures
    assert cell.error == alone.error
    assert set(cell.cdf_values) == set(alone.cdf_values)
    for param, values in cell.cdf_values.items():
        assert np.array_equal(values, alone.cdf_values[param])
    if cell.ok:
        assert ks_uniformity(cell) == ks_uniformity(alone)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("kind", ["hpd", "equal_tailed", "lower_one_sided"])
def test_table_cells_equal_cells_run_alone(kind, workers):
    # run_table evaluates the cells of one n together; every step is
    # elementwise, so each cell is bit-identical to run_cell on its own
    rhos, ns = (-0.6, 0.25, 0.9), (4, 8, 10**6)
    report = run_table(rhos=rhos, ns=ns, level=0.9, replicates=150, kind=kind, seed=19,
                       workers=workers)
    assert report.all_ok
    for k, (cell, (rho, n)) in enumerate(zip(report.cells, [(r, n) for r in rhos for n in ns])):
        spec = CoverageCellSpec(rho=rho, n=n, level=0.9, replicates=150, kind=kind, seed=19)
        _assert_same_cell(cell, run_cell(spec, k))


def test_a_failed_bounds_lookup_fails_only_its_n(monkeypatch):
    grid = dict(rhos=(0.25, 0.5), ns=(4, 8, 12), replicates=150, seed=23)
    healthy = run_table(**grid)
    lookup = coverage.standard_bounds
    shapes_at_8 = {cls.pivot(8, 1.0, 0.0, 1.0)[0]
                   for cls in (BetaPosterior, ThetaPosterior, EtaPosterior)}

    def failing(family, shape, level, kind):
        if shape in shapes_at_8:
            raise BracketError("no sign change at n = 8")
        return lookup(family, shape, level, kind)

    monkeypatch.setattr(coverage, "standard_bounds", failing)
    report = run_table(**grid)
    for cell, reference in zip(report.cells, healthy.cells):
        if cell.n == 8:
            assert not cell.ok and cell.error == "no sign change at n = 8"
            assert (cell.replicates_used, cell.failures) == (0, 150)
        else:
            _assert_same_cell(cell, reference)
    with pytest.raises(BracketError, match="no sign change at n = 8"):
        run_cell(CoverageCellSpec(rho=0.5, n=8, replicates=150, seed=23), 4)


def test_reports_skip_a_failed_cell_in_csv_and_mark_it_in_markdown(monkeypatch):
    grid = dict(rhos=(0.25, 0.5), ns=(4, 8), replicates=150, seed=23)
    healthy = run_table(**grid)
    lookup = coverage.standard_bounds
    shape_at_8 = BetaPosterior.pivot(8, 1.0, 0.0, 1.0)[0]

    def failing(family, shape, level, kind):
        if shape == shape_at_8:
            raise BracketError("no sign change at n = 8")
        return lookup(family, shape, level, kind)

    monkeypatch.setattr(coverage, "standard_bounds", failing)
    report = run_table(**grid)
    assert [cell.ok for cell in report.cells] == [True, False, True, False]
    # the CSV leaves the failed cells' rows out and keeps the others' bytes
    assert report.to_csv() == "".join(
        line for line in healthy.to_csv().splitlines(keepends=True) if line.split(",")[1] != "8"
    )
    # the Markdown keeps a row per cell, "failed" in each parameter's column
    rows = report.to_markdown().splitlines()[4:]
    assert rows == [
        healthy.to_markdown().splitlines()[4], "| 0.25 | 8 | failed | failed | failed |",
        healthy.to_markdown().splitlines()[6], "| 0.5 | 8 | failed | failed | failed |",
    ]


def test_a_degenerate_cell_fails_alone_within_its_group(monkeypatch):
    grid = dict(rhos=(0.25, 0.5, 0.75), ns=(4, 8), replicates=150, seed=29)
    healthy = run_table(**grid)
    draw = coverage._draw_stats

    def degenerate_at(rho, n, replicates, rng):
        s11, s12, s22_1 = draw(rho, n, replicates, rng)
        if (rho, n) == (0.5, 8):
            s11 = np.zeros_like(s11)
        if (rho, n) == (0.75, 8):  # every other replicate
            s22_1 = np.where(np.arange(replicates) % 2, s22_1, 0.0)
        return s11, s12, s22_1

    monkeypatch.setattr(coverage, "_draw_stats", degenerate_at)
    report = run_table(**grid)
    for k, (cell, reference) in enumerate(zip(report.cells, healthy.cells)):
        if (cell.rho, cell.n) == (0.5, 8):
            assert not cell.ok and cell.error == "every replicate was degenerate"
        elif (cell.rho, cell.n) == (0.75, 8):
            assert (cell.replicates_used, cell.failures) == (75, 75)
            spec = CoverageCellSpec(rho=0.75, n=8, replicates=150, seed=29)
            _assert_same_cell(cell, run_cell(spec, k))
        else:
            _assert_same_cell(cell, reference)
    with pytest.raises(DegenerateDataError, match="every replicate was degenerate"):
        run_cell(CoverageCellSpec(rho=0.5, n=8, replicates=150, seed=29), 3)
