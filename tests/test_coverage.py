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
from bvnprior.errors import DegenerateDataError, DomainError
from bvnprior.interval import standard_bounds
from bvnprior.model import OriginalParams, sample, sufficient_stats, to_orthogonal
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
    # any change to the seeding chain, the draw layout or the transform
    # changes these bytes; a stream change must update this hash knowingly
    csv_text = run_table(rhos=(0.25, 0.75), ns=(4, 8), replicates=200, seed=77).to_csv()
    digest = hashlib.sha256(csv_text.encode()).hexdigest()
    assert digest == "78a71b2cdb479787f51f1efd35e5a889438b7e168cb659a44b0fb8a36a54f4f3"


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


def test_coverage_is_invariant_to_generating_scales():
    # matching is exact for any means and sds, so moving them leaves each
    # replicate's hit indicator unchanged (scale equivariance of the pivots)
    spec1 = CoverageCellSpec(rho=0.5, n=8, replicates=400, seed=23)
    spec2 = CoverageCellSpec(
        rho=0.5,
        n=8,
        replicates=400,
        seed=23,
        params_base=OriginalParams(3.0, -2.0, 2.0, 0.5, 0.0),
    )
    a = run_cell(spec1, 0)
    b = run_cell(spec2, 0)
    for param in ("beta", "theta", "eta"):
        assert a.coverage[param] == pytest.approx(b.coverage[param], abs=1e-12)


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
    """Replicate-by-replicate coverage cell from the public model functions.

    Replicate j is slice j of the cell's one (replicates, n, 2) normal
    stream, mapped to pairs by the construction sample() documents.
    """
    base = OriginalParams(0.0, 0.0, 1.0, 1.0, spec.rho)
    truth = to_orthogonal(base)
    normals = np.random.default_rng(_cell_seed(spec.seed, cell_index)).standard_normal(
        (spec.replicates, spec.n, 2)
    )
    root = math.sqrt(1.0 - spec.rho * spec.rho)
    beta_b, theta_b, eta_b = (
        standard_bounds(cls.family, spec.n, spec.level, spec.kind)
        for cls in (BetaPosterior, ThetaPosterior, EtaPosterior)
    )
    nu = spec.n - 2
    hits = {"beta": 0, "theta": 0, "eta": 0}
    cdf = {"beta": [], "theta": [], "eta": []}
    failures = 0
    for j in range(spec.replicates):
        z1, z2 = normals[j, :, 0], normals[j, :, 1]
        data = np.column_stack([z1, spec.rho * z1 + root * z2])
        try:
            st = sufficient_stats(data)
        except DegenerateDataError:
            failures += 1
            continue
        m = st.s12 / st.s11
        s = math.sqrt(st.s22_1 / (nu * st.s11))
        r = math.sqrt(st.s11 * st.s22_1)
        c = st.s22_1 / st.s11
        hits["beta"] += m + s * beta_b[0] <= truth.beta <= m + s * beta_b[1]
        hits["theta"] += r * theta_b[0] <= truth.theta <= r * theta_b[1]
        hits["eta"] += math.sqrt(c) * eta_b[0] <= truth.eta <= math.sqrt(c) * eta_b[1]
        cdf["beta"].append(student_t_cdf(nu, (truth.beta - m) / s))
        cdf["theta"].append(reg_inc_gamma_c(nu, r / truth.theta))
        z = truth.eta**2 / (truth.eta**2 + c)
        cdf["eta"].append(reg_inc_beta((spec.n - 1) / 2.0, nu / 2.0, z))
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


def test_run_cell_chunks_replicates(monkeypatch):
    # a chunk of 3 replicates at n = 4 must give the single-chunk result
    spec = CoverageCellSpec(rho=0.5, n=4, replicates=101, seed=8)
    whole = run_cell(spec, 2)
    monkeypatch.setattr(coverage, "_CHUNK_NORMALS", 3 * 2 * spec.n)
    chunked = run_cell(spec, 2)
    assert chunked.coverage == whole.coverage
    for param in ("beta", "theta", "eta"):
        assert np.array_equal(chunked.cdf_values[param], whole.cdf_values[param])


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
