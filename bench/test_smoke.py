"""Smoke test of the benchmark itself, at tiny sizes.

Checks that every metric named in BENCHMARK.json is emitted with its unit
in both modes, and that each oracle flags a deliberately wrong answer while
passing the package's real one. No timing is asserted. Run from the
checkout root:

    python3 -m pytest -q bench/test_smoke.py
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from bvnprior.interval import equal_tailed, hpd_beta, hpd_unimodal  # noqa: E402
from bvnprior.matching import (  # noqa: E402
    FLAT_PRIOR,
    MATCHING_PRIOR,
    GridSpec,
    verify_prior,
    verify_score_moments,
)
from bvnprior.model import OrthogonalParams, sufficient_stats  # noqa: E402
from bvnprior.posterior import eta_posterior, theta_posterior  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "coverage-table": {"replicates": 100},
    "coverage-large-n": {"replicates": 100},
    "interval-requests": {"max_n": 200, "probe_datasets": 1},
    "verify-suite": {"points": 1, "samples": 100_000, "grid": 3},
}


def test_spec_matches_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    for entry in SPEC["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_declared_metric_is_emitted(name, trace):
    out = run.run(name, seed=3, seconds=0.2, trace=trace, sizes=TINY[name], setup_repeats=1)
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] >= 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"])
    json.dumps(result)  # the result line must serialize


# -- each oracle passes the package's answer and flags a wrong one -------------


def _data(n=40, seed=5):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 2))
    return np.column_stack([1.0 + 2.0 * z[:, 0], -3.0 + 0.5 * z[:, 0] + 0.8 * z[:, 1]])


def _shift_mass(marg, payload, delta):
    """Move hi so the interval's exact mass changes by delta."""
    target = marg.cdf(payload["hi"]) + delta
    width = payload["hi"] - payload["lo"]
    lo, hi = payload["lo"], payload["hi"] + 10 * width
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if marg.cdf(mid) < target else (lo, mid)
    return dict(payload, hi=hi)


def test_interval_oracle_flags_mass_and_density_errors():
    data = _data()
    st = sufficient_stats(data)
    margs = oracles.marginals(data)
    # mass off by 1e-3, and a far tail off by half its size
    for level, delta in ((0.9, 1e-3), (0.999999, -0.5e-6)):
        good = equal_tailed(theta_posterior(st), level).to_dict()
        assert oracles.check_interval(good, margs["theta"], "equal_tailed", level) is None
        bad = _shift_mass(margs["theta"], good, delta)
        assert "mass" in oracles.check_interval(bad, margs["theta"], "equal_tailed", level)
    hpd = hpd_unimodal(eta_posterior(st), 0.95).to_dict()
    assert oracles.check_interval(hpd, margs["eta"], "hpd", 0.95) is None
    # an equal-tailed interval has the right mass but unequal endpoint densities
    fake = dict(equal_tailed(eta_posterior(st), 0.95).to_dict(), kind="hpd")
    assert "densities" in oracles.check_interval(fake, margs["eta"], "hpd", 0.95)
    beta = hpd_beta(st, 0.95).to_dict()
    assert oracles.check_interval(beta, margs["beta"], "hpd", 0.95) is None
    off = _shift_mass(margs["beta"], beta, 1e-3)
    assert oracles.check_interval(off, margs["beta"], "hpd", 0.95) is not None


def test_posterior_oracle_flags_a_wrong_quantile():
    data = _data()
    st = sufficient_stats(data)
    marg = oracles.marginals(data)["theta"]
    dist = theta_posterior(st)
    good = {
        "param": "theta", "n": st.n, "mode": dist.mode(), "mean": dist.mean(),
        "median": dist.quantile(0.5),
        "quantiles": {f"{p:g}": dist.quantile(p) for p in (0.025, 0.25, 0.5, 0.75, 0.975)},
    }
    assert oracles.check_posterior(good, marg, st.n) is None
    bad = dict(good, quantiles=dict(good["quantiles"], **{"0.975": dist.quantile(0.976)}))
    assert "quantile" in oracles.check_posterior(bad, marg, st.n)
    assert "mean" in oracles.check_posterior(dict(good, mean=good["mean"] * 1.001), marg, st.n)


def test_coverage_oracles_flag_wrong_rates_and_cdf_values():
    alpha = oracles.FAMILY_ALPHA / 90
    assert oracles.binomial_p(14250, 15000, 0.95) > alpha
    assert oracles.binomial_p(13950, 15000, 0.95) < alpha  # coverage 0.93
    u = np.random.default_rng(1).uniform(size=15000)
    assert oracles.ks_p(u) > alpha
    assert oracles.ks_p(u ** 1.3) < alpha


def test_moment_oracle_flags_a_shifted_estimate():
    point = OrthogonalParams(0.2, -0.1, 0.4, 1.3, 0.9)
    checks = verify_score_moments(point, n_samples=100_000, seed=7)
    z = 6.0
    assert oracles.check_moments(checks, point.theta, point.eta, 100_000, z) is None
    wrong = list(checks)
    c = wrong[9]
    wrong[9] = dataclasses.replace(c, estimate=c.estimate + 2 * oracles.moment_band(z, c.stderr))
    assert "estimate" in oracles.check_moments(wrong, point.theta, point.eta, 100_000, z)


def test_residual_oracle_flags_wrong_verdicts():
    grid = GridSpec(beta=(-2.0, 2.0, 3), theta=(0.5, 3.0, 3), eta=(0.5, 3.0, 3))
    matching = verify_prior(MATCHING_PRIOR, grid)
    flat = verify_prior(FLAT_PRIOR, grid)
    assert oracles.check_residuals(matching, "analytic", 27) is None
    assert oracles.check_residuals(flat, "flat", 27) is None
    assert oracles.check_residuals(flat, "analytic", 27) is not None
    flipped = [dataclasses.replace(r, pass_tol=100.0) for r in flat]
    assert oracles.check_residuals(flipped, "flat", 27) is not None


def test_a_wrong_eta_interval_fails_the_run(tmp_path):
    wl = workloads.IntervalRequests(3, TINY["interval-requests"], str(tmp_path))
    index = next(i for i, p in enumerate(wl.positions) if p[:2] == ("interval", "eta"))
    request = wl.make(index)
    assert request[4].eta_unit_width() >= oracles.NARROW_ETA_WIDTH
    assert wl.call(request) == 0
    wl.record(request, 0, 0.0)
    assert wl.fails["oracle"] == 0
    out = Path(wl.out_path)
    payload = json.loads(out.read_text(encoding="utf-8"))
    out.write_text(json.dumps(dict(payload, hi=2.0 * payload["hi"])), encoding="utf-8")
    wl.record(request, 0, 0.0)
    assert wl.fails["oracle"] == 1


def test_known_defect_probe_reports_every_class(tmp_path):
    wl = workloads.IntervalRequests(3, TINY["interval-requests"], str(tmp_path))
    probe = wl.known_defects()
    # one n = 3, one near-collinear and one large-n dataset, each asked every probe request
    assert probe["attempted"] == 3 * len(workloads.PARAMS) * len(workloads.PROBE_REQUESTS)
    assert list(probe["failures"]) == list(workloads.FAIL_CLASSES)
    assert sum(probe["failures"].values()) == sum(probe["detail"].values()) <= probe["attempted"]
    assert wl.attempted == 0 and not wl.fails  # the probe stays out of the run's counts
