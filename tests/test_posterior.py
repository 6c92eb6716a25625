"""Exact marginal posteriors checked against joint-posterior quadrature.

The oracle used here reduces the joint posterior of (slope, scale,
variance-ratio) by one textbook Gamma integral over the scale and then
integrates the rest numerically with scipy.integrate.quad, so it shares
no code with the closed forms under test.
"""

import importlib.util
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from bvnprior import numerics
from bvnprior.cli import main
from bvnprior.errors import DomainError
from bvnprior.model import (
    OriginalParams,
    read_dataset,
    sample,
    sufficient_stats,
    write_dataset,
)
from bvnprior.posterior import (
    GAMMA,
    INVERSE_GAMMA,
    SQRT_BETA_PRIME,
    STUDENT_T,
    BetaPosterior,
    EtaPosterior,
    PrecisionPosterior,
    ThetaPosterior,
    beta_posterior,
    eta_posterior,
    precision_posterior,
    theta_posterior,
)
from bvnprior.model import SufficientStats
from bvnprior.numerics import reg_inc_beta

REF = SufficientStats(n=10, xbar1=0.0, xbar2=0.0, s11=9.0, s22=5.0, s12=3.0, s22_1=4.0)


def _sampled_stats(seed=42, n=15):
    data = sample(OriginalParams(0.7, -0.2, 1.3, 0.8, 0.55), n, seed=seed)
    return sufficient_stats(data)


def _beta_eta_joint(st):
    """Joint density of (beta, eta) up to a constant, scale integrated out.

    Integrating t^-(n) exp(-A/t) over t in (0, inf) gives Gamma(n-1) A^-(n-1)
    with A = [s22_1 + s11 (b - m)^2] / (2 e) + e s11 / 2, leaving the prior
    factor 1/e in place.
    """
    m = st.s12 / st.s11

    def joint(b, e):
        a = (st.s22_1 + st.s11 * (b - m) ** 2) / (2.0 * e) + e * st.s11 / 2.0
        return a ** (-(st.n - 1)) / e

    return joint


def _beta_pdf_by_quadrature(st):
    joint = _beta_eta_joint(st)
    m = st.s12 / st.s11
    width = math.sqrt(st.s22_1 / ((st.n - 2) * st.s11))

    def unnorm(b):
        return quad(lambda e: joint(b, e), 0.0, np.inf, epsabs=1e-13, epsrel=1e-13)[0]

    norm = quad(unnorm, m - 60 * width, m + 60 * width, epsabs=1e-12, epsrel=1e-12, limit=200)[0]
    return lambda b: unnorm(b) / norm


@pytest.mark.parametrize("st", [REF, _sampled_stats()], ids=["reference", "sampled"])
def test_beta_pdf_matches_joint_quadrature(st):
    oracle = _beta_pdf_by_quadrature(st)
    dist = beta_posterior(st)
    grid = dist.location + dist.scale * np.linspace(-4.0, 4.0, 9)
    for b in grid:
        assert dist.pdf(float(b)) == pytest.approx(oracle(float(b)), abs=1e-6, rel=1e-6)


def test_beta_location_scale_and_shape():
    dist = beta_posterior(REF)
    assert dist.df == 8
    assert dist.location == pytest.approx(3.0 / 9.0)
    # the scale carries the 1/s11 factor; omitting it would give sqrt(4/8)
    assert dist.scale == pytest.approx(math.sqrt(4.0 / (8.0 * 9.0)))
    assert dist.mode() == dist.location
    assert dist.mean() == dist.location
    assert dist.cdf(dist.location) == pytest.approx(0.5, abs=1e-14)


def test_beta_mean_undefined_for_single_degree_of_freedom():
    st = SufficientStats(n=3, xbar1=0.0, xbar2=0.0, s11=2.0, s22=2.0, s12=0.5, s22_1=1.875)
    dist = beta_posterior(st)
    assert dist.df == 1
    assert dist.mean() is None
    assert dist.mode() == pytest.approx(0.25)


def test_theta_and_precision_cdfs_are_complementary():
    for st in (REF, _sampled_stats()):
        td = theta_posterior(st)
        wd = precision_posterior(st)
        for x in np.geomspace(0.05, 20.0, 25):
            assert td.cdf(float(x)) + wd.cdf(1.0 / float(x)) == pytest.approx(
                1.0, abs=1e-10
            )
        for p in (0.01, 0.2, 0.5, 0.8, 0.99):
            assert td.quantile(p) == pytest.approx(1.0 / wd.quantile(1.0 - p), rel=1e-11)


def test_theta_moments_against_quadrature():
    td = theta_posterior(REF)
    total = quad(td.pdf, 0.0, np.inf, epsabs=1e-12)[0]
    assert total == pytest.approx(1.0, abs=1e-9)
    mean = quad(lambda x: x * td.pdf(x), 0.0, np.inf, epsabs=1e-12)[0]
    assert td.mean() == pytest.approx(mean, rel=1e-9)
    # inverse-gamma mean r/(shape - 1) with r = 6, shape = 8
    assert td.mean() == pytest.approx(6.0 / 7.0, rel=1e-12)
    assert td.mode() == pytest.approx(6.0 / 9.0, rel=1e-12)


def test_precision_gamma_shape_against_quadrature():
    wd = precision_posterior(REF)
    total = quad(wd.pdf, 0.0, np.inf, epsabs=1e-12)[0]
    assert total == pytest.approx(1.0, abs=1e-9)
    mean = quad(lambda x: x * wd.pdf(x), 0.0, np.inf, epsabs=1e-12)[0]
    # Gamma(8, rate 6) mean 8/6
    assert mean == pytest.approx(8.0 / 6.0, rel=1e-9)
    assert wd.mode() == pytest.approx(7.0 / 6.0, rel=1e-12)


def test_eta_cdf_matches_direct_kernel_quadrature():
    for st in (REF, _sampled_stats()):
        ed = eta_posterior(st)
        c = st.s22_1 / st.s11
        kernel = lambda e: e ** (st.n - 2) * (e * e + c) ** (-(st.n - 1.5))
        total = quad(kernel, 0.0, np.inf, epsabs=1e-13, epsrel=1e-13)[0]
        for x in np.geomspace(0.1, 4.0, 12) * math.sqrt(c):
            direct = quad(kernel, 0.0, float(x), epsabs=1e-13, epsrel=1e-13)[0] / total
            assert ed.cdf(float(x)) == pytest.approx(direct, abs=1e-10)


def test_eta_pdf_normalizes_and_mode_formula():
    ed = eta_posterior(REF)
    total = quad(ed.pdf, 0.0, np.inf, epsabs=1e-12)[0]
    assert total == pytest.approx(1.0, abs=1e-9)
    c = 4.0 / 9.0
    assert ed.mode() == pytest.approx(math.sqrt(c * 8.0 / 9.0), rel=1e-12)
    # the density actually peaks there
    m = ed.mode()
    assert ed.pdf(m) > ed.pdf(m * 0.99)
    assert ed.pdf(m) > ed.pdf(m * 1.01)


def test_eta_mean_against_quadrature():
    ed = eta_posterior(REF)
    mean = quad(lambda x: x * ed.pdf(x), 0.0, np.inf, epsabs=1e-12)[0]
    assert ed.mean() == pytest.approx(mean, rel=1e-8)


def _eta_mean_by_mpmath(st):
    """Posterior mean of eta by 30-digit quadrature of the kernel.

    Breakpoints every mode/sqrt(n) for 12 steps on each side of the mode
    keep the quadrature on the peak however narrow it is.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        c = mpmath.mpf(st.s22_1) / mpmath.mpf(st.s11)
        mode = mpmath.sqrt(c * (st.n - 2) / (st.n - 1))

        def log_kernel(x):
            return (st.n - 2) * mpmath.log(x) - (st.n - mpmath.mpf(1.5)) * mpmath.log(x * x + c)

        peak = log_kernel(mode)
        step = mode / mpmath.sqrt(st.n)
        points = [mode + j * step for j in range(-12, 13)]
        points = [0] + [x for x in points if x > 0] + [mpmath.inf]
        mass = mpmath.quad(lambda x: mpmath.exp(log_kernel(x) - peak), points)
        first = mpmath.quad(lambda x: x * mpmath.exp(log_kernel(x) - peak), points)
        return float(first / mass)


def test_eta_mean_of_a_narrow_posterior():
    # n = 3000 gives an eta posterior about 1% wide, around sqrt(c) ~ 95
    st = sufficient_stats(sample(OriginalParams(0.0, 0.0, 0.05, 5.0, 0.3), 3000, seed=1))
    expected = _eta_mean_by_mpmath(st)
    assert eta_posterior(st).mean() == pytest.approx(expected, rel=1e-10)


def test_eta_posterior_of_near_collinear_data_through_the_cli(tmp_path, capsys):
    data = sample(OriginalParams(1e6, 1e6, 1.0, 1.0, 0.99999999), 620, seed=3)
    path = tmp_path / "collinear.csv"
    write_dataset(path, data)
    assert main(["posterior", "--input", str(path), "--param", "eta"]) == 0
    payload = json.loads(capsys.readouterr().out)
    expected = _eta_mean_by_mpmath(sufficient_stats(read_dataset(path)))
    assert payload["mean"] == pytest.approx(expected, rel=1e-10)


def test_quantile_cdf_round_trips():
    st = _sampled_stats(seed=7)
    dists = [
        beta_posterior(st),
        theta_posterior(st),
        precision_posterior(st),
        eta_posterior(st),
    ]
    for dist in dists:
        for p in (1e-4, 0.05, 0.3, 0.5, 0.7, 0.95, 1.0 - 1e-4):
            q = dist.quantile(p)
            assert dist.cdf(q) == pytest.approx(p, abs=1e-10)


def test_quantile_validates_probability():
    dist = theta_posterior(REF)
    for bad in (-0.1, 0.0, 1.0, 1.5, math.nan):
        with pytest.raises(DomainError):
            dist.quantile(bad)


def test_densities_are_unimodal_on_a_grid():
    st = _sampled_stats(seed=31)
    for dist in (theta_posterior(st), precision_posterior(st), eta_posterior(st)):
        lo = dist.quantile(1e-5)
        hi = dist.quantile(1.0 - 1e-5)
        grid = np.linspace(lo, hi, 400)
        vals = np.array([dist.pdf(float(x)) for x in grid])
        peak = int(np.argmax(vals))
        assert np.all(np.diff(vals[: peak + 1]) > -1e-12)
        assert np.all(np.diff(vals[peak:]) < 1e-12)


def test_cdf_vectorizes():
    dist = beta_posterior(REF)
    xs = np.linspace(-1.0, 2.0, 6)
    out = dist.cdf(xs)
    assert out.shape == (6,)
    assert np.all(np.diff(out) > 0.0)


def _bits(values):
    """The float64 bytes of a sequence of floats: NaN and -0.0 compare too."""
    return np.array(values, dtype=float).tobytes()


@pytest.mark.parametrize(
    "make", [beta_posterior, theta_posterior, precision_posterior, eta_posterior]
)
def test_zero_d_arguments_give_floats(make):
    # the numerics return rule: a float exactly when the argument is 0-d,
    # with the bits that argument has as an element of an array
    dist = make(REF)
    probs = np.array([1e-300, 1e-12, 0.025, 0.3, 0.5, 0.7, 0.975, 1.0 - 1e-12])
    # z = 1e-160 squares below the normal range, and +-1e300 past the float range
    xs = np.append(dist.quantile(probs), [
        dist.location - dist.scale, dist.location + 1e-160 * dist.scale, -1e300, 1e300])
    for method, args in ((dist.cdf, xs), (dist.logpdf, xs), (dist.pdf, xs), (dist.quantile, probs)):
        arg = args[3]
        expected = method(arg)
        for scalar in (float, np.float64, np.array):
            out = method(scalar(arg))
            assert type(out) is float and out == expected, (method.__name__, scalar)
        out = method(np.array([arg]))
        assert type(out) is np.ndarray and out.shape == (1,)
        assert _bits([method(float(x)) for x in args]) == _bits(method(args)), method.__name__
    # the family's own calls, as an HPD solve makes them on plain floats
    family = dist.family
    for n in (3, 4, 10, 1000, 10**6):
        shape = type(dist).pivot(n, 1.0, 0.0, 1.0)[0]
        zs = np.asarray(family.quantile(*shape, probs), dtype=float)
        for name, args in (("quantile", probs), ("isf", probs), ("cdf", zs), ("log_kernel", zs)):
            f = getattr(family, name)
            assert _bits([f(*shape, float(x)) for x in args]) == _bits(f(*shape, args)), (name, n)


# the posterior whose pivot gives each family its shape
POSTERIORS = {
    "t": BetaPosterior,
    "inverse_gamma": ThetaPosterior,
    "gamma": PrecisionPosterior,
    "eta": EtaPosterior,
}
FAMILIES = {name: posterior.family for name, posterior in POSTERIORS.items()}


def _shape(name, n):
    """The family's shape in the posterior at sample size n."""
    return POSTERIORS[name].pivot(n, 1.0, 0.0, 1.0)[0]


def _eta_upper_tail(a, b, z):
    """P(Z > z) = I_v(b, a) at v = 1/(1 + z^2) = 1 - u."""
    return reg_inc_beta(b, a, 1.0 / (1.0 + z * z))


def _upper_tail_by_mpmath(mpmath, family, shape, z):
    """P(Z > z) for each standard family, by mpmath's incomplete functions."""
    z = mpmath.mpf(z)
    if family is STUDENT_T:  # z > 0
        df = mpmath.mpf(shape[0])
        return mpmath.betainc(df / 2, mpmath.mpf(1) / 2, 0, df / (df + z * z), regularized=True) / 2
    if family is INVERSE_GAMMA:
        return mpmath.gammainc(shape[0], 0, 1 / z, regularized=True)
    if family is GAMMA:
        return mpmath.gammainc(shape[0], z, mpmath.inf, regularized=True)
    a, b = (mpmath.mpf(x) for x in shape)
    return mpmath.betainc(b, a, 0, 1 / (1 + z * z), regularized=True)


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("n", [3, 4, 10, 200])
def test_upper_tail_quantile_matches_mpmath(name, n):
    mpmath = pytest.importorskip("mpmath")
    family, shape = FAMILIES[name], _shape(name, n)
    for q in (0.3, 1e-8, 1e-30):
        z = float(family.isf(*shape, q))
        with mpmath.workdps(50):
            exact = mpmath.findroot(
                lambda x: mpmath.log(_upper_tail_by_mpmath(mpmath, family, shape, x))
                - mpmath.log(q),
                mpmath.mpf(z),
            )
            assert abs(z - exact) <= 1e-12 * exact
    with np.errstate(divide="ignore"):
        assert float(family.quantile(*shape, 0.0)) == family.lower
        assert float(family.isf(*shape, 0.0)) == math.inf


@pytest.mark.parametrize("n", [3, 4, 10])
def test_eta_quantile_near_one_matches_mpmath(n):
    mpmath = pytest.importorskip("mpmath")
    shape = _shape("eta", n)
    for p in (0.75, 0.975, 1.0 - 1e-8, 1.0 - 1e-9, 1.0 - 1e-12):
        z = float(SQRT_BETA_PRIME.quantile(*shape, p))
        with mpmath.workdps(50):
            q = 1 - mpmath.mpf(p)
            exact = mpmath.findroot(
                lambda x: mpmath.log(_upper_tail_by_mpmath(mpmath, SQRT_BETA_PRIME, shape, x))
                - mpmath.log(q),
                mpmath.mpf(z),
            )
            assert abs(z - exact) <= 1e-12 * exact, (p, z)


@pytest.mark.parametrize("shape", [(0.5, 0.5), (0.5, 1.0), (0.5, 1.5), (0.5, 2.5)])
def test_eta_isf_above_the_median_at_a_half(shape):
    # at a = 1/2 the small lower tail 1 - q leaves v = I^-1_q(b, a) within
    # 1e-16 of 1 (at (1/2, 3/2) and q = 1 - 9.4e-9 it rounded to 1 and isf
    # returned 0), so isf inverts I_u(a, b) at 1 - q above the median
    mpmath = pytest.importorskip("mpmath")
    for q in (0.5, 0.75, 1.0 - 1e-6, 1.0 - 9.4e-9, 1.0 - 1e-12):
        z = float(SQRT_BETA_PRIME.isf(*shape, q))
        assert abs(1.0 - SQRT_BETA_PRIME.cdf(*shape, z) - q) <= 1e-15, (q, z)
        # the lower tail P(Z <= z) = I_u(a, b) at u = z^2/(1 + z^2), exactly
        with mpmath.workdps(50):
            x, lower = mpmath.mpf(z), 1 - mpmath.mpf(q)
            mass = mpmath.betainc(*shape, 0, x * x / (1 + x * x), regularized=True)
            assert abs(mass - lower) <= 1e-12 * lower, (q, z)


@pytest.mark.parametrize("n", [3, 4, 10])
def test_eta_far_upper_tail_matches_mpmath(n):
    mpmath = pytest.importorskip("mpmath")
    shape = _shape("eta", n)
    for z in (1e3, 1e6, 1e9):
        with mpmath.workdps(50):
            exact = _upper_tail_by_mpmath(mpmath, SQRT_BETA_PRIME, shape, z)
            assert abs(_eta_upper_tail(*shape, z) - exact) <= 1e-12 * exact
        assert SQRT_BETA_PRIME.cdf(*shape, z) == 1.0 - _eta_upper_tail(*shape, z)
    # the tail near 1e-9 must survive in the cdf, not round it to 1
    assert SQRT_BETA_PRIME.cdf(*_shape("eta", 3), 1e9) == pytest.approx(1.0 - 1e-9, abs=1e-16)


@pytest.mark.parametrize("n", [7, 8, 9, 10, 11])
def test_eta_quantile_of_tiny_p_round_trips(n):
    # scipy's incomplete-beta inverse gives NaN here; quantile and isf may not
    shape = _shape("eta", n)
    for p in (1e-130, 1e-200, 1e-300):
        z = float(SQRT_BETA_PRIME.quantile(*shape, p))
        assert 0.0 < z < 1.0
        assert float(SQRT_BETA_PRIME.cdf(*shape, z)) == pytest.approx(p, rel=1e-12)
        upper = float(SQRT_BETA_PRIME.isf(*shape, p))
        assert math.isfinite(upper) and upper > 1.0
        assert _eta_upper_tail(*shape, upper) == pytest.approx(p, rel=1e-12)


def _eta_cdf_two_calls(a, b, z):
    """The eta CDF as two masked reg_inc_beta calls, near and far from 0."""
    arr = np.asarray(z, dtype=float)
    far = arr > 1.0
    out = np.empty_like(arr)
    near = arr[~far]
    out[~far] = reg_inc_beta(a, b, 1.0 / (1.0 + 1.0 / (near * near)))
    out[far] = 1.0 - _eta_upper_tail(a, b, arr[far])
    return out


def _with_warnings(f, *args):
    """f(*args) and the floating-point events it warned of, e.g. "divide by zero"."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = f(*args)
    return out, {str(w.message).split(" encountered")[0] for w in caught}


ETA_CDF_POINTS = [0.0, 5e-324, 1e-200, 0.5, 1.0, math.nextafter(1.0, 2.0), 3.0, 1e9, math.inf]


@pytest.mark.parametrize("n", [3, 4, 25, 10**6])
def test_eta_cdf_in_one_call_equals_the_two_call_form(n):
    # SQRT_BETA_PRIME.cdf forms both branches' arguments and calls
    # reg_inc_beta once; it must give the same bits, and warn only where
    # the two-call form warned
    shape = _shape("eta", n)
    zs = [*ETA_CDF_POINTS, np.array(ETA_CDF_POINTS)]
    for z in [*zs, np.array(ETA_CDF_POINTS[4:6])]:
        got, new_warnings = _with_warnings(SQRT_BETA_PRIME.cdf, *shape, z)
        want, old_warnings = _with_warnings(_eta_cdf_two_calls, *shape, z)
        assert new_warnings <= old_warnings, (z, new_warnings - old_warnings)
        assert type(got) is (float if np.ndim(z) == 0 else np.ndarray)
        assert np.asarray(got).tobytes() == want.tobytes(), z
    assert SQRT_BETA_PRIME.cdf(*_shape("eta", 3), 1e9) == pytest.approx(1.0 - 1e-9, abs=1e-16)


def _bench_special_functions():
    """SPECIAL_FUNCTIONS of bench/spans.py: the numerics names the benchmark traces."""
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.SPECIAL_FUNCTIONS


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_families_reach_numerics_through_the_module_attribute(name, monkeypatch):
    # the benchmark counts special-function calls by wrapping numerics.<name>,
    # so a family that bound a function at import would go uncounted;
    # log_beta, which the benchmark does not trace, is held to the same rule
    calls = []
    for fname in (*_bench_special_functions(), "log_beta"):
        original = getattr(numerics, fname)

        def counted(*args, _fname=fname, _original=original):
            calls.append(_fname)
            return _original(*args)

        monkeypatch.setattr(numerics, fname, counted)
    family, shape = FAMILIES[name], _shape(name, 10)
    for method, args in (("log_norm", ()), ("cdf", (0.7,)), ("quantile", (0.3,)),
                         ("isf", (0.3,))):
        del calls[:]
        getattr(family, method)(*shape, *args)
        assert calls, (name, method)
