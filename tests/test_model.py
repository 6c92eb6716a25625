"""Parameterizations, density, derivatives, sampling, and dataset IO."""

import io
import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from bvnprior.errors import DegenerateDataError, DomainError
from bvnprior.model import (
    OriginalParams,
    OrthogonalParams,
    fisher_information,
    log_density,
    log_density_partial,
    read_dataset,
    sample,
    sufficient_stats,
    to_original,
    to_orthogonal,
    write_dataset,
)

POINT = OrthogonalParams(mu1=0.3, mu2=-1.1, beta=0.8, theta=1.4, eta=0.7)


def test_to_orthogonal_hand_values():
    q = to_orthogonal(OriginalParams(0.0, 0.0, 1.0, 2.0, 0.5))
    assert q.beta == pytest.approx(1.0, rel=1e-15)
    assert q.theta == pytest.approx(math.sqrt(3.0), rel=1e-15)
    assert q.eta == pytest.approx(math.sqrt(3.0), rel=1e-15)


def test_parameterization_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = OriginalParams(
            mu1=rng.normal(),
            mu2=rng.normal(),
            sigma1=math.exp(rng.normal()),
            sigma2=math.exp(rng.normal()),
            rho=rng.uniform(-0.99, 0.99),
        )
        back = to_original(to_orthogonal(p))
        assert back.sigma1 == pytest.approx(p.sigma1, rel=1e-12)
        assert back.sigma2 == pytest.approx(p.sigma2, rel=1e-12)
        assert back.rho == pytest.approx(p.rho, rel=1e-12, abs=1e-12)
        q = to_orthogonal(p)
        fwd = to_orthogonal(to_original(q))
        assert fwd.theta == pytest.approx(q.theta, rel=1e-12)
        assert fwd.eta == pytest.approx(q.eta, rel=1e-12)


def test_original_params_validation():
    with pytest.raises(DomainError):
        OriginalParams(0.0, 0.0, -1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        OriginalParams(0.0, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        OriginalParams(math.nan, 0.0, 1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        OrthogonalParams(0.0, 0.0, 0.0, 0.0, 1.0)


def test_log_density_matches_direct_bivariate_normal():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = OriginalParams(
            mu1=rng.normal(),
            mu2=rng.normal(),
            sigma1=math.exp(0.5 * rng.normal()),
            sigma2=math.exp(0.5 * rng.normal()),
            rho=rng.uniform(-0.95, 0.95),
        )
        cov = np.array(
            [
                [p.sigma1**2, p.rho * p.sigma1 * p.sigma2],
                [p.rho * p.sigma1 * p.sigma2, p.sigma2**2],
            ]
        )
        ref = multivariate_normal(mean=[p.mu1, p.mu2], cov=cov)
        x = rng.normal(size=(8, 2)) * 2.0
        got = log_density(to_orthogonal(p), x[:, 0], x[:, 1])
        assert got == pytest.approx(ref.logpdf(x), rel=1e-11)


def test_log_density_vectorizes():
    x1 = np.linspace(-2, 2, 7)
    x2 = np.linspace(-1, 3, 7)
    out = log_density(POINT, x1, x2)
    assert out.shape == (7,)
    single = log_density(POINT, x1[3], x2[3])
    assert isinstance(single, float)
    assert single == pytest.approx(out[3], rel=1e-15)


def _fd_partial(p, x1, x2, multi_index, h_scale=1e-4):
    """Plain nested central differences straight on log_density.

    Independent of the closed-form first derivatives used inside
    log_density_partial.
    """
    order = sum(multi_index)
    axis = max(i for i, k in enumerate(multi_index) if k > 0)
    coords = [p.beta, p.theta, p.eta]
    h = h_scale * max(1.0, abs(coords[axis]))
    if axis > 0:
        h = min(h, coords[axis] / 8.0)

    def shifted(delta):
        c = coords.copy()
        c[axis] += delta
        return OrthogonalParams(p.mu1, p.mu2, *c)

    if order == 1:
        return (
            log_density(shifted(h), x1, x2) - log_density(shifted(-h), x1, x2)
        ) / (2 * h)
    lower = list(multi_index)
    lower[axis] -= 1
    lower = tuple(lower)
    return (
        _fd_partial(shifted(h), x1, x2, lower, h_scale)
        - _fd_partial(shifted(-h), x1, x2, lower, h_scale)
    ) / (2 * h)


@pytest.mark.parametrize(
    "multi_index, tol",
    [
        ((1, 0, 0), 1e-8),
        ((0, 1, 0), 1e-8),
        ((0, 0, 1), 1e-8),
        ((2, 0, 0), 1e-6),
        ((0, 2, 0), 1e-6),
        ((0, 0, 2), 1e-6),
        ((1, 1, 0), 1e-6),
        ((1, 0, 1), 1e-6),
        ((0, 1, 1), 1e-6),
        ((3, 0, 0), 1e-4),
        ((0, 3, 0), 1e-4),
        ((0, 0, 3), 1e-4),
        ((2, 1, 0), 1e-4),
        ((1, 1, 1), 1e-4),
        ((0, 2, 1), 1e-4),
    ],
)
def test_log_density_partial_against_plain_differences(multi_index, tol):
    x1, x2 = 1.2, -0.4
    got = log_density_partial(POINT, x1, x2, multi_index)
    ref = _fd_partial(POINT, x1, x2, multi_index)
    assert got == pytest.approx(ref, rel=tol, abs=tol)


MULTI_INDICES = [
    (i, k, j) for i in range(4) for k in range(4) for j in range(4) if 1 <= i + k + j <= 3
]


@pytest.mark.parametrize("multi_index", MULTI_INDICES, ids=str)
def test_log_density_partial_matches_symbolic_derivative(multi_index):
    sympy = pytest.importorskip("sympy")
    b, t, e, x1, x2 = sympy.symbols("beta theta eta x1 x2")
    u = x2 - POINT.mu2 - b * (x1 - POINT.mu1)
    v = x1 - POINT.mu1
    log_f = -sympy.log(2 * sympy.pi * t) - u**2 / (2 * t * e) - e * v**2 / (2 * t)
    derivative = sympy.diff(log_f, b, multi_index[0], t, multi_index[1], e, multi_index[2])
    xs1 = np.array([1.2, -2.5, 0.0, 7.75])
    xs2 = np.array([-0.4, 3.1, 0.0, -6.0])
    got = log_density_partial(POINT, xs1, xs2, multi_index)
    for a1, a2, value in zip(xs1, xs2, got):
        point = {b: POINT.beta, t: POINT.theta, e: POINT.eta, x1: a1, x2: a2}
        ref = float(derivative.evalf(30, subs=point))
        assert value == pytest.approx(ref, rel=1e-12, abs=1e-12)
    assert len(MULTI_INDICES) == 19


def test_log_density_partial_validates_multi_index():
    with pytest.raises(DomainError):
        log_density_partial(POINT, 0.0, 0.0, (0, 0, 0))
    with pytest.raises(DomainError):
        log_density_partial(POINT, 0.0, 0.0, (2, 1, 1))
    with pytest.raises(DomainError):
        log_density_partial(POINT, 0.0, 0.0, (1, -1, 1))
    with pytest.raises(DomainError):
        log_density_partial(POINT, 0.0, 0.0, (1, 0))


def test_fisher_information_mean_block_matches_curvature():
    # the (mu1, mu2) log-density Hessian is constant in x, so a numeric
    # second difference at a single point recovers it exactly
    info = fisher_information(POINT)
    h = 1e-4
    x1, x2 = 0.7, 0.9

    def ld(d1, d2):
        q = OrthogonalParams(
            POINT.mu1 + d1, POINT.mu2 + d2, POINT.beta, POINT.theta, POINT.eta
        )
        return log_density(q, x1, x2)

    d11 = (ld(h, 0) - 2 * ld(0, 0) + ld(-h, 0)) / h**2
    d22 = (ld(0, h) - 2 * ld(0, 0) + ld(0, -h)) / h**2
    d12 = (ld(h, h) - ld(h, -h) - ld(-h, h) + ld(-h, -h)) / (4 * h**2)
    assert info.a_block[0, 0] == pytest.approx(-d11, rel=1e-6)
    assert info.a_block[1, 1] == pytest.approx(-d22, rel=1e-6)
    assert info.a_block[0, 1] == pytest.approx(-d12, rel=1e-6, abs=1e-8)
    assert info.a_block[1, 0] == info.a_block[0, 1]


def test_fisher_information_diagonal_block_values():
    info = fisher_information(POINT)
    t, e = POINT.theta, POINT.eta
    assert info.diag_block == pytest.approx([1 / e**2, 1 / t**2, 1 / e**2])


def test_fisher_information_diagonal_block_is_score_variance():
    # Monte Carlo check that diag entries equal E[(d log f / d param)^2]
    p = OrthogonalParams(0.0, 0.0, 0.5, 1.3, 0.9)
    info = fisher_information(p)
    data = sample(to_original(p), 400_000, seed=21)
    for axis, idx in enumerate([(1, 0, 0), (0, 1, 0), (0, 0, 1)]):
        score = log_density_partial(p, data[:, 0], data[:, 1], idx)
        est = float(np.mean(score**2))
        se = float(np.std(score**2) / math.sqrt(len(data)))
        assert abs(est - info.diag_block[axis]) < 5 * se


def test_sample_shape_and_moments():
    p = OriginalParams(2.0, -1.0, 1.5, 0.5, 0.65)
    data = sample(p, 200_000, seed=3)
    assert data.shape == (200_000, 2)
    assert float(np.mean(data[:, 0])) == pytest.approx(2.0, abs=0.02)
    assert float(np.mean(data[:, 1])) == pytest.approx(-1.0, abs=0.02)
    assert float(np.std(data[:, 0])) == pytest.approx(1.5, rel=0.02)
    assert float(np.std(data[:, 1])) == pytest.approx(0.5, rel=0.02)
    r = float(np.corrcoef(data[:, 0], data[:, 1])[0, 1])
    assert r == pytest.approx(0.65, abs=0.01)


def test_sample_is_deterministic_in_seed():
    p = OriginalParams(0.0, 0.0, 1.0, 1.0, 0.3)
    a = sample(p, 50, seed=9)
    b = sample(p, 50, seed=9)
    c = sample(p, 50, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_validates_n():
    p = OriginalParams(0.0, 0.0, 1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        sample(p, 0, seed=1)
    with pytest.raises(DomainError):
        sample(p, 5, seed=-1)


def test_sufficient_stats_hand_case():
    data = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    st = sufficient_stats(data)
    assert st.n == 3
    assert st.xbar1 == pytest.approx(1.0)
    assert st.xbar2 == pytest.approx(1.0 / 3.0)
    assert st.s11 == pytest.approx(2.0)
    assert st.s22 == pytest.approx(2.0 / 3.0)
    assert st.s12 == pytest.approx(0.0, abs=1e-15)
    assert st.s22_1 == pytest.approx(2.0 / 3.0)


def test_sufficient_stats_rejects_small_or_degenerate_samples():
    with pytest.raises(DegenerateDataError):
        sufficient_stats(np.array([[0.0, 0.0], [1.0, 1.0]]))
    # constant x1
    with pytest.raises(DegenerateDataError):
        sufficient_stats(np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]]))
    # exactly collinear data makes the residual sum of squares vanish
    x1 = np.array([0.0, 1.0, 2.0, 3.0])
    with pytest.raises(DegenerateDataError):
        sufficient_stats(np.column_stack([x1, 2.0 * x1 + 1.0]))
    # a line whose coefficients are not exact in binary leaves residuals of
    # rounding size (about 1e-32 here), which still count as zero
    x1 = np.array([0.1, 0.7, 1.3, 2.9, 3.3, 5.17])
    with pytest.raises(DegenerateDataError):
        sufficient_stats(np.column_stack([x1, 0.3 * x1 + 0.1]))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_residual_sum_of_squares_survives_near_collinearity(seed):
    # rho = 0.99999999 with means at 1e6: s22 - s12^2/s11 loses about 1e-8
    # relative accuracy to cancellation, the residual sum of squares keeps it
    mpmath = pytest.importorskip("mpmath")
    data = sample(OriginalParams(1e6, 1e6, 1.0, 1.0, 0.99999999), 50, seed=seed)
    with mpmath.workdps(50):
        x1 = [mpmath.mpf(float(v)) for v in data[:, 0]]
        x2 = [mpmath.mpf(float(v)) for v in data[:, 1]]
        m1 = mpmath.fsum(x1) / len(x1)
        m2 = mpmath.fsum(x2) / len(x2)
        s11 = mpmath.fsum((a - m1) ** 2 for a in x1)
        s22 = mpmath.fsum((b - m2) ** 2 for b in x2)
        s12 = mpmath.fsum((a - m1) * (b - m2) for a, b in zip(x1, x2))
        exact = s22 - s12 * s12 / s11
        rel = abs(sufficient_stats(data).s22_1 - exact) / exact
    assert float(rel) < 1e-11


def test_dataset_round_trip_through_file(tmp_path):
    p = OriginalParams(0.5, 0.5, 2.0, 1.0, -0.4)
    data = sample(p, 37, seed=123)
    path = tmp_path / "data.csv"
    write_dataset(path, data)
    text = path.read_text()
    assert text.splitlines()[0] == "x1,x2"
    back = read_dataset(path)
    assert np.array_equal(back, data)


def test_dataset_round_trip_through_handles():
    data = np.array([[1.25, -3.5], [0.1, 0.2], [7.0, 0.0]])
    buf = io.StringIO()
    write_dataset(buf, data)
    back = read_dataset(io.StringIO(buf.getvalue()))
    assert np.array_equal(back, data)


def test_read_dataset_rejects_bad_header():
    with pytest.raises(DomainError):
        read_dataset(io.StringIO("a,b\n1,2\n"))
