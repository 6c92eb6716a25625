"""Bivariate normal model in its orthogonal parameterization.

The model for pairs (X1, X2) is the usual bivariate normal with means
(mu1, mu2), standard deviations (sigma1, sigma2) and correlation rho.
Inference here works in the orthogonal parameterization

    beta  = rho * sigma2 / sigma1            (regression slope of X2 on X1)
    theta = sigma1 * sigma2 * sqrt(1 - rho^2) (generalized standard deviation,
                                               sqrt of the covariance determinant)
    eta   = sigma2 * sqrt(1 - rho^2) / sigma1 (ratio of the conditional sd of
                                               X2 given X1 to the sd of X1;
                                               also equals sd(X2|X1)^2 / theta)

under which the Fisher information is block diagonal: the (mu1, mu2) block
is separate from a diagonal (beta, theta, eta) block diag(eta^-2, theta^-2,
eta^-2). The log density factors as

    log f = -log(2 pi theta)
            - (x2 - mu2 - beta (x1 - mu1))^2 / (2 theta eta)
            - eta (x1 - mu1)^2 / (2 theta)

which is the form every derivative in this module is taken from.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, DomainError

__all__ = [
    "OriginalParams",
    "OrthogonalParams",
    "FisherInfo",
    "SufficientStats",
    "to_orthogonal",
    "to_original",
    "fisher_information",
    "log_density",
    "log_density_partial",
    "sample",
    "sufficient_stats",
    "write_dataset",
    "read_dataset",
]


@dataclass(frozen=True)
class OriginalParams:
    """Means, standard deviations, and correlation of the bivariate normal."""

    mu1: float
    mu2: float
    sigma1: float
    sigma2: float
    rho: float

    def __post_init__(self):
        for name in ("mu1", "mu2", "sigma1", "sigma2", "rho"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if self.sigma1 <= 0.0 or self.sigma2 <= 0.0:
            raise DomainError("standard deviations must be positive")
        if not abs(self.rho) < 1.0:
            raise DomainError(f"correlation must satisfy |rho| < 1, got {self.rho}")


@dataclass(frozen=True)
class OrthogonalParams:
    """Means plus the orthogonal block (beta, theta, eta)."""

    mu1: float
    mu2: float
    beta: float
    theta: float
    eta: float

    def __post_init__(self):
        for name in ("mu1", "mu2", "beta", "theta", "eta"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if self.theta <= 0.0 or self.eta <= 0.0:
            raise DomainError("theta and eta must be positive")


@dataclass(frozen=True)
class FisherInfo:
    """Per-observation Fisher information in the orthogonal parameterization.

    a_block is the 2x2 information for (mu1, mu2); diag_block holds the
    diagonal information for (beta, theta, eta). Cross blocks vanish.
    """

    a_block: np.ndarray
    diag_block: np.ndarray


@dataclass(frozen=True)
class SufficientStats:
    """Sample size, means, and centered sums of squares and cross products.

    s11, s22, s12 are sums (not divided by n); s22_1 = s22 - s12^2/s11 is
    the residual sum of squares of x2 after regression on x1.
    """

    n: int
    xbar1: float
    xbar2: float
    s11: float
    s22: float
    s12: float
    s22_1: float

    def __post_init__(self):
        if self.n < 3:
            raise DomainError("inference needs n >= 3 observations")
        if not self.s11 > 0.0:
            raise DegenerateDataError("s11 must be positive")
        if self.s22 < 0.0 or self.s22_1 < 0.0:
            raise DomainError("sums of squares cannot be negative")
        if self.s12 * self.s12 > self.s11 * self.s22 * (1.0 + 1e-12):
            raise DomainError("s12^2 exceeds s11 * s22")


def to_orthogonal(p: OriginalParams) -> OrthogonalParams:
    """Map (mu, sigma, rho) to the orthogonal (mu, beta, theta, eta)."""
    root = math.sqrt(1.0 - p.rho * p.rho)
    ratio = p.sigma2 / p.sigma1
    return OrthogonalParams(
        mu1=p.mu1,
        mu2=p.mu2,
        beta=p.rho * ratio,
        theta=p.sigma1 * p.sigma2 * root,
        eta=ratio * root,
    )


def to_original(p: OrthogonalParams) -> OriginalParams:
    """Inverse of to_orthogonal, to ~1e-14 relative; no intermediate overflows first."""
    sigma1 = math.sqrt(p.theta) / math.sqrt(p.eta)
    s = math.hypot(p.eta, p.beta)
    sigma2 = sigma1 * s
    rho = p.beta / s
    return OriginalParams(mu1=p.mu1, mu2=p.mu2, sigma1=sigma1, sigma2=sigma2, rho=rho)


def fisher_information(p: OrthogonalParams) -> FisherInfo:
    """Per-observation Fisher information at p."""
    b, t, e = p.beta, p.theta, p.eta
    a_block = np.array(
        [
            [b * b / (t * e) + e / t, -b / (t * e)],
            [-b / (t * e), 1.0 / (t * e)],
        ]
    )
    diag_block = np.array([e ** -2, t ** -2, e ** -2])
    return FisherInfo(a_block=a_block, diag_block=diag_block)


def _residuals(p: OrthogonalParams, x1, x2):
    """u = x2 - mu2 - beta (x1 - mu1) and v = x1 - mu1."""
    v = np.asarray(x1, dtype=float) - p.mu1
    u = np.asarray(x2, dtype=float) - p.mu2 - p.beta * v
    return u, v


def log_density(p: OrthogonalParams, x1, x2):
    """Log density of one observation; vectorized over x1, x2."""
    u, v = _residuals(p, x1, x2)
    out = (
        -math.log(2.0 * math.pi * p.theta)
        - u * u / (2.0 * p.theta * p.eta)
        - p.eta * v * v / (2.0 * p.theta)
    )
    return float(out) if np.isscalar(x1) and np.isscalar(x2) else out


def _residual_powers(p: OrthogonalParams, x1, x2):
    """(u^2, uv, v^2) as the rows of one array; u and v are squared in place.

    One block is freed whole, where three arrays could stay in the heap."""
    powers = np.empty((3,) + np.broadcast_shapes(np.shape(x1), np.shape(x2)))
    u, uv, v = (powers[i, ...] for i in range(3))  # views, even of 0-d rows
    np.subtract(x1, p.mu1, out=v)
    np.subtract(x2, p.mu2, out=u)
    u -= p.beta * v
    np.multiply(u, v, out=uv)
    u *= u
    v *= v
    return powers


def _partial(powers, theta, eta, orders):
    """Exact partial of log f of orders (i, k, j) in (beta, theta, eta).

    powers is (u^2, uv, v^2) from _residual_powers, and
    log f = -log(2 pi theta) - A/theta with A = u^2/(2 eta) + eta v^2/2.
    d^i/dbeta^i u^2 is (1, -2, 2, 0)[i] * powers[i], as du/dbeta = -v;
    d^j/deta^j 1/(2 eta) = (-1)^j j!/(2 eta^(j+1)); d^k/dtheta^k -1/theta
    = (-1)^(k+1) k!/theta^(k+1); eta v^2/2 enters only where i = 0 and
    j < 2, and -log theta only the pure theta partials.
    """
    i, k, j = orders
    d_theta = (-1) ** (k + 1) * math.factorial(k) / theta ** (k + 1)
    if i == 3:
        out = np.zeros_like(powers[1])
    else:
        d_eta = (-1) ** j * math.factorial(j) / (2.0 * eta ** (j + 1))
        out = powers[i] * ((1.0, -2.0, 2.0)[i] * d_eta * d_theta)
    if i == 0 and j < 2:
        out += powers[2] * (0.5 * (eta if j == 0 else 1.0) * d_theta)
    if i == j == 0:
        out += (-1) ** k * math.factorial(k - 1) / theta ** k
    return out


def log_density_partial(p: OrthogonalParams, x1, x2, multi_index):
    """Partial derivative of log f with respect to (beta, theta, eta).

    multi_index is a triple of non-negative derivative orders, one per
    parameter, with total order between 1 and 3. Every partial is exact
    (see _partial). Vectorized over x1, x2.
    """
    orders = tuple(int(k) for k in multi_index)
    if len(orders) != 3 or any(k < 0 for k in orders):
        raise DomainError("multi_index must be three non-negative integers")
    if not 1 <= sum(orders) <= 3:
        raise DomainError("total derivative order must be 1, 2, or 3")
    out = _partial(_residual_powers(p, x1, x2), p.theta, p.eta, orders)
    return float(out) if np.isscalar(x1) and np.isscalar(x2) else out


def sample(p: OriginalParams, n: int, seed: int) -> np.ndarray:
    """Draw n pairs from the model; deterministic given seed.

    Construction: Z1, Z2 iid standard normal,
    X1 = mu1 + sigma1 Z1, X2 = mu2 + sigma2 (rho Z1 + sqrt(1-rho^2) Z2).
    Returns an (n, 2) array.
    """
    if n < 1:
        raise DomainError("sample requires n >= 1")
    if seed < 0:
        raise DomainError("seed must be non-negative")
    z = np.random.default_rng(seed).standard_normal((n, 2))
    return np.stack(_transform(p, z), axis=-1)


def _transform(p: OriginalParams, z):
    """(X1, X2) from standard normal draws z[..., 0] = Z1, z[..., 1] = Z2."""
    x1 = p.mu1 + p.sigma1 * z[..., 0]
    x2 = p.mu2 + p.sigma2 * (p.rho * z[..., 0] + math.sqrt(1.0 - p.rho * p.rho) * z[..., 1])
    return x1, x2


def _centered_sums(x1, x2):
    """Means and centered sums over the last (observation) axis.

    Returns (xbar1, xbar2, s11, s22, s12, s22_1) as arrays shaped like the
    leading axes. s22_1 is summed from the regression residuals
    d2 - (s12/s11) d1 rather than taken as s22 - s12^2/s11, which cancels
    catastrophically for nearly collinear data. On exactly collinear data
    the residuals are rounding noise, so s22_1 is set to 0 where it is at
    most n * eps * s22; it is nan where s11 = 0.
    """
    xbar1 = x1.mean(axis=-1)
    xbar2 = x2.mean(axis=-1)
    d1 = x1 - xbar1[..., None]
    d2 = x2 - xbar2[..., None]
    s11 = (d1 * d1).sum(axis=-1)
    s22 = (d2 * d2).sum(axis=-1)
    s12 = (d1 * d2).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        resid = d2 - (s12 / s11)[..., None] * d1
    s22_1 = (resid * resid).sum(axis=-1)
    s22_1 = np.where(s22_1 <= x1.shape[-1] * np.finfo(float).eps * s22, 0.0, s22_1)
    return xbar1, xbar2, s11, s22, s12, s22_1


def sufficient_stats(data) -> SufficientStats:
    """Sufficient statistics of an (n, 2) dataset.

    Raises DegenerateDataError when all x1 coincide (s11 = 0) or the pairs
    lie exactly on a line (s22_1 = 0); either way some posterior would be
    improper.
    """
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DomainError("data must be an (n, 2) array of pairs")
    if not np.all(np.isfinite(arr)):
        raise DomainError("data must be finite")
    n = arr.shape[0]
    if n < 3:
        raise DegenerateDataError("inference needs n >= 3 observations")
    xbar1, xbar2, s11, s22, s12, s22_1 = map(float, _centered_sums(arr[:, 0], arr[:, 1]))
    if s11 <= 0.0:
        raise DegenerateDataError("all x1 values coincide (s11 = 0)")
    if s22_1 <= 0.0:
        raise DegenerateDataError("pairs are exactly collinear (s22.1 = 0)")
    return SufficientStats(
        n=n, xbar1=xbar1, xbar2=xbar2, s11=s11, s22=s22, s12=s12, s22_1=s22_1
    )


def write_dataset(file, data) -> None:
    """Write pairs as CSV with header x1,x2; file is a path or text handle."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DomainError("data must be an (n, 2) array of pairs")
    own = isinstance(file, (str, bytes)) or hasattr(file, "__fspath__")
    handle = open(file, "w", encoding="utf-8", newline="") if own else file
    try:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["x1", "x2"])
        for row in arr:
            writer.writerow([repr(float(row[0])), repr(float(row[1]))])
    finally:
        if own:
            handle.close()


def read_dataset(file) -> np.ndarray:
    """Read a CSV of pairs with header x1,x2 into an (n, 2) array."""
    own = isinstance(file, (str, bytes)) or hasattr(file, "__fspath__")
    handle = open(file, "r", encoding="utf-8", newline="") if own else file
    try:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["x1", "x2"]:
            raise DomainError("dataset CSV must start with header x1,x2")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                rows.append((float(row[0]), float(row[1])))
            except (ValueError, IndexError) as exc:
                raise DomainError(f"bad dataset row at line {lineno}: {row}") from exc
    finally:
        if own:
            handle.close()
    if not rows:
        raise DomainError("dataset CSV holds no rows")
    return np.array(rows, dtype=float)
