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

The module also holds the package's text input and output: read_dataset
and write_dataset for datasets, _csv_text for every CSV report, and
_write_in_place, the one writer of the CLI's output and of write_dataset.
"""

from __future__ import annotations

import csv
import io
import math
import os
import stat
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateDataError, DomainError, NumericalError
from .numerics import _check_count, _result

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


def _check_finite_fields(record):
    """DomainError "<field> must be finite" at the first field that is not a finite real."""
    for field in fields(record):
        try:
            finite = math.isfinite(getattr(record, field.name))
        except TypeError:  # not a real number
            finite = False
        if not finite:
            raise DomainError(f"{field.name} must be finite")


@dataclass(frozen=True)
class OriginalParams:
    """Means, standard deviations, and correlation of the bivariate normal."""

    mu1: float
    mu2: float
    sigma1: float
    sigma2: float
    rho: float

    def __post_init__(self):
        _check_finite_fields(self)
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
        _check_finite_fields(self)
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
    the residual sum of squares of x2 after regression on x1. n is an
    integer >= 3, stored as a Python int.
    """

    n: int
    xbar1: float
    xbar2: float
    s11: float
    s22: float
    s12: float
    s22_1: float

    def __post_init__(self):
        try:
            n = _check_count(self.n, "n", 3)
        except DomainError:
            raise DomainError("inference needs an integer n >= 3 observations") from None
        object.__setattr__(self, "n", n)
        sums = (self.xbar1, self.xbar2, self.s11, self.s22, self.s12, self.s22_1)
        if not all(map(math.isfinite, sums)):
            raise DomainError("sufficient statistics must be finite")
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
    """Log density of one observation; vectorized over x1, x2 (a float when both are 0-d)."""
    u, v = _residuals(p, x1, x2)
    out = (
        -math.log(2.0 * math.pi * p.theta)
        - u * u / (2.0 * p.theta * p.eta)
        - p.eta * v * v / (2.0 * p.theta)
    )
    return _result(out, x1, x2)


def _residual_powers(p: OrthogonalParams, x1, x2):
    """(u^2, uv, v^2) of the residuals of x1, x2, as the rows of one array."""
    u, v = _residuals(p, x1, x2)
    return np.stack(np.broadcast_arrays(u * u, u * v, v * v))


def _partial(powers, theta, eta, orders, out=None, scratch=None):
    """Exact partial of log f of orders (i, k, j) in (beta, theta, eta).

    powers is (u^2, uv, v^2) from _residual_powers, and
    log f = -log(2 pi theta) - A/theta with A = u^2/(2 eta) + eta v^2/2.
    d^i/dbeta^i u^2 is (1, -2, 2, 0)[i] * powers[i], as du/dbeta = -v;
    d^j/deta^j 1/(2 eta) = (-1)^j j!/(2 eta^(j+1)); d^k/dtheta^k -1/theta
    = (-1)^(k+1) k!/theta^(k+1); eta v^2/2 enters only where i = 0 and
    j < 2, and -log theta only the pure theta partials. The partial is
    written to out and its v^2 term to scratch, each a new array if None.
    """
    i, k, j = orders
    d_theta = (-1) ** (k + 1) * math.factorial(k) / theta ** (k + 1)
    out = np.empty_like(powers[1]) if out is None else out
    if i == 3:
        out.fill(0.0)
    else:
        d_eta = (-1) ** j * math.factorial(j) / (2.0 * eta ** (j + 1))
        np.multiply(powers[i], (1.0, -2.0, 2.0)[i] * d_eta * d_theta, out=out)
    if i == 0 and j < 2:
        out += np.multiply(powers[2], 0.5 * (eta if j == 0 else 1.0) * d_theta, out=scratch)
    if i == j == 0:
        out += (-1) ** k * math.factorial(k - 1) / theta ** k
    return out


def log_density_partial(p: OrthogonalParams, x1, x2, multi_index):
    """Partial derivative of log f with respect to (beta, theta, eta).

    multi_index is a triple of non-negative derivative orders, one per
    parameter, with total order between 1 and 3. Every partial is exact
    (see _partial). Vectorized over x1, x2; a float when both are 0-d.
    """
    try:
        orders = tuple(_check_count(k, "order", 0) for k in multi_index)
    except TypeError:  # not iterable
        orders = ()
    if len(orders) != 3:
        raise DomainError("multi_index must be three non-negative integers")
    if not 1 <= sum(orders) <= 3:
        raise DomainError("total derivative order must be 1, 2, or 3")
    out = _partial(_residual_powers(p, x1, x2), p.theta, p.eta, orders)
    return _result(out, x1, x2)


def _normals(n: int, seed: int) -> np.ndarray:
    """The (n, 2) standard normals of seed that sample and _draw_residual_powers scale."""
    n, seed = _check_count(n, "n", 1), _check_count(seed, "seed", 0)
    return np.random.default_rng(seed).standard_normal((n, 2))


def sample(p: OriginalParams, n: int, seed: int) -> np.ndarray:
    """Draw n pairs from the model; deterministic given seed.

    Construction: Z1, Z2 iid standard normal,
    X1 = mu1 + sigma1 Z1, X2 = mu2 + sigma2 (rho Z1 + sqrt(1-rho^2) Z2).
    Returns an (n, 2) array; n >= 1 and seed >= 0 are integers (else DomainError).
    A draw that overflows a float raises FloatingPointError.
    """
    z1, z2 = _normals(n, seed).T
    with np.errstate(over="raise", invalid="raise"):
        x1 = p.mu1 + p.sigma1 * z1
        x2 = p.mu2 + p.sigma2 * (p.rho * z1 + math.sqrt(1.0 - p.rho * p.rho) * z2)
    return np.stack((x1, x2), axis=-1)


def _draw_residual_powers(p: OrthogonalParams, n: int, seed: int) -> np.ndarray:
    """(u^2, uv, v^2) of n draws from the model, as the rows of one array.

    u = x2 - mu2 - beta (x1 - mu1) and v = x1 - mu1 are independent
    N(0, theta eta) and N(0, theta/eta), so they are drawn directly:
    v = sqrt(theta)/sqrt(eta) Z1 and u = sqrt(theta) sqrt(eta) Z2, from
    the normals of sample(to_original(p), n, seed). The means and beta do
    not enter, and no intermediate overflows before u^2 or v^2 does.
    """
    z = _normals(n, seed)
    powers = np.empty((3, n))
    u, uv, v = powers
    root_theta, root_eta = math.sqrt(p.theta), math.sqrt(p.eta)
    np.multiply(z[:, 0], root_theta / root_eta, out=v)
    np.multiply(z[:, 1], root_theta * root_eta, out=u)
    np.multiply(u, v, out=uv)
    u *= u
    v *= v
    return powers


_EPS = float(np.finfo(float).eps)


def sufficient_stats(data) -> SufficientStats:
    """Sufficient statistics of an (n, 2) dataset.

    Raises DegenerateDataError when all x1 coincide (s11 = 0) or the pairs
    lie exactly on a line (s22_1 = 0); either way some posterior would be
    improper. s22_1 is summed from the regression residuals
    d2 - (s12/s11) d1 rather than taken as s22 - s12^2/s11, which cancels
    catastrophically for nearly collinear data. On exactly collinear data
    the residuals are rounding noise, so s22_1 counts as 0 where it is at
    most n * eps * s22. A mean or sum that overflows a float raises
    FloatingPointError, and a column whose squared deviations all underflow
    to 0 although its values differ raises NumericalError.
    """
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DomainError("data must be an (n, 2) array of pairs")
    if not np.isfinite(arr).all():
        raise DomainError("data must be finite")
    n = arr.shape[0]
    if n < 3:
        raise DegenerateDataError("inference needs n >= 3 observations")
    x1, x2 = arr[:, 0], arr[:, 1]
    # np.add.reduce is the sum that mean() and sum() take, without their wrappers
    total = np.add.reduce
    with np.errstate(over="raise", invalid="raise"):
        xbar1, xbar2 = float(total(x1) / n), float(total(x2) / n)
        d1 = x1 - xbar1
        d2 = x2 - xbar2
        s11 = float(total(d1 * d1))
        if s11 <= 0.0:
            if d1.any():
                raise NumericalError("the squared deviations of x1 underflow to 0 (s11 = 0)")
            raise DegenerateDataError("all x1 values coincide (s11 = 0)")
        s22 = float(total(d2 * d2))
        if s22 <= 0.0 and d2.any():
            raise NumericalError("the squared deviations of x2 underflow to 0 (s22 = 0)")
        s12 = float(total(d1 * d2))
        # a numpy division, so that an overflowing slope raises as well
        resid = d2 - (np.float64(s12) / s11) * d1
        s22_1 = float(total(resid * resid))
    if s22_1 <= n * _EPS * s22:
        raise DegenerateDataError("pairs are exactly collinear (s22.1 = 0)")
    return SufficientStats(
        n=n, xbar1=xbar1, xbar2=xbar2, s11=s11, s22=s22, s12=s12, s22_1=s22_1
    )


def _is_path(file) -> bool:
    return isinstance(file, (str, bytes)) or hasattr(file, "__fspath__")


def _write_in_place(file, chunks) -> None:
    """Write an iterable of text chunks to a path as UTF-8, or to a text handle.

    A path is opened without truncation and written over from the start;
    a regular file is then cut to the bytes written, also when a write
    fails, so it ends as open(path, "w") would leave it. Keeping the old
    blocks spares the close the forced writeback that a file truncated to
    zero gets on ext4 (auto_da_alloc). The inode, owner, mode, hard links
    and symlink targets stay; a device or FIFO is never truncated. Nothing
    is fsynced: after a system crash before writeback the file may hold
    the old bytes, the new ones or a mix of both.
    """
    if not _is_path(file):
        for chunk in chunks:
            file.write(chunk)
        return
    fd = os.open(file, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        written = 0
        try:
            for chunk in chunks:
                data = memoryview(chunk.encode("utf-8"))
                while data:
                    count = os.write(fd, data)
                    written += count
                    data = data[count:]
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, written)
    finally:
        os.close(fd)


def _csv_text(header, rows) -> str:
    """CSV text of a header row and then rows, each a sequence of fields, with LF line ends."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# rows formatted per dataset chunk, so a large dataset is never held as
# one string
_CSV_ROWS = 1 << 16


def _dataset_chunks(arr):
    """The CSV text of an (n, 2) float array: header x1,x2, then blocks of _CSV_ROWS rows.

    Each field is the repr of its float, which never needs CSV quoting.
    """
    yield "x1,x2\n"
    for i in range(0, arr.shape[0], _CSV_ROWS):
        yield "".join(f"{a!r},{b!r}\n" for a, b in arr[i:i + _CSV_ROWS].tolist())


def write_dataset(file, data) -> None:
    """Write pairs as CSV with header x1,x2; file is a path or text handle.

    The text is that of _dataset_chunks. A path is written in place (see
    _write_in_place).
    """
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DomainError("data must be an (n, 2) array of pairs")
    _write_in_place(file, _dataset_chunks(arr))


def read_dataset(file) -> np.ndarray:
    """Read a CSV of pairs into an (n, 2) float array; file is a path or text handle.

    The first line is the header x1,x2 (case and surrounding spaces aside);
    columns after the second are ignored and blank lines are skipped. Each
    field is an ASCII decimal float, optionally quoted, parsed by numpy's
    C reader into the float that float() gives for it. A path is read as
    UTF-8 in universal-newline mode, so LF, CRLF and lone-CR line ends all
    work; a text handle is read as it is, so its lines must end in LF or
    CRLF. A wrong header, a missing or non-numeric field, text that is not
    UTF-8 or a file without rows raises DomainError.
    """
    own = _is_path(file)
    handle = open(file, "r", encoding="utf-8") if own else file
    try:
        header = next(csv.reader([handle.readline()]), [])
        if [h.strip().lower() for h in header[:2]] != ["x1", "x2"]:
            raise DomainError("dataset CSV must start with header x1,x2")
        with warnings.catch_warnings():
            # a body without rows is reported below, not warned about
            warnings.filterwarnings("ignore", ".*input contained no data", UserWarning)
            data = np.loadtxt(handle, delimiter=",", usecols=(0, 1), ndmin=2,
                              comments=None, quotechar='"')
    except DomainError:
        raise
    except (ValueError, csv.Error) as exc:  # includes UnicodeDecodeError
        raise DomainError(f"bad dataset CSV (data rows numbered from 0): {exc}") from exc
    finally:
        if own:
            handle.close()
    if data.shape[0] == 0:
        raise DomainError("dataset CSV holds no rows")
    return data
