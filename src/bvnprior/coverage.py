"""Frequentist coverage simulation for the matching-prior intervals.

For each (rho, n) cell the simulation repeatedly draws datasets from the
bivariate normal, builds the requested posterior interval for each of
beta, theta, eta, and counts how often the interval contains the true
value. Under the 1/(theta eta) prior all three one-dimensional posteriors
are exact pivot distributions, so the true coverage equals the nominal
level for every cell; the simulation estimates it with binomial noise.

Reproducibility: cell k under master seed s draws from one generator,
default_rng(splitmix64(splitmix64(s) ^ k)) (the standard 64-bit splitmix
finalizer applied in a fixed chain), and replicate j is slice j of its
(replicates, n, 2) standard normal stream. Results depend only on the
seed and the cell index, never on how the work is scheduled or how many
workers run.

Replicates are processed in chunks: each chunk draws the next (R, n, 2)
block of the cell's stream, so the draws do not depend on the chunk
size, and reduces it to sufficient statistics with array operations.
Chunks hold about _CHUNK_NORMALS normal draws, which bounds memory at
large n.

Interval construction uses the pivot structure of the posteriors: each
parameter is location + scale * Z, where pivot() maps every replicate's
statistics to (location, scale) at once and the law of Z depends only on
n. The intervals in Z units come from interval.standard_bounds, the
memoized solver the interval API uses too, so each replicate's interval
is the one hpd_unimodal / equal_tailed / one_sided would return, and
the posterior CDF at the truth is the family CDF of the true Z.
"""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy import stats as _sp_stats

from .errors import BvnPriorError, DegenerateDataError, DomainError
from .interval import KINDS, standard_bounds
# sample and sufficient_stats are not called here; they stay bound in
# this namespace because the benchmark's span recorder wraps
# coverage.sample and coverage.sufficient_stats by name
from .model import (
    OriginalParams,
    _centered_sums,
    _transform,
    sample,  # noqa: F401
    sufficient_stats,  # noqa: F401
    to_orthogonal,
)
from .posterior import BetaPosterior, EtaPosterior, ThetaPosterior

__all__ = [
    "DEFAULT_SEED",
    "TABLE_RHOS",
    "TABLE_NS",
    "CoverageCellSpec",
    "CellResult",
    "CoverageReport",
    "run_cell",
    "run_table",
    "ks_uniformity",
]

# fixed documented default master seed used when none is given
DEFAULT_SEED = 20250815

# the standard simulation grid
TABLE_RHOS = (0.25, 0.5, 0.75)
TABLE_NS = (4, 8, 12, 16, 20)

_POSTERIORS = {"beta": BetaPosterior, "theta": ThetaPosterior, "eta": EtaPosterior}
_PARAMS = tuple(_POSTERIORS)

_MASK64 = (1 << 64) - 1

# normal draws per chunk of replicates (2 n per replicate), about 1 MB
_CHUNK_NORMALS = 1 << 17


def _splitmix64(z: int) -> int:
    """One step of the splitmix64 finalizer (64-bit avalanche mix)."""
    z &= _MASK64
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _cell_seed(seed: int, cell_index: int) -> int:
    """Counter-based seed of one cell's generator; fixed across worker layouts."""
    return _splitmix64(_splitmix64(seed) ^ (cell_index & _MASK64))


@dataclass(frozen=True)
class CoverageCellSpec:
    """One simulation cell: a (rho, n) pair plus run settings.

    params_base supplies the means and standard deviations of the
    generating distribution; its correlation field is ignored in favor of
    rho.
    """

    rho: float
    n: int
    level: float = 0.95
    replicates: int = 5000
    kind: str = "hpd"
    seed: int = DEFAULT_SEED
    params_base: OriginalParams = OriginalParams(0.0, 0.0, 1.0, 1.0, 0.0)

    def __post_init__(self):
        if not abs(self.rho) < 1.0:
            raise DomainError("|rho| must be < 1")
        if self.n < 4:
            raise DomainError("coverage cells need n >= 4")
        if not 0.0 < self.level < 1.0:
            raise DomainError("level must lie strictly between 0 and 1")
        if self.replicates < 100:
            raise DomainError("coverage needs at least 100 replicates")
        if self.kind not in KINDS:
            raise DomainError(f"unknown interval kind {self.kind!r}")


@dataclass(frozen=True)
class CellResult:
    """Coverage estimates for one cell; cdf_values feed uniformity tests."""

    rho: float
    n: int
    kind: str
    level: float
    replicates: int
    replicates_used: int
    failures: int
    coverage: dict
    stderr: dict
    cdf_values: dict
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class CoverageReport:
    """All cells of a coverage run plus the settings that produced them."""

    seed: int
    level: float
    kind: str
    replicates: int
    cells: tuple

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.cells)

    def cell(self, rho: float, n: int) -> CellResult:
        for c in self.cells:
            if c.rho == rho and c.n == n:
                return c
        raise KeyError(f"no cell for rho={rho}, n={n}")

    def to_csv(self) -> str:
        """CSV rows rho,n,param,kind,level,coverage,stderr,replicates,failures."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["rho", "n", "param", "kind", "level", "coverage", "stderr",
             "replicates", "failures"]
        )
        for c in self.cells:
            if not c.ok:
                continue
            for param in _PARAMS:
                writer.writerow(
                    [
                        repr(c.rho),
                        c.n,
                        param,
                        c.kind,
                        repr(c.level),
                        f"{c.coverage[param]:.6f}",
                        f"{c.stderr[param]:.6f}",
                        c.replicates_used,
                        c.failures,
                    ]
                )
        return buf.getvalue()

    def to_markdown(self) -> str:
        """Markdown table with one row per (rho, n) and a column per parameter."""
        lines = [
            f"Estimated frequentist coverage, {self.kind} intervals, "
            f"level {self.level:g}, {self.replicates} replicates per cell, "
            f"seed {self.seed}.",
            "",
            "| rho | n | beta | theta | eta |",
            "|-----|---|------|-------|-----|",
        ]
        for c in self.cells:
            if c.ok:
                cols = [f"{c.coverage[p]:.3f}" for p in _PARAMS]
            else:
                cols = ["failed"] * 3
            lines.append(f"| {c.rho:g} | {c.n} | " + " | ".join(cols) + " |")
        return "\n".join(lines) + "\n"


def run_cell(spec: CoverageCellSpec, cell_index: int = 0) -> CellResult:
    """Run one coverage cell.

    Replicates with degenerate data (s11 <= 0 or s22_1 <= 0) are counted
    as failures and excluded from the denominator. The interval bounds
    come from interval.standard_bounds, once per (family, n, level, kind).
    """
    base = replace(spec.params_base, rho=spec.rho)
    truth = to_orthogonal(base)

    rng = np.random.default_rng(_cell_seed(spec.seed, cell_index))
    per_chunk = max(1, _CHUNK_NORMALS // (2 * spec.n))
    kept = []
    for start in range(0, spec.replicates, per_chunk):
        z = rng.standard_normal((min(per_chunk, spec.replicates - start), spec.n, 2))
        _, _, s11, _, s12, s22_1 = _centered_sums(*_transform(base, z))
        ok = (s11 > 0.0) & (s22_1 > 0.0)
        kept.append((s11[ok], s12[ok], s22_1[ok]))
    s11, s12, s22_1 = (np.concatenate(parts) for parts in zip(*kept))
    used = s11.size
    failures = spec.replicates - used
    if used == 0:
        raise DegenerateDataError("every replicate was degenerate")

    hits, cdf_values = {}, {}
    for param, posterior in _POSTERIORS.items():
        location, scale = posterior.pivot(spec.n, s11, s12, s22_1)
        lo, hi = standard_bounds(posterior.family, spec.n, spec.level, spec.kind)
        value = getattr(truth, param)
        hits[param] = (value >= location + scale * lo) & (value <= location + scale * hi)
        cdf_values[param] = np.asarray(posterior.family.cdf(spec.n, (value - location) / scale))
    coverage = {p: float(np.mean(hits[p])) for p in _PARAMS}
    stderr = {
        p: float(math.sqrt(max(coverage[p] * (1.0 - coverage[p]), 1e-12) / used))
        for p in _PARAMS
    }
    return CellResult(
        rho=spec.rho,
        n=spec.n,
        kind=spec.kind,
        level=spec.level,
        replicates=spec.replicates,
        replicates_used=used,
        failures=failures,
        coverage=coverage,
        stderr=stderr,
        cdf_values=cdf_values,
    )


def _cell_task(args):
    spec, index = args
    try:
        return index, run_cell(spec, index)
    except BvnPriorError as exc:
        failed = CellResult(
            rho=spec.rho,
            n=spec.n,
            kind=spec.kind,
            level=spec.level,
            replicates=spec.replicates,
            replicates_used=0,
            failures=spec.replicates,
            coverage={},
            stderr={},
            cdf_values={},
            error=str(exc),
        )
        return index, failed


def run_table(
    rhos=TABLE_RHOS,
    ns=TABLE_NS,
    level: float = 0.95,
    replicates: int = 5000,
    kind: str = "hpd",
    seed: int = DEFAULT_SEED,
    params_base: OriginalParams = OriginalParams(0.0, 0.0, 1.0, 1.0, 0.0),
    workers: int = 1,
) -> CoverageReport:
    """Run the full (rho, n) grid, ordered rho ascending then n ascending.

    Cell index is the row-major position in that sorted grid; it enters
    the cell's generator seed, so the report is bit-identical for any worker
    count. At most one worker process per cell is started. Errors in one
    cell are captured in its CellResult and never abort the others.
    """
    rhos = sorted(set(float(x) for x in rhos))
    ns = sorted(set(int(x) for x in ns))
    if not rhos or not ns:
        raise DomainError("rhos and ns must be non-empty")
    if workers < 1:
        raise DomainError("workers must be at least 1")
    tasks = []
    for i, (rho, n) in enumerate((rho, n) for rho in rhos for n in ns):
        spec = CoverageCellSpec(
            rho=rho,
            n=n,
            level=level,
            replicates=replicates,
            kind=kind,
            seed=seed,
            params_base=params_base,
        )
        tasks.append((spec, i))
    workers = min(workers, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            indexed = list(pool.map(_cell_task, tasks))
    else:
        indexed = [_cell_task(t) for t in tasks]
    cells = tuple(result for _, result in sorted(indexed, key=lambda pair: pair[0]))
    return CoverageReport(
        seed=seed, level=level, kind=kind, replicates=replicates, cells=cells
    )


def ks_uniformity(cell: CellResult) -> dict:
    """Kolmogorov-Smirnov uniformity test of the posterior CDF values.

    Under exact matching, cdf_values for each parameter are iid U(0, 1);
    returns {param: (statistic, pvalue)}. The three tests run as one
    array computation with scipy's two-sided exact method, so each pair
    equals scipy.stats.kstest(values, "uniform"): D is D+ where D+ > D-
    and D- otherwise, and the p-value is kstwo.sf(D, m) clipped to [0, 1].
    """
    if not cell.ok:
        raise DomainError("cannot test a failed cell")
    x = np.sort([cell.cdf_values[p] for p in _PARAMS], axis=-1)
    m = x.shape[-1]
    d_plus = (np.arange(1.0, m + 1) / m - x).max(axis=-1)
    d_minus = (x - np.arange(0.0, m) / m).max(axis=-1)
    d = np.where(d_plus > d_minus, d_plus, d_minus)
    p = np.clip(_sp_stats.kstwo.sf(d, m), 0.0, 1.0)
    return {param: (float(d[i]), float(p[i])) for i, param in enumerate(_PARAMS)}
