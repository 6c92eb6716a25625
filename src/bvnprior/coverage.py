"""Frequentist coverage simulation for the matching-prior intervals.

For each (rho, n) cell the simulation repeatedly draws datasets from the
bivariate normal, builds the requested posterior interval for each of
beta, theta, eta, and counts how often the interval contains the true
value. Under the 1/(theta eta) prior all three one-dimensional posteriors
are exact pivot distributions, so the true coverage equals the nominal
level for every cell; the simulation estimates it with binomial noise.

Reproducibility: cell k under master seed s draws from one generator,
default_rng(splitmix64(splitmix64(s) ^ k)) (the standard 64-bit splitmix
finalizer applied in a fixed chain). Results depend only on the seed and
the cell index, never on how the work is scheduled or how many workers
run.

The intervals depend on a dataset only through (S11, S12, S22.1), so the
cell draws those directly, by Bartlett's decomposition of the Wishart
scatter matrix: with a ~ chi2(n-1), Z ~ N(0, 1) and c ~ chi2(n-2)
independent, S11 = a, S12 = sqrt(a) (rho sqrt(a) + sqrt(1-rho^2) Z) and
S22.1 = (1-rho^2) c, their joint law for n pairs from the model at unit
scale; every interval is equivariant under location and scale, so the
means and standard deviations cannot change a hit. The generator yields
all replicates' a, then all Z, then all c, and replicate j is element j
of each, so cost and memory grow with the replicate count and not with n.

Interval construction uses the pivot structure of the posteriors: each
parameter is location + scale * Z, where pivot() maps every replicate's
statistics to (shape, location, scale) at once and the shape of Z depends
only on n. The intervals in Z units come from interval.standard_bounds, the
memoized solver the interval API uses too, so each replicate's interval
is the one hpd_unimodal / equal_tailed / one_sided would return, and
the posterior CDF at the truth is the family CDF of the true Z.

Since the shape of Z depends only on n, run_table evaluates the cells of
one n as one group. Each cell still draws its own stream, into its
columns of one array of the group, and loses only its own degenerate
replicates; each parameter then takes one pivot, one bounds lookup, one
hit test and one CDF call for the whole group. Every step is
elementwise, so a cell's result is the same bits in any group: run_cell
is the one-cell group, and worker processes take whole n-groups.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import BvnPriorError, DegenerateDataError, DomainError
from .interval import _check_kind, standard_bounds
# sample and sufficient_stats are not called here; they stay bound in
# this namespace because the benchmark's span recorder wraps
# coverage.sample and coverage.sufficient_stats by name
from .model import OriginalParams, sample, sufficient_stats, to_orthogonal  # noqa: F401
from .numerics import _check_count, _check_level, _sp
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


def _splitmix64(z: int) -> int:
    """One step of the splitmix64 finalizer (64-bit avalanche mix)."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _cell_seed(seed: int, cell_index: int) -> int:
    """Counter-based seed of one cell's generator; fixed across worker layouts."""
    return _splitmix64(_splitmix64(seed) ^ cell_index)


def _check_rho(rho) -> float:
    """rho as a float; it must convert to one, and |rho| < 1 (NaN fails)."""
    try:
        rho = float(rho)
    except (TypeError, ValueError):
        raise DomainError(f"rho must be a number, got {rho!r}") from None
    if not abs(rho) < 1.0:
        raise DomainError("|rho| must be < 1")
    return rho


@dataclass(frozen=True)
class CoverageCellSpec:
    """One simulation cell: a (rho, n) pair plus run settings.

    rho and level are stored as Python floats, n, replicates and seed as
    Python ints; the seed must lie in [0, 2**64), the domain of the
    splitmix64 chain.
    """

    rho: float
    n: int
    level: float = 0.95
    replicates: int = 5000
    kind: str = "hpd"
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        object.__setattr__(self, "rho", _check_rho(self.rho))
        for name, minimum, below in (("n", 4, math.inf), ("replicates", 100, math.inf),
                                     ("seed", 0, 1 << 64)):
            object.__setattr__(self, name, _check_count(getattr(self, name), name, minimum, below))
        _check_level(self.level)
        object.__setattr__(self, "level", float(self.level))
        _check_kind(self.kind)


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


def _draw_stats(rho: float, n: int, replicates: int, rng):
    """(s11, s12, s22_1) of `replicates` datasets of n unit-scale pairs, by Bartlett."""
    a = rng.chisquare(n - 1, replicates)
    z = rng.standard_normal(replicates)
    c = rng.chisquare(n - 2, replicates)
    root = math.sqrt(1.0 - rho * rho)
    root_a = np.sqrt(a)
    return a, root_a * (rho * root_a + root * z), root ** 2 * c


def _run_group(cells) -> list:
    """Run cells that share n, level and kind: a CellResult or the error of each.

    cells is a list of (spec, cell_index). Each cell draws from its own
    generator into its columns of one (3, total replicates) array; the
    degenerate replicates are dropped, and a cell left with none gets
    DegenerateDataError. Each parameter then takes one pivot, one
    standard_bounds lookup, one hit test (counted per cell by
    np.add.reduceat) and one CDF call at the truth, sliced back into the
    cells. Every step is elementwise, so a cell's result does not depend
    on its group. A BvnPriorError in these shared steps is the result of
    every live cell.
    """
    n, level, kind = cells[0][0].n, cells[0][0].level, cells[0][0].kind
    edges = list(accumulate((spec.replicates for spec, _ in cells), initial=0))
    stats = np.empty((3, edges[-1]))
    for (spec, cell_index), start, stop in zip(cells, edges, edges[1:]):
        rng = np.random.default_rng(_cell_seed(spec.seed, cell_index))
        part = stats[:, start:stop]
        # row by row: part[:] = (...) would first stack the rows into a copy
        part[0], part[1], part[2] = _draw_stats(spec.rho, n, spec.replicates, rng)
    ok = (stats[0] > 0.0) & (stats[2] > 0.0)
    counts = np.add.reduceat(ok, edges[:-1], dtype=np.intp)
    results = [DegenerateDataError("every replicate was degenerate")] * len(cells)
    live = [k for k, count in enumerate(counts) if count]
    if not live:
        return results
    s11, s12, s22_1 = stats if ok.all() else stats[:, ok]
    used = [int(counts[k]) for k in live]
    edges = list(accumulate(used, initial=0))
    truths = [to_orthogonal(OriginalParams(0.0, 0.0, 1.0, 1.0, cells[k][0].rho)) for k in live]
    try:
        hits, cdf_values = {}, {}
        for param, posterior in _POSTERIORS.items():
            shape, location, scale = posterior.pivot(n, s11, s12, s22_1)
            lo, hi = standard_bounds(posterior.family, shape, level, kind)
            value = np.repeat([getattr(truth, param) for truth in truths], used)
            hit = (value >= location + scale * lo) & (value <= location + scale * hi)
            hits[param] = np.add.reduceat(hit, edges[:-1], dtype=np.intp)
            cdf = np.asarray(posterior.family.cdf(*shape, (value - location) / scale))
            cdf_values[param] = [cdf[start:stop] for start, stop in zip(edges, edges[1:])]
    except BvnPriorError as exc:
        for k in live:
            results[k] = exc
        return results
    for j, k in enumerate(live):
        spec = cells[k][0]
        coverage = {p: int(hits[p][j]) / used[j] for p in _PARAMS}
        results[k] = CellResult(
            rho=spec.rho,
            n=n,
            kind=kind,
            level=level,
            replicates=spec.replicates,
            replicates_used=used[j],
            failures=spec.replicates - used[j],
            coverage=coverage,
            stderr={
                p: math.sqrt(max(coverage[p] * (1.0 - coverage[p]), 1e-12) / used[j])
                for p in _PARAMS
            },
            cdf_values={p: cdf_values[p][j] for p in _PARAMS},
        )
    return results


def run_cell(spec: CoverageCellSpec, cell_index: int = 0) -> CellResult:
    """Run one coverage cell, the one-cell group of run_table.

    Replicates with degenerate data (s11 <= 0 or s22_1 <= 0) are counted
    as failures and excluded from the denominator. The interval bounds
    come from interval.standard_bounds, once per (family, shape, level, kind).
    """
    cell_index = _check_count(cell_index, "cell_index", 0, 1 << 64)
    (result,) = _run_group([(spec, cell_index)])
    if isinstance(result, BvnPriorError):
        raise result
    return result


def _group_task(cells) -> list:
    """_run_group with each error captured in a failed CellResult."""
    return [
        result if isinstance(result, CellResult) else CellResult(
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
            error=str(result),
        )
        for (spec, _), result in zip(cells, _run_group(cells))
    ]


def run_table(
    rhos=TABLE_RHOS,
    ns=TABLE_NS,
    level: float = 0.95,
    replicates: int = 5000,
    kind: str = "hpd",
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> CoverageReport:
    """Run the full (rho, n) grid, ordered rho ascending then n ascending.

    Cell index is the row-major position in that sorted grid; it enters
    the cell's generator seed, so the report is bit-identical for any worker
    count. The cells of one n run as one group (_run_group), and groups
    are the unit of work: at most one worker process per n is started.
    Errors are captured in the CellResults they reach and never abort
    the other cells.
    """
    rhos = sorted(set(_check_rho(x) for x in rhos))
    ns = sorted(set(_check_count(x, "n", 4) for x in ns))
    if not rhos or not ns:
        raise DomainError("rhos and ns must be non-empty")
    workers = _check_count(workers, "workers", 1)
    groups = [
        [(CoverageCellSpec(rho=rho, n=n, level=level, replicates=replicates, kind=kind,
                           seed=seed), i * len(ns) + j)
         for i, rho in enumerate(rhos)]
        for j, n in enumerate(ns)
    ]
    workers = min(workers, len(groups))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        _sp()  # load scipy.special once here, so forked workers inherit it
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_group_task, groups))
    else:
        results = list(map(_group_task, groups))
    # results[j][i] is cell (rhos[i], ns[j]); the report is rho-major
    cells = tuple(cell for row in zip(*results) for cell in row)
    spec = groups[0][0][0]  # holds seed, replicates and level as checked Python values
    return CoverageReport(
        seed=spec.seed, level=spec.level, kind=kind, replicates=spec.replicates, cells=cells
    )


def ks_uniformity(cell: CellResult) -> dict:
    """Kolmogorov-Smirnov uniformity test of the posterior CDF values.

    Under exact matching, cdf_values for each parameter are iid U(0, 1);
    returns {param: (statistic, pvalue)}. The three tests run as one
    array computation with scipy's two-sided exact method, so each pair
    equals scipy.stats.kstest(values, "uniform"): D is D+ where D+ > D-
    and D- otherwise, and the p-value is kstwo.sf(D, m) clipped to [0, 1].
    scipy.stats loads at the first call.
    """
    from scipy.stats import kstwo
    if not cell.ok:
        raise DomainError("cannot test a failed cell")
    x = np.sort([cell.cdf_values[p] for p in _PARAMS], axis=-1)
    m = x.shape[-1]
    d_plus = (np.arange(1.0, m + 1) / m - x).max(axis=-1)
    d_minus = (x - np.arange(0.0, m) / m).max(axis=-1)
    d = np.where(d_plus > d_minus, d_plus, d_minus)
    p = np.clip(kstwo.sf(d, m), 0.0, 1.0)
    return {param: (float(d[i]), float(p[i])) for i, param in enumerate(_PARAMS)}
