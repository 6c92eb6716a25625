"""The four benchmark workloads.

Each workload is a closed loop with one client: the next request starts
when the previous one has returned. A request goes through a public entry
point of bvnprior in this process:

  coverage-table    run_table on the paper's (rho, n) grid, HPD, level 0.95,
                    then ks_uniformity on every cell
  coverage-large-n  run_table on (-0.5, 0.95) x (2000, 20000), equal-tailed
  interval-requests cli.main(["interval" | "posterior", ...]) on CSV datasets
  verify-suite      verify_score_moments at fresh points, then verify_prior
                    for the matching prior (analytic and finite-difference
                    routes) and the flat prior on a dense grid

Every input comes from the benchmark seed. Each output is checked by the
oracles as soon as its request has returned, outside the timed call, and
only counts are kept. The coverage oracles pool the first ORACLE_REQUESTS
requests of a run and drop the outputs of later ones, so neither their
power nor the memory they hold grows with throughput. The inputs are ones on
which the package is not known to fail; the known failures are run by
IntervalRequests.known_defects after the timed window and reported on their
own. A failed operation is counted by class and never stops the run:

  exit3     domain or data error (the CLI's exit code 3)
  exit4     numerical failure (exit code 4), or a coverage cell that failed
  uncaught  an exception that escaped the entry point
  oracle    an output that disagrees with its oracle
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
import zlib
from collections import Counter

import numpy as np
from scipy import stats

import bvnprior.cli as cli
import bvnprior.coverage as coverage
import bvnprior.matching as matching
from bvnprior.matching import FLAT_PRIOR, MATCHING_PRIOR, GridSpec, PriorSpec
from bvnprior.model import OrthogonalParams

import oracles

FAIL_CLASSES = ("exit3", "exit4", "uncaught", "oracle")

# default sizes; the smoke test passes smaller ones
SIZES = {
    "coverage-table": {"replicates": 400},
    "coverage-large-n": {"replicates": 200},
    "interval-requests": {"max_n": 5000, "probe_datasets": 2},
    "verify-suite": {"points": 3, "samples": 100_000, "grid": 11},
}


# requests pooled by the coverage oracles (binomial bands, KS uniformity);
# every request is still checked by the exact oracles
ORACLE_REQUESTS = 16
# the moment oracle checks every request; its Bonferroni split assumes at
# most this many requests in a run, far more than a run makes
MOMENT_REQUESTS = 1000
# oracle mismatch messages kept for the report; all of them are counted
MISMATCH_LINES = 20


class Workload:
    """Common bookkeeping: attempted operations and failures by class."""

    name = ""
    why = ""
    # requests per round; request i repeats the work of request i - round_size
    # on fresh inputs, and the end-to-end latencies take each round
    # position's median (see run.py)
    round_size = 1

    def __init__(self, seed: int, sizes: dict, workdir: str):
        self.sizes = sizes
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, zlib.crc32(self.name.encode())])
        self.attempted = 0
        self.fails = Counter()
        self.mismatches: list[str] = []
        self.failure_detail: dict = {}

    def mismatch(self, reason: str):
        """Count a wrong output."""
        self.fails["oracle"] += 1
        if len(self.mismatches) < MISMATCH_LINES:
            self.mismatches.append(reason)

    def new_seed(self) -> int:
        return int(self.rng.integers(0, 2 ** 63))

    def warmup(self):
        """One untimed request, so lazy imports and caches are settled."""

    def make(self, index: int):
        raise NotImplementedError

    def call(self, request, tracer=None):
        raise NotImplementedError

    def record(self, request, output, latency: float):
        """Check and count one output; output is an exception if the call raised."""
        raise NotImplementedError

    def finish(self) -> dict:
        """Run the pooled oracles; return the workload's own metrics as {name: (value, unit)}."""
        raise NotImplementedError

    def exit_class(self, output):
        """The cli.exit class of one output, for workloads that call the CLI."""
        return None

    def known_defects(self):
        """Outcomes of the known-defect probe, for workloads that have one."""
        return None


# -- coverage -------------------------------------------------------------------


class CoverageWorkload(Workload):
    rhos: tuple = ()
    ns: tuple = ()
    kind = ""
    level = 0.95

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        self.cells = [(rho, n) for rho in sorted(self.rhos) for n in sorted(self.ns)]
        self.hits = {}
        self.used = Counter()
        self.cdf_values = {}
        self.pooled = 0  # requests pooled by the coverage oracles
        self.replicates = 0
        self.busy = 0.0

    def warmup(self):
        self.call(self.new_seed(), replicates=100)

    def make(self, index):
        return self.new_seed()

    def call(self, seed, tracer=None, replicates=None):
        report = coverage.run_table(
            rhos=self.rhos, ns=self.ns, level=self.level,
            replicates=replicates or self.sizes["replicates"], kind=self.kind,
            seed=seed, workers=1,
        )
        return report, [coverage.ks_uniformity(c) if c.ok else None for c in report.cells]

    def record(self, seed, output, latency):
        self.attempted += len(self.cells)
        self.busy += latency
        if isinstance(output, BaseException):
            self.fails["uncaught"] += len(self.cells)
            return
        report, ks = output
        pool = self.pooled < ORACLE_REQUESTS
        self.pooled += pool
        for cell, tests in zip(report.cells, ks):
            key = (cell.rho, cell.n)
            if not cell.ok:
                self.fails["exit4"] += 1
                continue
            self.replicates += cell.replicates_used
            for param, (statistic, _) in tests.items():
                own = oracles.ks_statistic(cell.cdf_values[param])
                if abs(own - statistic) > 1e-12:
                    self.mismatch(f"{key} {param}: KS statistic {statistic!r} vs {own!r}")
                if pool:
                    hits = round(cell.coverage[param] * cell.replicates_used)
                    self.hits[key, param] = self.hits.get((key, param), 0) + hits
                    self.cdf_values.setdefault((key, param), []).append(cell.cdf_values[param])
            if pool:
                self.used[key] += cell.replicates_used

    def finish(self):
        # pooled over the first requests: one binomial and one KS test per (cell, parameter)
        tests = 2 * len(self.hits)
        alpha = oracles.FAMILY_ALPHA / max(tests, 1)
        for (key, param), hits in sorted(self.hits.items()):
            p_cov = oracles.binomial_p(hits, self.used[key], self.level)
            if p_cov < alpha:
                self.mismatch(
                    f"{key} {param}: coverage {hits}/{self.used[key]} at level "
                    f"{self.level}, p={p_cov:.3g}"
                )
            values = np.concatenate(self.cdf_values[key, param])
            p_ks = oracles.ks_p(values)
            if p_ks < alpha:
                self.mismatch(f"{key} {param}: posterior CDF not uniform, KS p={p_ks:.3g}")
        return {
            "cov_replicates_per_s": (self.replicates / self.busy if self.busy else 0.0, "1/s"),
        }


class CoverageTable(CoverageWorkload):
    name = "coverage-table"
    why = ("the paper's 15-cell HPD grid at small n: per-replicate sample/sufficient_stats "
           "overhead dominates, HPD solving second")
    rhos = (0.25, 0.5, 0.75)
    ns = (4, 8, 12, 16, 20)
    kind = "hpd"


class CoverageLargeN(CoverageWorkload):
    name = "coverage-large-n"
    why = ("same layers at n up to 20000 with equal-tailed intervals: cost follows data "
           "size, not call overhead or HPD solving")
    rhos = (-0.5, 0.95)
    ns = (2000, 20000)
    kind = "equal_tailed"


# -- interval requests ------------------------------------------------------------

PARAMS = ("beta", "theta", "w", "eta")
LEVELS = (0.8, 0.9, 0.95, 0.99)
# interval kinds by share: hpd 1/2, equal-tailed 1/4, each one-sided 1/8
KIND_DECK = ("hpd",) * 4 + ("equal_tailed",) * 2 + ("upper_one_sided", "lower_one_sided")
# an eta position's dataset shape must give an eta posterior this many times
# wider than oracles.NARROW_ETA_WIDTH, so that fresh draws of it stay wider;
# at n above ETA_MAX_N few shapes are that wide
ETA_WIDTH_MARGIN = 1.25
ETA_MAX_N = 1000
N_JITTER = 1.05
# (command, kind, level) of each request the known-defect probe makes per
# dataset and parameter
PROBE_REQUESTS = (
    ("interval", "hpd", 0.8), ("interval", "hpd", 0.95), ("interval", "hpd", 0.999),
    ("interval", "hpd", 0.999999), ("interval", "equal_tailed", 0.95), ("posterior", None, None),
)


class IntervalRequests(Workload):
    """One round is the 160-request deck: every (param, kind, level) interval
    request and eight posterior requests per parameter, each on a dataset
    shape of its own. Every request draws a fresh dataset of its shape, with
    n up to N_JITTER times the shape's, and writes it as CSV before the
    timed call, so rounds repeat nearly the same work on new data."""

    name = "interval-requests"
    why = ("CLI interval/posterior calls on varied datasets: posterior construction, HPD "
           "roots, CSV reading, CLI overhead; edge inputs go to an untimed defect probe")

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        self.data_path = os.path.join(workdir, "data.csv")
        self.out_path = os.path.join(workdir, "out.json")
        self.positions = self._make_round()
        self.round_size = len(self.positions)
        self.by_outcome = Counter()  # failures by request description and outcome
        self.probe_rng = np.random.default_rng([seed, zlib.crc32(b"known-defects")])

    def _log_uniform_n(self, u, hi=None):
        """n log-uniform on [3, hi] at quantile u; hi defaults to max_n."""
        hi = hi or self.sizes["max_n"]
        return int(np.rint(np.exp(math.log(3) + u * math.log(hi / 3))))

    def _shape(self, n, rng, klass="normal"):
        """(n, rho, means, sigmas) of a dataset; near-collinear for klass 'collinear'."""
        if klass == "collinear":
            return int(n), 0.99999999, np.array([1e6, 1e6]), np.exp(rng.normal(size=2))
        return (int(n), float(rng.uniform(-0.95, 0.95)), rng.normal(0.0, 10.0, size=2),
                np.exp(rng.normal(size=2)))

    @staticmethod
    def _draw(shape, rng):
        n, rho, mu, sigma = shape
        z = rng.standard_normal((n, 2))
        x1 = mu[0] + sigma[0] * z[:, 0]
        x2 = mu[1] + sigma[1] * (rho * z[:, 0] + math.sqrt(1.0 - rho * rho) * z[:, 1])
        return np.column_stack([x1, x2])

    @staticmethod
    def _marginal(data, param):
        return oracles.Marginal(param, oracles.sufficient_stats(data))

    def _eta_wide(self, data, factor=1.0):
        width = self._marginal(data, "eta").eta_unit_width()
        return width >= factor * oracles.NARROW_ETA_WIDTH

    def _make_round(self):
        rng = self.rng
        positions = []
        for param in PARAMS:
            # eta only on shapes whose eta posterior is wide enough for the
            # package's quadrature (narrow ones are a known defect, which the
            # probe exercises)
            max_n = min(ETA_MAX_N, self.sizes["max_n"]) if param == "eta" else None
            groups = {}  # requests of one cost class share one spread of n
            for kind in KIND_DECK:
                for level in LEVELS:
                    klass = "one_sided" if kind.endswith("one_sided") else kind
                    groups.setdefault(klass, []).append(("interval", param, kind, level))
            groups["posterior"] = [("posterior", param, None, None)] * 8
            for group in groups.values():
                # n log-uniform, stratified so every seed sees the same spread
                u = (rng.permutation(len(group)) + rng.uniform(size=len(group))) / len(group)
                for (cmd, _, kind, level), u_n in zip(group, u):
                    n = self._log_uniform_n(u_n, hi=max_n)
                    shape = self._shape(n, rng)
                    while param == "eta" and not self._eta_wide(self._draw(shape, rng),
                                                                 ETA_WIDTH_MARGIN):
                        shape = self._shape(n, rng)
                    positions.append((cmd, param, kind, level, shape))
        rng.shuffle(positions)
        return positions

    def _request(self, cmd, param, kind, level, shape):
        # n up to 5% above the shape's, so that beyond small n a repeat does
        # not ask for the same (param, kind, n, level) as an earlier round and
        # a cache keyed on it is not hit on every repeat
        n = int(self.rng.integers(shape[0], int(N_JITTER * shape[0]) + 1))
        shape = (n,) + shape[1:]
        data = self._draw(shape, self.rng)
        while param == "eta" and not self._eta_wide(data):
            data = self._draw(shape, self.rng)
        self._write(data)
        return cmd, param, kind, level, self._marginal(data, param), len(data)

    def _write(self, data):
        with open(self.data_path, "w", encoding="utf-8") as handle:
            handle.write("x1,x2\n")
            handle.writelines(f"{a!r},{b!r}\n" for a, b in data.tolist())

    def make(self, index):
        cmd, param, kind, level, shape = self.positions[index % self.round_size]
        return self._request(cmd, param, kind, level, shape)

    def argv(self, request):
        cmd, param, kind, level = request[:4]
        argv = [cmd, "--input", self.data_path, "--param", param]
        if cmd == "interval":
            argv += ["--kind", kind, "--level", repr(level)]
        return argv + ["--output", self.out_path]

    @staticmethod
    def describe(request):
        cmd, param, kind, level = request[:4]
        return f"{cmd} {param}" + (f" {kind} {level}" if cmd == "interval" else "")

    def warmup(self):
        shape = self._shape(100, self.rng)
        for param in PARAMS:
            for kind in ("hpd", "equal_tailed"):
                self.call(self._request("interval", param, kind, 0.95, shape))
            self.call(self._request("posterior", param, None, None, shape))

    def call(self, request, tracer=None):
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.main(self.argv(request))

    def exit_class(self, output):
        if isinstance(output, BaseException):
            return "uncaught"
        return str(output)

    def outcome(self, request, output):
        """Failure class of one call ('exit3', 'exit4', 'uncaught' or 'oracle')
        with a short reason, or None when the output is right."""
        code = self.exit_class(output)
        if code != "0":
            if code == "uncaught":
                return "uncaught", f"uncaught:{type(output).__name__}"
            failure = f"exit{code}"
            # any exit code the CLI does not document counts as uncaught
            return (failure if failure in FAIL_CLASSES else "uncaught"), code
        cmd, _, kind, level, marg, n = request
        try:
            with open(self.out_path, encoding="utf-8") as handle:
                body = json.load(handle)
            if cmd == "interval":
                reason = oracles.check_interval(body, marg, kind, level)
            else:
                reason = oracles.check_posterior(body, marg, n)
        except (ValueError, KeyError, TypeError) as exc:
            reason = f"unreadable output: {exc}"
        return ("oracle", reason) if reason else None

    def record(self, request, output, latency):
        self.attempted += 1
        failure = self.outcome(request, output)
        if failure is None:
            return
        klass, reason = failure
        self.by_outcome[f"{self.describe(request)}: {reason if klass != 'oracle' else 'oracle'}"] += 1
        if klass == "oracle":
            self.mismatch(f"{self.describe(request)} n={request[5]}: {reason}")
        else:
            self.fails[klass] += 1

    def known_defects(self):
        """The README's known-failure inputs, run once after the timed window.

        n = 3, near-collinear data (rho = 0.99999999, means 1e6) and large-n
        datasets whose eta posterior is narrow on the quadrature map, each
        asked for intervals at ordinary and far levels and for the posterior
        of every parameter. Outcomes are counted by class for the report;
        they are not part of the timed workload.
        """
        rng = self.probe_rng
        max_n = self.sizes["max_n"]
        datasets = []
        for _ in range(self.sizes["probe_datasets"]):
            datasets.append(("n3", self._shape(3, rng)))
            datasets.append(("collinear", self._shape(self._log_uniform_n(rng.uniform()), rng,
                                                      "collinear")))
            datasets.append(("narrow", self._shape(int(rng.integers(max_n * 3 // 5, max_n + 1)),
                                                   rng)))
        attempted = 0
        failures = Counter()
        detail = Counter()
        for klass, shape in datasets:
            data = self._draw(shape, rng)
            margs = oracles.marginals(data)
            self._write(data)
            for param in PARAMS:
                for cmd, kind, level in PROBE_REQUESTS:
                    request = (cmd, param, kind, level, margs[param], len(data))
                    try:
                        output = self.call(request)
                    except Exception as exc:  # counted as an uncaught failure
                        output = exc
                    attempted += 1
                    failure = self.outcome(request, output)
                    if failure is not None:
                        failures[failure[0]] += 1
                        reason = failure[1] if failure[0] != "oracle" else "oracle"
                        detail[f"{klass} data, {self.describe(request)}: {reason}"] += 1
        return {
            "attempted": attempted,
            "failures": {klass: failures.get(klass, 0) for klass in FAIL_CLASSES},
            "detail": dict(sorted(detail.items())),
        }

    def finish(self):
        self.failure_detail = dict(self.by_outcome)
        return {}


# -- verifiers ----------------------------------------------------------------------

# the package's matching prior, written out again so the finite-difference
# route differentiates a function the benchmark owns
def matching_log_prior(beta, theta, eta):
    return -math.log(theta * eta)


class VerifySuite(Workload):
    name = "verify-suite"
    why = ("moment identities by Monte Carlo and matching-PDE residuals on a dense grid: "
           "the only load on matching and log_density_partial")

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        self.lemma_s = 0.0
        self.prior_s = 0.0
        self.lemma_points = 0
        self.grid_points = 0
        # estimates the package's own 4-sigma gate rejected; see record()
        self.gate_rejections = 0
        tests = MOMENT_REQUESTS * sizes["points"] * len(oracles.MOMENT_CLAIMS)
        self.moment_z = float(stats.norm.isf(oracles.FAMILY_ALPHA / tests / 2.0))

    def _point(self):
        u = self.rng.uniform
        return OrthogonalParams(
            mu1=float(u(-1, 1)), mu2=float(u(-1, 1)), beta=float(u(-1.5, 1.5)),
            theta=float(u(0.6, 2.5)), eta=float(u(0.6, 2.5)),
        )

    def make(self, index):
        u = self.rng.uniform
        count = self.sizes["grid"]
        # a fresh box around the package's default grid for every request
        grid = GridSpec(
            beta=(float(u(-2.5, -1.5)), float(u(1.5, 2.5)), count),
            theta=(float(u(0.5, 0.7)), float(u(2.5, 3.5)), count),
            eta=(float(u(0.5, 0.7)), float(u(2.5, 3.5)), count),
        )
        points = [(self._point(), self.new_seed() % (2 ** 32)) for _ in range(self.sizes["points"])]
        return points, grid

    def warmup(self):
        points, _ = self.make(-1)
        self.call((points[:1], GridSpec(beta=(-2.0, 2.0, 3), theta=(0.5, 3.0, 3),
                                        eta=(0.5, 3.0, 3))))

    def call(self, request, tracer=None):
        points, grid = request
        log_prior = matching_log_prior
        if tracer is not None:
            log_prior = tracer.counting("matching.prior_evals", log_prior)
        fd_prior = PriorSpec("matching-fd", log_prior)
        t0 = time.perf_counter()
        lemma = [
            matching.verify_score_moments(p, n_samples=self.sizes["samples"], seed=s)
            for p, s in points
        ]
        t1 = time.perf_counter()
        reports = {
            route: matching.verify_prior(spec, grid)
            for route, spec in (("analytic", MATCHING_PRIOR), ("fd", fd_prior),
                                ("flat", FLAT_PRIOR))
        }
        t2 = time.perf_counter()
        return lemma, reports, t1 - t0, t2 - t1

    def record(self, request, output, latency):
        points, grid = request
        self.attempted += len(points) + 3
        if isinstance(output, BaseException):
            self.fails["uncaught"] += len(points) + 3
            return
        lemma, reports, lemma_s, prior_s = output
        self.lemma_s += lemma_s
        self.prior_s += prior_s
        self.lemma_points += len(points)
        samples = self.sizes["samples"]
        for (point, _), checks in zip(points, lemma):
            reason = oracles.check_moments(checks, point.theta, point.eta, samples, self.moment_z)
            if reason:
                self.mismatch(f"moments at {point}: {reason}")
            # The package flags an estimate more than 4 standard errors from
            # its identity, which a right estimate is with probability 6e-5
            # per identity. The oracle above judges the estimate; the flags
            # are counted for the report only.
            self.gate_rejections += sum(not c.passed for c in checks)
        n_points = grid.beta[2] * grid.theta[2] * grid.eta[2]
        for route, route_reports in reports.items():
            self.grid_points += n_points * len(route_reports)
            reason = oracles.check_residuals(route_reports, route, n_points)
            if reason:
                self.mismatch(reason)

    def finish(self):
        samples = self.sizes["samples"]
        return {
            "lemma_samples_per_s": (
                self.lemma_points * samples / self.lemma_s if self.lemma_s else 0.0, "1/s"),
            "prior_points_per_s": (
                self.grid_points / self.prior_s if self.prior_s else 0.0, "1/s"),
            "moment_gate_rejections": (self.gate_rejections, "count"),
        }


WORKLOADS = {w.name: w for w in (CoverageTable, CoverageLargeN, IntervalRequests, VerifySuite)}
