"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the bvnprior modules from outside:
nothing under src/ is edited. Modules bind each other's functions with
``from .x import y``, so a function is wrapped in every consumer module's
namespace (``bvnprior.coverage.sample``, ``bvnprior.cli.hpd_unimodal``, ...),
plus the module-attribute calls (``numerics.find_root``) and the posterior
class methods, which every caller reaches through the class.

Each wrapped call records one span: name, start, end, parent span and
request id. Self time (span duration minus the time covered by child spans)
and call counts are aggregated online; the span records themselves are kept
in memory, up to a cap, and written out when the run ends.
"""

from __future__ import annotations

import time
import warnings
from array import array
from collections import defaultdict
from contextlib import contextmanager

import bvnprior.cli as _cli
import bvnprior.coverage as _coverage
import bvnprior.matching as _matching
import bvnprior.numerics as _numerics
import bvnprior.posterior as _posterior

SPECIAL_FUNCTIONS = (
    "log_gamma",
    "reg_inc_gamma",
    "reg_inc_gamma_c",
    "reg_inc_gamma_inv",
    "reg_inc_gamma_c_inv",
    "reg_inc_beta",
    "reg_inc_beta_inv",
    "student_t_cdf",
    "student_t_quantile",
)

POSTERIOR_CLASSES = {
    "beta": _posterior.BetaPosterior,
    "theta": _posterior.ThetaPosterior,
    "w": _posterior.PrecisionPosterior,
    "eta": _posterior.EtaPosterior,
}

INTERVAL_FUNCTIONS = ("hpd_unimodal", "hpd_beta", "equal_tailed", "one_sided")

# span records kept for the trace file; aggregation continues past the cap
SPAN_CAP = 200_000


class Tracer:
    """Collects spans and per-layer counters while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_request = array("q")
        self.dropped = 0
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.seen_interval_keys: set = set()
        self.request_id = -1
        self._stack: list[list] = []  # [span id, start, time in child spans]
        self._patches: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, name: str, start: float) -> int:
        if len(self.span_start) >= SPAN_CAP:
            self.dropped += 1
            return -2
        self.span_name.append(self._name_id(name))
        self.span_start.append(start)
        self.span_end.append(start)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_request.append(self.request_id)
        return len(self.span_start) - 1

    def wrap(self, name: str, fn, before=None, after=None):
        """Return fn wrapped in a span named name.

        before(args, kwargs) may return replacement (args, kwargs);
        after(args, kwargs, result) sees each successful result.
        """
        stack = self._stack
        clock = time.perf_counter
        self_time = self.self_time
        calls = self.calls

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            start = clock()
            frame = [self._open(name, start), start, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_time[name] += duration - frame[2]
                calls[name] += 1
                if stack:
                    stack[-1][2] += duration
                if frame[0] >= 0:
                    self.span_end[frame[0]] = end
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counting(self, name: str, fn):
        """fn wrapped to count its calls under counts[name], without a span."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, before=None, after=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, before, after))

    @contextmanager
    def installed(self, request_id: int):
        """Wrap every traced function for the duration of one request."""
        self.request_id = request_id
        self._install()
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()
            self._stack.clear()

    def _install(self):
        counts = self.counts

        def after_sample(args, kwargs, result):
            counts["model.normal_draws"] += result.size
            counts["model.bytes_computed"] += result.nbytes

        def after_stats(args, kwargs, result):
            data = args[0] if args else kwargs["data"]
            counts["model.bytes_computed"] += getattr(data, "nbytes", 0)

        def after_read(args, kwargs, result):
            counts["model.read_dataset.rows"] += result.shape[0]
            counts["model.bytes_computed"] += result.nbytes

        def after_partial(args, kwargs, result):
            order = sum(int(k) for k in args[3])
            counts[f"model.log_density_partial.calls_order{order}"] += 1
            counts["model.bytes_computed"] += (
                getattr(args[1], "nbytes", 0) + getattr(args[2], "nbytes", 0)
                + getattr(result, "nbytes", 0)
            )

        def before_find_root(args, kwargs):
            return (self.counting("numerics.find_root.evals", args[0]),) + args[1:], kwargs

        def after_integrate(args, kwargs, result):
            counts["numerics.integrate.evals"] += result.evaluations

        def after_cell(args, kwargs, result):
            counts["coverage.replicates"] += result.replicates
            counts["coverage.replicates_used"] += result.replicates_used

        # model layer, in the namespaces that import it
        for module in (_coverage, _matching):
            self._patch(module, "sample", "model.sample", after=after_sample)
        for module in (_coverage, _cli):
            self._patch(module, "sufficient_stats", "model.sufficient_stats",
                        after=after_stats)
        self._patch(_cli, "read_dataset", "model.read_dataset", after=after_read)
        self._patch(_matching, "log_density_partial", "model.log_density_partial",
                    after=after_partial)

        # coverage layer
        self._patch(_coverage, "run_cell", "coverage.run_cell", after=after_cell)
        self._patch(_coverage, "ks_uniformity", "coverage.ks_uniformity")

        # posterior layer: class methods reach every consumer
        for short, cls in POSTERIOR_CLASSES.items():
            self._patch(cls, "__init__", f"posterior.{short}.construct")
            for method in ("cdf", "quantile", "logpdf"):
                self._patch(cls, method, f"posterior.{method}")

        # interval layer, in both consumer namespaces
        for module in (_coverage, _cli):
            for fname in INTERVAL_FUNCTIONS:
                if hasattr(module, fname):
                    self._patch_interval(module, fname)

        # numerics layer: consumers call it through the module attribute
        self._patch(_numerics, "find_root", "numerics.find_root", before=before_find_root)
        self._patch(_numerics, "integrate", "numerics.integrate", after=after_integrate)
        for fname in SPECIAL_FUNCTIONS:
            self._patch(_numerics, fname, "numerics.special")

        # matching layer
        self._patch(_matching, "verify_score_moments", "matching.verify_score_moments")
        self._patch(_matching, "verify_prior", "matching.verify_prior")
        original_residual = _matching.pde_residual
        routes = {
            route: self.wrap(f"matching.pde_residual.{route}", original_residual)
            for route in ("analytic", "fd")
        }

        def pde_residual(condition, prior, *rest, **kwargs):
            route = "analytic" if prior.analytic_partials is not None else "fd"
            return routes[route](condition, prior, *rest, **kwargs)

        self._patches.append((_matching, "pde_residual", original_residual))
        _matching.pde_residual = pde_residual

        # cli layer
        self._patch(_cli, "main", "cli.main")

    def _patch_interval(self, module, fname: str):
        counts = self.counts
        seen = self.seen_interval_keys
        original = getattr(module, fname)
        span = self.wrap(f"interval.{fname}", original)

        def interval(first, level, *rest, **kwargs):
            if fname == "hpd_beta":
                key = ("beta", "hpd", first.n, level)
            else:
                kind = rest[0] if fname == "one_sided" else fname
                key = (first.param_id, kind, first.stats.n, level)
            counts["interval.solves"] += 1
            if key in seen:
                counts["interval.key_repeats"] += 1
            seen.add(key)
            if fname != "hpd_unimodal":
                return span(first, level, *rest, **kwargs)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = span(first, level, *rest, **kwargs)
            for w in caught:
                if issubclass(w.category, RuntimeWarning):
                    counts["interval.hpd_degraded"] += 1
                warnings.warn(w.message, stacklevel=2)
            return result

        self._patches.append((module, fname, original))
        setattr(module, fname, interval)

    # -- output -------------------------------------------------------------

    def write_spans(self, path) -> None:
        """Write the kept spans as CSV: name,start,end,parent,request."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name,start_s,end_s,parent,request\n")
            names = self.names
            for i in range(len(self.span_start)):
                handle.write(
                    f"{names[self.span_name[i]]},{self.span_start[i]!r},"
                    f"{self.span_end[i]!r},{self.span_parent[i]},{self.span_request[i]}\n"
                )
