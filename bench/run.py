"""bvnprior benchmark: closed-loop workloads through the package's public entry points.

Run from the root of a checkout (the package is imported from src/):

    python3 bench/run.py --workload coverage-table --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

--trace 0 measures the end-to-end metrics with nothing wrapped. The shared
host this was built on changes speed by 10-60% from one stretch of seconds
or minutes to the next, so every timed call is scaled to a nominal host by
a reference kernel timed around it (HostScale). A run is a sequence of
rounds: request i repeats the work of request i - round_size on fresh
inputs, and the latency metrics take each round position's median scaled
time. --trace 1
runs every request twice, untraced and traced in alternating order, and
reports per-layer metrics from the traced copies plus the tracing overhead
(traced wall over untraced wall of the same requests). Human-readable lines
come first; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. Results and, for traced runs,
the spans go to .bench_out/ in the checkout.
"""

import os

# pin BLAS threading before numpy is imported anywhere in this process
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
from array import array  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
TMP_DIR = ROOT / ".bench_tmp"
WORKLOAD_NAMES = ("coverage-table", "coverage-large-n", "interval-requests", "verify-suite")
# imports timed for setup_s, spread evenly through the timed window
SETUP_REPEATS = 5


def import_time() -> tuple:
    """Start and wall time of one fresh interpreter importing bvnprior.

    Called after this process has imported the package, so the bytecode is
    compiled (users pay that once per install) and the files are cached.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import bvnprior"], env=env, cwd=ROOT, check=True)
    return start, time.perf_counter() - start


# -- host-speed reference ------------------------------------------------------

# a reference is timed before a timed call when the last one is older than
# this, and once more when the window closes
REF_EVERY_S = 0.5
# reference_s() on the build host (2-vCPU Xeon, Python 3.11.7, numpy 2.4.6)
# in a quiet stretch; scaled times read as times on that host
REF_NOMINAL_S = 0.013
_REF_TINY = np.arange(10.0)
_REF_LARGE = np.linspace(0.0, 1.0, 1 << 19)  # 4 MB, twice the L2 cache


def _ref_python():
    total = 0.0
    for i in range(10_000):
        total += math.sqrt(i + 0.5)
    return total


def _ref_tiny_arrays():
    total = 0.0
    for _ in range(750):
        total += float(np.sum(_REF_TINY * 1.5))
    return total


def _ref_large_array():
    for _ in range(3):
        np.exp(-_REF_LARGE)


def reference_s() -> float:
    """Host speed now: the time of a fixed kernel that uses nothing of bvnprior.

    Its three parts are the kinds of work the workloads do: interpreted
    float arithmetic, many numpy calls on tiny arrays, and numpy passes over
    an array larger than L2. Each part runs twice and keeps its faster time.
    """
    parts = [math.inf] * 3
    for _ in range(2):
        for k, part in enumerate((_ref_python, _ref_tiny_arrays, _ref_large_array)):
            start = time.perf_counter()
            part()
            parts[k] = min(parts[k], time.perf_counter() - start)
    return sum(parts)


class HostScale:
    """Scales wall times to the nominal host.

    A call that took t seconds while the reference took r seconds around it
    (the mean of the last reference before the call and the first after)
    is reported as t * REF_NOMINAL_S / r. In probes on the build host,
    identical requests varied by a factor of 1.3 between 20-second stretches
    and their scaled times by 1.05-1.17.
    """

    def __init__(self):
        self.times: list[float] = []
        self.refs: list[float] = []
        self.sample()

    def sample(self):
        self.times.append(time.perf_counter())
        self.refs.append(reference_s())

    def sample_if_stale(self):
        if time.perf_counter() - self.times[-1] >= REF_EVERY_S:
            self.sample()

    def scaled(self, start: float, elapsed: float) -> float:
        """Call after the last sample(), so that every call has one after it."""
        k = bisect.bisect_right(self.times, start)
        ref = 0.5 * (self.refs[k - 1] + self.refs[min(k, len(self.refs) - 1)])
        return elapsed * REF_NOMINAL_S / ref


def _read(path, default=None):
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return default


def _git_commit():
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return "unavailable (not a git checkout)"
    if head.startswith("ref: "):
        return _read(ROOT / ".git" / head[5:], "unavailable")
    return head


def environment(seed: int, sizes: dict) -> dict:
    import numpy
    import scipy

    cpu_model = "unknown"
    for line in (_read("/proc/cpuinfo", "") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else ():
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = _read(index / "size")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "seed": seed,
        "sizes": sizes,
    }


def layer_metrics(tracer, exits, requests: int, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics of the traced requests.

    Counts are per request and busy times are shares of the traced request
    time, so neither depends on how many requests fit in the run.
    """
    calls, counts = tracer.calls, tracer.counts
    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    def per_req(x):
        return x / requests

    def pct(span):
        return 100.0 * tracer.self_time.get(span, 0.0) / traced_s

    def calls_and_pct(span, calls_name="calls", pct_name="self_pct"):
        put(f"{span}.{calls_name}", per_req(calls.get(span, 0)), "count/req")
        put(f"{span}.{pct_name}", pct(span), "%")

    calls_and_pct("model.sample")
    calls_and_pct("model.sufficient_stats")
    put("model.normal_draws", per_req(counts["model.normal_draws"]), "count/req")
    put("model.bytes_computed", per_req(counts["model.bytes_computed"]), "B/req")
    calls_and_pct("model.read_dataset")
    put("model.read_dataset.rows", per_req(counts["model.read_dataset.rows"]), "count/req")
    for order in (1, 2, 3):
        put(f"model.log_density_partial.calls_order{order}",
            per_req(counts[f"model.log_density_partial.calls_order{order}"]), "count/req")
    put("model.log_density_partial.self_pct", pct("model.log_density_partial"), "%")

    put("coverage.run_cell.self_pct", pct("coverage.run_cell"), "%")
    put("coverage.ks_uniformity.self_pct", pct("coverage.ks_uniformity"), "%")
    replicates = counts["coverage.replicates"]
    put("coverage.replicates_used_ratio",
        counts["coverage.replicates_used"] / replicates if replicates else 0.0, "ratio")

    for param in ("beta", "theta", "w", "eta"):
        calls_and_pct(f"posterior.{param}.construct", "calls", "pct")
    for method in ("cdf", "quantile", "logpdf"):
        calls_and_pct(f"posterior.{method}")

    for fname in ("hpd_unimodal", "hpd_beta", "equal_tailed", "one_sided"):
        calls_and_pct(f"interval.{fname}")
    put("interval.hpd_degraded", per_req(counts["interval.hpd_degraded"]), "count/req")
    solves = counts["interval.solves"]
    put("interval.key_repeat_share",
        counts["interval.key_repeats"] / solves if solves else 0.0, "ratio")

    calls_and_pct("numerics.find_root")
    put("numerics.find_root.evals", per_req(counts["numerics.find_root.evals"]), "count/req")
    calls_and_pct("numerics.integrate")
    put("numerics.integrate.evals", per_req(counts["numerics.integrate.evals"]), "count/req")
    calls_and_pct("numerics.special")

    put("cli.main.self_pct", pct("cli.main"), "%")
    for code in ("0", "3", "4", "uncaught"):
        put(f"cli.exit.{code}", per_req(exits.get(code, 0)), "count/req")

    put("matching.verify_score_moments.self_pct", pct("matching.verify_score_moments"), "%")
    for route in ("analytic", "fd"):
        put(f"matching.pde_residual.{route}.self_pct", pct(f"matching.pde_residual.{route}"), "%")
    put("matching.prior_evals", per_req(counts["matching.prior_evals"]), "count/req")

    put("trace.overhead_ratio", traced_s / untraced_s, "ratio")
    return out


def run(name: str, seed: int, seconds: float, trace: bool, sizes=None,
        setup_repeats: int = SETUP_REPEATS) -> dict:
    """One workload run; returns the result line plus the human report."""
    import workloads
    from spans import Tracer

    cls = workloads.WORKLOADS[name]
    sizes = dict(sizes or workloads.SIZES[name])

    workdir = TMP_DIR / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    try:
        wl = cls(seed, sizes, str(workdir))
        wl.warmup()
        latencies = array("d")
        host = None if trace else HostScale()
        timed = []  # (start, elapsed, round position) of each untraced request
        untraced_s = traced_s = 0.0
        exits = {}
        setup_times = []
        # an untraced run times its imports between requests, so setup_s
        # samples the host at the same moments as the requests do
        setup_repeats = 0 if trace else setup_repeats
        clock = time.perf_counter
        setup_every = seconds / max(setup_repeats, 1)
        next_setup = clock() + 0.5 * setup_every
        deadline = clock() + seconds
        index = 0
        while clock() < deadline:
            if host is not None:
                host.sample_if_stale()
            if len(setup_times) < setup_repeats and clock() >= next_setup:
                setup_times.append(import_time())
                next_setup += setup_every
                continue
            request = wl.make(index)
            # a traced run does each request untraced and traced, in alternating order
            modes = (False,) if not trace else ((False, True) if index % 2 else (True, False))
            for traced in modes:
                start = clock()
                try:
                    if traced:
                        with tracer.installed(index):
                            output = wl.call(request, tracer)
                    else:
                        output = wl.call(request)
                except Exception as exc:  # counted as an uncaught failure
                    output = exc
                elapsed = clock() - start
                if not trace:
                    timed.append((start, elapsed, index % wl.round_size))
                elif not traced:
                    untraced_s += elapsed
                    continue
                traced_s += elapsed
                latencies.append(elapsed)
                code = wl.exit_class(output)
                if code is not None:
                    exits[code] = exits.get(code, 0) + 1
                wl.record(request, output, elapsed)
            index += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # requests that outlast the window leave imports to time here
        while len(setup_times) < setup_repeats:
            host.sample()
            setup_times.append(import_time())
        if host is not None:
            host.sample()
        extra = wl.finish()
        known_defects = wl.known_defects()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    requests = len(latencies)
    if trace:
        metrics = layer_metrics(tracer, exits, requests, traced_s, untraced_s)
    else:
        by_position = {}
        for start, elapsed, position in timed:
            by_position.setdefault(position, []).append(host.scaled(start, elapsed))
        per_position = [statistics.median(v) for v in by_position.values()]
        metrics = {
            "setup_s": {"value": statistics.median(host.scaled(*t) for t in setup_times),
                        "unit": "s"},
            "req_per_s": {"value": len(per_position) / sum(per_position), "unit": "1/s"},
            "req_gmean_ms": {"value": 1e3 * statistics.geometric_mean(per_position),
                             "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    p50, p95 = (float(x) for x in np.percentile(latencies, [50.0, 95.0]))
    failed = sum(wl.fails.values())
    report = {
        "workload": name,
        "why": cls.why,
        "trace": int(trace),
        "seconds": seconds,
        "environment": environment(seed, sizes),
        "requests": requests,
        "rounds": requests / wl.round_size,
        "mean_req_per_s": requests / sum(latencies),
        "setup_s_unscaled": statistics.median(t for _, t in setup_times) if setup_times else None,
        "host_ref_ms": 1e3 * statistics.median(host.refs) if host else None,
        "latencies_s": latencies.tolist(),
        "req_p50_ms": 1e3 * p50,
        "req_p95_ms": 1e3 * p95,
        "requests_beyond_p95": sum(1 for x in latencies if x > p95),
        "failed_ratio": failed / wl.attempted if wl.attempted else 0.0,
        "failures": {cls_: wl.fails.get(cls_, 0) for cls_ in workloads.FAIL_CLASSES},
        "failure_detail": wl.failure_detail,
        "mismatches": wl.mismatches,
        "known_defects": known_defects,
        "workload_metrics": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
    }
    if trace:
        report["spans_kept"] = len(tracer.span_start)
        report["spans_dropped"] = tracer.dropped
    result = {
        "correct": wl.fails["oracle"] == 0,
        "attempted": wl.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return {"result": result, "report": report, "tracer": tracer}


def print_report(out: dict) -> None:
    report, result = out["report"], out["result"]
    print(f"== {report['workload']} (trace {report['trace']}): {report['why']}")
    print("environment " + json.dumps(report["environment"]))
    rows = dict(result["metrics"])
    if not report["trace"]:
        rows.update(report["workload_metrics"])
        for key in ("req_p50_ms", "req_p95_ms"):
            rows[key] = {"value": report[key], "unit": "ms"}
        rows["mean_req_per_s"] = {"value": report["mean_req_per_s"], "unit": "1/s"}
        rows["setup_s_unscaled"] = {"value": report["setup_s_unscaled"], "unit": "s"}
        rows["host_ref_ms"] = {"value": report["host_ref_ms"], "unit": "ms"}
        rows["failed_ratio"] = {"value": report["failed_ratio"], "unit": "ratio"}
    for key, metric in rows.items():
        print(f"  {key:42s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  requests {report['requests']} ({report['rounds']:.1f} rounds), "
          f"{report['requests_beyond_p95']} beyond p95; "
          f"attempted {result['attempted']}, failed {result['failed']} "
          + " ".join(f"{k}={v}" for k, v in report["failures"].items()))
    for key, count in sorted(report["failure_detail"].items()):
        print(f"  failure {key} x{count}")
    for reason in report["mismatches"]:
        print(f"  oracle mismatch: {reason}")
    probe = report["known_defects"]
    if probe is not None:
        print(f"  known-defect probe (untimed, not in attempted/failed): attempted "
              f"{probe['attempted']}, " + " ".join(f"{k}={v}" for k, v in probe["failures"].items()))
        for key, count in probe["detail"].items():
            print(f"    {key} x{count}")
    print(f"  correct: {result['correct']}")


def save(out: dict, seed: int) -> None:
    report, tracer = out["report"], out["tracer"]
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{report['workload']}-seed{seed}-trace{report['trace']}"
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({"result": out["result"], "report": report}, handle, indent=1)
    if tracer is not None:
        tracer.write_spans(OUT_DIR / f"{stem}-spans.csv")


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]) if proc.returncode == 0 else proc.stdout, flush=True)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bvnprior" / "__init__.py").is_file():
        print(f"error: no bvnprior package under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(out)
    save(out, args.seed)
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
