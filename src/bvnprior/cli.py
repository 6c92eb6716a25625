"""Command-line interface.

Subcommands: sample, stats, posterior, interval, coverage, verify-lemma,
verify-prior. Exit codes: 0 success, 2 usage error, 3 data or domain
error, unreadable file or a size too large to allocate, 4 numerical
failure (including failed verification checks, and float overflow or
division by zero at extreme parameters).
All output is deterministic: rerunning a command with the same flags and
seed produces byte-identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import matching
from .coverage import DEFAULT_SEED, TABLE_NS, TABLE_RHOS, run_table
from .errors import (
    BracketError,
    DegenerateDataError,
    DomainError,
    NumericalError,
)
from .interval import KINDS, equal_tailed, hpd_unimodal, one_sided
from .matching import (
    FLAT_PRIOR,
    MATCHING_PRIOR,
    GridSpec,
    moment_report_csv,
    moment_report_table,
    residual_report_csv,
    residual_report_table,
    verify_prior,
    verify_score_moments,
)
from .model import (
    OriginalParams,
    OrthogonalParams,
    read_dataset,
    sample,
    sufficient_stats,
    to_orthogonal,
    write_dataset,
)
from .posterior import (
    beta_posterior,
    eta_posterior,
    precision_posterior,
    theta_posterior,
)

_POSTERIORS = {
    "beta": beta_posterior,
    "theta": theta_posterior,
    "w": precision_posterior,
    "eta": eta_posterior,
}

_QUANTILE_PROBS = (0.025, 0.25, 0.5, 0.75, 0.975)


def _float_list(text: str):
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _int_list(text: str):
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _grid_axis(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid axis must be lo:hi:count, got {text!r}")
    try:
        return (float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid axis must be lo:hi:count, got {text!r}")


def _add_model_flags(sub, rho_default=0.0):
    sub.add_argument("--mu1", type=float, default=0.0, help="mean of x1")
    sub.add_argument("--mu2", type=float, default=0.0, help="mean of x2")
    sub.add_argument("--sigma1", type=float, default=1.0, help="sd of x1")
    sub.add_argument("--sigma2", type=float, default=1.0, help="sd of x2")
    sub.add_argument("--rho", type=float, default=rho_default, help="correlation")


def _write_text(path, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _read_stats(path):
    if path == "-":
        data = read_dataset(sys.stdin)
    else:
        data = read_dataset(path)
    return sufficient_stats(data)


def _cmd_sample(args) -> int:
    params = OriginalParams(args.mu1, args.mu2, args.sigma1, args.sigma2, args.rho)
    data = sample(params, args.n, args.seed)
    if args.output is None:
        write_dataset(sys.stdout, data)
    else:
        write_dataset(args.output, data)
    return 0


def _cmd_stats(args) -> int:
    st = _read_stats(args.input)
    payload = {
        "n": st.n,
        "xbar1": st.xbar1,
        "xbar2": st.xbar2,
        "s11": st.s11,
        "s22": st.s22,
        "s12": st.s12,
        "s22_1": st.s22_1,
    }
    _write_text(args.output, json.dumps(payload, indent=2) + "\n")
    return 0


def _cmd_posterior(args) -> int:
    st = _read_stats(args.input)
    dist = _POSTERIORS[args.param](st)
    mean = dist.mean()
    payload = {
        "param": dist.param_id,
        "n": st.n,
        "mode": dist.mode(),
        "mean": mean,
        "median": dist.quantile(0.5),
        "quantiles": {f"{p:g}": dist.quantile(p) for p in _QUANTILE_PROBS},
    }
    _write_text(args.output, json.dumps(payload, indent=2) + "\n")
    return 0


def _cmd_interval(args) -> int:
    dist = _POSTERIORS[args.param](_read_stats(args.input))
    if args.kind == "hpd":
        iv = hpd_unimodal(dist, args.level)
    elif args.kind == "equal_tailed":
        iv = equal_tailed(dist, args.level)
    elif args.kind == "upper_one_sided":
        iv = one_sided(dist, args.level, "upper")
    else:
        iv = one_sided(dist, args.level, "lower")
    _write_text(args.output, iv.to_json(indent=2) + "\n")
    return 0


def _cmd_coverage(args) -> int:
    report = run_table(
        rhos=args.rhos,
        ns=args.ns,
        level=args.level,
        replicates=args.replicates,
        kind=args.kind,
        seed=args.seed,
    )
    text = report.to_markdown() if args.format == "markdown" else report.to_csv()
    _write_text(args.output, text)
    return 0 if report.all_ok else 4


def _cmd_verify_lemma(args) -> int:
    point = to_orthogonal(
        OriginalParams(args.mu1, args.mu2, args.sigma1, args.sigma2, args.rho)
    )
    checks = verify_score_moments(point, n_samples=args.samples, seed=args.seed)
    if args.format == "csv":
        text = moment_report_csv(checks)
    elif args.format == "json":
        text = json.dumps([dataclasses.asdict(c) for c in checks], indent=2) + "\n"
    else:
        header = (
            f"moment checks at beta={point.beta:.6g} theta={point.theta:.6g} "
            f"eta={point.eta:.6g}, {args.samples} samples, seed {args.seed}\n"
        )
        text = header + moment_report_table(checks)
    _write_text(args.output, text)
    return 0 if all(c.passed for c in checks) else 4


def _cmd_verify_prior(args) -> int:
    prior = {"matching": MATCHING_PRIOR, "flat": FLAT_PRIOR}[args.prior]
    grid = GridSpec(beta=args.grid_beta, theta=args.grid_theta, eta=args.grid_eta)
    reports = verify_prior(prior, grid)
    if args.format == "csv":
        text = residual_report_csv(reports)
    elif args.format == "json":
        payload = []
        for r in reports:
            d = dataclasses.asdict(r)
            d["pass"] = r.passed
            payload.append(d)
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = (
            f"matching-condition residuals for the {prior.name} prior\n"
            + residual_report_table(reports)
        )
    _write_text(args.output, text)
    return 0 if all(r.passed for r in reports) else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bvnprior",
        description=(
            "Bivariate normal inference under the matching prior "
            "1/(theta eta): sampling, sufficient statistics, marginal "
            "posteriors, credible intervals, coverage simulation, and "
            "verification of the matching conditions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a dataset and write it as CSV")
    _add_model_flags(p)
    p.add_argument("--n", type=int, required=True, help="number of pairs")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="RNG seed")
    p.add_argument("--output", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("stats", help="sufficient statistics of a dataset as JSON")
    p.add_argument("--input", required=True, help="dataset CSV path, or - for stdin")
    p.add_argument("--output", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("posterior", help="summary of one marginal posterior as JSON")
    p.add_argument("--input", required=True, help="dataset CSV path, or - for stdin")
    p.add_argument("--param", required=True, choices=sorted(_POSTERIORS))
    p.add_argument("--output", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_posterior)

    p = sub.add_parser("interval", help="credible interval as JSON")
    p.add_argument("--input", required=True, help="dataset CSV path, or - for stdin")
    p.add_argument("--param", required=True, choices=sorted(_POSTERIORS))
    p.add_argument(
        "--kind",
        default="hpd",
        choices=KINDS,
    )
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--output", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_interval)

    p = sub.add_parser("coverage", help="frequentist coverage simulation table")
    p.add_argument("--rhos", type=_float_list, default=TABLE_RHOS)
    p.add_argument("--ns", type=_int_list, default=TABLE_NS)
    p.add_argument("--replicates", type=int, default=5000)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument(
        "--kind",
        default="hpd",
        choices=KINDS,
    )
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--format", default="csv", choices=("csv", "markdown"))
    p.add_argument("--output", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_coverage)

    p = sub.add_parser(
        "verify-lemma",
        help="Monte Carlo check of the closed-form log-density moments",
    )
    _add_model_flags(p, rho_default=0.5)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--format", default="table", choices=("table", "csv", "json"))
    p.add_argument("--output", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_verify_lemma)

    p = sub.add_parser(
        "verify-prior",
        help="grid residuals of the matching conditions for a prior",
    )
    p.add_argument(
        "prior",
        nargs="?",
        default="matching",
        choices=("matching", "flat"),
        help="which built-in prior to check",
    )
    p.add_argument("--grid-beta", type=_grid_axis, default=(-2.0, 2.0, 9))
    p.add_argument("--grid-theta", type=_grid_axis, default=(0.5, 3.0, 9))
    p.add_argument("--grid-eta", type=_grid_axis, default=(0.5, 3.0, 9))
    p.add_argument("--format", default="table", choices=("table", "csv", "json"))
    p.add_argument("--output", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_verify_prior)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (DomainError, DegenerateDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, BracketError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ArithmeticError as exc:
        # float overflow or division by zero at extreme parameters
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except (OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
