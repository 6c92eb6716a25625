"""Command-line interface.

Subcommands: sample, stats, posterior, interval, coverage, verify-lemma,
verify-prior. Exit codes: 0 success, 2 usage error, 3 data or domain
error, unreadable file or a size too large to allocate, 4 numerical
failure (including failed verification checks, and float overflow or
division by zero at extreme parameters).
All output is deterministic: rerunning a command with the same flags and
seed produces byte-identical bytes. Coverage seeds must lie in [0, 2**64).

Every command takes --output (default stdout) as its last option. Each
_cmd_* returns (chunks, exit code): the text of its output, and 0, or 4
for a failed check or coverage cell. main() writes the chunks once, in
place (model._write_in_place), after the command returns, so an error
exit writes nothing and a failed check writes its whole report. Every
JSON output is indented by 2 and ends in a newline.

One parser, built at the first main() call, serves the process. main()
hands the arguments after a command name straight to that command's
parser, one argparse pass where the top-level parser would add a second,
and reports arguments left over through the top-level parser, as
parse_args does; anything else (no arguments, -h, an unknown command) goes
to the top-level parser. Either way every usage error prints what a full
parse prints.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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
    _dataset_chunks,
    _write_in_place,
    read_dataset,
    sample,
    sufficient_stats,
    to_orthogonal,
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

_PRIORS = {p.name: p for p in (MATCHING_PRIOR, FLAT_PRIOR)}

_QUANTILE_PROBS = (0.025, 0.25, 0.5, 0.75, 0.975)


def _list_of(kind):
    """argparse type for a comma-separated list of kind (float or int)."""

    def parse(text: str):
        try:
            values = tuple(kind(tok) for tok in text.split(",") if tok.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a comma-separated {kind.__name__} list: {text!r}")
        if not values:
            raise argparse.ArgumentTypeError("empty list")
        return values

    return parse


def _grid_axis(text: str):
    try:
        lo, hi, count = text.split(":")
        return (float(lo), float(hi), int(count))
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid axis must be lo:hi:count, got {text!r}")


def _add_model_flags(sub, rho_default=0.0):
    sub.add_argument("--mu1", type=float, default=0.0, help="mean of x1")
    sub.add_argument("--mu2", type=float, default=0.0, help="mean of x2")
    sub.add_argument("--sigma1", type=float, default=1.0, help="sd of x1")
    sub.add_argument("--sigma2", type=float, default=1.0, help="sd of x2")
    sub.add_argument("--rho", type=float, default=rho_default, help="correlation")


def _read_stats(path):
    return sufficient_stats(read_dataset(sys.stdin if path == "-" else path))


def _json(payload):
    """The one chunk of payload as indented JSON."""
    return (json.dumps(payload, indent=2) + "\n",)


def _cmd_sample(args):
    params = OriginalParams(args.mu1, args.mu2, args.sigma1, args.sigma2, args.rho)
    return _dataset_chunks(sample(params, args.n, args.seed)), 0


def _cmd_stats(args):
    return _json(dataclasses.asdict(_read_stats(args.input))), 0


def _cmd_posterior(args):
    st = _read_stats(args.input)
    dist = _POSTERIORS[args.param](st)
    quantiles = dict(zip((f"{p:g}" for p in _QUANTILE_PROBS),
                         dist.quantile(_QUANTILE_PROBS).tolist()))
    payload = {
        "param": dist.param_id,
        "n": st.n,
        "mode": dist.mode(),
        "mean": dist.mean(),
        "median": quantiles["0.5"],
        "quantiles": quantiles,
    }
    return _json(payload), 0


def _cmd_interval(args):
    dist = _POSTERIORS[args.param](_read_stats(args.input))
    if args.kind == "hpd":
        iv = hpd_unimodal(dist, args.level)
    elif args.kind == "equal_tailed":
        iv = equal_tailed(dist, args.level)
    else:
        iv = one_sided(dist, args.level, args.kind.removesuffix("_one_sided"))
    return _json(iv.to_dict()), 0


def _cmd_coverage(args):
    report = run_table(
        rhos=args.rhos,
        ns=args.ns,
        level=args.level,
        replicates=args.replicates,
        kind=args.kind,
        seed=args.seed,
    )
    text = report.to_markdown() if args.format == "markdown" else report.to_csv()
    return (text,), 0 if report.all_ok else 4


def _cmd_verify_lemma(args):
    point = to_orthogonal(
        OriginalParams(args.mu1, args.mu2, args.sigma1, args.sigma2, args.rho)
    )
    checks = verify_score_moments(point, n_samples=args.samples, seed=args.seed)
    code = 0 if all(c.passed for c in checks) else 4
    if args.format == "csv":
        return (moment_report_csv(checks),), code
    if args.format == "json":
        return _json([dataclasses.asdict(c) for c in checks]), code
    header = (
        f"moment checks at beta={point.beta:.6g} theta={point.theta:.6g} "
        f"eta={point.eta:.6g}, {args.samples} samples, seed {args.seed}\n"
    )
    return (header + moment_report_table(checks),), code


def _cmd_verify_prior(args):
    prior = _PRIORS[args.prior]
    grid = GridSpec(beta=args.grid_beta, theta=args.grid_theta, eta=args.grid_eta)
    reports = verify_prior(prior, grid)
    code = 0 if all(r.passed for r in reports) else 4
    if args.format == "csv":
        return (residual_report_csv(reports),), code
    if args.format == "json":
        return _json([{**dataclasses.asdict(r), "pass": r.passed} for r in reports]), code
    title = f"matching-condition residuals for the {prior.name} prior\n"
    return (title + residual_report_table(reports),), code


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
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("stats", help="sufficient statistics of a dataset as JSON")
    p.add_argument("--input", required=True, help="dataset CSV path, or - for stdin")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("posterior", help="summary of one marginal posterior as JSON")
    p.add_argument("--input", required=True, help="dataset CSV path, or - for stdin")
    p.add_argument("--param", required=True, choices=sorted(_POSTERIORS))
    p.set_defaults(func=_cmd_posterior)

    p = sub.add_parser("interval", help="credible interval as JSON")
    p.add_argument("--input", required=True, help="dataset CSV path, or - for stdin")
    p.add_argument("--param", required=True, choices=sorted(_POSTERIORS))
    p.add_argument("--kind", default="hpd", choices=KINDS)
    p.add_argument("--level", type=float, default=0.95)
    p.set_defaults(func=_cmd_interval)

    p = sub.add_parser("coverage", help="frequentist coverage simulation table")
    p.add_argument("--rhos", type=_list_of(float), default=TABLE_RHOS)
    p.add_argument("--ns", type=_list_of(int), default=TABLE_NS)
    p.add_argument("--replicates", type=int, default=5000)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--kind", default="hpd", choices=KINDS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--format", default="csv", choices=("csv", "markdown"))
    p.set_defaults(func=_cmd_coverage)

    p = sub.add_parser(
        "verify-lemma",
        help="Monte Carlo check of the closed-form log-density moments",
    )
    _add_model_flags(p, rho_default=0.5)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--format", default="table", choices=("table", "csv", "json"))
    p.set_defaults(func=_cmd_verify_lemma)

    p = sub.add_parser(
        "verify-prior",
        help="grid residuals of the matching conditions for a prior",
    )
    p.add_argument(
        "prior",
        nargs="?",
        default="matching",
        choices=_PRIORS,
        help="which built-in prior to check",
    )
    # argparse reads the -2:2:9 of "--grid-beta -2:2:9" as an option, so a
    # negative bound needs the = form
    for axis, default, note in (
        ("beta", (-2.0, 2.0, 9), "-2:2:9 (a negative LO needs this = form)"),
        ("theta", (0.5, 3.0, 9), "0.5:3:9, LO > 0"),
        ("eta", (0.5, 3.0, 9), "0.5:3:9, LO > 0"),
    ):
        p.add_argument(
            f"--grid-{axis}", type=_grid_axis, default=default, metavar="LO:HI:COUNT",
            help=f"{axis} axis of the grid, default --grid-{axis}={note}",
        )
    p.add_argument("--format", default="table", choices=("table", "csv", "json"))
    p.set_defaults(func=_cmd_verify_prior)

    # the last option of every command
    for p in sub.choices.values():
        p.add_argument("--output", default=None, help="output path (default stdout)")

    # main() hands a named command's arguments to its parser directly
    parser.commands = sub.choices
    return parser


# parsing leaves no state in the parser, so one serves every main() call
_parser = functools.cache(build_parser)


def _parse(argv):
    """build_parser().parse_args(argv), in one argparse pass for a named command.

    The top-level parser would hand every argument after the command to
    the command's parser; here that parser gets them directly, and what it
    leaves over is reported by the top-level parser, as parse_args does.
    """
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        chunks, code = args.func(args)
        _write_in_place(sys.stdout if args.output is None else args.output, chunks)
        return code
    except (DomainError, DegenerateDataError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, BracketError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ArithmeticError as exc:
        # float overflow or division by zero at extreme parameters
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
