"""End-to-end command-line behavior, including exit codes and determinism."""

import argparse
import csv
import errno
import functools
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from bvnprior import cli, matching
from bvnprior.cli import main
from bvnprior.coverage import DEFAULT_SEED
from bvnprior.matching import MATCHING_PRIOR, GridSpec, residual_report_csv, verify_prior

SRC = str(Path(__file__).resolve().parents[1] / "src")
DEMOS = Path(__file__).resolve().parents[1] / "demos"
# modules that only some calls need; importing the package must not load them
LAZY_MODULES = (
    "scipy.special",
    "scipy.stats",
    "scipy.optimize",
    "scipy.integrate",
    "concurrent.futures.process",
)
# what `python -m bvnprior.cli ARGV` runs, for a fresh interpreter
RUN_CLI = "import runpy; runpy.run_module('bvnprior.cli', run_name='__main__', alter_sys=True)"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def dataset(tmp_path, capsys):
    path = tmp_path / "data.csv"
    code = main(
        ["sample", "--n", "12", "--rho", "0.6", "--seed", "99", "--output", str(path)]
    )
    capsys.readouterr()
    assert code == 0
    return path


def test_sample_writes_csv_and_respects_default_seed(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "sample", "--n", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x1,x2"
    assert len(lines) == 6
    code2, out2, _ = run_cli(capsys, "sample", "--n", "5")
    assert out2 == out  # same default seed, byte-identical
    code3, out3, _ = run_cli(capsys, "sample", "--n", "5", "--seed", str(DEFAULT_SEED))
    assert out3 == out


def test_stats_reports_sufficient_statistics(dataset, capsys):
    code, out, _ = run_cli(capsys, "stats", "--input", str(dataset))
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 12
    assert payload["s11"] > 0 and payload["s22_1"] > 0
    assert set(payload) == {"n", "xbar1", "xbar2", "s11", "s22", "s12", "s22_1"}


def test_posterior_summary(dataset, capsys):
    code, out, _ = run_cli(capsys, "posterior", "--input", str(dataset), "--param", "theta")
    assert code == 0
    payload = json.loads(out)
    assert payload["param"] == "theta"
    qs = payload["quantiles"]
    assert qs["0.025"] < qs["0.5"] < qs["0.975"]
    assert payload["median"] == qs["0.5"]


def test_posterior_handles_all_parameters(dataset, capsys):
    for param in ("beta", "theta", "w", "eta"):
        code, out, _ = run_cli(
            capsys, "posterior", "--input", str(dataset), "--param", param
        )
        assert code == 0
        assert json.loads(out)["mode"] is not None


def test_interval_kinds(dataset, capsys):
    code, out, _ = run_cli(
        capsys, "interval", "--input", str(dataset), "--param", "eta",
        "--kind", "hpd", "--level", "0.9",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "hpd"
    assert payload["level"] == 0.9
    assert payload["lo"] < payload["hi"]
    assert abs(payload["achieved_mass"] - 0.9) < 1e-6

    code, out, _ = run_cli(
        capsys, "interval", "--input", str(dataset), "--param", "beta",
        "--kind", "lower_one_sided",
    )
    payload = json.loads(out)
    assert payload["hi"] is None


def test_interval_reads_stdin(dataset, capsys, monkeypatch):
    import io

    text = dataset.read_text()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, _ = run_cli(
        capsys, "interval", "--input", "-", "--param", "theta", "--kind", "equal_tailed"
    )
    assert code == 0
    assert json.loads(out)["kind"] == "equal_tailed"


def test_coverage_csv_and_markdown(capsys):
    args = (
        "coverage", "--rhos", "0.5", "--ns", "4,8", "--replicates", "200",
        "--seed", "7",
    )
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert out.splitlines()[0] == "rho,n,param,kind,level,coverage,stderr,replicates,failures"
    assert len(out.strip().splitlines()) == 1 + 6

    code2, out2, _ = run_cli(capsys, *args)
    assert out2 == out  # byte-identical rerun

    code3, md, _ = run_cli(capsys, *args, "--format", "markdown")
    assert code3 == 0
    assert "| rho | n | beta | theta | eta |" in md


def test_verify_prior_matching_passes(capsys):
    code, out, _ = run_cli(capsys, "verify-prior", "matching", "--format", "csv")
    assert code == 0
    assert out.count("true") == 11


def test_verify_prior_flat_fails_with_exit_4(capsys):
    code, out, _ = run_cli(capsys, "verify-prior", "flat")
    assert code == 4
    assert "NO" in out


@pytest.mark.parametrize("prior, grid, code, digest", [
    ("matching", (), 0, "a7e95329753f8995cabe0b616c413cfa8357ea364479bb3d25d56fcb30c86ce0"),
    ("matching", ("--grid-beta=-2.1:2.3:11", "--grid-theta=0.6:3.1:11", "--grid-eta=0.55:2.9:11"),
     0, "15fa19e94079364040609a4d208c32489cd83eaa3559f3da94243323b97c4999"),
    ("flat", (), 4, "88d0d69aa3106c7749ead0184fa6fa3e9ab17e528dcbcff11658685af64c7eb5"),
    ("flat", ("--grid-beta=-2.1:2.3:11", "--grid-theta=0.6:3.1:11", "--grid-eta=0.55:2.9:11"),
     4, "1296e365bbc795a7490101131710e5051aa851fbd0bbb51fb810bbb1bc742f2a"),
], ids=["matching-default", "matching-11^3", "flat-default", "flat-11^3"])
def test_verify_prior_csv_is_pinned(capsys, prior, grid, code, digest):
    # the matching prior's residuals are rounding noise printed to 7 digits,
    # so any change to the order in which an identity's terms are rounded
    # shows here; such a change must update these hashes knowingly
    got, out, _ = run_cli(capsys, "verify-prior", prior, "--format", "csv", *grid)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


_PINNED_LEVELS = ("0.5", "0.95", "0.999999", repr(1.0 - 1e-14))


def test_interval_and_posterior_outputs_are_pinned(tmp_path, capsys):
    # every interval and posterior summary, exit code and bytes, over the
    # kinds and far levels and down to n = 3, where the precision density
    # is monotone and its HPD request falls back to one-sided; any change
    # to how a bound or quantile is computed shows here
    digest = hashlib.sha256()
    for n in (3, 4, 10, 200):
        path = tmp_path / f"n{n}.csv"
        assert main(["sample", "--n", str(n), "--rho", "0.6", "--seed", str(n),
                     "--output", str(path)]) == 0
        for param in sorted(cli._POSTERIORS):
            requests = [("posterior", "--param", param)] + [
                ("interval", "--param", param, "--kind", kind, "--level", level)
                for kind in cli.KINDS
                for level in _PINNED_LEVELS
            ]
            for command, *flags in requests:
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "density is monotone", RuntimeWarning)
                    code, out, err = run_cli(capsys, command, "--input", str(path), *flags)
                digest.update(f"{code}\n{out}\n{err}\n".encode())
    assert digest.hexdigest() == "c058673683697ab6bff5921451c4eff620f44ab38bb57749776ad2bb20c5756e"


def test_verify_prior_custom_grid_and_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify-prior", "matching",
        "--grid-beta=-1:1:3", "--grid-theta", "0.8:2:3", "--grid-eta", "0.8:2:3",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 11
    assert all(entry["pass"] for entry in payload)
    assert payload[0]["n_points"] == 27


def test_verify_prior_negative_bound_needs_the_equals_form(capsys):
    code, out, err = run_cli(
        capsys, "verify-prior", "--grid-beta=-2:2:5", "--grid-theta=0.6:2.5:4",
        "--grid-eta=0.7:3:3", "--format", "csv",
    )
    grid = GridSpec(beta=(-2.0, 2.0, 5), theta=(0.6, 2.5, 4), eta=(0.7, 3.0, 3))
    assert (code, err) == (0, "")
    assert out == residual_report_csv(verify_prior(MATCHING_PRIOR, grid))
    # the space form reads -2:2:5 as an option: a usage error, not a traceback
    code, out, err = run_cli(capsys, "verify-prior", "--grid-beta", "-2:2:5")
    assert code == 2
    assert out == ""
    assert "expected one argument" in err and "Traceback" not in err


def test_verify_lemma_quick(capsys):
    code, out, _ = run_cli(
        capsys, "verify-lemma", "--samples", "100000", "--seed", "1", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "moment,claimed,estimate,stderr,n_samples,pass"
    assert len(lines) == 1 + 15
    assert all(line.endswith(",true") for line in lines[1:])


def test_verify_lemma_table_and_json_carry_the_csv_checks(capsys):
    argv = ("verify-lemma", "--samples", "100000", "--seed", "1")
    runs = {fmt: run_cli(capsys, *argv, "--format", fmt) for fmt in ("csv", "json")}
    runs["default"] = run_cli(capsys, *argv)
    assert [(code, err) for code, _, err in runs.values()] == [(0, "")] * 3
    rows = list(csv.DictReader(io.StringIO(runs["csv"][1])))
    assert len(rows) == 15
    assert [(c["label"], repr(c["estimate"]), c["n_samples"], c["passed"])
            for c in json.loads(runs["json"][1])] == [
        (r["moment"], r["estimate"], int(r["n_samples"]), r["pass"] == "true") for r in rows
    ]
    # the default is the table: a header naming the point, samples and seed,
    # then one line per check
    header, columns, *table = runs["default"][1].splitlines()
    assert header.startswith("moment checks at beta=0.5 ")
    assert header.endswith(", 100000 samples, seed 1")
    assert columns.split() == ["moment", "claimed", "estimate", "stderr", "pass"]
    assert len(table) == len(rows)
    assert all(line.startswith(r["moment"] + " ") and line.endswith(" yes")
               for line, r in zip(table, rows))


@pytest.mark.parametrize("argv, message", [
    (("coverage", "--ns", "4,x"), "not a comma-separated int list: '4,x'"),
    (("coverage", "--rhos", "0.5,y"), "not a comma-separated float list: '0.5,y'"),
    (("coverage", "--ns", ","), "empty list"),
    (("verify-prior", "--grid-beta=a:2:3"), "grid axis must be lo:hi:count, got 'a:2:3'"),
    (("verify-prior", "--grid-eta=0.5:3:x"), "grid axis must be lo:hi:count, got '0.5:3:x'"),
], ids=["int-list", "float-list", "empty-list", "axis-bound", "axis-count"])
def test_list_and_grid_axis_type_errors_exit_2_with_one_error_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].endswith(message)
    assert "Traceback" not in err


def test_verify_lemma_does_not_depend_on_the_means(capsys):
    # x - mu at |mu| = 1e16 would round every residual to a multiple of 2
    # and fail 14 of the 15 identities (exit 4); the means do not enter
    far = run_cli(capsys, "verify-lemma", "--mu1", "1e16", "--mu2=-1e16", "--samples", "100000",
                  "--seed", "3", "--format", "csv")
    near = run_cli(capsys, "verify-lemma", "--mu1", "0", "--mu2=0", "--samples", "100000",
                   "--seed", "3", "--format", "csv")
    assert far == near
    assert far[0] == 0 and far[2] == ""


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "sample")[0] == 2  # missing --n
    assert run_cli(capsys, "nonsense")[0] == 2
    assert run_cli(capsys, "interval", "--input", "x.csv", "--param", "zeta")[0] == 2
    assert run_cli(capsys, "verify-prior", "--grid-beta", "oops")[0] == 2
    assert run_cli(capsys)[0] == 2


def test_domain_errors_exit_3(tmp_path, capsys):
    code, _, err = run_cli(capsys, "sample", "--n", "5", "--rho", "1.0")
    assert code == 3
    assert "error:" in err

    missing = tmp_path / "missing.csv"
    assert run_cli(capsys, "stats", "--input", str(missing))[0] == 3

    code, _, err = run_cli(capsys, "stats", "--input", str(tmp_path))  # a directory
    assert code == 3
    assert "error:" in err

    collinear = tmp_path / "line.csv"
    collinear.write_text("x1,x2\n0,1\n1,3\n2,5\n3,7\n")
    code, _, err = run_cli(capsys, "stats", "--input", str(collinear))
    assert code == 3
    assert "collinear" in err

    inexact = tmp_path / "inexact_line.csv"
    inexact.write_text(
        "x1,x2\n" + "".join(f"{x!r},{0.3 * x + 0.1!r}\n" for x in (0.1, 0.7, 1.3, 2.9, 3.3))
    )
    code, _, err = run_cli(capsys, "stats", "--input", str(inexact))
    assert code == 3
    assert "collinear" in err

    undecodable = tmp_path / "latin1.csv"
    undecodable.write_bytes(b"x1,x2\n1,2\n\xff\xfe,3\n")
    code, _, err = run_cli(capsys, "stats", "--input", str(undecodable))
    assert code == 3
    assert err.startswith("error:")


# a file with rows holds three good ones besides its defect, so that only
# the defect can fail the read
@pytest.mark.parametrize(
    "content",
    [
        b"x1,x2\n1,2\n3\n2,5\n4,1\n",
        b"x1,x2\n1,2\nabc,3\n2,5\n4,1\n",
        b"x1,x2\n1,2\n   \n2,5\n4,1\n",
        b"x1,x2\n1,2\n# a comment\n2,5\n4,1\n",
        b"x1,x2\n",
        b"x1,x2\n\n\n",
        b"",
        b"x1,x2\n1,2\n\xff\xfe,3\n2,5\n4,1\n",
        # float() took these; the CSV format is ASCII decimal floats only
        b"x1,x2\n1_0,2\n2,5\n4,1\n",
        "x1,x2\n\u0661,2\n2,5\n4,1\n".encode(),
        "x1,x2\n\uff11,2\n2,5\n4,1\n".encode(),
    ],
    ids=[
        "missing_column", "non_numeric", "whitespace_line", "comment_line", "header_only",
        "blank_lines_only", "empty_file", "undecodable", "underscore_digits",
        "arabic_indic_digit", "fullwidth_digit",
    ],
)
def test_malformed_dataset_exits_3(tmp_path, capsys, content):
    path = tmp_path / "bad.csv"
    path.write_bytes(content)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "stats", "--input", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("error:")
    assert caught == []


@pytest.mark.parametrize("param", ["beta", "theta", "w", "eta"])
@pytest.mark.parametrize("level", ["1e-17", "1e-300"])
def test_level_below_resolution_exits_3(dataset, capsys, param, level):
    # 1 - level rounds to 1, so no tail split can resolve the interval
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            capsys, "interval", "--input", str(dataset), "--param", param, "--level", level
        )
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "level" in err
    assert caught == []


@pytest.mark.parametrize("n, rho, param, kind, level", [
    ("3", "0.3", "theta", "hpd", "1e-16"),
    ("5", "-0.99999999999", "beta", "equal_tailed", "1e-12"),
], ids=["theta-n3", "beta-near-collinear"])
def test_interval_narrower_than_one_float_step_exits_4(tmp_path, capsys, n, rho, param, kind,
                                                        level):
    # a valid level whose ends round to one float, or cross, at the
    # posterior's location: a numerical limit, not a domain error
    path = tmp_path / "d.csv"
    assert main(["sample", "--n", n, "--rho", rho, "--seed", "1", "--output", str(path)]) == 0
    request = ("interval", "--input", str(path), "--param", param, "--kind", kind)
    code, out, err = run_cli(capsys, *request, "--level", level)
    assert (code, out) == (4, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(
        f"error: the {param} interval at level {level} is narrower than one float step at "
    )
    code, out, err = run_cli(capsys, *request, "--level", "1e-06")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["lo"] < payload["hi"]


@pytest.mark.parametrize(
    "argv",
    [
        # every cell used to fail inside the interval solver: a header-only
        # CSV, nothing on stderr, exit 4
        ("coverage", "--level", "1e-17", "--ns", "4", "--rhos", "0.5", "--replicates", "100"),
        ("coverage", "--level", "1.0", "--replicates", "100"),
        # outside [0, 2**64) seeds used to alias onto others
        ("coverage", "--seed", "18446744073709551616", "--replicates", "100"),
        ("coverage", "--seed", "-1", "--replicates", "100"),
        ("coverage", "--replicates", "99"),
        ("coverage", "--ns", "3,8", "--replicates", "100"),
        ("sample", "--n", "0"),
        ("sample", "--n", "5", "--seed", "-1"),
        ("verify-lemma", "--samples", "99999"),
        ("verify-lemma", "--samples", "100000", "--seed", "-1"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_bad_counts_seeds_and_levels_exit_3_with_one_error_line(capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err
    assert caught == []


@pytest.mark.parametrize("kind", ["equal_tailed", "hpd"])
def test_coverage_at_huge_n(capsys, kind):
    # the statistics are drawn directly, so n = 1e9 costs what n = 4 does
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            capsys, "coverage", "--rhos", "0.5", "--ns", "1000000000",
            "--replicates", "200", "--kind", kind,
        )
    assert code == 0, err
    assert caught == []
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 3
    for row in rows:
        fields = row.split(",")
        assert fields[1] == "1000000000" and fields[3] == kind
        assert 0.0 < float(fields[5]) <= 1.0 and fields[8] == "0"


@pytest.mark.parametrize(
    "argv",
    [
        ("--grid-theta=0.5:inf:3",),
        ("--grid-beta=-inf:1:3",),
        ("--grid-eta=nan:2:3",),
        ("--grid-beta=-1e308:1e308:3",),
    ],
)
def test_non_finite_grid_bounds_exit_3(capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "verify-prior", "matching", *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "finite" in err
    assert caught == []


# the analytic partials of 1/(theta eta) overflow at theta near 1e-300
TINY_THETA_CSV = """\
condition_id,prior,max_abs_residual,worst_beta,worst_theta,worst_eta,pass
dist_fn_A1_beta,matching,inf,-2.0,1e-300,0.5,false
dist_fn_A2_beta,matching,0.000000e+00,-2.0,1e-300,0.5,true
dist_fn_theta,matching,nan,-2.0,1e-300,0.5,false
dist_fn_eta_main,matching,inf,-2.0,1e-300,0.5,false
dist_fn_eta_aux,matching,1.115263e+284,-2.0,1e-300,3.0,false
hpd_beta_pde,matching,inf,-2.0,1e-300,0.5,false
hpd_theta_pde,matching,nan,-2.0,1e-300,0.5,false
hpd_eta_pde,matching,inf,-2.0,1e-300,0.5,false
lr_beta_pde,matching,inf,-2.0,1e-300,0.5,false
lr_theta_pde,matching,nan,-2.0,1e-300,0.5,false
lr_eta_pde,matching,inf,-2.0,1e-300,0.5,false
"""


def test_overflowing_analytic_partials_fail_without_warnings(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            capsys, "verify-prior", "matching", "--format", "csv", "--grid-theta=1e-300:1e-299:3"
        )
    assert (code, err, caught) == (4, "", [])
    assert out == TINY_THETA_CSV


def test_unallocatable_sample_count_exits_3(capsys):
    # 1e16 pairs need 142 PiB, beyond the x86-64 user address space, so
    # numpy refuses the allocation at once and no memory is touched
    code, _, err = run_cli(capsys, "verify-lemma", "--samples", "10000000000000000")
    assert code == 3
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("sample", "--n", "5", "--seed", "-1"),
        ("verify-lemma", "--samples", "100000", "--seed", "-1"),
        ("verify-lemma", "--samples", "100000", "--sigma1", "1e200"),
        ("verify-lemma", "--samples", "100000", "--sigma1", "1e-200"),
        ("verify-lemma", "--samples", "100000", "--sigma1", "1e100"),
    ],
)
def test_extreme_inputs_exit_cleanly(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code in (0, 3, 4)
    assert "Traceback" not in err
    if code:
        assert err.splitlines()[-1].startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("sample", "--n", "50", "--seed", "2", "--sigma2", "1e308", "--output", "{out}"),
        ("stats", "--input", "{huge}"),
        ("posterior", "--param", "theta", "--input", "{huge}"),
        ("interval", "--param", "theta", "--input", "{huge}"),
    ],
    ids=["sample", "stats", "posterior", "interval"],
)
def test_float_overflow_prints_one_error_line_and_writes_nothing(tmp_path, capsys, argv):
    # sigma2 = 1e308 overflows some draws, and the centred sums of squares
    # of these rows overflow a float
    huge, out_path = tmp_path / "huge.csv", tmp_path / "out.csv"
    huge.write_text("x1,x2\n1e200,2e200\n-1e200,3e200\n2e200,-1e200\n5e199,1e199\n")
    code, out, err = run_cli(capsys, *(arg.format(huge=huge, out=out_path) for arg in argv))
    assert (code, out) == (4, "") and not out_path.exists()
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("sigma1", ["1e100", "1e150", "1e300", "1e-150"])
def test_verify_lemma_float_failure_prints_one_error_line(capsys, sigma1):
    # pyproject.toml turns numpy's floating-point warnings into errors, so a
    # leaked warning fails here
    code, out, err = run_cli(capsys, "verify-lemma", "--samples", "100000", "--sigma1", sigma1)
    assert code == 4
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


_FOUR_ROWS = ((1.0, 2.0), (-1.0, 3.0), (2.0, -1.0), (0.5, 0.1))


def _four_rows(tmp_path, s1, s2):
    """The four rows with x1 times s1 and x2 times s2, as a CSV path."""
    path = tmp_path / f"rows_{s1!r}_{s2!r}.csv"
    path.write_text("x1,x2\n" + "".join(f"{a * s1!r},{b * s2!r}\n" for a, b in _FOUR_ROWS))
    return str(path)


_POSTERIOR_REQUESTS = (("posterior",), ("interval", "--level", "0.9"))


def _close(got, expected):
    """JSON payloads equal up to a relative 1e-12 in every float."""
    if isinstance(expected, dict):
        return got.keys() == expected.keys() and all(_close(got[k], expected[k]) for k in expected)
    if isinstance(expected, float):
        return got == pytest.approx(expected, rel=1e-12)
    return got == expected


@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_posterior_scales_outside_the_float_range_exit_4(tmp_path, capsys, scale):
    # r = sqrt(S11 S22.1) underflows at 1e-150 and overflows at 1e150, and
    # w's scale is 1/r; beta and eta do not depend on the common scale
    path = _four_rows(tmp_path, scale, scale)
    for param in ("theta", "w"):
        for command in _POSTERIOR_REQUESTS:
            code, out, err = run_cli(capsys, *command, "--input", path, "--param", param)
            assert (code, out) == (4, "")
            assert len(err.splitlines()) == 1
            assert err.startswith("error: the ") and "leaves the float range" in err
    unscaled = _four_rows(tmp_path, 1.0, 1.0)
    for param in ("beta", "eta"):
        for command in _POSTERIOR_REQUESTS:
            code, out, err = run_cli(capsys, *command, "--input", path, "--param", param)
            assert (code, err) == (0, "")
            _, expected, _ = run_cli(capsys, *command, "--input", unscaled, "--param", param)
            assert _close(json.loads(out), json.loads(expected))


# the commands that compute the sufficient statistics of their input
_STATS_REQUESTS = [("stats",)] + [(*command, "--param", "eta") for command in _POSTERIOR_REQUESTS]


@pytest.mark.parametrize("s1, s2, column, sums", [
    (1e-170, 1e-170, "x1", "s11"),
    (1.0, 1e-170, "x2", "s22"),
], ids=["x1", "x2"])
def test_squared_deviations_that_underflow_exit_4(tmp_path, capsys, s1, s2, column, sums):
    # the data vary, but every squared deviation of one column underflows
    path = _four_rows(tmp_path, s1, s2)
    for command in _STATS_REQUESTS:
        code, out, err = run_cli(capsys, *command, "--input", path)
        assert (code, out) == (4, "")
        assert err == f"error: the squared deviations of {column} underflow to 0 ({sums} = 0)\n"


def test_coincident_and_collinear_data_keep_exit_3(tmp_path, capsys):
    coincident = tmp_path / "coincident.csv"
    coincident.write_text("x1,x2\n1e-170,1\n1e-170,3\n1e-170,-1\n")
    constant_x2 = _four_rows(tmp_path, 1.0, 0.0)
    for path, message in ((coincident, "all x1 values coincide (s11 = 0)"),
                          (constant_x2, "pairs are exactly collinear (s22.1 = 0)")):
        for command in _STATS_REQUESTS:
            code, out, err = run_cli(capsys, *command, "--input", str(path))
            assert (code, out, err) == (3, "", f"error: {message}\n")


def test_verify_lemma_rejects_an_unrepresentable_claim_before_sampling(capsys, monkeypatch):
    # eta is about 8.7e149 here, so the claimed 1/eta^3 overflows a float
    draws = []
    monkeypatch.setattr(matching, "_draw_residual_powers", lambda *args: draws.append(args))
    code, out, err = run_cli(capsys, "verify-lemma", "--samples", "100000", "--sigma1", "1e-150")
    assert code == 4
    assert out == "" and draws == []
    assert err == (
        "error: the claimed value of E[d3l/dbeta2 deta] is not a finite float at "
        "theta=8.660254037844386e-151, eta=8.660254037844385e+149\n"
    )


# a quick call of every subcommand that takes --output
OUTPUT_ARGVS = {
    "sample": ("sample", "--n", "7", "--seed", "5"),
    "stats": ("stats", "--input", "{data}"),
    "posterior": ("posterior", "--input", "{data}", "--param", "eta"),
    "interval": ("interval", "--input", "{data}", "--param", "theta"),
    "coverage": ("coverage", "--rhos", "0.5", "--ns", "4", "--replicates", "100", "--seed", "3"),
    "verify-lemma": ("verify-lemma", "--samples", "100000", "--format", "csv"),
    "verify-prior": ("verify-prior", "--grid-beta=-1:1:3", "--grid-theta", "0.8:2:3",
                     "--grid-eta", "0.8:2:3"),
}


@pytest.mark.parametrize("command", sorted(OUTPUT_ARGVS))
def test_output_flag_writes_files(tmp_path, dataset, capsys, command):
    argv = [arg.format(data=dataset) for arg in OUTPUT_ARGVS[command]]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    # over a longer file: cut to the output, same inode and mode
    target = tmp_path / "existing"
    target.write_bytes(b"stale line\n" * (len(out) // 5 + 10))
    target.chmod(0o640)
    before = target.stat()
    assert run_cli(capsys, *argv, "--output", str(target)) == (0, "", "")
    after = target.stat()
    assert target.read_bytes() == out.encode("utf-8")
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
    # a new file gets the mode that open(path, "w") gives
    fresh, reference = tmp_path / "fresh", tmp_path / "reference"
    reference.write_text("")
    assert run_cli(capsys, *argv, "--output", str(fresh)) == (0, "", "")
    assert fresh.read_bytes() == out.encode("utf-8")
    assert fresh.stat().st_mode == reference.stat().st_mode


def _count_writes(monkeypatch):
    """The files cli._write_in_place is called with, which it still writes."""
    files, write = [], cli._write_in_place

    def counting(file, chunks):
        files.append(file)
        write(file, chunks)

    monkeypatch.setattr(cli, "_write_in_place", counting)
    return files


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
@pytest.mark.parametrize("argv, expected", [
    *((OUTPUT_ARGVS[command], 0) for command in sorted(OUTPUT_ARGVS)),
    (("verify-prior", "flat", "--grid-beta=-1:1:3"), 4),
], ids=[*sorted(OUTPUT_ARGVS), "verify-prior-fails"])
def test_every_command_writes_its_result_once(tmp_path, dataset, capsys, monkeypatch, argv,
                                              expected, to_file):
    target = tmp_path / "out"
    argv = [arg.format(data=dataset) for arg in argv] + (["--output", str(target)] * to_file)
    files = _count_writes(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (expected, "")
    assert len(files) == 1
    if to_file:
        assert files == [str(target)] and out == "" and target.stat().st_size > 0
    else:
        assert not isinstance(files[0], str) and out != ""


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
@pytest.mark.parametrize("argv, expected", [
    (("stats", "--input", "{collinear}"), 3),
    (("stats", "--input", "{missing}"), 3),
    (("sample", "--n", "50", "--seed", "2", "--sigma2", "1e308"), 4),
], ids=["degenerate", "unreadable", "overflowing_draw"])
def test_an_error_exit_writes_nothing(tmp_path, capsys, monkeypatch, argv, expected, to_file):
    collinear, target = tmp_path / "collinear.csv", tmp_path / "out"
    collinear.write_text("x1,x2\n1,2\n2,4\n3,6\n4,8\n")
    names = {"collinear": collinear, "missing": tmp_path / "missing.csv"}
    argv = [arg.format(**names) for arg in argv] + (["--output", str(target)] * to_file)
    files = _count_writes(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, files) == (expected, "", [])
    assert err.startswith("error:") and not target.exists()


def test_output_through_a_symlink_writes_its_target(tmp_path, dataset, capsys):
    argv = ("interval", "--input", str(dataset), "--param", "beta")
    _, out, _ = run_cli(capsys, *argv)
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("x" * 4096)
    link.symlink_to(target)
    assert run_cli(capsys, *argv, "--output", str(link)) == (0, "", "")
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text() == out


def test_output_to_the_null_device_exits_zero(dataset, capsys):
    argv = ("posterior", "--input", str(dataset), "--param", "w", "--output", os.devnull)
    assert run_cli(capsys, *argv) == (0, "", "")


def _failing_after_one_chunk(chunk, real_write=os.write):
    """An os.write that writes the first chunk bytes of its first call, then raises ENOSPC."""
    calls = []

    def write(fd, data):
        calls.append(len(data))
        if len(calls) > 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real_write(fd, bytes(data[:chunk]))

    return write


def test_a_failed_write_exits_3_with_the_file_cut_to_the_bytes_written(
    tmp_path, dataset, capsys, monkeypatch
):
    argv = ("interval", "--input", str(dataset), "--param", "eta")
    _, out, _ = run_cli(capsys, *argv)
    target = tmp_path / "out.json"
    target.write_text("y" * 4096)
    monkeypatch.setattr(os, "write", _failing_after_one_chunk(10))
    code, stdout, err = run_cli(capsys, *argv, "--output", str(target))
    monkeypatch.undo()
    assert (code, stdout) == (3, "")
    assert err.startswith("error:") and "Traceback" not in err
    assert target.read_bytes() == out.encode("utf-8")[:10]


def test_output_is_opened_without_truncation(tmp_path, dataset, capsys, monkeypatch):
    opened = []
    real_open = os.open

    def recording_open(path, flags, *args, **kwargs):
        opened.append((os.fspath(path), flags))
        return real_open(path, flags, *args, **kwargs)

    target = tmp_path / "out.json"
    target.write_text("z" * 4096)
    monkeypatch.setattr(os, "open", recording_open)
    code = main(["interval", "--input", str(dataset), "--param", "theta",
                 "--output", str(target)])
    monkeypatch.undo()
    capsys.readouterr()
    assert code == 0
    flags = [f for path, f in opened if path == str(target)]
    assert len(flags) == 1
    assert flags[0] & os.O_WRONLY and flags[0] & os.O_CREAT
    assert not flags[0] & os.O_TRUNC


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize(
    "argv, failing_write, expected",
    [
        (("interval", "--input", "{data}", "--param", "theta", "--output", "{out}"), False, 0),
        (("sample", "--n", "9", "--output", "{out}"), False, 0),
        (("interval", "--input", "{data}", "--param", "theta", "--output", "{out}"), True, 3),
        (("sample", "--n", "9", "--output", "{out}"), True, 3),
        (("stats", "--input", "{missing}", "--output", "{out}"), False, 3),
        (("stats", "--input", "{data}", "--output", "{tmp}"), False, 3),
        (("verify-prior", "flat", "--grid-beta=-1:1:3", "--output", "{out}"), False, 4),
    ],
    ids=["interval", "sample", "interval_write_fails", "sample_write_fails", "missing_input",
         "output_is_a_directory", "verify_fails"],
)
def test_main_leaves_no_file_descriptor_open(
    tmp_path, dataset, capsys, monkeypatch, argv, failing_write, expected
):
    names = {"data": dataset, "out": tmp_path / "out", "tmp": tmp_path,
             "missing": tmp_path / "missing.csv"}
    argv = [arg.format(**names) for arg in argv]
    main(argv)  # lazy imports and caches settle first
    before = _open_fds()
    if failing_write:
        monkeypatch.setattr(os, "write", _failing_after_one_chunk(7))
    code = main(argv)
    monkeypatch.undo()
    capsys.readouterr()
    assert code == expected
    assert _open_fds() == before


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "coverage", "--help")[0] == 0


# per command: a valid argv after the command name (cheap to run), then
# the usage cases that apply to it: a missing required flag, a bad choice,
# a bad float and an abbreviated long option (None where the command has
# no such flag)
USAGE_CASES = {
    "sample": (["--n", "5"], ["--rho", "0.5"], None, ["--n", "5", "--rho", "x"],
               ["--n", "5", "--se", "3"]),
    "stats": (["--input", "{data}"], [], None, None, ["--inp", "{data}"]),
    "posterior": (["--input", "{data}", "--param", "beta"], ["--input", "{data}"],
                  ["--input", "{data}", "--param", "zeta"], None,
                  ["--input", "{data}", "--par", "eta"]),
    "interval": (["--input", "{data}", "--param", "beta"], ["--param", "beta"],
                 ["--input", "{data}", "--param", "beta", "--kind", "widest"],
                 ["--input", "{data}", "--param", "beta", "--level", "x"],
                 ["--input", "{data}", "--param", "theta", "--lev", "0.9"]),
    "coverage": (["--ns", "4", "--rhos", "0.5", "--replicates", "20"], None,
                 ["--format", "html"], ["--level", "high"],
                 ["--ns", "4", "--rhos", "0.5", "--rep", "20", "--form", "markdown"]),
    "verify-lemma": (["--samples", "1000"], None, ["--format", "xml"], ["--rho", "x"],
                     ["--sa", "1000", "--form", "csv"]),
    "verify-prior": (["matching", "--grid-theta=1:2:2", "--grid-eta=1:2:2"], None,
                     ["jeffreys"], ["--grid-beta", "oops"],
                     ["flat", "--grid-t=1:2:2", "--grid-e=1:2:2", "--form", "csv"]),
}


def _full_parse_main(argv, monkeypatch):
    """main(argv) with one full parse by a fresh build_parser() in place of its dispatch."""
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parse", lambda argv: cli.build_parser().parse_args(argv))
        return main(argv)


@pytest.mark.parametrize("command", sorted(USAGE_CASES) + [None])
def test_usage_errors_match_a_full_parse(command, dataset, capsys, monkeypatch):
    """main() parses a named command in one pass and prints what a full parse prints."""
    # (argv, whether it is a usage error); help exits 0 and an abbreviated
    # long option runs the command
    if command is None:
        cases = [([], True), (["-h"], False), (["--help"], False), (["nonsense"], True),
                 (["nonsense", "--n", "5"], True), (["--n", "5"], True)]
    else:
        valid, missing, choice, bad_float, abbreviated = (
            None if case is None else [command] + [a.format(data=dataset) for a in case]
            for case in USAGE_CASES[command]
        )
        cases = [([command, "--help"], False), ([command, "-h"], False),
                 (valid + ["--bogus"], True), (valid + ["--bogus=1"], True),
                 (valid + ["extra"], True), (valid + ["extra", "more"], True),
                 (abbreviated, False)]
        cases += [(argv, True) for argv in (missing, choice, bad_float) if argv is not None]
    for argv, usage_error in cases:
        ours = main(argv), *capsys.readouterr()
        full = _full_parse_main(argv, monkeypatch), *capsys.readouterr()
        assert ours == full, argv
        assert (ours[0] == 2) == usage_error, argv


def test_one_parser_serves_every_main_call(dataset, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    # a fresh cache, so that this test sees the first build
    monkeypatch.setattr(cli, "_parser", functools.cache(cli.build_parser), raising=False)
    argv = ("interval", "--input", str(dataset), "--param", "eta", "--kind", "hpd")
    assert run_cli(capsys, *argv)[0] == 0
    first = len(built)
    assert first > 0
    assert run_cli(capsys, "nonsense")[0] == 2
    assert run_cli(capsys, "coverage", "--help")[0] == 0
    # a command with arguments left over, which the top-level parser reports
    assert run_cli(capsys, *argv, "extra")[0] == 2
    code, out, _ = run_cli(capsys, *argv)
    assert len(built) == first
    # a usage error leaves the shared parser as a fresh process has it
    fresh = run_fresh("-m", "bvnprior.cli", *argv)
    assert (code, out) == (0, fresh.stdout) and fresh.returncode == 0


def run_fresh(*args):
    """A fresh interpreter, importing bvnprior from the source tree, run on args."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def modules_loaded(statement, *argv):
    """Exit status and the names of all modules loaded by a fresh interpreter running statement."""
    probe = (
        "import atexit, sys\n"
        "atexit.register(lambda: print('loaded:', *sys.modules, file=sys.stderr))\n"
        + statement
    )
    proc = run_fresh("-c", probe, *argv)
    return proc.returncode, set(proc.stderr.splitlines()[-1].split()[1:])


def lazy_modules_loaded(statement, *argv):
    """Exit status and the LAZY_MODULES loaded by a fresh interpreter running statement."""
    code, loaded = modules_loaded(statement, *argv)
    return code, loaded & set(LAZY_MODULES)


@pytest.mark.parametrize("demo", sorted(DEMOS.glob("*.py")), ids=lambda path: path.name)
def test_demo_runs_with_warnings_as_errors(demo):
    proc = run_fresh("-W", "error", str(demo))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout


def test_console_script_runs_in_subprocess(tmp_path):
    exe = shutil.which("bvnprior")

    def cli(*argv):
        if exe is None:
            return run_fresh("-m", "bvnprior.cli", *argv)
        return subprocess.run([exe, *argv], capture_output=True, text=True, timeout=120)

    out1 = cli("sample", "--n", "6", "--seed", "4")
    out2 = cli("sample", "--n", "6", "--seed", "4")
    assert out1.returncode == 0
    assert out1.stdout == out2.stdout
    bad = cli("sample", "--n", "6", "--rho", "2.0")
    assert bad.returncode == 3


@pytest.mark.parametrize("module", ["bvnprior", "bvnprior.cli"])
def test_import_loads_no_lazy_module(module):
    assert lazy_modules_loaded(f"import {module}") == (0, set())


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (("interval", "--param", "eta", "--kind", "equal_tailed"), {"scipy.special"}),
        (("interval", "--param", "theta", "--kind", "lower_one_sided"), {"scipy.special"}),
        (("posterior", "--param", "eta"), {"scipy.special"}),
        (("interval", "--param", "eta", "--kind", "hpd"), {"scipy.special", "scipy.optimize"}),
    ],
    ids=["equal_tailed", "one_sided", "posterior", "hpd"],
)
def test_only_hpd_root_finding_loads_scipy_optimize(dataset, argv, loaded):
    assert lazy_modules_loaded(RUN_CLI, *argv, "--input", str(dataset)) == (0, loaded)


@pytest.mark.parametrize(
    "argv, code",
    [
        (("sample", "--n", "5"), 0),
        (("stats", "--input", "{data}"), 0),
        (("verify-lemma", "--samples", "100000"), 0),
        (("verify-prior",), 0),
        (("--help",), 0),
        (("sample", "--n", "many"), 2),
    ],
    ids=["sample", "stats", "verify-lemma", "verify-prior", "help", "usage-error"],
)
def test_commands_without_special_functions_load_no_scipy(dataset, argv, code):
    argv = [arg.format(data=dataset) for arg in argv]
    status, loaded = modules_loaded(RUN_CLI, *argv)
    assert status == code
    assert not any(name.split(".")[0] == "scipy" for name in loaded)


def test_parallel_run_table_in_a_fresh_interpreter_equals_the_serial_table():
    # the parent loads scipy.special before it forks the workers
    statement = (
        "import sys\n"
        "from bvnprior.coverage import run_table\n"
        "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
        "kw = dict(rhos=(0.25, 0.5), ns=(4, 8), replicates=300, seed=31)\n"
        "parallel = run_table(workers=2, **kw).to_csv()\n"
        "assert 'scipy.special' in sys.modules\n"
        "sys.exit(parallel != run_table(workers=1, **kw).to_csv())"
    )
    assert modules_loaded(statement)[0] == 0


def test_serial_run_table_loads_no_process_pool():
    statement = (
        "from bvnprior.coverage import run_table\n"
        "run_table(rhos=(0.25, 0.5), ns=(4, 8), replicates=300, seed=31, workers=1)"
    )
    code, loaded = lazy_modules_loaded(statement)
    assert code == 0
    assert "concurrent.futures.process" not in loaded
