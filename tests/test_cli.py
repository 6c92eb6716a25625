"""End-to-end command-line behavior, including exit codes and determinism."""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from bvnprior.cli import main
from bvnprior.coverage import DEFAULT_SEED


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


def test_verify_lemma_quick(capsys):
    code, out, _ = run_cli(
        capsys, "verify-lemma", "--samples", "100000", "--seed", "1", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "moment,claimed,estimate,stderr,n_samples,pass"
    assert len(lines) == 1 + 15
    assert all(line.endswith(",true") for line in lines[1:])


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


@pytest.mark.parametrize(
    "argv",
    [
        ("--grid-theta=0.5:inf:3",),
        ("--grid-beta=-inf:1:3",),
        ("--grid-eta=nan:2:3",),
    ],
)
def test_non_finite_grid_bounds_exit_3(capsys, argv):
    code, out, err = run_cli(capsys, "verify-prior", "matching", *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "finite" in err


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
    # overflow in the moment checks is allowed to warn; it may not escape
    with np.errstate(all="ignore"):
        code, _, err = run_cli(capsys, *argv)
    assert code in (0, 3, 4)
    assert "Traceback" not in err
    if code:
        assert err.splitlines()[-1].startswith("error:")


def test_output_flag_writes_files(tmp_path, dataset, capsys):
    out_path = tmp_path / "interval.json"
    code = main(
        ["interval", "--input", str(dataset), "--param", "theta",
         "--output", str(out_path)]
    )
    capsys.readouterr()
    assert code == 0
    assert json.loads(out_path.read_text())["param"] == "theta"


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "coverage", "--help")[0] == 0


def test_console_script_runs_in_subprocess(tmp_path):
    exe = shutil.which("bvnprior")
    if exe is None:
        pytest.skip("console script not on PATH")
    out1 = subprocess.run(
        [exe, "sample", "--n", "6", "--seed", "4"], capture_output=True, text=True
    )
    out2 = subprocess.run(
        [exe, "sample", "--n", "6", "--seed", "4"], capture_output=True, text=True
    )
    assert out1.returncode == 0
    assert out1.stdout == out2.stdout
    bad = subprocess.run(
        [exe, "sample", "--n", "6", "--rho", "2.0"], capture_output=True, text=True
    )
    assert bad.returncode == 3
