"""The CLI's contract on interval and posterior requests, by property-based fuzzing.

Every request either succeeds (exit 0, finite JSON, an interval with
lo < hi and its nominal mass) or fails with a documented exit code and
exactly one error: line, never with a traceback. It exits 3 exactly when
the library's own statistics find the dataset degenerate; every level
drawn here is resolvable, so no other exit-3 cause arises. The data reach
the CLI as the CSV its users write, over column scales up to 2^+-1000,
offsets up to 1e300 and correlations up to +-(1 - 1e-11); ordinary data
are drawn three times as often as extreme data, so most requests succeed.
"""

import contextlib
import io
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from bvnprior.cli import main
from bvnprior.errors import DegenerateDataError
from bvnprior.interval import KINDS
from bvnprior.model import read_dataset, sufficient_stats, write_dataset

PARAMS = ("beta", "theta", "w", "eta")
LEVELS = (1e-12, 0.5, 0.95, 1.0 - 1e-9, 1.0 - 1e-15)
RHO_MAX = 1.0 - 1e-11


def _columns(exponent, offset, rho):
    return hs.fixed_dictionaries({
        "scales": hs.tuples(exponent, exponent),
        "offsets": hs.tuples(offset, offset),
        "rho": rho,
    })


ORDINARY = _columns(hs.integers(-20, 20), hs.floats(-1e3, 1e3), hs.floats(-0.99, 0.99))
EXTREME = _columns(hs.integers(-1000, 1000), hs.floats(-1e300, 1e300),
                   hs.floats(-RHO_MAX, RHO_MAX))

REQUESTS = hs.fixed_dictionaries({
    "columns": hs.one_of(ORDINARY, ORDINARY, ORDINARY, EXTREME),
    "n": hs.integers(3, 300),
    "seed": hs.integers(0, 2**32 - 1),
    "command": hs.sampled_from(("interval", "posterior")),
    "param": hs.sampled_from(PARAMS),
    "kind": hs.sampled_from(KINDS),
    "level": hs.sampled_from(LEVELS),
})


def _dataset_csv(columns, n, seed):
    """n pairs of correlation rho, each column times 2^scale plus its offset."""
    z = np.random.default_rng(seed).standard_normal((n, 2))
    rho = columns["rho"]
    pairs = np.column_stack([z[:, 0], rho * z[:, 0] + math.sqrt(1.0 - rho * rho) * z[:, 1]])
    data = np.ldexp(pairs, columns["scales"]) + columns["offsets"]
    text = io.StringIO()
    write_dataset(text, data)
    return text.getvalue()


def _run(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def _is_degenerate(csv_text):
    """Whether sufficient_stats finds the dataset degenerate; a float-range failure is not."""
    try:
        sufficient_stats(read_dataset(io.StringIO(csv_text)))
    except DegenerateDataError:
        return True
    except ArithmeticError:
        return False
    return False


def _reject_constant(name):
    raise AssertionError(f"JSON holds {name}")


def _assert_contract(request):
    argv = [request["command"], "--input", "-", "--param", request["param"]]
    if request["command"] == "interval":
        argv += ["--kind", request["kind"], "--level", repr(request["level"])]
    csv_text = _dataset_csv(request["columns"], request["n"], request["seed"])
    code, out, err = _run(argv, csv_text)
    assert code in (0, 3, 4), (code, err)
    assert (code == 3) == _is_degenerate(csv_text), (code, err)
    if code:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and err.endswith("\n"), err
        return
    assert err == ""
    payload = json.loads(out, parse_constant=_reject_constant)
    if request["command"] == "interval":
        lo, hi = payload["lo"], payload["hi"]
        if lo is not None and hi is not None:
            assert lo < hi, payload
        assert abs(payload["achieved_mass"] - request["level"]) <= 1e-6, payload


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(request=REQUESTS)
def test_interval_and_posterior_requests_keep_the_cli_contract(request):
    _assert_contract(request)


@pytest.mark.slow
@settings(max_examples=3000, deadline=None, derandomize=True, database=None)
@given(request=REQUESTS)
def test_the_cli_contract_holds_over_a_larger_sweep(request):
    _assert_contract(request)
