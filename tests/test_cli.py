"""CLI contract: exit codes, format parity, determinism."""

import contextlib
import csv
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeixner.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_tabulate_degree_zero_all_ones(capsys):
    code, out, _ = run(
        capsys, "tabulate", "--q", "0.5", "--beta", "2", "--theta", "0.5",
        "--nmax", "0", "--xmax", "4",
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 5
    assert all(float(r["value"]) == 1.0 for r in rows)


def test_tabulate_requires_parameters(capsys):
    code, _, err = run(capsys, "tabulate", "--q", "0.5", "--theta", "0.5")
    assert code == 2
    assert "beta" in err


def test_tabulate_invalid_b_is_usage_error(capsys):
    code, _, _ = run(
        capsys, "tabulate", "--q", "0.5", "--b", "1.5", "--theta", "0.5"
    )
    assert code == 2


def test_csv_json_parity(capsys):
    args = ["tabulate", "--q", "0.5", "--beta", "1", "--theta", "0.7",
            "--nmax", "2", "--xmax", "2"]
    code, out_csv, _ = run(capsys, *args, "--format", "csv")
    assert code == 0
    code, out_json, _ = run(capsys, *args, "--format", "json")
    assert code == 0
    rows = parse_csv(out_csv)
    recs = json.loads(out_json)["records"]
    assert len(rows) == len(recs)
    for row, rec in zip(rows, recs):
        assert float(row["value"]) == rec["value"]


def test_byte_identical_reruns(capsys):
    args = ["xi", "--q", "0.5", "--beta", "2", "--theta", "0.5",
            "--nmax", "3", "--xmax", "3", "--source", "both"]
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_xi_both_discrepancy_small(capsys):
    code, out, _ = run(
        capsys, "xi", "--q", "0.9", "--beta", "1", "--theta", "0.7",
        "--nmax", "4", "--xmax", "4", "--source", "both",
    )
    assert code == 0
    rows = parse_csv(out)
    assert all(float(r["discrepancy"]) < 1e-9 for r in rows)


def test_xi_corner_trivial(capsys):
    code, out, _ = run(
        capsys, "xi", "--q", "0.5", "--beta", "1", "--theta", "0.5",
        "--nmax", "0", "--xmax", "0",
    )
    assert code == 0
    assert float(parse_csv(out)[0]["value"]) == pytest.approx(1.25**-0.5)


def test_xi_c_flag_equivalent_to_theta(capsys):
    base = ["xi", "--q", "0.5", "--beta", "1", "--nmax", "2", "--xmax", "2"]
    _, via_theta, _ = run(capsys, *base, "--theta", "0.5")
    _, via_c, _ = run(capsys, *base, "--c", "0.25")
    assert via_theta == via_c


def test_xi_trunc_too_small_is_numeric_error(capsys):
    code, _, err = run(
        capsys, "xi", "--q", "0.5", "--beta", "1", "--theta", "0.5",
        "--nmax", "4", "--xmax", "4", "--source", "operator", "--trunc", "6",
    )
    assert code == 3
    assert "trunc" in err.lower()


def test_xi_negative_c_is_usage_error(capsys):
    code, _, _ = run(
        capsys, "xi", "--q", "0.5", "--beta", "1", "--c", "-1.0",
    )
    assert code == 2


def test_verify_single_relation(capsys):
    code, out, _ = run(
        capsys, "verify", "--relation", "recurrence",
        "--q", "0.5", "--beta", "1", "--theta", "0.3",
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    assert rows[0]["relation"] == "recurrence"
    assert rows[0]["passed"] == "true"


def test_verify_unreachable_tolerance_fails(capsys):
    code, out, _ = run(
        capsys, "verify", "--relation", "backward", "--tol", "1e-18",
        "--q", "0.5", "--beta", "1", "--theta", "0.3",
    )
    assert code == 1
    assert parse_csv(out)[0]["passed"] == "false"


def test_verify_unknown_relation_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--relation", "bogus"])
    assert exc.value.code == 2


def test_limit_poly_corner_exact(capsys):
    code, out, _ = run(
        capsys, "limit", "--kind", "poly", "--nmax", "0", "--xmax", "0",
    )
    assert code == 0
    assert all(float(r["max_error"]) == 0.0 for r in parse_csv(out))


def test_limit_xi_errors_decrease(capsys):
    code, out, _ = run(
        capsys, "limit", "--kind", "xi", "--beta", "1", "--tau", "0.5",
        "--nmax", "1", "--xmax", "1",
    )
    assert code == 0
    errs = [float(r["max_error"]) for r in parse_csv(out)]
    assert errs == sorted(errs, reverse=True)


def test_limit_operator_tau_zero_exact(capsys):
    code, out, _ = run(
        capsys, "limit", "--kind", "operator", "--tau", "0.0",
        "--nmax", "2", "--xmax", "2",
    )
    assert code == 0
    assert all(float(r["max_error"]) <= 1e-13 for r in parse_csv(out))


def test_limit_rejects_bad_k(capsys):
    code, _, _ = run(capsys, "limit", "--kind", "xi", "--k", "0")
    assert code == 2


def test_limit_unknown_kind_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["limit", "--kind", "nope"])
    assert exc.value.code == 2


def test_float_round_trip_formatting(capsys):
    _, out, _ = run(
        capsys, "xi", "--q", "0.5", "--beta", "1", "--theta", "0.5",
        "--nmax", "1", "--xmax", "1",
    )
    for row in parse_csv(out):
        v = float(row["value"])
        assert repr(v) == row["value"]


def test_xi_operator_refuses_underflowed_rows(capsys):
    # truncation 120: the outer factor of U underflows to 0 for n >= 49
    code, out, err = run(
        capsys, "xi", "--q", "0.5", "--beta", "1", "--theta", "0.3",
        "--nmax", "60", "--xmax", "60", "--source", "operator",
    )
    assert code == 3
    assert out == ""
    assert "lost in double precision" in err


def test_verify_nan_tol_is_usage_error(capsys):
    code, out, _ = run(capsys, "verify", "--relation", "ortho_variable", "--tol", "nan")
    assert code == 2
    assert out == ""


def main_quiet(*argv):
    """main() with stdout and stderr captured; usable inside @given."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=20, deadline=None)
@given(
    theta=st.sampled_from(["nan", "inf", "-inf", "1e200", "-1e200"]),
    cmd=st.sampled_from([
        ("xi", "--source", "closed"),
        ("xi", "--source", "operator"),
        ("tabulate",),
    ]),
)
def test_non_finite_or_overflowing_theta_exit_codes(theta, cmd):
    # non-finite theta is a usage error; a finite theta whose square
    # overflows is a numeric one
    code, out, err = main_quiet(
        *cmd, "--q", "0.5", "--beta", "1", f"--theta={theta}",
        "--nmax", "1", "--xmax", "1",
    )
    assert code == (3 if theta.endswith("e200") else 2)
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--nmax", "--xmax"])
def test_tabulate_negative_size_is_usage_error(capsys, flag):
    code, out, _ = run(
        capsys, "tabulate", "--q", "0.5", "--beta", "1", "--theta", "0.3", flag, "-1",
    )
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("flag", ["--nmax", "--xmax", "--trunc"])
def test_xi_negative_size_is_usage_error(capsys, flag):
    code, out, _ = run(
        capsys, "xi", "--q", "0.5", "--beta", "1", "--theta", "0.3",
        "--source", "operator", flag, "-1",
    )
    assert code == 2
    assert out == ""
