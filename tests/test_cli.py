"""CLI contract: exit codes, format parity, determinism."""

import contextlib
import csv
import hashlib
import io
import json
import math
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmeixner import cli, verify
from qmeixner.cli import main
from qmeixner.errors import NonConvergent, OutOfTruncation, PoleHit
from qmeixner.pseudorotation import ClassicalU

import mp_reference


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
    # the classical family printed 1.0 everywhere for --b inf and a bogus
    # overflow (exit 3) for --b nan
    for b in ("inf", "nan"):
        code, out, err = run(
            capsys, "tabulate", "--family", "classical", "--b", b, "--c", "0.5"
        )
        assert (code, out) == (2, "")
        assert err == f"error: beta must be finite and positive, got {float(b)}\n"


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


def test_xi_trunc_is_an_unrecognised_argument(capsys):
    # --trunc changed no output it accepted and was dropped: xi builds U at
    # T = max(nmax, xmax, 1).  --trunc 3 was refused with exit 3 and -1 as a
    # negative size; every value is now an unknown option, exit 2
    for trunc in ("3", "-1", "8"):
        with pytest.raises(SystemExit) as exc:
            run(
                capsys, "xi", "--q", "0.5", "--beta", "1", "--theta", "0.5",
                "--nmax", "4", "--xmax", "4", "--source", "operator", "--trunc", trunc,
            )
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "unrecognized arguments: --trunc" in captured.err


def test_xi_trunc_needs_only_the_table(capsys):
    # block beta - 1 of truncation T holds n, x <= T, and each of its entries
    # is exact there, even where no quarter margin fits (beta = 20, T = 2)
    code, out, err = run(
        capsys, "xi", "--q", "0.5", "--beta", "20", "--theta", "0.3",
        "--nmax", "2", "--xmax", "2", "--source", "both",
    )
    assert (code, err) == (0, "")
    rows = parse_csv(out)
    assert len(rows) == 9
    assert max(float(r["discrepancy"]) for r in rows) <= 1e-15


@pytest.mark.parametrize(
    "argv",
    [
        *(("verify", "--q", "1e-50", "--relation", r)
          for r in ("forward", "duality", "duality_xi")),
        *(("verify", "--q", "1e-300", "--relation", r)
          for r in ("backward", "comp_backward", "recurrence", "ortho_variable",
                    "dual_forward", "genfun_degree")),
        ("xi", "--q", "1e-300", "--beta", "1", "--theta", "0.3",
         "--nmax", "3", "--xmax", "3", "--source", "operator"),
    ],
    ids=" ".join,
)
def test_tiny_q_ends_in_a_typed_refusal(capsys, argv):
    # these ended in a ZeroDivisionError traceback (exit 1), a usage error
    # naming a dual theta (exit 2), or "error: overflow: (34, 'Numerical
    # result out of range')"; q itself is admissible, so no exit 2
    code, out, err = run(capsys, *argv)
    assert code in (0, 1, 3)
    assert "Traceback" not in err and "(34," not in err
    if code == 3:
        assert out == "" and err.startswith("error: overflow: ")
        assert err.count("\n") == 1
    if argv[0] == "verify" and code == 3:
        assert f"{argv[-1]} at q = {argv[2]}, " in err


def test_overflowing_b_ladder_is_one_typed_refusal(capsys):
    # q^-n of the B ladder overflowed with a numpy RuntimeWarning before the
    # element was refused as lost; under -W error that was a traceback
    code, out, err = run(
        capsys, "xi", "--q", "0.01", "--beta", "200", "--theta", "0.3",
        "--source", "operator", "--nmax", "1", "--xmax", "1",
    )
    assert (code, out) == (3, "")
    assert err == (
        "error: overflow: q^-n of the B ladder at q = 0.01, n = 155 "
        "exceeds the double range\n"
    )


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


def test_verify_empty_grid_is_usage_error(capsys):
    # beta = 1 leaves comp_backward nothing to evaluate; the relations before
    # it print nothing either
    code, out, err = run(
        capsys, "verify", "--relation", "backward", "--relation", "comp_backward",
        "--beta", "1",
    )
    assert code == 2
    assert out == ""
    assert err == "error: no evaluable grid points for comp_backward\n"


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


@pytest.mark.parametrize("c, cell", [("1e-300", "M_2(2)"), ("1e-100", "M_4(4)")])
def test_limit_poly_tiny_c_refuses_overflowing_classical_values(capsys, c, cell):
    # the term (1 - 1/c)^g of the classical sum overflows; the table was
    # exit 0 only because max() skipped its NaN cells (9 of 25 at 1e-300)
    code, out, err = run(capsys, "limit", "--kind", "poly", "--c", c)
    assert code == 3
    assert out == ""
    assert err == f"error: overflow: classical {cell} exceeds the double range\n"


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
    # truncation 60: the outer factor of U underflows to 0 for n >= 49
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


@pytest.mark.parametrize("relation", ["backward", "duality", "genfun_degree"])
def test_verify_overflowing_theta_is_numeric_error(capsys, relation):
    code, out, err = run(capsys, "verify", "--relation", relation, "--theta", "1e200")
    assert code == 3
    assert out == ""
    assert err == "error: overflow: c = theta^2 at theta = 1e+200\n"


def test_verify_names_the_point_of_a_series_refusal(capsys):
    code, out, err = run(
        capsys, "verify", "--relation", "genfun_degree", "--q", "1e-4", "--theta", "1e-30"
    )
    assert code == 3
    assert out == ""
    assert err == (
        "error: genfun_degree at q = 0.0001, theta = 1e-30, beta = 1, (0, 5): "
        "1_phi_1 series term 5 is not finite\n"
    )


def main_quiet(*argv):
    """main() with stdout and stderr captured; usable inside @given."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=30, deadline=None)
@given(
    theta=st.sampled_from(["nan", "inf", "-inf", "1e200", "-1e200", "1e-200", "-1e-200"]),
    cmd=st.sampled_from([
        ("xi", "--source", "closed"),
        ("xi", "--source", "operator"),
        ("tabulate",),
    ]),
)
def test_non_finite_or_overflowing_theta_exit_codes(theta, cmd):
    # non-finite theta, or one whose square underflows to 0, is a usage
    # error; a finite theta whose square overflows is a numeric one
    code, out, err = main_quiet(
        *cmd, "--q", "0.5", "--beta", "1", f"--theta={theta}",
        "--nmax", "1", "--xmax", "1",
    )
    assert code == (3 if theta.endswith("e200") else 2)
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err
    if theta.endswith("e-200"):
        assert "--theta" in err


@pytest.mark.parametrize("cmd", ["tabulate", "xi"])
def test_theta_underflow_names_theta(capsys, cmd):
    code, out, err = run(
        capsys, cmd, "--q", "0.5", "--beta", "1", "--theta", "1e-200",
        "--nmax", "3", "--xmax", "3",
    )
    assert code == 2
    assert out == ""
    assert err == "error: --theta 1e-200 is too small: theta^2 underflows to 0\n"


def test_tabulate_refuses_non_finite_cells(capsys):
    # c = 1e-320 makes the 2phi1 argument -q^(n+1)/c overflow, and M_1(q^-1)
    # itself lies beyond the double range
    code, out, err = run(
        capsys, "tabulate", "--q", "0.5", "--beta", "1", "--c", "1e-320",
        "--nmax", "3", "--xmax", "3",
    )
    assert code == 3
    assert out == ""
    assert err == "error: overflow: M_1(q^-1) exceeds the double range\n"


def test_xi_refuses_non_finite_cells(capsys):
    # the closed form lost 45 cells of this table to NaN, from (29, 60) on,
    # where the double sum for M_n overflows: now none is left to refuse
    code, out, _ = run(
        capsys, "xi", "--q", "0.5", "--beta", "1", "--theta", "0.3",
        "--nmax", "60", "--xmax", "60",
    )
    assert code == 0
    oracle = mp_reference.xi_table(0.5, 1, 0.3, 60, 60)
    assert all(
        float(r["value"]) == pytest.approx(oracle[int(r["n"])][int(r["x"])], abs=1e-14)
        for r in parse_csv(out)
    )


def test_only_m_n_beyond_the_double_range_is_refused(capsys):
    # M_6(q^-57) = 1.12e306 overflowed in the double sum, and both commands
    # refused the table there as NaN; M_6(q^-58) really exceeds the range,
    # while every xi of the table is bounded by 1
    args = ("--q", "0.1", "--beta", "1", "--theta", "1", "--nmax", "60", "--xmax", "60")
    code, out, err = run(capsys, "tabulate", *args)
    assert (code, out) == (3, "")
    assert err == "error: overflow: M_6(q^-58) exceeds the double range\n"
    code, out, _ = run(capsys, "xi", *args)
    assert code == 0
    assert all(abs(float(r["value"])) <= 1.0 for r in parse_csv(out))


def test_xi_prints_no_false_zero(capsys):
    # 114 cells of this table printed 0.0 or -0.0 with exit 0, xi_{25,48}
    # (-0.6017) among them: the radicand q^(C(x,2)+n) / (...) underflowed
    code, out, _ = run(
        capsys, "xi", "--q", "0.5", "--beta", "1", "--theta", "0.3",
        "--nmax", "48", "--xmax", "48",
    )
    assert code == 0
    oracle = mp_reference.xi_table(0.5, 1, 0.3, 48, 48)
    false_zeros = [
        (int(r["n"]), int(r["x"]))
        for r in parse_csv(out)
        if float(r["value"]) == 0.0
        and abs(oracle[int(r["n"])][int(r["x"])]) >= sys.float_info.min
    ]
    assert false_zeros == []


@pytest.mark.parametrize("theta", ["nan", "inf", "-inf", "0"])
@pytest.mark.parametrize(
    "cmd",
    [
        ("verify", "--relation", "backward"),
        ("tabulate", "--q", "0.5", "--beta", "1"),
        ("xi", "--q", "0.5", "--beta", "1"),
    ],
)
def test_non_finite_or_zero_theta_names_theta(capsys, cmd, theta):
    code, out, err = run(capsys, *cmd, f"--theta={theta}")
    assert code == 2
    assert out == ""
    assert err == f"error: --theta must be finite and nonzero, got {float(theta)}\n"


@pytest.mark.parametrize("flag", ["--nmax", "--xmax"])
def test_tabulate_negative_size_is_usage_error(capsys, flag):
    code, out, _ = run(
        capsys, "tabulate", "--q", "0.5", "--beta", "1", "--theta", "0.3", flag, "-1",
    )
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("flag", ["--nmax", "--xmax"])
def test_xi_negative_size_is_usage_error(capsys, flag):
    code, out, _ = run(
        capsys, "xi", "--q", "0.5", "--beta", "1", "--theta", "0.3",
        "--source", "operator", flag, "-1",
    )
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("kind", ["poly", "xi", "operator"])
@pytest.mark.parametrize("flag", ["--nmax", "--xmax"])
def test_limit_negative_size_is_usage_error(capsys, kind, flag):
    code, out, err = run(capsys, "limit", "--kind", kind, flag, "-1")
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be >= 0, got -1\n"


@settings(max_examples=60, deadline=None)
@given(
    value=st.sampled_from(
        ["nan", "inf", "-inf", "1e200", "-1e200", "1e-300", "-1e-170", "20", "-20", "0"]
    ),
    kind_flag=st.sampled_from([("xi", "--tau"), ("operator", "--tau"), ("poly", "--c")]),
)
def test_limit_non_finite_or_overflowing_parameter_exit_codes(value, kind_flag):
    # a non-finite or out-of-range parameter is a usage error naming the
    # option given; a finite tau whose cosh overflows is a numeric error.
    # tanh(tau)^2 rounding to 0 or 1, and tau = 0 for the xi limit, are
    # usage errors naming --tau; tau = 0 is the identity rotation of the
    # operator limit, and a tiny positive c a valid polynomial limit
    kind, flag = kind_flag
    assume((kind, value) not in {("operator", "0"), ("poly", "1e-300")})
    code, out, err = main_quiet("limit", "--kind", kind, f"{flag}={value}")
    overflow = flag == "--tau" and value.endswith("e200")
    assert code == (3 if overflow else 2)
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err
    if flag == "--tau" and value in ("nan", "inf", "-inf"):
        assert err == f"error: --tau must be finite, got {value}\n"
    elif flag == "--tau" and not overflow:
        assert err.startswith(f"error: --tau {float(value)} ")


_TAB = ("tabulate", "--q", "0.5", "--beta", "2", "--theta", "0.3",
        "--nmax", "40", "--xmax", "40")
_XI = ("xi", "--q", "0.9", "--beta", "1", "--theta", "2.0",
       "--nmax", "40", "--xmax", "40", "--source", "closed")
_RECORDED = [
    (_TAB, 0, "7e3321ba3f4fba8596d5aab43bbdf6ac431991ee6071640f1dce68e391922535"),
    (_TAB + ("--format", "json"), 0,
     "a7403bc2a0fea1bdb0fe157590b86a067b62aef91c18a3c6be03ade698c21fc2"),
    (_XI, 0, "cb35a9d61d66d354f448e3db259ed81730a27433ffc6c42df974e4d5691979ab"),
    (_XI + ("--format", "json"), 0,
     "0a0eed94549297dc21004b241a18cf1d7436b6c4a06f5e065ad7957fde46afdf"),
    (("verify", "--relation", "recurrence", "--relation", "duality",
      "--relation", "backward", "--relation", "genfun_degree"), 0,
     "0b9bf9f7827f8fa539408e74733af9caabab4b1443d2cf626bea401c57da0a7e"),
    (("limit", "--kind", "poly"), 0,
     "cc0fc27d20d31bc1c679d5c964f5f6fc59ff5816201250cb34d01651cb9de29c"),
    (("limit", "--kind", "xi"), 0,
     "4a5727a02160523c17f455bb787679587e5b6564f528084a53d382c4e74cf798"),
]


@pytest.mark.parametrize(
    "argv, code, digest", _RECORDED, ids=[" ".join(a) for a, _, _ in _RECORDED]
)
def test_bench_invocations_are_byte_identical(capsys, argv, code, digest):
    """The sha256 of stdout and the exit code of each deterministic,
    pure-Python invocation of the benchmark's cli workload match the values
    recorded before the exit-code table, the two-mode layout and the q -> 1
    companions each got one home.  The two xi tables were re-recorded when
    qmeixner began to re-sum cancelling sums in decimal: 582 of their 1681
    cells moved, by at most 1.3e-10, toward the mpmath oracle.

    A change that deliberately moves digits re-records a hash with

        PYTHONPATH=src python -c "import contextlib, hashlib, io, sys
        from qmeixner.cli import main
        out = io.StringIO()
        with contextlib.redirect_stdout(out): code = main(sys.argv[1:])
        print(code, hashlib.sha256(out.getvalue().encode()).hexdigest())" ARGS...

    and lists the moved digits in CHANGES.md.
    """
    got_code, out, _ = run(capsys, *argv)
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "kind, errors_at, param",
    [("poly", verify.limit_poly_errors, 0.5), ("xi", verify.limit_xi_errors, 0.5)],
)
def test_limit_table_is_the_max_of_the_companion_errors(capsys, kind, errors_at, param):
    # the table's max_error per k is the largest companion error over the cells
    code, out, _ = run(capsys, "limit", "--kind", kind, "--k", "5", "--k", "2",
                       "--nmax", "2", "--xmax", "2", "--format", "json")
    rows = [errors_at(n, x, 1, param, [5, 2])[0] for n in range(3) for x in range(3)]
    records = json.loads(out)["records"]
    assert [r["k"] for r in records] == [5, 2]
    assert [r["max_error"] for r in records] == [max(r[i] for r in rows) for i in (0, 1)]
    assert code == (0 if verify.limit_passes([r["max_error"] for r in records]) else 1)


@pytest.mark.parametrize(
    "exc, code, line",
    [
        (ValueError("bad"), 2, "error: bad\n"),
        (OverflowError("math range error"), 3, "error: overflow: math range error\n"),
        (NonConvergent("lost"), 3, "error: lost\n"),
        (PoleHit("pole"), 3, "error: pole\n"),
        (OutOfTruncation("edge"), 3, "error: edge\n"),
        (MemoryError(), 3, "error: out of memory: allocation failed\n"),
    ],
)
def test_main_owns_the_exit_code_table(capsys, monkeypatch, exc, code, line):
    def raises(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_xi", raises)
    assert main(["xi"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line


@pytest.mark.parametrize("c", ["nan", "inf", "-inf", "1e320", "-1", "0"])
@pytest.mark.parametrize("cmd", ["xi", "tabulate"])
def test_c_refusal_names_c(capsys, cmd, c):
    # xi took the square root of --c first and named theta, or said only
    # "c must be positive"; both commands now give the one c rule
    code, out, err = run(capsys, cmd, "--q", "0.5", "--beta", "1", f"--c={c}")
    assert code == 2
    assert out == ""
    assert err == f"error: c must be finite and positive, got {float(c)}\n"


def test_limit_k_refusal_names_k(capsys):
    # the error named q, which the user never gave; k = 16 still gives a q
    for kind in ("poly", "xi"):
        for k in ("17", "400"):
            code, out, err = run(capsys, "limit", "--kind", kind, "--k", k)
            assert (code, out) == (2, "")
            assert err == f"error: --k {k} is too large: q = 1 - 10^-k rounds to 1\n"
        code, out, _ = run(capsys, "limit", "--kind", kind, "--k", "16", "--nmax", "1")
        assert code in (0, 1)
        assert parse_csv(out)[0]["q"] == repr(1.0 - 1e-16)


def test_beta_refusal_has_one_wording(capsys):
    # limit_poly said "beta must be positive", limit_xi gave no value
    for argv in (
        ("verify", "--relation", "backward"),
        ("verify", "--relation", "limit_xi"),
        ("verify", "--relation", "limit_poly"),
        ("limit", "--kind", "poly"),
        ("limit", "--kind", "xi"),
        ("limit", "--kind", "operator"),
    ):
        code, out, err = run(capsys, *argv, "--beta", "0")
        assert (code, out) == (2, "")
        assert err == "error: beta must be a positive integer, got 0\n"


def test_operator_limit_exponentiates_only_the_blocks_it_reads(capsys, monkeypatch):
    # classical_element reads offset block beta - 1; classical_U exponentiated
    # all 2k + 1 blocks of each truncation, 115 expm calls for k = 8, 16, 32
    original = ClassicalU._build
    shapes = []

    def counting(self, d):
        block = original(self, d)
        shapes.append(block.shape)
        return block

    monkeypatch.setattr(ClassicalU, "_build", counting)
    code, out, _ = run(capsys, "limit", "--kind", "operator")
    assert code == 0
    assert shapes == [(9, 9), (17, 17), (33, 33)]
    # the stdout of the per-block eigendecomposition
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1fb5fa46519711238e8cd33a67f0f31c6444b154a96ead84f92777d7fd20e768"
    )


def test_out_of_memory_operator_is_numeric_error(capsys, monkeypatch):
    # `limit --kind operator --k 400` asks for a dense 160801 x 160801 operator;
    # it ended in a MemoryError traceback
    def too_large(tau, t):
        raise MemoryError("Unable to allocate 193. GiB for an array with shape (160801, 160801)")

    monkeypatch.setattr(cli, "classical_U", too_large)
    code, out, err = run(capsys, "limit", "--kind", "operator", "--k", "400")
    assert (code, out) == (3, "")
    assert err == (
        "error: out of memory: "
        "Unable to allocate 193. GiB for an array with shape (160801, 160801)\n"
    )


def test_limit_operator_names_an_overflowing_cosh(capsys):
    code, out, err = run(capsys, "limit", "--kind", "operator", "--tau", "1e300")
    assert code == 3
    assert out == ""
    assert err == "error: overflow: cosh(tau) at tau = 1e+300\n"


@pytest.mark.parametrize("theta", ["1e15", "-1e15", "1e20", "1e100"])
def test_verify_at_an_extreme_theta_ends_in_an_exit_code(capsys, theta):
    # weight and norm_factor returned 0.0, inf or nan here, or raised a bare
    # OverflowError, and ortho_variable ended in a ZeroDivisionError
    # traceback; main() raises nothing, so check_all() raised nothing untyped
    code, out, err = run(capsys, "verify", f"--theta={theta}")
    assert code in (0, 1, 3)
    assert "Traceback" not in err
    if code == 3:
        assert out == ""
        assert err == (
            "error: overflow: ortho_variable at q = 0.4, theta = 1e+100, beta = 2, (0, 0): "
            "sqrt(omega_x omega_x2) = 0.0: the scale or its reciprocal exceeds the double range\n"
        )
    else:
        assert err == "" and len(out.splitlines()) == 21


def test_a_non_finite_cell_is_refused_before_any_output(capsys, monkeypatch):
    # the library refuses such a value first, so only a stand-in xi reaches
    # the CLI's own guard: one error line naming the column, n and x
    def xi(n, x, mp):
        return math.nan if (n, x) == (1, 0) else 0.5

    monkeypatch.setattr(cli, "xi", xi)
    code, out, err = run(
        capsys, "xi", "--q", "0.5", "--beta", "1", "--theta", "0.3", "--nmax", "1", "--xmax", "1"
    )
    assert (code, out) == (3, "")
    assert err == "error: value at (n=1, x=0) is nan, not a finite number\n"
