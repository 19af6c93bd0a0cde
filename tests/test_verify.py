"""Relation registry behavior: grids, domains, judgments, known defects."""

import dataclasses
import gc
import hashlib
import math
from collections import Counter

import pytest

from qmeixner import dual_orthogonality_sum, orthogonality_sum, verify
from qmeixner.errors import NonConvergent, PoleHit
from qmeixner.meixner import MatrixElementParams, MeixnerParams, norm_factor
from qmeixner.qseries import QContext
from qmeixner.verify import (
    IDENTITY_RELATIONS,
    LIMIT_RELATIONS,
    GridPoint,
    RelationId,
    check,
    check_all,
    default_grid,
    limit_passes,
    limit_poly_errors,
    limit_xi_errors,
)

from test_meixner import TAU_REFUSALS, THETA_REFUSALS


def test_orthogonality_sum_whose_first_terms_underflow():
    # omega_x rounds to 0.0 for x < 96 at theta = 1e100, q = 0.4, beta = 2,
    # and the three leading zeros ended the sum at (0.0, 3)
    mp = MatrixElementParams(1e100, 2, QContext(q=0.4))
    total, used = orthogonality_sum(1, 1, mp)
    assert total == pytest.approx(norm_factor(1, mp), rel=1e-12)
    assert used > 96
    # 18 of these 135 points failed at residual 1.0
    report = check_all([RelationId.ORTHO_DEGREE], qs=[0.4], thetas=[1e100])[0]
    assert report.passed and report.max_residual <= 1e-13


def test_a_point_that_leaves_the_double_range_names_relation_and_point():
    # q^x underflows to 0 in a FORWARD coefficient and q^-x overflows in a
    # BACKWARD one: a ZeroDivisionError and a bare OverflowError (34, ...)
    for rid, q, where in [
        ("forward", 1e-50, "(1, 7): float division by zero"),
        ("backward", 1e-300, "(0, 2): Numerical result out of range"),
    ]:
        with pytest.raises(OverflowError) as exc:
            check_all([rid], qs=[q], betas=[1], thetas=[0.3])
        assert str(exc.value) == f"{rid} at q = {q}, theta = 0.3, beta = 1, {where}"


def test_registry_split():
    assert len(IDENTITY_RELATIONS) == 18
    assert len(LIMIT_RELATIONS) == 2
    assert set(IDENTITY_RELATIONS) | set(LIMIT_RELATIONS) == set(RelationId)


def test_default_grid_is_deterministic():
    g1 = default_grid(RelationId.RECURRENCE)
    g2 = default_grid(RelationId.RECURRENCE)
    assert g1 == g2
    assert len(g1) == 3 * 3 * 2 * 9 * 9


def test_recurrence_n0_reduces_exactly():
    # the degree-lowering coefficient carries 1 - q^0 = 0
    pts = [GridPoint(0.5, 1, 0.3, 0, x) for x in range(5)]
    report = check(RelationId.RECURRENCE, grid=pts)
    assert report.passed
    assert report.max_residual <= 1e-14


def test_difference_x0_reduces_exactly():
    pts = [GridPoint(0.5, 2, 0.7, n, 0) for n in range(5)]
    report = check(RelationId.DIFFERENCE, grid=pts)
    assert report.passed
    assert report.max_residual <= 1e-13


def test_ortho_degree_norm0():
    # sum_x omega_x = 1 at beta = 1, theta = 1, q = 0.5
    report = check(RelationId.ORTHO_DEGREE, grid=[GridPoint(0.5, 1, 1.0, 0, 0)])
    assert report.passed
    assert report.max_residual <= 1e-11


def test_ortho_variable_defect_is_frozen_value():
    """The dual orthogonality relation fails by an analytic completeness
    defect, not by truncation: the x = 0 deficit matches a 60-digit
    evaluation of the converged series."""
    report = check(RelationId.ORTHO_VARIABLE, grid=[GridPoint(0.5, 1, 0.3, 0, 0)])
    assert not report.passed
    assert report.max_residual == pytest.approx(4.4001211e-4, rel=1e-4)


def test_comp_relations_skip_beta_one():
    pts = [GridPoint(0.5, 1, 0.3, 2, 2), GridPoint(0.5, 2, 0.3, 2, 2)]
    report = check(RelationId.COMP_BACKWARD, grid=pts)
    assert len(report.skipped) == 1
    assert len(report.grid) == 1
    assert report.passed


def test_empty_grid_raises():
    with pytest.raises(ValueError, match="no evaluable grid points for backward"):
        check(RelationId.BACKWARD, grid=[])
    with pytest.raises(ValueError, match="no evaluable grid points for comp_backward"):
        # every point is outside the domain
        check(RelationId.COMP_BACKWARD, grid=[GridPoint(0.5, 1, 0.3, 1, 1)])
    with pytest.raises(ValueError, match="no relations selected"):
        check_all(relations=[])


def test_single_relation_filter():
    reports = check_all(relations=[RelationId.DUALITY])
    assert len(reports) == 1
    assert reports[0].relation is RelationId.DUALITY
    assert reports[0].passed


def test_genfun_variable_domain_guard():
    # z beyond 0.9 q^n diverges and must be skipped, not failed
    pts = [GridPoint(0.5, 1, 0.7, 4, 0, 0.6), GridPoint(0.5, 1, 0.7, 0, 0, 0.6)]
    report = check(RelationId.GENFUN_VARIABLE, grid=pts)
    assert len(report.skipped) == 1
    assert report.passed


def test_structure_relations_small_grid():
    pts = [
        GridPoint(q, b, th, n, x)
        for q in (0.5, 0.9)
        for b in (1, 3)
        for th in (0.4,)
        for n in (0, 2, 5)
        for x in (0, 1, 4)
    ]
    for rid in (
        RelationId.BACKWARD,
        RelationId.FORWARD,
        RelationId.DIFFERENCE,
        RelationId.RECURRENCE,
        RelationId.DUAL_BACKWARD,
        RelationId.DUAL_FORWARD,
        RelationId.DUAL_DIFFERENCE,
        RelationId.DUAL_RECURRENCE,
    ):
        report = check(rid, grid=pts)
        assert report.passed, f"{rid.value}: {report.max_residual:.3g}"


def test_limit_relations_pass_by_monotone_decrease():
    for rid in LIMIT_RELATIONS:
        grid = [
            pt
            for pt in default_grid(rid)
            if pt.beta == 1 and pt.n <= 2 and pt.x <= 2
        ]
        report = check(rid, grid=grid)
        assert report.passed


def test_string_relation_names_accepted():
    report = check("duality_xi", grid=[GridPoint(0.5, 2, 0.6, 1, 3)])
    assert report.passed
    with pytest.raises(ValueError):
        check("no_such_relation")


def test_nan_residual_fails_its_point(monkeypatch):
    rid = RelationId.RECURRENCE
    nan_spec = dataclasses.replace(
        verify._REGISTRY[rid], evaluate=lambda pt, cache: (math.nan, 1.0, None)
    )
    monkeypatch.setitem(verify._REGISTRY, rid, nan_spec)
    pt = GridPoint(0.5, 1, 0.3, 1, 1)
    report = check(rid, grid=[pt])
    assert report.failures == [pt]
    assert not report.passed


def test_structure_relations_are_term_tables():
    structure = {
        RelationId(name)
        for name in (
            "backward", "forward", "difference", "comp_backward", "comp_forward",
            "recurrence", "dual_backward", "dual_forward", "dual_difference",
            "dual_comp_backward", "dual_comp_forward", "dual_recurrence",
        )
    }
    assert set(verify._STRUCTURE) == structure
    # only the two relations that lower beta need beta >= 2
    restricted = {rid for rid in RelationId if verify._REGISTRY[rid].domain is not None}
    assert restricted & structure == {
        RelationId.COMP_BACKWARD,
        RelationId.DUAL_COMP_BACKWARD,
    }


def test_limit_judge():
    assert limit_passes([3e-12, 5e-12, 4e-12])  # rounding noise only
    assert limit_passes([1e-3, 1e-4, 1e-5])
    assert not limit_passes([1e-3, 1e-3, 1e-5])
    assert not limit_passes([1e-3, math.nan, 1e-5])
    assert not limit_passes([math.nan] * 3)
    # one error shows no decrease: it passes only under the noise floor
    assert not limit_passes([1e-3])
    assert limit_passes([1e-12])


@pytest.mark.parametrize("rid", LIMIT_RELATIONS)
def test_limit_residuals_are_the_companion_errors_at_k_2_3_4(rid):
    errors_at = limit_poly_errors if rid == RelationId.LIMIT_POLY else limit_xi_errors
    grid = [pt for pt in default_grid(rid) if pt.n <= 2 and pt.x <= 2]
    report = check(rid, grid=grid)
    for pt, (absolute, relative) in zip(report.grid, report.residuals):
        errs, classical = errors_at(pt.n, pt.x, pt.beta, pt.aux, (2, 3, 4))
        assert absolute == errs[-1]
        assert relative == errs[-1] / max(abs(classical), 1.0)


@pytest.fixture(scope="module")
def counted_check_all():
    """Two check_all() calls on the default grids, each with the arguments of
    every qmeixner call verify makes (xi's own calls are not verify's)."""
    original = verify.qmeixner
    calls = []

    def counting(n, x, p):
        calls[-1].append((n, x, p))
        return original(n, x, p)

    runs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "qmeixner", counting)
        for _ in range(2):
            calls.append([])
            runs.append(check_all())
    return runs, calls


def test_check_all_shares_its_cache_without_moving_a_residual(counted_check_all):
    shared = counted_check_all[0][0]
    alone = [check(rid) for rid in RelationId]
    assert len(shared) == len(alone) == 20
    for got, want in zip(shared, alone):
        assert got.relation is want.relation
        assert got.grid == want.grid
        assert got.residuals == want.residuals  # float for float
        assert got.skipped == want.skipped
        assert got.failures == want.failures


def test_check_all_computes_each_polynomial_value_once(counted_check_all):
    first = counted_check_all[1][0]
    repeated = [args for args, k in Counter(first).items() if k > 1]
    assert first and not repeated


def test_check_all_cache_ends_with_the_call(counted_check_all):
    first, second = counted_check_all[1]
    assert len(second) == len(first)


def test_a_dropped_cache_is_freed_without_the_collector():
    # each table's make reads other tables, never the cache: a make bound
    # to the cache would form a cycle that kept the previous call's rows
    # alive until the next collection
    gc.collect()
    gc.disable()
    try:
        check_all()
        alive = [o for o in gc.get_objects() if isinstance(o, (verify._Row, verify._Memo))]
    finally:
        gc.enable()
    assert alive == []


# one relation of each evaluator family
_FAMILIES = [
    "backward", "duality", "duality_xi", "ortho_degree", "ortho_variable", "genfun_degree",
]


@pytest.mark.parametrize("rid", _FAMILIES)
def test_check_all_refuses_theta_before_any_point(monkeypatch, rid):
    spec = verify._REGISTRY[RelationId(rid)]
    evaluated = []
    spy = dataclasses.replace(spec, evaluate=lambda *a: evaluated.append(a))
    monkeypatch.setitem(verify._REGISTRY, RelationId(rid), spy)
    for theta, (error, message) in THETA_REFUSALS.items():
        # the good theta comes first in the grid and is still not evaluated
        with pytest.raises(error) as exc:
            check_all([rid], thetas=[0.3, theta])
        assert type(exc.value) is error and str(exc.value) == message
    assert evaluated == []


def test_max_residual_is_nan_when_any_residual_is(monkeypatch):
    # max() keeps a NaN only when it comes first: this report read 2e-12
    # beside passed == False, and `qmeixner verify` printed that number
    spec = verify._REGISTRY[RelationId.BACKWARD]
    residuals = iter([1e-12, math.nan, 2e-12])
    spy = dataclasses.replace(spec, evaluate=lambda pt, cache: (next(residuals), 0.0, 1.0))
    monkeypatch.setitem(verify._REGISTRY, RelationId.BACKWARD, spy)
    report = check("backward", default_grid("backward")[:3])
    assert [rel for _, rel in report.residuals][::2] == [1e-12, 2e-12]
    assert not report.passed
    assert math.isnan(report.max_residual)


def test_limit_xi_errors_name_tau():
    refusals = {**TAU_REFUSALS, 0.0: "tau 0.0 gives theta = sinh(tau) = 0, which is no theta"}
    for tau, message in refusals.items():
        with pytest.raises(ValueError) as exc:
            limit_xi_errors(1, 1, 1, tau, [2])
        assert str(exc.value) == message
    with pytest.raises(OverflowError):
        limit_xi_errors(1, 1, 1, 1e200, [2])  # cosh(tau) overflows


@pytest.mark.parametrize("rid", _FAMILIES + ["comp_backward", "limit_poly", "limit_xi"])
def test_check_all_refuses_beta_before_any_point(monkeypatch, rid):
    spec = verify._REGISTRY[RelationId(rid)]
    evaluated = []
    spy = dataclasses.replace(spec, evaluate=lambda *a: evaluated.append(a))
    monkeypatch.setitem(verify._REGISTRY, RelationId(rid), spy)
    for beta in (0, -1, 1.5):
        with pytest.raises(ValueError) as exc:
            check_all([rid], betas=[2, beta])
        assert str(exc.value) == f"beta must be a positive integer, got {beta}"
    assert evaluated == []


def test_limit_companions_word_beta_and_k_once():
    for errors_at, param in ((limit_poly_errors, 0.5), (limit_xi_errors, 0.5)):
        with pytest.raises(ValueError, match=r"^beta must be a positive integer, got 0$"):
            errors_at(1, 1, 0, param, [2])
        with pytest.raises(ValueError, match=r"^k 17 is too large: q = 1 - 10\^-k rounds to 1$"):
            errors_at(1, 1, 1, param, [2, 17])
    assert verify.limit_q(16) == 1.0 - 1e-16 < 1.0


# sha256 of repr(check_all()) on the default grids: relation, tol, grid,
# residuals, skipped and failures of all 20 reports.  A change that moves a
# digit re-records it and says in CHANGES.md which reports moved.
_DEFAULT_REPORTS_SHA256 = "bf5106de516f42d28989971a85195caf63eb1622ae0006ebf9c7d38807507a11"


def test_default_reports_are_pinned():
    reports = check_all()
    assert len(reports) == 20
    assert hashlib.sha256(repr(reports).encode()).hexdigest() == _DEFAULT_REPORTS_SHA256


def test_check_all_builds_each_block_and_qexp_once(monkeypatch):
    # the cache built a MeixnerParams on every row miss (56,614 in one
    # check_all() for 342 blocks) and genfun_degree formed e_q and E_q at
    # every grid point (648 calls for 24 distinct arguments); the limit
    # relations built their parameters outside the cache, 450 MeixnerParams
    # for 18 blocks and 2,700 MatrixElementParams for 36 (q, theta, beta)
    blocks = Counter()
    elements = Counter()
    qexps = Counter()

    class Counted(MeixnerParams):
        @classmethod
        def from_beta(cls, beta, c, ctx, c_shift=0):
            blocks[ctx.q, c, beta, c_shift] += 1
            return MeixnerParams.from_beta(beta, c, ctx, c_shift)

    def counted_element(theta, beta, ctx):
        elements[ctx.q, theta, beta] += 1
        return MatrixElementParams(theta, beta, ctx)

    def counting(name):
        original = getattr(verify, name)

        def wrapper(z, ctx):
            qexps[name] += 1
            return original(z, ctx)

        return wrapper

    monkeypatch.setattr(verify, "MeixnerParams", Counted)
    monkeypatch.setattr(verify, "MatrixElementParams", counted_element)
    for name in ("little_qexp", "big_qexp"):
        monkeypatch.setattr(verify, name, counting(name))
    check_all()
    limit = {block for block in blocks if block[0] not in verify._QS}
    assert len(blocks) == 360 and len(limit) == 18
    assert max(blocks.values()) == 1
    assert len(elements) == 36 and max(elements.values()) == 1
    assert qexps == {"little_qexp": 6, "big_qexp": 18}


# sha256 of repr() of orthogonality_sum and dual_orthogonality_sum over
# q in (0.4, 0.7, 0.95), theta in (0.3, -0.7, 2.0), beta in (1, 2, 4) and
# 0 <= n <= n2 <= 5, recorded when meixner.py still held its own copy of both
_ORTHOGONALITY_SUMS_SHA256 = "c199dde37f6a4b1a4c5fd760f19fd29922dd329c953a87a428f14d49e3f456ff"


def test_public_orthogonality_sums_are_the_registry_sums_bit_for_bit():
    sums = []
    for q in (0.4, 0.7, 0.95):
        for theta in (0.3, -0.7, 2.0):
            for beta in (1, 2, 4):
                mp = MatrixElementParams(theta, beta, QContext(q=q))
                for n in range(6):
                    for n2 in range(n, 6):
                        sums.append(orthogonality_sum(n, n2, mp))
                        sums.append(dual_orthogonality_sum(n, n2, mp))
    assert hashlib.sha256(repr(sums).encode()).hexdigest() == _ORTHOGONALITY_SUMS_SHA256


@pytest.mark.parametrize("n, n2", [(-1, 0), (0, -1), (3, -1)])
def test_orthogonality_sum_refuses_a_negative_degree(n, n2):
    # a cache row indexed by a negative degree read its own last entry
    mp = MatrixElementParams(0.3, 1, QContext(q=0.5))
    with pytest.raises(ValueError, match=r"^degree n and lattice point x must be >= 0$"):
        orthogonality_sum(n, n2, mp)


def test_ortho_variable_refuses_a_scale_beyond_the_double_range():
    # omega_0 = 1/((1 + c)(1 + c q)) underflows to 0 at c = 1e200, where
    # 1/omega_0 divided by zero
    with pytest.raises(OverflowError) as exc:
        check(RelationId.ORTHO_VARIABLE, grid=[GridPoint(0.4, 2, 1e100, 0, 0)])
    assert str(exc.value) == (
        "sqrt(omega_x omega_x2) = 0.0 at q = 0.4, theta = 1e+100, beta = 2, (0, 0): "
        "the scale or its reciprocal exceeds the double range"
    )


def test_a_series_refusal_names_the_relation_and_the_point():
    # the 1phi1 of the degree generating function refused with no word of
    # the relation or the point it was evaluated at
    with pytest.raises(NonConvergent) as exc:
        check_all([RelationId.GENFUN_DEGREE], qs=[1e-4], thetas=[1e-30])
    assert str(exc.value) == (
        "genfun_degree at q = 0.0001, theta = 1e-30, beta = 1, (0, 5): "
        "1_phi_1 series term 5 is not finite"
    )


def test_a_pole_refusal_keeps_its_type_and_names_the_point(monkeypatch):
    def pole(*args):
        raise PoleHit("denominator parameter hit a pole at term 1")

    monkeypatch.setattr(verify, "basic_hypergeometric", pole)
    with pytest.raises(PoleHit) as exc:
        check(RelationId.GENFUN_DEGREE, grid=[GridPoint(0.5, 1, 0.3, 0, 2, 0.1)])
    assert str(exc.value) == (
        "genfun_degree at q = 0.5, theta = 0.3, beta = 1, (0, 2): "
        "denominator parameter hit a pole at term 1"
    )


def test_ortho_degree_scale_survives_an_overflowing_norm_product():
    # h_3 h_8 overflows at theta = 1e-15, but sqrt(h_3) sqrt(h_8) does not;
    # the scale was sqrt(inf), and the residual 0 passed whatever the sum
    report = check(RelationId.ORTHO_DEGREE, grid=[GridPoint(0.4, 1, 1e-15, 3, 8)])
    (absolute, relative), = report.residuals
    assert report.passed and absolute > 0.0
    assert 0.0 < relative <= 1e-9  # a finite scale
