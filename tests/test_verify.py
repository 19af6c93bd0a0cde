"""Relation registry behavior: grids, domains, judgments, known defects."""

import dataclasses
import math
from collections import Counter

import pytest

from qmeixner import verify
from qmeixner.errors import EmptyGrid
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
    with pytest.raises(EmptyGrid):
        check(RelationId.BACKWARD, grid=[])
    with pytest.raises(EmptyGrid):
        # every point is outside the domain
        check(RelationId.COMP_BACKWARD, grid=[GridPoint(0.5, 1, 0.3, 1, 1)])
    with pytest.raises(EmptyGrid):
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


def test_limit_xi_errors_name_tau():
    refusals = {**TAU_REFUSALS, 0.0: "tau 0.0 gives theta = sinh(tau) = 0, which is no theta"}
    for tau, message in refusals.items():
        with pytest.raises(ValueError) as exc:
            limit_xi_errors(1, 1, 1, tau, [2])
        assert str(exc.value) == message
    with pytest.raises(OverflowError):
        limit_xi_errors(1, 1, 1, 1e200, [2])  # cosh(tau) overflows
