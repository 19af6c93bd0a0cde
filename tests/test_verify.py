"""Relation registry behavior: grids, domains, judgments, known defects."""

import dataclasses
import math

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
)


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
