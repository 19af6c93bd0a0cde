"""Deformed oscillator matrices, sectors, and the discrete-series combination."""

from typing import NamedTuple

import numpy as np
import pytest

from qmeixner.errors import OutOfTruncation
from qmeixner.oscillator import (
    FockTruncation,
    JOperators,
    OperatorMatrix,
    Oscillators,
    _ladders,
    build_J,
    build_oscillators,
    from_offset_blocks,
    interior_indices,
    ladder_coefficients,
    offset_block,
    sector,
    sector_offset,
    su11_generators,
)
from qmeixner.qseries import QContext

# the ordinary boson pair followed by its su(1,1) generators
ClassicalOperators = NamedTuple(
    "ClassicalOperators",
    [(f, OperatorMatrix) for f in Oscillators._fields + JOperators._fields],
)


def build_classical(t: FockTruncation) -> ClassicalOperators:
    """Ordinary boson pair and su(1,1) generators (q -> 1 companions):

    A~-|n> = sqrt(n)|n-1>, J~0 = (A~0+B~0+1)/2, J~+- = A~+-B~+-,
    with [J~+, J~-] = -2 J~0 on the sectors |n, n+beta-1>.
    """
    osc = _ladders(
        t,
        np.sqrt(np.arange(1, t.n_a_max + 1, dtype=float)),
        np.sqrt(np.arange(1, t.n_b_max + 1, dtype=float)),
    )
    return ClassicalOperators(*osc, *su11_generators(osc))


def interior_block(m: np.ndarray, basis: FockTruncation, margin: int) -> np.ndarray:
    mask = interior_indices(basis, basis.n_a_max - margin, basis.n_b_max - margin)
    return m[np.ix_(mask, mask)]


def test_truncation_validation():
    with pytest.raises(ValueError):
        FockTruncation(0, 4)


def test_basis_enumeration_roundtrip():
    basis = FockTruncation(3, 5)
    for na in range(4):
        for nb in range(6):
            assert basis.state(basis.index(na, nb)) == (na, nb)
    with pytest.raises(OutOfTruncation):
        basis.index(4, 0)


def test_b_raising_coefficient():
    # <1| B+ |0> = sqrt((q^-1 - 1)/(1 - q)) = 2 at q = 0.25
    osc = build_oscillators(FockTruncation(2, 2), QContext(q=0.25))
    basis = osc.b0.basis
    assert osc.b_plus.entries[basis.index(0, 1), basis.index(0, 0)] == pytest.approx(
        2.0, rel=1e-15
    )


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
def test_oscillator_commutation_relations(q):
    ctx = QContext(q=q)
    t = FockTruncation(10, 10)
    osc = build_oscillators(t, ctx)
    basis = osc.a0.basis
    eye = np.eye(basis.dim)
    na = basis.na.astype(float)
    nb = basis.nb.astype(float)

    down_up_a = osc.a_minus.entries @ osc.a_plus.entries
    up_down_a = osc.a_plus.entries @ osc.a_minus.entries
    down_up_b = osc.b_minus.entries @ osc.b_plus.entries
    up_down_b = osc.b_plus.entries @ osc.b_minus.entries

    # raising annihilates the top level, so check away from the edge; the
    # B products reach size q^-nb, so residuals are scaled by the operands
    # (the cancellation q B-B+ - B+B- = 1 cannot do better than that in
    # doubles)
    for t1, t2, rhs in [
        (down_up_a, q * up_down_a, eye),
        (down_up_a, up_down_a, np.diag(q**na)),
        (q * down_up_b, up_down_b, eye),
        (down_up_b, up_down_b, np.diag(q ** (-nb - 1.0))),
    ]:
        scale = np.maximum(np.maximum(np.abs(t1), np.abs(t2)), 1.0)
        scaled = np.abs(t1 - t2 - rhs) / scale
        assert interior_block(scaled, basis, 2).max() <= 1e-12


@pytest.mark.parametrize("q", [0.5, 0.9])
def test_j_commutation_relation(q):
    ctx = QContext(q=q)
    j = build_J(FockTruncation(10, 10), ctx)
    basis = j.j0.basis
    na = basis.na.astype(float)
    nb = basis.nb.astype(float)
    t1 = j.j_plus.entries @ j.j_minus.entries
    t2 = j.j_minus.entries @ j.j_plus.entries
    # on the product space the commutator is diagonal in both number
    # operators; it collapses to -2 J0 only in the q -> 1 limit
    expected = -np.diag(q * (q**-na - q ** (nb + 1.0)) / (1.0 - q))
    scale = np.maximum(np.maximum(np.abs(t1), np.abs(t2)), 1.0)
    scaled = np.abs(t1 - t2 - expected) / scale
    assert interior_block(scaled, basis, 2).max() <= 1e-12
    for sign, ladder in [(1.0, j.j_plus.entries), (-1.0, j.j_minus.entries)]:
        comm0 = j.j0.entries @ ladder - ladder @ j.j0.entries
        assert np.abs(interior_block(comm0 - sign * ladder, basis, 2)).max() <= 1e-12


def test_sector_enumeration():
    sec = sector(FockTruncation(2, 4), 3)
    basis = FockTruncation(2, 4)
    assert [basis.state(i) for i in sec] == [(0, 2), (1, 3), (2, 4)]


def test_sector_empty():
    with pytest.raises(OutOfTruncation, match="beta=5 has no states"):
        sector(FockTruncation(4, 2), 5)


def test_sector_invariance_under_J():
    ctx = QContext(q=0.5)
    t = FockTruncation(6, 8)
    j = build_J(t, ctx)
    basis = j.j0.basis
    delta = basis.nb - basis.na  # beta - 1 is conserved
    for m in (j.j_plus.entries, j.j_minus.entries):
        rows, cols = np.nonzero(m)
        assert np.array_equal(delta[rows], delta[cols])


def ladder_power_action(
    which: str,
    power: int,
    state: tuple[int, int],
    t: FockTruncation,
    ctx: QContext,
) -> tuple[float, tuple[int, int] | None]:
    """Closed-form coefficient of (A-B-)^mu or (A+B+)^nu on |x>_beta, the
    reference that build_oscillators' pair ladders are checked against.

    lower:  (A-B-)^mu |x>_beta = (1-q)^-mu
            sqrt( (q^-x;q)_mu (q^(1-x-beta);q)_mu q^(mu x - C(mu,2)) ) |x-mu>_beta
    raise:  (A+B+)^nu |y>_beta = (1-q)^-nu
            sqrt( (q^(y+1);q)_nu (q^(y+beta);q)_nu q^(-nu(y+beta) - C(nu,2)) ) |y+nu>_beta

    The radicand is accumulated in positive per-step pairs, so no negative
    intermediate products appear.  Lowering past the bottom returns
    coefficient 0 with target None; raising past the truncation raises
    OutOfTruncation.
    """
    if power < 0:
        raise ValueError("power must be >= 0")
    x, beta = state
    if x < 0 or beta < 1:
        raise ValueError("state must have x >= 0 and beta >= 1")
    q = ctx.q
    if which == "lower":
        if power > x:
            return 0.0, None
        target = x - power
        steps = [
            (1.0 - q ** (j - x)) * (1.0 - q ** (j + 1 - x - beta)) * q ** (x - j)
            for j in range(power)
        ]
    elif which == "raise":
        target = x + power
        if target > t.n_a_max or target + beta - 1 > t.n_b_max:
            raise OutOfTruncation(
                f"(A+B+)^{power} from ({x}, beta={beta}) leaves the truncation"
            )
        steps = [
            (1.0 - q ** (x + 1 + j)) * (1.0 - q ** (x + beta + j)) * q ** (-(x + beta) - j)
            for j in range(power)
        ]
    else:
        raise ValueError(f"which must be 'lower' or 'raise', got {which!r}")
    rad = 1.0
    for step in steps:
        rad *= step
    return float((1.0 - q) ** (-power) * np.sqrt(rad)), (target, beta)


@pytest.mark.parametrize("which,power", [("lower", 0), ("lower", 2), ("raise", 3)])
def test_ladder_power_matches_matrices(which, power):
    ctx = QContext(q=0.6)
    t = FockTruncation(8, 10)
    osc = build_oscillators(t, ctx)
    basis = osc.a0.basis
    x, beta = 3, 2
    coeff, target = ladder_power_action(which, power, (x, beta), t, ctx)
    pair = (
        osc.a_minus.entries @ osc.b_minus.entries
        if which == "lower"
        else osc.a_plus.entries @ osc.b_plus.entries
    )
    m = np.linalg.matrix_power(pair, power)
    vec = np.zeros(basis.dim)
    vec[basis.index(x, x + beta - 1)] = 1.0
    out = m @ vec
    expect = np.zeros(basis.dim)
    if target is not None:
        expect[basis.index(target[0], target[0] + beta - 1)] = coeff
    assert np.abs(out - expect).max() <= 1e-12 * max(1.0, abs(coeff))


def test_ladder_power_bottom_and_top():
    ctx = QContext(q=0.6)
    t = FockTruncation(4, 5)
    coeff, target = ladder_power_action("lower", 5, (3, 2), t, ctx)
    assert coeff == 0.0 and target is None
    with pytest.raises(OutOfTruncation):
        ladder_power_action("raise", 3, (2, 2), t, ctx)


class NoProduct(np.ndarray):
    """An array that refuses to take part in a matrix product."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            raise AssertionError("a dense matrix product was formed")
        inputs = [np.asarray(x) for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


@pytest.mark.parametrize("t", [FockTruncation(20, 20), FockTruncation(3, 5), FockTruncation(6, 2)])
def test_pair_ladders_are_the_dense_products_without_one(t):
    osc = build_oscillators(t, QContext(q=0.9))
    guarded = Oscillators(
        *(OperatorMatrix(m.entries.view(NoProduct), m.basis) for m in osc)
    )
    j = su11_generators(guarded)
    assert np.array_equal(j.j_plus.entries, osc.a_plus.entries @ osc.b_plus.entries)
    assert np.array_equal(j.j_minus.entries, osc.a_minus.entries @ osc.b_minus.entries)


def test_classical_su11_commutator():
    cl = build_classical(FockTruncation(12, 12))
    basis = cl.j0.basis
    comm = cl.j_plus.entries @ cl.j_minus.entries - cl.j_minus.entries @ cl.j_plus.entries
    assert np.abs(
        interior_block(comm + 2.0 * cl.j0.entries, basis, 2)
    ).max() <= 1e-12


@pytest.mark.parametrize("t", [FockTruncation(3, 5), FockTruncation(5, 2), FockTruncation(1, 1)])
def test_offset_blocks_partition_the_product_basis(t):
    seen = []
    for d in range(-t.n_a_max - 1, t.n_b_max + 2):
        levels, idx = offset_block(t, d)
        assert [t.state(i) for i in idx] == [(m, m + d) for m in levels]
        seen += idx.tolist()
    assert sorted(seen) == list(range(t.dim))


def test_sector_offset_is_the_one_empty_sector_rule():
    t = FockTruncation(4, 2)
    assert [sector_offset(t, beta) for beta in (1, 2, 3)] == [0, 1, 2]
    for beta in (0, -1):
        with pytest.raises(ValueError, match="beta must be a positive integer"):
            sector_offset(t, beta)
    with pytest.raises(OutOfTruncation, match="beta=4 has no states"):
        sector_offset(t, 4)


def test_from_offset_blocks_scatters_each_block_onto_its_states():
    t = FockTruncation(3, 4)
    blocks = {}
    for d in range(-t.n_a_max, t.n_b_max + 1):
        size = offset_block(t, d)[0].size
        blocks[d] = np.arange(size * size, dtype=float).reshape(size, size) + 100 * d
    dense = from_offset_blocks(t, blocks).entries
    for d, block in blocks.items():
        _, idx = offset_block(t, d)
        assert np.array_equal(dense[np.ix_(idx, idx)], block)
    assert np.count_nonzero(dense) == sum(np.count_nonzero(b) for b in blocks.values())


def test_ladder_coefficients_are_the_oscillator_entries():
    t = FockTruncation(5, 7)
    a_up, b_up = ladder_coefficients(t, 0.7)
    osc = build_oscillators(t, QContext(q=0.7))
    basis = osc.a0.basis
    for n in range(1, t.n_a_max + 1):
        assert osc.a_minus.entries[basis.index(n - 1, 0), basis.index(n, 0)] == a_up[n - 1]
    for n in range(1, t.n_b_max + 1):
        assert osc.b_plus.entries[basis.index(0, n), basis.index(0, n - 1)] == b_up[n - 1]
