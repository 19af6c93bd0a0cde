"""Scalar q-series primitives: frozen oracles, shift identities, contracts."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmeixner.errors import NonConvergent, PoleHit
from qmeixner.pseudorotation import _block_series
from qmeixner.qseries import (
    MAX_TERMS,
    CompensatedSum,
    QContext,
    QPower,
    adaptive_sum,
    basic_hypergeometric,
    big_qexp,
    little_qexp,
    q_binomial,
    q_pochhammer,
    q_pochhammer_inf,
    ratio_sequence,
)

CTX = QContext(q=0.5)

qs = st.floats(min_value=0.05, max_value=0.95)
# keep z clear of the e_q pole set {q^-m} which starts at z = 1
safe_z = st.floats(min_value=-3.0, max_value=0.9)


def test_pochhammer_hand_value():
    # (0.5; 0.5)_3 = 0.5 * 0.75 * 0.875
    assert q_pochhammer(0.5, 3, CTX) == pytest.approx(0.328125, abs=0.0)


def test_pochhammer_empty_product():
    assert q_pochhammer(0.7, 0, CTX) == 1.0


def test_pochhammer_rejects_negative_order():
    with pytest.raises(ValueError):
        q_pochhammer(0.5, -1, CTX)


@given(a=st.floats(-2.0, 0.95), q=qs, m=st.integers(0, 8), n=st.integers(0, 8))
def test_pochhammer_splitting(a, q, m, n):
    """(a;q)_{m+n} = (a;q)_m (a q^m; q)_n."""
    ctx = QContext(q=q)
    whole = q_pochhammer(a, m + n, ctx)
    split = q_pochhammer(a, m, ctx) * q_pochhammer(a * q**m, n, ctx)
    assert whole == pytest.approx(split, rel=1e-12, abs=1e-15)


def test_pochhammer_inf_matches_finite_for_tiny_tail():
    sv = q_pochhammer_inf(0.5, CTX)
    direct = q_pochhammer(0.5, 80, CTX)  # tail factors are 1 - 5e-25-ish
    assert sv.value == pytest.approx(direct, rel=1e-14)
    assert sv.tail_estimate < 1e-15


def test_pochhammer_inf_reciprocal_pole():
    with pytest.raises(PoleHit):
        q_pochhammer_inf(1.0, CTX, reciprocal=True)


def test_qbinomial_hand_value():
    # [2, 1]_0.5 = (1 - 0.25) / (1 - 0.5)
    assert q_binomial(2, 1, CTX) == pytest.approx(1.5, abs=0.0)


def test_qbinomial_out_of_range_is_zero():
    assert q_binomial(3, -1, CTX) == 0.0
    assert q_binomial(3, 4, CTX) == 0.0


@given(q=qs, n=st.integers(0, 20), k=st.integers(0, 20))
def test_qbinomial_symmetry_exact(q, n, k):
    assume(k <= n)
    ctx = QContext(q=q)
    assert q_binomial(n, k, ctx) == q_binomial(n, n - k, ctx)


@given(n=st.integers(0, 12), k=st.integers(0, 12))
def test_qbinomial_classical_limit(n, k):
    assume(k <= n)
    ctx = QContext(q=1.0 - 1e-8)
    assert q_binomial(n, k, ctx) == pytest.approx(math.comb(n, k), rel=1e-5)


def test_qpower_requires_integer_exponent():
    with pytest.raises(TypeError):
        QPower(1.5)


def test_context_validation():
    with pytest.raises(ValueError):
        QContext(q=1.0)


def test_adaptive_sum_stops_after_three_small_terms():
    # 0.5^k first drops below 1e-18 times the largest term at k = 60
    total, used = adaptive_sum(lambda k: 0.5**k, "geometric")
    assert total == pytest.approx(2.0, rel=1e-15)
    assert used == 63


def test_adaptive_sum_budget_is_nonconvergent():
    calls = []

    def flat(k):
        calls.append(k)
        return 1.0

    with pytest.raises(NonConvergent, match="flat sum exceeded the term budget"):
        adaptive_sum(flat, "flat sum")
    assert len(calls) == MAX_TERMS


def test_adaptive_sum_starts_its_tail_rule_at_the_first_nonzero_term():
    # five leading terms that underflow to 0.0 were a tail of three small
    # terms (at most 1e-18 times a largest term of 0), which ended the sum
    # at (0.0, 3); each term is still read once
    calls = []

    def term(k):
        calls.append(k)
        return 0.0 if k < 5 else 0.5 ** (k - 5)

    total, used = adaptive_sum(term, "late geometric")
    assert total == pytest.approx(2.0, rel=1e-15)
    assert used == 5 + 63
    assert calls == list(range(used))
    with pytest.raises(NonConvergent, match="zero sum exceeded the term budget"):
        adaptive_sum(lambda k: 0.0, "zero sum")


@pytest.mark.parametrize("z, used", [(0.5, 63), (0.9, 397)])
def test_every_sum_ends_by_the_one_tail_rule(z, used):
    # sum z^k: z^k first drops to 1e-18 times the largest term, 1, at
    # k = 60 (z = 0.5) or k = 394 (z = 0.9); the sum ends two terms later
    _, scalar = adaptive_sum(lambda k: z**k, "geometric")
    series = basic_hypergeometric([CTX.q], [], z, CTX)  # 1phi0(q; -; q, z)
    steps = []

    def step(k, term):
        steps.append(k)
        return z * term

    blocks = _block_series(np.ones((2, 1, 1)), step)
    assert (scalar, series.terms_used, len(steps) + 1) == (used, used, used)
    assert series.value == pytest.approx(1.0 / (1.0 - z), rel=1e-14)
    assert blocks == pytest.approx(1.0 / (1.0 - z), rel=1e-14)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_sum_is_refused_at_its_first_non_finite_term(bad):
    # term 2 is the first non-finite one: each sum stops there, with no
    # overflow or invalid-value warning from the block sum
    terms = []

    def term_of(k):
        terms.append(k)
        return bad if k == 2 else 0.5**k

    with pytest.raises(NonConvergent, match="non-finite sum term 2 is not finite"):
        adaptive_sum(term_of, "non-finite sum")
    assert terms == [0, 1, 2]

    steps = []

    def step(k, term):
        steps.append(k)
        return term * (bad if k == 2 else 0.5)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergent, match="term 2 of the series is not finite"):
            _block_series(np.ones((2, 1, 1)), step)
    assert steps == [1, 2]


def test_ratio_sequence_is_a_memoised_running_product():
    steps = []

    def step(s, k):
        steps.append(k)
        return s * (k + 1)

    factorial = ratio_sequence(step)
    assert factorial(5) == 120.0
    assert (factorial(0), factorial(3)) == (1.0, 6.0)
    assert steps == [0, 1, 2, 3, 4]


# --- q-exponentials -------------------------------------------------------


def test_little_qexp_series_agreement():
    # product form vs direct series sum_n z^n / (q;q)_n for |z| < 1
    z = 0.3
    total = 0.0
    term = 1.0
    for n in range(200):
        total += term
        term *= z / (1.0 - CTX.q ** (n + 1))
    assert little_qexp(z, CTX).value == pytest.approx(total, rel=1e-13)


def test_big_qexp_series_agreement():
    z = 0.7
    total = 0.0
    for n in range(200):
        log_term = n * (n - 1) / 2 * math.log(CTX.q) + n * math.log(z)
        den = 1.0
        for k in range(1, n + 1):
            den *= 1.0 - CTX.q**k
        total += math.exp(log_term) / den
    assert big_qexp(z, CTX).value == pytest.approx(total, rel=1e-13)


def test_little_qexp_pole():
    with pytest.raises(PoleHit):
        little_qexp(1.0, CTX)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "product, args, text",
    [
        # each took no factor for a NaN and returned 1.0
        (q_pochhammer_inf, (NAN,), "(a; q)_oo requires a finite a, got nan"),
        (little_qexp, (NAN,), "(a; q)_oo requires a finite a, got nan"),
        (big_qexp, (NAN,), "(a; q)_oo requires a finite a, got nan"),
        # ran MAX_TERMS factors, then raised NonConvergent
        (big_qexp, (INF,), "(a; q)_oo requires a finite a, got -inf"),
        # returned nan
        (q_pochhammer, (NAN, 3), "(a; q)_n requires a finite a, got nan"),
    ],
)
def test_q_products_refuse_an_argument_that_is_not_finite(product, args, text):
    with pytest.raises(ValueError) as exc:
        product(*args, CTX)
    assert str(exc.value) == text


@given(z=safe_z, q=qs)
@settings(max_examples=200)
def test_qexp_inverse_identity(z, q):
    """e_q(z) E_q(-z) = 1."""
    ctx = QContext(q=q)
    prod = little_qexp(z, ctx).value * big_qexp(-z, ctx).value
    assert prod == pytest.approx(1.0, rel=1e-11)


@given(z=safe_z, q=qs)
@settings(max_examples=200)
def test_qexp_shift_identities(z, q):
    """e_q(qz) = (1-z) e_q(z);  E_q(z) = (1+z) E_q(qz);
    and their difference forms e_q(z) - e_q(qz) = z e_q(z),
    E_q(z) - E_q(qz) = z E_q(qz)."""
    ctx = QContext(q=q)
    tol = 1e-11
    ez = little_qexp(z, ctx).value
    eqz = little_qexp(q * z, ctx).value
    bz = big_qexp(z, ctx).value
    bqz = big_qexp(q * z, ctx).value
    scale_e = max(abs(ez), abs(eqz), 1.0)
    scale_b = max(abs(bz), abs(bqz), 1.0)
    assert abs(eqz - (1.0 - z) * ez) <= tol * scale_e
    assert abs(bz - (1.0 + z) * bqz) <= tol * scale_b
    assert abs((ez - eqz) - z * ez) <= tol * scale_e
    assert abs((bz - bqz) - z * bqz) <= tol * scale_b


# --- basic hypergeometric --------------------------------------------------


def test_phi_terminating_hand_value():
    # 2phi1(q^-1, q^-1; q; q, z) = 1 + z (1-q^-1)^2/(1-q)^2, z = 0.1, q = 0.5
    sv = basic_hypergeometric([QPower(-1), QPower(-1)], [QPower(1)], 0.1, CTX)
    assert sv.value == pytest.approx(1.4, abs=1e-15)
    assert sv.tail_estimate == 0.0


def test_phi_termination_is_exact():
    # QPower(-n) caps the sum: huge |z| is harmless
    sv = basic_hypergeometric([QPower(-2)], [], 1e6, CTX)
    assert sv.terms_used <= 3
    assert math.isfinite(sv.value)


@pytest.mark.parametrize(
    "numerators, denominators",
    [([0.3], []), ([QPower(-3), QPower(-2)], [0.25])],
    ids=["converging", "terminating"],
)
def test_phi_magnitude_sums_absolute_terms(numerators, denominators):
    # every Pochhammer ratio here is positive, so the terms at z = -0.4 are
    # the terms at z = 0.4 with alternating signs
    alternating = basic_hypergeometric(numerators, denominators, -0.4, CTX)
    positive = basic_hypergeometric(numerators, denominators, 0.4, CTX)
    assert abs(alternating.value) < positive.value
    assert alternating.magnitude == pytest.approx(positive.value, rel=1e-14)
    assert positive.magnitude == pytest.approx(positive.value, rel=1e-14)


def test_phi_float_near_power_is_not_terminating():
    # a float numerically equal to q^-2 must not trigger termination
    with pytest.raises(NonConvergent):
        basic_hypergeometric([CTX.q**-2, 0.5], [], 1.5, CTX)


def test_phi_divergent_without_termination():
    with pytest.raises(NonConvergent):
        basic_hypergeometric([0.5, 0.5], [], 1.5, CTX)
    # r > s + 1 with no QPower numerator diverges at every z != 0
    with pytest.raises(
        NonConvergent, match="3_phi_0 with no terminating numerator parameter diverges"
    ):
        basic_hypergeometric([0.5, 0.5, 0.5], [], 0.1, QContext(0.9))


def test_phi_denominator_pole():
    with pytest.raises(PoleHit, match="denominator parameter hit a pole at term 3"):
        basic_hypergeometric([QPower(-5)], [QPower(-2)], 0.3, CTX)


@pytest.mark.parametrize(
    "numerators, denominators, z, term",
    [
        ([QPower(-50)], [], 1e300, 1),
        ([QPower(-400)], [0.3], -1e10, 3),
        ([QPower(-5), 2.0], [0.25], 1e308, 1),
    ],
)
def test_terminating_phi_refuses_a_term_that_is_not_finite(
    numerators, denominators, z, term
):
    # each sum returned value=nan
    label = f"{len(numerators)}_phi_{len(denominators)} series"
    with pytest.raises(NonConvergent) as exc:
        basic_hypergeometric(numerators, denominators, z, CTX)
    assert str(exc.value) == f"{label} term {term} is not finite"


def test_phi_refuses_a_converging_sum_lost_to_cancellation():
    # sum of |terms| 1.5e8 against a value of -9.0e-12 ((az; q)_oo / (z; q)_oo
    # in 50-digit mpmath): the double sum gave -3.6e-10
    with pytest.raises(NonConvergent, match="cancellation"):
        basic_hypergeometric(
            [-1.8050566346639796], [], -0.7799579842192175,
            QContext(q=0.8861937987173055),
        )


def test_phi_q_binomial_theorem():
    # 1phi0(a; -; q, z) = (az; q)_oo / (z; q)_oo, |z| < 1
    a, z = 0.4, 0.6
    sv = basic_hypergeometric([a], [], z, CTX)
    expected = (
        q_pochhammer_inf(a * z, CTX).value / q_pochhammer_inf(z, CTX).value
    )
    assert sv.value == pytest.approx(expected, rel=1e-12)


def test_compensated_sum_beats_naive():
    cs = CompensatedSum()
    values = [1e16, 1.0, -1e16, 1.0]
    naive = 0.0
    for v in values:
        cs.add(v)
        naive += v
    assert cs.total == 2.0
    assert naive != 2.0


def _mp_pochhammer_inf(a, q):
    """(a; q)_oo in 50-digit mpmath on the exact a and q: the finite product
    while |a q^k| >= 1e-10, then the tail by its logarithm
    -sum_m (a q^K)^m / (m (1 - q^m)), whose terms fall like 1e-10^m."""
    import mpmath

    with mpmath.workdps(50):
        a, q = mpmath.mpf(a), mpmath.mpf(q)
        prod = mpmath.mpf(1)
        while abs(a) >= 1e-10:
            prod *= 1 - a
            a *= q
        log_tail = -mpmath.fsum(a**m / (m * (1 - q**m)) for m in range(1, 7))
        return prod * mpmath.exp(log_tail)


def test_pochhammer_inf_whose_running_product_overflows_on_the_way():
    # the running product of this E_q peaks near 1e322 and comes back into
    # the double range; the double product stayed at inf
    z, q = -167.04980695166228, 0.9835146630331925
    value = big_qexp(z, QContext(q=q)).value
    assert value == pytest.approx(float(_mp_pochhammer_inf(-z, q)), rel=1e-12)
    assert value == pytest.approx(1.9153e257, rel=1e-4)


def test_pochhammer_inf_beyond_the_double_range_is_refused():
    # (1e5; 0.99)_oo is about 1e2724 in magnitude; it was returned as inf
    with pytest.raises(OverflowError, match="exceeds the double range"):
        q_pochhammer_inf(1e5, QContext(q=0.99))
    # e_q = 1 / (z; q)_oo of such a product lies below the range and
    # rounds to 0 like any double there, and so does its tail
    assert little_qexp(-0.09 * 2.0**100, CTX).value == 0.0
    sv = little_qexp(-0.09 * 2.0**60, CTX)
    assert (sv.value, sv.tail_estimate) == (0.0, 0.0)
