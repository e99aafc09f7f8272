"""Partial fractions, telescoping closed forms, cancellation witnesses, the
truncated double sum, and the structural second-derivative identity."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mzvfactor.numeric import (MAX_PRECISION, ZERO, ApproxReal, DomainError, frac_to_decimal,
                               harmonic)
from mzvfactor.pfunc import (
    _sum_brackets,
    fpp_assembly_identity,
    interchange_bound_check,
    p_coefficient_witness,
    p_eval,
    partial_fraction_check,
)
from mzvfactor.report import RunConfig
from mzvfactor.series import zeta_even_truncated
from mzvfactor.suites import run_suite


def test_partial_fraction_examples():
    assert partial_fraction_check(Fraction(1, 2), 1, 2)
    assert partial_fraction_check(Fraction(0), 3, 7)


def test_partial_fraction_pole_rejected():
    with pytest.raises(DomainError):
        partial_fraction_check(Fraction(2), 2, 5)


@given(st.fractions(min_value=Fraction(-3), max_value=Fraction(3)),
       st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30))
@settings(max_examples=200)
def test_partial_fraction_random(x, l1, gap):
    l2 = l1 + gap
    if x * x in (Fraction(l1 * l1), Fraction(l2 * l2)):
        return
    assert partial_fraction_check(x, l1, l2)


def test_partial_fraction_200_seeded_triples():
    rng = random.Random(20240817)
    for _ in range(200):
        l1 = rng.randint(1, 50)
        l2 = l1 + rng.randint(1, 50)
        x = Fraction(rng.randint(-300, 300), rng.randint(301, 600))
        assert partial_fraction_check(x, l1, l2)


def telescoped_tail(n: int, j: int, M: int) -> tuple[Fraction, Fraction]:
    """The partial telescoped l2-sum and its closed form -4 H(2n)/n^(2j+1):
    returns (partial, closed_form) with

        partial = -4/n^(2j+1) * sum_{l2=n+1}^{M} (1/(l2-n) - 1/(l2+n)).

    The two differ by at most telescoped_remainder_bound(n, j, M).
    """
    if M <= 2 * n:
        raise DomainError("need M > 2n so the telescoping has collapsed")
    s = ZERO
    for l2 in range(n + 1, M + 1):
        s += Fraction(1, l2 - n) - Fraction(1, l2 + n)
    scale = Fraction(-4, n ** (2 * j + 1))
    return scale * s, scale * harmonic(2 * n)


def telescoped_remainder_bound(n: int, j: int, M: int) -> Fraction:
    """8n / (n^(2j+1) (M-n)), a bound on |partial - closed_form| of
    telescoped_tail(n, j, M)."""
    return Fraction(8 * n, n ** (2 * j + 1) * (M - n))


def test_telescoped_tail_closed_forms():
    # n=1, j=1: closed form -4 H(2) = -6
    partial, closed = telescoped_tail(1, 1, 500)
    assert closed == -6
    assert abs(partial - closed) <= telescoped_remainder_bound(1, 1, 500)

    partial, closed = telescoped_tail(2, 1, 100)
    assert closed == Fraction(-4, 8) * harmonic(4) == Fraction(-25, 24)
    assert telescoped_remainder_bound(2, 1, 100) == Fraction(16, 8 * 98)
    assert abs(partial - closed) <= Fraction(16, 8 * 98)

    partial, closed = telescoped_tail(1, 5, 10)
    assert abs(partial - closed) <= telescoped_remainder_bound(1, 5, 10)

    for n in range(1, 8):
        for j in (1, 2, 3):
            for M in (2 * n + 1, 3 * n, 50):
                partial, closed = telescoped_tail(n, j, M)
                assert abs(partial - closed) <= telescoped_remainder_bound(n, j, M)


def test_telescoped_tail_partial_is_exact_sum():
    # oracle: direct summation of the telescoping terms
    n, j, M = 3, 2, 30
    s = sum(Fraction(1, l2 - n) - Fraction(1, l2 + n) for l2 in range(n + 1, M + 1))
    partial, _ = telescoped_tail(n, j, M)
    assert partial == Fraction(-4, n ** (2 * j + 1)) * s


def finite_part(n: int, j: int) -> tuple[Fraction, Fraction]:
    """(direct, closed): the sum -4/n^(2j+1) * sum_{l1=1}^{n-1} (1/(l1-n) -
    1/(l1+n)) and the value 4 (H(2n-1) - 1/n)/n^(2j+1) it collapses to;
    the two must be equal."""
    if n < 1 or j < 1:
        raise DomainError("need n, j >= 1")
    s = Fraction(0)
    for l1 in range(1, n):
        s += Fraction(1, l1 - n) - Fraction(1, l1 + n)
    direct = Fraction(-4, n ** (2 * j + 1)) * s
    closed = 4 * (harmonic(2 * n - 1) - Fraction(1, n)) / Fraction(n ** (2 * j + 1))
    return direct, closed


def test_finite_part_examples():
    assert finite_part(1, 1) == (0, 0)
    assert finite_part(2, 1) == (Fraction(2, 3), Fraction(2, 3))
    direct, closed = finite_part(3, 2)
    assert direct == closed == 4 * (harmonic(5) - Fraction(1, 3)) / Fraction(3 ** 5)
    for n in range(1, 30):
        for j in (1, 2, 3):
            direct, closed = finite_part(n, j)
            assert direct == closed
            # the finite part is the second of the witness's three pieces
            assert direct == p_coefficient_witness(n, j)[1]


def test_witness_examples():
    assert p_coefficient_witness(1, 1) == (Fraction(-6), Fraction(0), Fraction(6))
    assert sum(p_coefficient_witness(2, 1)) == 0
    assert sum(p_coefficient_witness(5, 3)) == 0


def test_witness_cancellation_sweep():
    for n in range(1, 60):
        for j in range(1, 6):
            assert sum(p_coefficient_witness(n, j)) == 0


def test_p_eval_at_zero_is_six_zeta():
    v = p_eval(Fraction(0), 1000)
    assert v.contains(6 * zeta_even_truncated(1000, 1))


def test_p_eval_matches_direct_double_sum():
    # oracle: the literal double truncation at small N
    x, N = Fraction(1, 2), 25
    x2 = x * x
    single = sum(Fraction(1, n * n) / (1 - x2 / (n * n)) for n in range(1, N + 1))
    double = Fraction(0)
    for l1 in range(1, N + 1):
        for l2 in range(l1 + 1, N + 1):
            double += 1 / (Fraction(l1 * l1) * l2 * l2
                           * (1 - x2 / (l1 * l1)) * (1 - x2 / (l2 * l2)))
    expected = 6 * single - 8 * x2 * double
    assert p_eval(x, N).contains(expected)


def _exact_sums(x: Fraction, N: int) -> tuple[Fraction, Fraction]:
    terms = [1 / (Fraction(n * n) - x * x) for n in range(1, N + 1)]
    return sum(terms), sum(t * t for t in terms)


def _exact_p(x: Fraction, N: int) -> Fraction:
    # the same pair-sum rearrangement, in exact rationals
    s, s2 = _exact_sums(x, N)
    return 6 * s - 8 * x * x * (s * s - s2) / 2


@pytest.mark.parametrize("x", [Fraction(0), Fraction(1, 2), Fraction(-3, 7), Fraction(9, 10)])
def test_p_eval_ball_contains_exact_truncation(x):
    for N in (11, 57, 200):
        exact = _exact_p(x, N)
        for prec in (32, 64, 128, 256):
            v = p_eval(x, N, prec)
            assert v.contains(exact), (x, N, prec)
            assert v.err < N * Fraction(2) ** (16 - prec)


def test_p_eval_honours_its_precision():
    for x in (Fraction(0), Fraction(1, 3)):
        assert p_eval(x, 300, 256).err < p_eval(x, 300, 128).err


def test_p_eval_near_constant_in_x():
    base = p_eval(Fraction(0), 1000)
    probe = p_eval(Fraction(1, 2), 1000)
    assert abs(base.value - probe.value) < Fraction(1, 100)


def test_p_eval_pole_guard():
    with pytest.raises(DomainError):
        p_eval(Fraction(3, 2), 100)
    # the boundary is exact: a point at exactly 1/N from the pole is
    # admitted, dyadic or not, and one any nearer is refused
    for x, N in ((Fraction(1023, 1024), 1024), (Fraction(3, 4), 4), (Fraction(2, 3), 3),
                 (Fraction(4, 5), 5), (Fraction(-9, 10), 10), (Fraction(99, 100), 100),
                 (Fraction(999, 1000), 1000), (Fraction(9999, 10000), 10 ** 4)):
        assert p_eval(x, N).value > 0, (x, N)
        with pytest.raises(DomainError):
            p_eval(x, N - 1)
        with pytest.raises(DomainError):
            p_eval(x * (1 + Fraction(1, 10 ** 30)), N)


def _p_eval_brackets(x: Fraction, N: int, precision: int) -> ApproxReal:
    """The reference: the same guard, then S and S2 summed term by term in
    brackets of `precision` bits, about 4N rounded bracket operations, each
    term 1/(n^2 - x^2) over the bracket x^2 of a rounded x, rounded outward."""
    if N < 2:
        raise DomainError("p_eval needs N >= 2")
    x = Fraction(x)
    if abs(x) >= 1:
        raise DomainError("p_eval needs 0 <= |x| < 1")
    if 1 - abs(x) < Fraction(1, N):
        raise DomainError(f"x within 1/{N} of the pole at 1; bracket would be vacuous")
    xa = ApproxReal.from_bracket(x, x, precision)
    x2 = xa * xa
    s = s2 = ApproxReal(0, 0, precision)
    for n in range(1, N + 1):
        term = ApproxReal.from_bracket(1 / (n * n - x2.lo), 1 / (n * n - x2.hi), precision)
        s = s + term
        s2 = s2 + term * term
    return 6 * s - x2 * (s * s - s2) * 4


_points = st.integers(min_value=1, max_value=60).flatmap(
    lambda b: st.builds(Fraction, st.integers(min_value=-(9 * b // 10), max_value=9 * b // 10),
                        st.just(b)))


@given(_points, st.integers(min_value=2, max_value=400), st.sampled_from([32, 64, 100, 256, 512]))
@settings(max_examples=120, deadline=None)
def test_p_eval_agrees_with_the_bracket_loop(x, N, precision):
    try:
        ref = _p_eval_brackets(x, N, precision)
    except DomainError:
        with pytest.raises(DomainError):
            p_eval(x, N, precision)
        return
    v = p_eval(x, N, precision)
    assert max(v.lo, ref.lo) <= min(v.hi, ref.hi)
    assert v.err <= abs(v.value) / 2 ** (precision + 1)
    if N <= 60:
        assert v.contains(_exact_p(x, N))
        S, S2 = _sum_brackets(x, N, precision)
        exact_s, exact_s2 = _exact_sums(x, N)
        assert S.contains(exact_s) and S2.contains(exact_s2)


@pytest.mark.parametrize("x, N, precision", [
    (Fraction(0), 2, 32), (Fraction(-7, 10), 90, 64), (Fraction(9, 10), 700, 128)])
def test_the_sum_brackets_are_the_floor_sums_and_n_units_above(x, N, precision):
    # each term floored on 2^-W, from the exact rational term
    W = precision + N.bit_length() + 8
    terms = [1 / (n * n - x * x) for n in range(1, N + 1)]
    s = sum(math.floor(t * (1 << W)) for t in terms)
    s2 = sum(math.floor(t * t * (1 << W)) for t in terms)
    S, S2 = _sum_brackets(x, N, precision)
    assert (S.l, S.h, S.bits) == (s, s + N, W)
    assert (S2.l, S2.h, S2.bits) == (s2, s2 + N, W)


@pytest.mark.parametrize("x", [Fraction(5, 9), Fraction(-7, 10), Fraction(9, 10)])
def test_the_floor_sums_bracket_the_exact_sums(x):
    # the floors lose more than N/2 units here, so the sums sit in the upper
    # half of [s, s + N] 2^-W: a bracket that kept only the floor's half
    # would miss them
    N, precision = 90, 64
    S, S2 = _sum_brackets(x, N, precision)
    exact_s, exact_s2 = _exact_sums(x, N)
    for bracket, exact in ((S, exact_s), (S2, exact_s2)):
        assert bracket.contains(exact)
        assert exact > bracket.value


@pytest.mark.parametrize("precision", [32, 128, 512])
def test_p_eval_radius_does_not_grow_with_N(precision):
    for x in (Fraction(0), Fraction(-1, 3), Fraction(9, 10)):
        for N in (20, 10 ** 3, 10 ** 5):
            v = p_eval(x, N, precision)
            assert v.err <= abs(v.value) / 2 ** (precision + 1), (x, N)


def test_p_eval_combines_the_sums_at_their_working_precision():
    # S, S2 and x^2 keep W = P + bitlen(N) + 8 bits through the combination;
    # rounded at P bits, the radius here was 6.09 times 2^-P of the value
    v = p_eval(Fraction(9, 10), 1000, 128)
    assert v.err <= abs(v.value) / 2 ** 128


def test_p_eval_at_the_precision_ceiling_keeps_its_working_precision():
    # W = P + bitlen(N) + 8 passes MAX_PRECISION here; the bracket is not
    # capped there, so the radius bound holds at the ceiling too
    v = p_eval(Fraction(9, 10), 50, MAX_PRECISION)
    assert v.bits == MAX_PRECISION + (50).bit_length() + 8
    assert v.err <= abs(v.value) / 2 ** (MAX_PRECISION + 1)


@pytest.mark.parametrize("x, N, precision, units", [
    (Fraction(9, 10), 2000, 64, 26), (Fraction(9, 10), 500, 128, 47),
    (Fraction(-9, 10), 4000, 256, 78)])
def test_p_eval_rounds_x_squared_once(x, N, precision, units):
    # x^2 = a^2/b^2 is rounded once, not squared from a rounded x; squaring
    # gave radii of 54.9, 62.1 and 97.7 units of 2^-precision here
    assert p_eval(x, N, precision).err <= Fraction(units, 2 ** precision)


def test_interchange_bounds():
    assert interchange_bound_check(Fraction(1, 2), 50)
    assert interchange_bound_check(Fraction(1, 10), 50)
    with pytest.raises(DomainError):
        interchange_bound_check(Fraction(0), 10)


def test_interchange_bound_shrinks_with_x():
    # the bound 32 x^2/(1-x^2) vanishes as x -> 0, and so do the sums
    x = Fraction(1, 1000)
    assert interchange_bound_check(x, 20)
    assert 32 * x * x / (1 - x * x) < Fraction(1, 10 ** 4)


def test_assembly_identity_through_twelve():
    for n in range(1, 13):
        assert fpp_assembly_identity(n)


@pytest.mark.parametrize("N", [10, 11, 100, 700])
def test_p_constancy_passes_within_its_derived_truncation_bound(N):
    # the deviation is 36.7/N to 38.8/N here, and the bound
    # 6/N + 3.24 (12/N + 1/N^2) + 2^-128 stays below 46/N: at the default
    # tolerance 0 every N >= 10 passes, and at N = 1000 the bound is below
    # the fixed tolerance 1/20 it replaces
    records = {r.claim_id: r for r in run_suite("p-constant", RunConfig(N=N, n_max=5, j_max=2))}
    record = records[f"p.constancy.N{N}"]
    bound = (Fraction(6, N) + Fraction(324, 100) * (Fraction(12, N) + Fraction(1, N * N))
             + Fraction(1, 2 ** 128))
    assert record.status == "pass" and record.params["tolerance"] == "0"
    assert record.certified_error == frac_to_decimal(bound, 45)
    assert Fraction(36, N) < Fraction(record.params["observed_exact"]) <= bound < Fraction(46, N)
    assert Fraction(6, 1000) + Fraction(324, 100) * (Fraction(12, 1000) + Fraction(1, 10 ** 6)) \
        + Fraction(1, 2 ** 128) < Fraction(1, 20)
