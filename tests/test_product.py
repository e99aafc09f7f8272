"""The truncated product: both displays, the shifted form, periodicity with
its sign, and the rise/fall scan."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mzvfactor.numeric import DomainError, pi_oracle
from mzvfactor.product import (
    eval_F,
    eval_F_factored,
    eval_F_shifted,
    monotonicity_scan,
    periodicity_ratio,
    shifted_truncation_gap_bound,
)
from mzvfactor.series import mzv_row

grid_rationals = st.fractions(min_value=Fraction(-10), max_value=Fraction(10))


def fold_F(x, N):
    """Oracle for eval_F: one Fraction factor at a time."""
    x = Fraction(x)
    acc = x
    x2 = x * x
    for n in range(1, N + 1):
        acc *= 1 - x2 / (n * n)
    return acc


def fold_F_shifted(x, N):
    """Oracle for eval_F_shifted: one Fraction factor at a time."""
    x = Fraction(x)
    acc = x * (1 - x)
    for n in range(1, N):
        acc *= Fraction((n + x) * (n + 1 - x), n * (n + 1))
    return acc


@st.composite
def product_points(draw):
    """(x, N) with N in 1..120 and x zero, an integer |m| <= N + 1 (the zeros
    and their neighbours) or a rational of either sign with denominator up
    to 10^6."""
    N = draw(st.integers(min_value=1, max_value=120))
    x = draw(st.one_of(
        st.just(Fraction(0)),
        st.integers(min_value=-N - 1, max_value=N + 1).map(Fraction),
        st.fractions(min_value=-N - 1, max_value=N + 1, max_denominator=10 ** 6)))
    return x, N


@given(product_points())
@example((Fraction(0), 1))
@example((Fraction(-120), 120))
@example((Fraction(-999_999, 1_000_000), 120))
@example((Fraction(1, 999_983), 1))
@settings(max_examples=200, deadline=None)
def test_integer_kernels_match_the_fraction_folds(point):
    x, N = point
    assert eval_F(x, N) == fold_F(x, N)
    assert eval_F_shifted(x, N) == fold_F_shifted(x, N)


def test_eval_F_examples():
    assert eval_F(Fraction(0), 10) == 0
    assert eval_F(Fraction(1), 5) == 0
    assert eval_F(Fraction(1, 2), 1) == Fraction(3, 8)


@given(grid_rationals, st.integers(min_value=1, max_value=100))
@settings(max_examples=60)
def test_oddness_exact(x, N):
    assert eval_F(-x, N) == -eval_F(x, N)


def test_zero_set_exact():
    N = 100
    for m in range(-N, N + 1):
        assert eval_F(Fraction(m), N) == 0


@given(grid_rationals, st.integers(min_value=1, max_value=60))
@settings(max_examples=60)
def test_two_product_forms_agree(x, N):
    assert eval_F(x, N) == eval_F_factored(x, N)


def f_polynomial(N):
    """Oracle for the expanded coefficients of x * prod_{n<=N} (1 - x^2/n^2),
    index = degree: multiply the Fraction factors out one at a time."""
    zero = Fraction(0)
    poly = [zero, Fraction(1)]
    for n in range(1, N + 1):
        poly = [a - b / (n * n) for a, b in zip(poly + [zero, zero], [zero, zero] + poly)]
    return poly


def poly_eval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def test_polynomial_expansion_consistency():
    for N in (1, 4, 9, 12):
        poly = f_polynomial(N)
        row = mzv_row(N, N)
        x = Fraction(3, 5)
        assert poly_eval(poly, x) == eval_F(x, N)
        assert [poly[2 * k + 1] for k in range(N + 1)] == [
            (-1) ** k * z for k, z in enumerate(row)]


def test_shifted_examples():
    assert eval_F_shifted(Fraction(1, 2), 1) == Fraction(1, 4)
    assert eval_F_shifted(Fraction(0), 5) == 0


def test_shifted_closed_relation_and_gap():
    # eval_F_shifted(x, N) = F_{N-1}(x) (N - x)/N, and the gap to eval_F is
    # at most x/(3N) on [0, 1]
    for N in (2, 7, 40):
        for x in (Fraction(1, 2), Fraction(1, 3), Fraction(9, 10)):
            shifted = eval_F_shifted(x, N)
            assert shifted == eval_F(x, N - 1) * (N - x) / N if N > 1 else True
            assert abs(eval_F(x, N) - shifted) <= shifted_truncation_gap_bound(x, N)
            assert shifted_truncation_gap_bound(x, N) == x / (3 * N)


def test_shifted_gap_is_shifted_times_x_over_n():
    for N in (1, 2, 3, 10, 57):
        for x in (Fraction(0), Fraction(1, 7), Fraction(1, 2), Fraction(5, 6),
                  Fraction(1), Fraction(-3, 4), Fraction(7, 3)):
            shifted = eval_F_shifted(x, N)
            assert eval_F(x, N) - shifted == shifted * x / N, (x, N)
    # the bound on |eval_F_shifted| behind x/(3N) is tight near x = 1/2
    assert Fraction(1, 4) < eval_F_shifted(Fraction(1, 2), 200) < Fraction(1, 3)


def test_shifted_gap_bound_is_refused_outside_the_unit_interval():
    for x in (Fraction(-1, 3), Fraction(11, 10), Fraction(2)):
        with pytest.raises(DomainError):
            shifted_truncation_gap_bound(x, 5)


def test_shifted_approaches_inverse_amplitude():
    # F(1/2) = 1/pi: the reciprocal of the Wallis limit
    pi = pi_oracle(96)
    target = 1 / pi.value
    val = eval_F_shifted(Fraction(1, 2), 800)
    assert abs(val - target) < Fraction(1, 2000)


def test_periodicity_examples():
    # the ratio is -(N+1+x)/(N-x): here -(7/2)/(3/2)
    assert periodicity_ratio(Fraction(1, 2), 2) == Fraction(-7, 3)
    r13 = periodicity_ratio(Fraction(1, 3), 1)
    assert r13 == eval_F(Fraction(4, 3), 1) / eval_F(Fraction(1, 3), 1)
    assert r13 == -Fraction(7, 3) / Fraction(2, 3)


@given(st.fractions(min_value=Fraction(1, 8), max_value=Fraction(7, 8)),
       st.integers(min_value=1, max_value=40))
@settings(max_examples=60)
def test_periodicity_sign_is_always_minus(x, N):
    assert periodicity_ratio(x, N) == -Fraction(N + 1 + x, N - x)


def test_periodicity_ratio_approaches_minus_one():
    x = Fraction(1, 3)
    gaps = [abs(periodicity_ratio(x, N) + 1) for N in (10, 100, 1000)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < Fraction(1, 200)


def test_periodicity_pole_rejected():
    with pytest.raises(DomainError):
        periodicity_ratio(Fraction(3), 5)


def test_monotonicity_scan_small_cases():
    assert monotonicity_scan(1, 3) is None
    assert monotonicity_scan(100, 9) is None


def test_monotonicity_scan_holds_one_pair_at_a_time():
    tracemalloc.start()
    try:
        assert monotonicity_scan(20, 2001) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
