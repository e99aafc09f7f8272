"""The truncated product: both displays, the shifted form, periodicity with
its sign, second-derivative probes, and the rise/fall scan."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mzvfactor.numeric import ApproxReal, DomainError, pi_oracle
from mzvfactor.polys import poly_eval
from mzvfactor.product import (
    eval_F,
    eval_F_approx,
    eval_F_factored,
    eval_F_shifted,
    f_polynomial,
    monotonicity_scan,
    periodicity_ratio,
    periodicity_sign_report,
    second_derivative_fd,
    shifted_truncation_gap_bound,
)
from mzvfactor.series import f_series_coefficients

grid_rationals = st.fractions(min_value=Fraction(-10), max_value=Fraction(10))


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


def test_polynomial_expansion_consistency():
    for N in (1, 4, 9, 12):
        poly = f_polynomial(N)
        coeffs = f_series_coefficients(N, N)
        x = Fraction(3, 5)
        assert poly_eval(poly, x) == eval_F(x, N)
        assert [poly[2 * k + 1] for k in range(N + 1)] == coeffs


def test_shifted_examples():
    assert eval_F_shifted(Fraction(1, 2), 1) == Fraction(1, 4)
    assert eval_F_shifted(Fraction(0), 5) == 0


def test_shifted_closed_relation_and_gap():
    # eval_F_shifted(x, N) = F_{N-1}(x) (N - x)/N, so the gap to eval_F is
    # bounded by (|x|+1)/N
    for N in (2, 7, 40):
        for x in (Fraction(1, 2), Fraction(1, 3), Fraction(9, 10)):
            shifted = eval_F_shifted(x, N)
            assert shifted == eval_F(x, N - 1) * (N - x) / N if N > 1 else True
            assert abs(eval_F(x, N) - shifted) <= shifted_truncation_gap_bound(x, N)


def test_shifted_approaches_inverse_amplitude():
    # F(1/2) = 1/pi: the reciprocal of the Wallis limit
    pi = pi_oracle(96)
    target = 1 / pi.value
    val = eval_F_shifted(Fraction(1, 2), 800)
    assert abs(val - target) < Fraction(1, 2000)


def test_periodicity_examples():
    assert periodicity_ratio(Fraction(1, 2), 2) == Fraction(-7, 3)
    r = periodicity_sign_report(Fraction(1, 2), 2)
    assert r.matched_sign == -1 and r.reference == Fraction(7, 2) / Fraction(3, 2)
    r13 = periodicity_sign_report(Fraction(1, 3), 1)
    assert r13.ratio == eval_F(Fraction(4, 3), 1) / eval_F(Fraction(1, 3), 1)
    assert r13.matched_sign == -1


@given(st.fractions(min_value=Fraction(1, 8), max_value=Fraction(7, 8)),
       st.integers(min_value=1, max_value=40))
@settings(max_examples=60)
def test_periodicity_sign_is_always_minus(x, N):
    assert periodicity_sign_report(x, N).matched_sign == -1


def test_periodicity_ratio_approaches_minus_one():
    x = Fraction(1, 3)
    gaps = [abs(periodicity_ratio(x, N) + 1) for N in (10, 100, 1000)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < Fraction(1, 200)


def test_periodicity_pole_rejected():
    with pytest.raises(DomainError):
        periodicity_ratio(Fraction(3), 5)


def test_second_derivative_fd_matches_curvature():
    est, flagged = second_derivative_fd(Fraction(1, 4), 10 ** 4, Fraction(1, 2 ** 20))
    assert not flagged
    pi = pi_oracle(96)
    target = -pi.value ** 2 * eval_F(Fraction(1, 4), 10 ** 4)
    assert abs(est.value - target) < Fraction(1, 1000)


def test_second_derivative_fd_odd_point_is_zero():
    est, _ = second_derivative_fd(Fraction(0), 50, Fraction(1, 2 ** 10))
    assert est.value == 0


def test_second_derivative_fd_default_step():
    # default h = 2^(-precision/3)
    est, flagged = second_derivative_fd(Fraction(1, 4), 500)
    assert not flagged
    pi = pi_oracle(96)
    target = -pi.value ** 2 * eval_F(Fraction(1, 4), 500)
    assert abs(est.value - target) < Fraction(1, 50)


def test_second_derivative_fd_richardson_rate():
    # halving h shrinks the truncation error about fourfold
    x, N = Fraction(1, 4), 2000
    exact_like, _ = second_derivative_fd(x, N, Fraction(1, 2 ** 24))
    e1, _ = second_derivative_fd(x, N, Fraction(1, 2 ** 8))
    e2, _ = second_derivative_fd(x, N, Fraction(1, 2 ** 9))
    r = abs(e1.value - exact_like.value) / abs(e2.value - exact_like.value)
    assert Fraction(3) < r < Fraction(5)


def test_eval_F_approx_brackets_exact_value():
    x = ApproxReal.from_rational(Fraction(2, 7), 128)
    assert eval_F_approx(x, 50).contains(eval_F(Fraction(2, 7), 50))


def test_monotonicity_scan_small_cases():
    rep = monotonicity_scan(1, 3)
    assert rep.passed and rep.max_value == Fraction(1, 4)
    assert monotonicity_scan(100, 9).passed
