"""Exact arithmetic, harmonic numbers, Bernoulli numbers, tail brackets, and
the pi oracle."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mzvfactor import numeric
from mzvfactor.bijection import factorization_check
from mzvfactor.numeric import (
    MAX_PRECISION,
    ApproxReal,
    DomainError,
    ZERO,
    bernoulli_even,
    err_up,
    frac_to_decimal,
    harmonic,
    pi_oracle,
    power_sum_tail_bracket,
    round_to_bits,
    sqrt_bounds,
)
from mzvfactor.pfunc import p_eval
from mzvfactor.series import zeta_even_truncated

rationals = st.fractions(min_value=-1000, max_value=1000)
small_rationals = st.fractions(min_value=Fraction(-8), max_value=Fraction(8))
precisions = st.sampled_from([32, 64, 128, 1024])


def test_harmonic_small_values():
    assert harmonic(0) == 0
    assert harmonic(1) == 1
    # direct-summation oracle
    assert harmonic(4) == sum(Fraction(1, k) for k in range(1, 5)) == Fraction(25, 12)


def test_harmonic_cache_is_incremental(monkeypatch):
    monkeypatch.setattr(numeric, "_harmonics", [ZERO])
    assert harmonic(10) == sum(Fraction(1, k) for k in range(1, 11))
    assert len(numeric._harmonics) == 11
    harmonic(3)
    assert len(numeric._harmonics) == 11  # never evicted, never recomputed


@given(st.integers(min_value=1, max_value=400))
def test_harmonic_difference(n):
    assert harmonic(n) - harmonic(n - 1) == Fraction(1, n)


@given(st.integers(min_value=1, max_value=200))
def test_harmonic_even_odd_step(n):
    assert harmonic(2 * n) - harmonic(2 * n - 1) == Fraction(1, 2 * n)


def zeta2_tail_bracket(N: int) -> tuple[Fraction, Fraction]:
    """Integral-comparison bracket: 1/(N+1) <= sum_{n>N} 1/n^2 <= 1/N."""
    if N < 1:
        raise DomainError("tail bracket needs N >= 1")
    return Fraction(1, N + 1), Fraction(1, N)


def test_zeta2_tail_bracket_values():
    assert zeta2_tail_bracket(1) == (Fraction(1, 2), Fraction(1))
    assert zeta2_tail_bracket(10) == (Fraction(1, 11), Fraction(1, 10))


def test_zeta2_tail_bracket_contains_true_tail():
    # pi^2/6 from the oracle, compared against the N=10 head plus bracket
    pi = pi_oracle(128)
    target_lo = (pi.value - pi.err) ** 2 / 6
    target_hi = (pi.value + pi.err) ** 2 / 6
    head = zeta_even_truncated(10, 1)
    lo, hi = zeta2_tail_bracket(10)
    assert head + lo <= target_lo
    assert target_hi <= head + hi


def _bernoulli_even_by_recurrence(count):
    # oracle: [B_2, B_4, ..., B_{2 count}] from sum_{j<=m} C(m+1, j) B_j = 0
    b = [Fraction(1)] + [Fraction(0)] * (2 * count)
    for m in range(1, 2 * count + 1):
        b[m] = -sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1)
    return b[2::2]


def test_tangent_number_bernoulli_matches_the_recurrence():
    assert list(bernoulli_even(60)) == _bernoulli_even_by_recurrence(60)
    assert bernoulli_even(6)[0] == Fraction(1, 6) and bernoulli_even(6)[5] == Fraction(691, -2730)


def test_a_shorter_bernoulli_table_is_a_prefix_of_a_longer_one(monkeypatch):
    # T_i for i <= c does not depend on the length of the table
    monkeypatch.setattr(numeric, "_bernoulli", [])
    short = bernoulli_even(50)
    monkeypatch.setattr(numeric, "_bernoulli", [])
    assert bernoulli_even(300)[:50] == short
    # a shorter count is served from the longest table, which stays
    table = numeric._bernoulli
    assert bernoulli_even(50) == short and bernoulli_even(0) == ()
    assert numeric._bernoulli is table and len(table) == 300


def test_power_sum_tail_matches_the_term_by_term_sum():
    # oracle: the Euler-Maclaurin terms added one at a time
    for N, j, em in ((1, 1, 0), (7, 2, 5), (64, 3, 9), (255, 1, 30)):
        a = N + 1
        b = (1,) + bernoulli_even(em + 1)
        c = [Fraction(math.comb(2 * j + 2 * i - 2, 2 * i), 2 * j - 1) * b[i]
             for i in range(em + 2)]
        s = Fraction(1, 2 * a ** (2 * j)) + sum(
            c[i] / a ** (2 * j + 2 * i - 1) for i in range(em + 1))
        t = s + c[em + 1] / a ** (2 * j + 2 * em + 1)
        assert power_sum_tail_bracket(N, j, em) == (min(s, t), max(s, t))


def test_power_sum_tail_inside_integral_bracket():
    lo_i, hi_i = zeta2_tail_bracket(50)
    lo, hi = power_sum_tail_bracket(50, 1)
    assert lo_i <= lo <= hi <= hi_i
    assert hi - lo < Fraction(1, 10 ** 20)


def test_power_sum_tail_matches_direct_partial():
    # tail(N) - tail(2N) must equal the directly summed middle block
    for j in (1, 2):
        lo1, hi1 = power_sum_tail_bracket(20, j)
        lo2, hi2 = power_sum_tail_bracket(40, j)
        middle = sum(Fraction(1, n ** (2 * j)) for n in range(21, 41))
        assert lo1 - hi2 <= middle <= hi1 - lo2


def _frac_to_decimal_by_digits(q, places):
    # oracle: long division one digit at a time, stopping at a zero remainder
    sign = "-" if q < 0 else ""
    q = abs(q)
    ipart = q.numerator // q.denominator
    rem = q.numerator - ipart * q.denominator
    digits = []
    for _ in range(places):
        rem *= 10
        d = rem // q.denominator
        digits.append(str(d))
        rem -= d * q.denominator
        if rem == 0:
            break
    frac = "".join(digits)
    return f"{sign}{ipart}.{frac}" if frac else f"{sign}{ipart}"


def test_frac_to_decimal_edge_cases():
    assert frac_to_decimal(Fraction(3)) == "3.0"
    assert frac_to_decimal(Fraction(3), 0) == "3"
    assert frac_to_decimal(Fraction(-7, 4), 45) == "-1.75"
    assert frac_to_decimal(Fraction(-1, 3), 4) == "-0.3333"
    assert frac_to_decimal(Fraction(2501, 10000), 3) == "0.250"
    assert frac_to_decimal(Fraction(0), 45) == "0.0"


@settings(max_examples=300, deadline=None)
@given(st.fractions(), st.integers(min_value=0, max_value=60))
@example(Fraction(3), 30)
@example(Fraction(3), 0)
@example(Fraction(-7, 4), 45)
@example(Fraction(1, 1 << 40), 45)
@example(Fraction(-1, 10 ** 46), 45)
def test_frac_to_decimal_matches_digit_by_digit_division(q, places):
    assert frac_to_decimal(q, places) == _frac_to_decimal_by_digits(q, places)


def test_pi_oracle_digits():
    pi64 = pi_oracle(64)
    assert pi64.err < Fraction(1, 2 ** 60)
    assert pi64.decimal(17).startswith("3.1415926535897932")
    pi32 = pi_oracle(32)
    assert pi32.err < Fraction(1, 2 ** 28)
    assert pi32.decimal(7).startswith("3.141592")


def test_pi_oracle_consistency_across_precisions():
    a, b = pi_oracle(64), pi_oracle(128)
    assert abs(a.value - b.value) <= a.err + b.err


def _gauss_pi(b):
    """Integer ends lo <= 2^b pi <= hi from Gauss's formula
    48 atan(1/18) + 32 atan(1/57) - 20 atan(1/239). Each term
    2^b / (m^(2j+1) (2j+1)) is floored directly, less than one unit short,
    and the series stops at the first m^(2j+1) > 2^b, where the alternating
    remainder is below one unit: an arctangent of n terms is within n + 1."""
    lo = hi = 0
    for c, m in ((48, 18), (32, 57), (-20, 239)):
        s, n, power = 0, 0, m
        while power <= 1 << b:
            t = (1 << b) // (power * (2 * n + 1))
            s += -t if n & 1 else t
            n, power = n + 1, power * m * m
        ends = (c * (s - n - 1), c * (s + n + 1))
        lo, hi = lo + min(ends), hi + max(ends)
    return lo, hi


def test_pi_oracle_holds_an_independent_pi_in_a_bracket_narrower_than_2_to_the_minus_p_plus_8(
        monkeypatch):
    ends = {}
    atan_inv = numeric._atan_inv
    monkeypatch.setattr(numeric, "_atan_inv",
                        lambda m, b: ends.setdefault(m, atan_inv(m, b)))
    for P in (*range(32, 160), *range(160, 4097, 97), 4096, MAX_PRECISION + 32):
        ends.clear()
        bracket = pi_oracle(P)
        # the Machin ends, handed over unchanged on their own unit
        (lo5, hi5), (lo239, hi239) = ends[5], ends[239]
        b = P + P.bit_length() + 16
        assert (bracket.l, bracket.h, bracket.bits) == (16 * lo5 - 4 * hi239,
                                                        16 * hi5 - 4 * lo239, b), P
        ref_lo, ref_hi = (Fraction(end, 1 << (P + 64)) for end in _gauss_pi(P + 64))
        assert bracket.lo <= ref_lo and ref_hi <= bracket.hi, P
        assert bracket.hi - bracket.lo <= Fraction(1, 1 << (P + 8)), P


def test_pi_oracle_at_the_largest_precision_a_request_asks_costs_under_a_second():
    # basel's oracle is 32 bits finer than its precision
    start = time.process_time()
    pi_oracle(MAX_PRECISION + 32)
    assert time.process_time() - start < 1


def test_round_to_bits_error_is_exact():
    q = Fraction(1, 3)
    v, err = round_to_bits(q, 64)
    assert err == abs(v - q)
    assert v.denominator & (v.denominator - 1) == 0  # dyadic


def test_sqrt_bounds_are_the_integer_floor_and_ceiling_of_the_root():
    for n in (0, 1, 2, 3, 4, 8, 9, 10, 10 ** 12, 10 ** 12 + 1, (1 << 200) - 1):
        lo, hi = sqrt_bounds(n)
        assert lo * lo <= n < (lo + 1) ** 2
        assert (hi == 0 or (hi - 1) ** 2 < n) and n <= hi * hi
        assert hi - lo == (lo * lo != n)


@given(small_rationals)
def test_err_up_is_an_upper_bound(q):
    if q < 0:
        q = -q
    up = err_up(q)
    assert up >= q
    # already-small rationals pass through; everything else becomes a short
    # numerator over a power of two, cheap to carry through long sums
    assert up.numerator.bit_length() <= 40
    assert (up.denominator.bit_length() <= 32
            or up.denominator & (up.denominator - 1) == 0)




# ---- ApproxReal brackets against exact Fraction intervals ----

def _exact(x: ApproxReal) -> tuple[Fraction, Fraction]:
    """The exact interval of x, read from its integer ends."""
    return Fraction(x.l, 1 << x.bits), Fraction(x.h, 1 << x.bits)


def _outward_within_one_unit(result: ApproxReal, lo: Fraction, hi: Fraction) -> bool:
    """Whether result holds [lo, hi], each of its ends less than one unit of
    2^-bits outside the exact end."""
    unit = Fraction(1, 1 << result.bits)
    r_lo, r_hi = _exact(result)
    return lo - unit < r_lo <= lo and hi <= r_hi < hi + unit


bracket_bits = st.sampled_from([0, 1, 7, 32, 64, 200, 3000])
brackets = st.builds(lambda l, w, bits: ApproxReal(l, l + w, bits),
                     st.integers(min_value=-2 ** 300, max_value=2 ** 300),
                     st.integers(min_value=0, max_value=2 ** 200), bracket_bits)
ints = st.integers(min_value=-2 ** 80, max_value=2 ** 80)


@given(brackets, brackets, ints, st.integers(min_value=1, max_value=10 ** 40))
@settings(max_examples=400, deadline=None)
@example(ApproxReal(-7, 5, 3), ApproxReal(3, 11, 64), 3, 3)
def test_every_bracket_operator_holds_the_exact_image_within_one_unit_per_end(x, y, n, d):
    (a, b), (c, e) = _exact(x), _exact(y)
    finer = max(x.bits, y.bits)
    products = (a * c, a * e, b * c, b * e)
    cases = {
        "x + y": (x + y, finer, a + c, b + e),
        "x + n": (x + n, x.bits, a + n, b + n),
        "n + x": (n + x, x.bits, a + n, b + n),
        "x - y": (x - y, finer, a - e, b - c),
        "x - n": (x - n, x.bits, a - n, b - n),
        "n - x": (n - x, x.bits, n - b, n - a),
        "x * y": (x * y, finer, min(products), max(products)),
        "x * n": (x * n, x.bits, min(a * n, b * n), max(a * n, b * n)),
        "n * x": (n * x, x.bits, min(a * n, b * n), max(a * n, b * n)),
        "x / d": (x / d, x.bits, a / d, b / d),
        "-x": (-x, x.bits, -b, -a),
        "abs(x)": (abs(x), x.bits, max(a, -b, 0), max(-a, b)),
    }
    for name, (result, bits, lo, hi) in cases.items():
        assert result.bits == bits, name
        assert _outward_within_one_unit(result, lo, hi), name
    # the views a record prints: midpoint and half-width
    assert (x.lo, x.hi, x.value, x.err) == (a, b, (a + b) / 2, (b - a) / 2)
    assert x.contains(a) and x.contains(b) and not x.contains(b + 1)


@given(brackets.map(abs))
@settings(max_examples=300, deadline=None)
@example(ApproxReal(2, 3, 0))
@example(ApproxReal(0, 0, 5))
def test_the_bracket_root_holds_the_exact_roots_within_one_unit_per_end(x):
    r = x.sqrt()
    (a, b), (r_lo, r_hi) = _exact(x), _exact(r)
    unit = Fraction(1, 1 << x.bits)
    assert r.bits == x.bits and r_lo >= 0
    assert r_lo ** 2 <= a < (r_lo + unit) ** 2
    assert b <= r_hi ** 2 and (r_hi - unit < 0 or (r_hi - unit) ** 2 < b)


@given(brackets, st.integers(min_value=0, max_value=12))
@settings(max_examples=200, deadline=None)
def test_a_bracket_power_holds_every_power_of_its_points(x, n):
    p = x.power(n)
    a, b = _exact(x)
    assert p.bits == (x.bits if n else 0)
    for t in (a, b, (a + b) / 2, Fraction(0) if a <= 0 <= b else a):
        assert p.contains(t ** n)


def test_a_bracket_divides_only_by_a_positive_integer():
    one = ApproxReal(1 << 64, 1 << 64, 64)
    for divisor in (ApproxReal(3, 3, 0), ApproxReal(-1, 1, 4), Fraction(1, 3), Fraction(3), 0, -3):
        with pytest.raises(DomainError):
            one / divisor
    with pytest.raises(DomainError):
        1 / ApproxReal(3, 3, 0)


def test_a_bracket_takes_no_fraction_operand_and_no_reversed_ends():
    x = ApproxReal(1, 2, 8)
    for op in (lambda: x + Fraction(1, 3), lambda: Fraction(1, 2) - x,
               lambda: x * Fraction(3)):
        with pytest.raises(TypeError):
            op()
    with pytest.raises(DomainError):
        ApproxReal(2, 1, 8)
    with pytest.raises(DomainError):
        ApproxReal(-2, -1, 8).sqrt()


@given(rationals, rationals, precisions)
def test_from_bracket_rounds_each_end_outward_by_less_than_a_unit(a, b, prec):
    lo, hi = min(a, b), max(a, b)
    assert _outward_within_one_unit(ApproxReal.from_bracket(lo, hi, prec), lo, hi)


@given(st.lists(rationals, min_size=1, max_size=40), precisions)
def test_a_long_bracket_sum_widens_only_by_its_terms(terms, prec):
    total = ApproxReal(0, 0, prec)
    for q in terms:
        total = total + ApproxReal.from_bracket(q, q, prec)
    assert total.contains(sum(terms))
    # each term is rounded outward by less than a unit per end, and the
    # sums are exact
    assert total.err < len(terms) * Fraction(1, 2 ** prec)


def test_one_plus_a_bracket_three_thousand_bits_down():
    tiny = ApproxReal((1 << 100) - 1, (1 << 100) + 1, 3100)
    total = 1 + tiny
    assert total.bits == 3100
    assert total.contains(1 + Fraction(1, 2 ** 3000) + Fraction(1, 2 ** 3100))
    assert total.contains(1 + Fraction(1, 2 ** 3000) - Fraction(1, 2 ** 3100))
    assert total.err == Fraction(1, 2 ** 3100)


def test_a_bracket_about_zero_keeps_its_unit():
    # every product rounds back to 2^-64, so the ends never lengthen
    third = ApproxReal.from_bracket(Fraction(1, 3), Fraction(1, 3), 64)
    z = ApproxReal(-(1 << 62), 1 << 62, 64)
    for _ in range(50):
        z = z * third
    assert z.contains(Fraction(1, 3) ** 51 / 4) and z.contains(-Fraction(1, 3) ** 51 / 4)
    assert z.bits == 64 and max(-z.l, z.h) <= 2



# The radii of the previous ball layout (a radius with an exponent of its
# own, commit 2d74315), exactly, as (m, e) for m 2^e. p_eval at the points
# of test_p_eval_ball_contains_exact_truncation, precisions 32, 64, 128, 256:
PINNED_P_EVAL_RADII = {
    (Fraction(0), 11): ((1717, -39), (1997, -71), (1981, -135), (1957, -263)),
    (Fraction(0), 57): ((177021, -43), (39967, -73), (19455, -136), (139983, -267)),
    (Fraction(0), 200):
        ((18947857, -48), (19430807, -80), (18642887, -144), (19030397, -272)),
    (Fraction(1, 2), 11):
        ((2454423685, -58), (697699433, -88), (593456239, -152), (1174957567, -281)),
    (Fraction(1, 2), 57):
        ((1440536107, -55), (2577109331, -88), (2957578095, -152), (2264164791, -280)),
    (Fraction(1, 2), 200):
        ((1210890681, -53), (1204305507, -85), (2477210525, -150), (137712629, -274)),
    (Fraction(-3, 7), 11):
        ((616577085, -56), (37563655, -84), (186132827, -150), (204750821, -278)),
    (Fraction(-3, 7), 57):
        ((2345074649, -56), (2485968081, -88), (2690716573, -152), (679880041, -278)),
    (Fraction(-3, 7), 200):
        ((1981834421, -54), (509443671, -84), (2103956523, -150), (32781263, -272)),
    (Fraction(9, 10), 11):
        ((2693179095, -52), (3166360587, -84), (1380296057, -147), (2591349775, -276)),
    (Fraction(9, 10), 57):
        ((1281175195, -50), (2909143699, -83), (2857972215, -147), (612695831, -273)),
    (Fraction(9, 10), 200):
        ((3411092423, -50), (3656290821, -82), (876514679, -144), (430889397, -271)),
}
# factorization_check(6, 96), level by level: (lhs, rhs, mzv, closed_form)
PINNED_FACTORIZATION_RADII = [
    ((3482749539, -134), (3482749539, -134), (4643666051, -137), (942585999, -157)),
    ((646532623, -130), (1432223395, -131), (4137808787, -137), (3259164589, -159)),
    ((2961850291, -134), (3965956277, -133), (4513295681, -140), (2084209953, -160)),
    ((2424177133, -137), (1360347757, -134), (1077412059, -142), (3210295781, -163)),
    ((3784843933, -140), (2121664451, -138), (2202091015, -146), (2809591869, -166)),
    ((2530306453, -142), (3450088541, -142), (519037221, -147), (3420233807, -170)),
]
PINNED_PI_ORACLE_RADIUS = (2727750931, -287)   # pi_oracle(256)
RADIUS_SLACK = 1 + Fraction(1, 2 ** 10)


def _pinned(m_e):
    m, e = m_e
    return RADIUS_SLACK * m * Fraction(2) ** e


def test_radii_stay_at_their_pinned_widths():
    # one exponent per ball may widen a radius only by the guard bits' share
    for (x, N), radii in PINNED_P_EVAL_RADII.items():
        for prec, pinned in zip((32, 64, 128, 256), radii):
            assert p_eval(x, N, prec).err <= _pinned(pinned), (x, N, prec)
    levels = factorization_check(6, 96)
    for k, (level, radii) in enumerate(zip(levels, PINNED_FACTORIZATION_RADII), 1):
        for name, ball, pinned in zip(("lhs", "rhs", "mzv", "closed"), level, radii):
            assert ball.err <= _pinned(pinned), (k, name)
    assert pi_oracle(256).err <= _pinned(PINNED_PI_ORACLE_RADIUS)
