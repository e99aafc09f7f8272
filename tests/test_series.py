"""Truncated multiple zeta values: recursion vs enumeration, coefficients,
and the certified limits."""

import functools
import itertools
import math
import operator
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mzvfactor import series
from mzvfactor import pi_constants
from mzvfactor.numeric import (
    ONE,
    ZERO,
    ApproxReal,
    DomainError,
    pi_oracle,
    power_sum_tail_bracket,
    power_sum_tail_numerators,
)
from mzvfactor.series import (
    mzv_limit,
    mzv_limit_bracket,
    mzv_row,
    mzv_truncated,
    zeta_even_truncated,
)
from test_product import f_polynomial


def test_mzv_truncated_examples():
    assert mzv_truncated(5, 0) == 1
    assert mzv_truncated(2, 2) == Fraction(1, 4)
    # oracle: direct nested loops
    direct = sum(Fraction(1, n * n) for n in range(1, 4))
    assert mzv_truncated(3, 1) == direct == Fraction(49, 36)


BRUTEFORCE_LIMIT = 12


def mzv_bruteforce(N: int, k: int) -> Fraction:
    """Independent oracle: explicit enumeration of the increasing tuples.

    Guarded at N <= 12 because the tuple count is combinatorial.
    """
    if N > BRUTEFORCE_LIMIT:
        raise DomainError(f"brute-force enumeration refused for N > {BRUTEFORCE_LIMIT}")
    if k < 0:
        raise DomainError("k must be nonnegative")
    total = ZERO
    for combo in itertools.combinations(range(1, N + 1), k):
        term = ONE
        for n in combo:
            term *= Fraction(1, n * n)
        total += term
    return total


def test_mzv_bruteforce_examples():
    assert mzv_bruteforce(3, 2) == Fraction(1, 4) + Fraction(1, 9) + Fraction(1, 36)
    assert mzv_bruteforce(3, 2) == Fraction(7, 18)
    assert mzv_bruteforce(4, 4) == Fraction(1, 576)
    with pytest.raises(Exception):
        mzv_bruteforce(13, 2)


def test_recursion_agrees_with_bruteforce_everywhere():
    for N in range(1, 13):
        for k in range(0, N + 1):
            assert mzv_truncated(N, k) == mzv_bruteforce(N, k)


def _rolling_row(N, k_max):
    # oracle: the rolling recursion e[n][k] = e[n-1][k] + e[n-1][k-1] / n^2
    row = [Fraction(1)] + [Fraction(0)] * k_max
    for n in range(1, N + 1):
        for k in range(min(k_max, n), 0, -1):
            row[k] += row[k - 1] * Fraction(1, n * n)
    return row


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=10))
def test_product_tree_row_matches_rolling_recursion(N, k):
    # k > N is in range: those entries are 0
    assert mzv_row(N, k) == _rolling_row(N, k)


def test_product_tree_row_matches_rolling_recursion_at_1024():
    assert mzv_row(1024, 8) == _rolling_row(1024, 8)


def test_mzv_limit_builds_each_range_of_n_once(monkeypatch):
    # one attempt for the whole row, on one head summed over (0, N] at the
    # planned N, and no exact head product
    built, attempts = [], []
    build, bracket = series.head_power_sums, series.mzv_limit_bracket

    def counted_build(N, k, bits):
        built.append((N, k, bits))
        return build(N, k, bits)

    def counted_bracket(*args, **kwargs):
        attempts.append((args, kwargs))
        return bracket(*args, **kwargs)

    def no_product(lo, hi, k_max):
        raise AssertionError("mzv_limit built an exact head product")

    def no_row(N, k_max):
        raise AssertionError("mzv_limit built a row instead of the head sums")

    monkeypatch.setattr(series, "head_power_sums", counted_build)
    monkeypatch.setattr(series, "mzv_limit_bracket", counted_bracket)
    monkeypatch.setattr(series, "_factor_product", no_product)
    monkeypatch.setattr(series, "mzv_row", no_row)
    row = mzv_limit(4, 208)
    monkeypatch.undo()
    width = Fraction(1, 2 ** 209)
    N, em = series.plan_limit(4, width)
    assert [a[:3] for a, _ in attempts] == [(4, N, em)]
    bits = series.limit_bits(width)
    assert built == [(N, 4, series.head_bits(N, bits))]
    # the brackets are taken on the plan's grid, and each contains the
    # rational row's bracket, as its entry contains it
    args, kwargs = attempts[0]
    assert kwargs == {"bits": bits}
    unit = Fraction(1, 1 << bits)
    for j, (z, (lo, hi), exact) in enumerate(zip(row, bracket(*args, **kwargs),
                                                 _rational_row(4, N, em))):
        assert lo * unit <= exact[0] <= exact[1] <= hi * unit, j
        assert z.lo <= lo * unit and hi * unit <= z.hi, j


def _tail_brackets_by_fractions(N, k, em):
    # oracle: Newton's identities m e_m = sum_i (-1)^(i-1) e_{m-i} p_i in
    # rational interval arithmetic; every e bracket lies in [0, inf)
    p = [power_sum_tail_bracket(N, i, em) for i in range(1, k + 1)]
    e = [(ONE, ONE)]
    for m in range(1, k + 1):
        lo = hi = ZERO
        for i in range(1, m + 1):
            (a, b), (c, d) = e[m - i], p[i - 1]
            tlo, thi = min(a * c, b * c), max(a * d, b * d)
            lo, hi = (lo + tlo, hi + thi) if i % 2 == 1 else (lo - thi, hi - tlo)
        e.append((max(ZERO, lo / m), hi / m))
    return e


def _newton_numerators(den, p):
    """oracle: Newton's identities m e_m = sum_{i=1..m} (-1)^(i-1) e_{m-i} p_i
    on exact integer numerators. From brackets lo_i / (q^i den) <= p_i <=
    hi_i / (q^i den), i = 1..k, p = [(lo_i, hi_i)], for any q >= 1, the
    brackets lo / (q^m den^m m!) <= e_m <= hi / (q^m den^m m!), m = 0..k:
    E_m sums E_{m-i} P_i den^(i-1) (m-1)!/(m-i)!, where den = 2^g lifts
    by a shift."""
    g = den.bit_length() - 1
    if den == 1 << g:
        lift = lambda x, j: x << g * j
    else:
        powers = [den ** j for j in range(len(p))]
        lift = lambda x, j: x * powers[j]
    e = [(1, 1)]
    for m in range(1, len(p) + 1):
        lo, hi, scale = 0, 0, 1
        for i in range(1, m + 1):
            (a, b), (c, d) = e[m - i], p[i - 1]
            tlo = lift(scale * min(a * c, b * c), i - 1)
            thi = lift(scale * max(a * d, b * d), i - 1)
            lo, hi = (lo + tlo, hi + thi) if i % 2 == 1 else (lo - thi, hi - tlo)
            scale *= m - i
        e.append((max(0, lo), hi))
    return e


def _exact_tail_brackets(N, k, em):
    """oracle: brackets lo / (den^m m!) <= e_m <= hi / (den^m m!), m = 0..k,
    of the tail set {1/n^2 : n > N}, as (den, [(lo, hi)]), with p_i = P_i / den."""
    den, p = power_sum_tail_numerators(N, k, em)
    return den, _newton_numerators(den, p)


@functools.lru_cache(maxsize=512)
def _head_sum(N, i):
    return zeta_even_truncated(N, i)


@functools.lru_cache(maxsize=4096)
def _tail_sum(N, i, em):
    return power_sum_tail_bracket(N, i, em)


def _rational_power_sums(k, N, em):
    """oracle: the brackets [H_i + tail_lo_i, H_i + tail_hi_i] of the power
    sums p_i = zeta(2i), i = 1..k, H_i = zeta_even_truncated(N, i) and the
    tail from power_sum_tail_bracket."""
    return [tuple(_head_sum(N, i) + end for end in _tail_sum(N, i, em))
            for i in range(1, k + 1)]


def _rational_row(k, N, em):
    """oracle: Fraction brackets of zeta({2}^m), m = 0..k, by interval Newton
    on _rational_power_sums, on numerators over q^i den, q = lcm(1..N)^2,
    where q^i H_i is an integer. No power sum depends on k, so entry m is
    that of any row past m."""
    q = math.lcm(*range(1, N + 1)) ** 2
    p = [[end * q ** i for end in ends] for i, ends in enumerate(_rational_power_sums(k, N, em), 1)]
    den = math.lcm(*(end.denominator for ends in p for end in ends))
    e = _newton_numerators(den, [tuple((end * den).numerator for end in ends) for ends in p])
    return [tuple(Fraction(end, q ** m * den ** m * math.factorial(m)) for end in ends)
            for m, ends in enumerate(e)]


def _inner_power_sums(k, N, em, bits):
    """oracle: brackets [a_i / 2^g, b_i / 2^g], i = 1..k, each inside the
    rational [H_i + tail_lo_i, H_i + tail_hi_i] of _rational_power_sums,
    without H_i itself, whose denominator lcm(1..N)^(2i) costs seconds at
    large N. The grid 2^-g lies 64 bits past t = head_bits(N, bits), and
    past 2^-2 of the narrowest tail bracket. On 2^-G, G = g + bitlen(N) + 2,
    h_i = sum_n floor(2^G / n^(2i)) puts H_i in [h_i, h_i + N] / 2^G, N / 2^G
    being under a quarter unit of 2^-g; a_i ceils (h_i + N) / 2^G + tail_lo_i
    and b_i floors h_i / 2^G + tail_hi_i onto 2^-g, each end moving inward
    by under 5/4 of a unit, so a_i < b_i. Returns (g, brackets)."""
    tails = [_tail_sum(N, i, em) for i in range(1, k + 1)]
    g = max(series.head_bits(N, bits) + 64,
            *(((hi - lo).denominator // (hi - lo).numerator).bit_length() + 2 for lo, hi in tails))
    G = g + N.bit_length() + 2
    sums = []
    for i, (lo, hi) in enumerate(tails, 1):
        h = 0
        for n in range(1, N + 1):
            term = (1 << G) // n ** (2 * i)
            if not term:
                break
            h += term
        a, b = Fraction(h + N, 1 << G) + lo, Fraction(h, 1 << G) + hi
        sums.append((-((-a.numerator << g) // a.denominator), (b.numerator << g) // b.denominator))
        assert sums[-1][0] < sums[-1][1], (N, i, em, g)
    return g, sums


def _inner_row(k, N, em, bits):
    """oracle: (row, sums), the row by exact interval Newton on the
    brackets `sums` of _inner_power_sums, as brackets lo / d <= zeta({2}^m)
    <= hi / d, m = 0..k, row = [(lo, hi, d)], d = 2^(g m) m! (a Fraction's
    gcd would cost more than the Newton run). Interval Newton with exact
    ends is inclusion-monotone, so each entry lies inside the rational
    row's, and the kernel's row contains it at any N; the ends of `sums`
    lie within 2^-63 of a unit of 2^-t, t = head_bits(N, bits), inside the
    rational row's power sums. No power sum depends on k, so entry m is
    that of any row past m."""
    g, sums = _inner_power_sums(k, N, em, bits)
    e = _newton_numerators(1 << g, sums)
    row = [(lo, hi, (1 << g * m) * math.factorial(m)) for m, (lo, hi) in enumerate(e)]
    return row, [tuple(Fraction(end, 1 << g) for end in ends) for ends in sums]


def _on_one_denominator(row):
    """The Fraction brackets of `row` as (lo, hi, d), each end over d."""
    return [(lo.numerator * hi.denominator, hi.numerator * lo.denominator,
             lo.denominator * hi.denominator) for lo, hi in row]


def _oracle_row(k, N, em, bits):
    """(row, sums, slack), row as _inner_row gives it: the rational row and
    its power sums when they are cheap, at N <= 400, with the kernel's power
    sums at most N + 1 units of 2^-t, t = head_bits(N, bits), outside them
    (_reach); past that the inner row, which the kernel's power sums leave
    by at most N + 2. `bits` is the finest grid the oracle serves."""
    if N <= 400:
        return _on_one_denominator(_rational_row(k, N, em)), _rational_power_sums(k, N, em), N + 1
    return (*_inner_row(k, N, em, bits), N + 2)


def _exact_limit_bracket(k, N, em, head=None):
    """oracle: the exact bracket sum_j zeta_N({2}^j) e_{k-j} of zeta({2}^k),
    each end one integer sum over c_0 den^k k!, from the coefficients c_j of
    prod_{n<=N} (n^2 + t), or from `head`, those over a common factor."""
    head = series._factor_product(0, N, k) if head is None else head
    den, tails = _exact_tail_brackets(N, k, em)
    scaled = [c * den ** j * math.perm(k, j) for j, c in enumerate(head)]
    whole = head[0] * den ** k * math.factorial(k)
    return tuple(Fraction(sum(c * e[end] for c, e in zip(scaled, reversed(tails))), whole)
                 for end in (0, 1))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=3000),
       st.integers(min_value=0, max_value=40))
@example(8, 8192, 9)
@example(3, 2048, 9)
@example(8, 1, 0)
def test_integer_limit_kernel_equals_the_rational_recursion(k, N, em):
    # (8, 1, 0) clamps e_5..e_8 at 0
    expected = _tail_brackets_by_fractions(N, k, em)
    den, tails = _exact_tail_brackets(N, k, em)
    scales = [den ** m * math.factorial(m) for m in range(k + 1)]
    assert [(Fraction(lo, s), Fraction(hi, s)) for (lo, hi), s in zip(tails, scales)] == expected
    # oracle: the exact head row times the tail brackets, term by term
    prod = series._factor_product(0, N, k)
    head = [Fraction(c, prod[0]) for c in prod]
    exact = tuple(sum(head[j] * expected[k - j][end] for j in range(k + 1)) for end in (0, 1))
    assert _exact_limit_bracket(k, N, em, prod) == exact
    # the fixed-point tail contains it, and the limit kernel contains the
    # inner row, on a coarse grid and a fine one
    ilo, ihi, d = _inner_row(k, N, em, 256)[0][k]
    for bits in (24, 256):
        unit = Fraction(1, 1 << bits)
        fixed = series.tail_elementary_brackets(N, k, em, bits)
        assert all(lo * unit <= a and b <= hi * unit
                   for (lo, hi), (a, b) in zip(fixed, expected)), bits
        lo, hi = mzv_limit_bracket(k, N, em, bits=bits)[k]
        assert lo * d <= ilo << bits and ihi << bits <= hi * d, bits


def _reach(N, bits, sums, slack, exact):
    """[r_m, m = 0..k]: how far, in units of 2^-t, t = head_bits(N, bits),
    each end of entry m of the kernel's row lies at most outside the oracle
    row `exact`, as _oracle_row gives it, before its rounding onto 2^-bits,
    when each end of the kernel's bracket P'_i of p_i lies at most `slack`
    units outside the oracle's bracket `sums[i - 1]`: N + 1 for the rational
    [H_i + tail_lo_i, H_i + tail_hi_i], N units being the head's floors and
    its slack and one more the tail's rounding, and N + 2 for the inner
    brackets, which lie under 2^-63 of a unit inside. If the ends of X' lie at
    most x outside those of X, and those of Y' at most y outside Y, the ends
    of X'Y' lie at most x mag(Y') + mag(X) y outside those of XY, and each
    floor or ceiling adds under a unit, so
        r_m <= 1 + (1/m) sum_i (r_{m-i} (mag(P_i) + slack) + mag(e_{m-i}) slack),
    each product over 2^t, mag being the oracle brackets' largest
    magnitudes rounded up."""
    t = series.head_bits(N, bits)
    up = lambda n, d: -((-n << t) // d)
    mag_p = [up(*max(-lo, hi).as_integer_ratio()) + slack for lo, hi in sums]
    mag_e = [up(hi, d) for _, hi, d in exact]
    r = [0]
    for m in range(1, len(sums) + 1):
        total = sum(r[m - i] * mag_p[i - 1] + mag_e[m - i] * slack for i in range(1, m + 1))
        r.append(-(-total // (m << t)) + 1)
    return r


def _check_against_the_oracle_row(k, N, em, bits, oracle=None):
    """Every entry of the kernel's row contains the oracle row's
    (_oracle_row, or `oracle` from it at a finer grid and any k past this
    one), fits width_bound, and lies at each end at most _reach outside it,
    plus the final rounding onto 2^-bits."""
    exact, sums, slack = _oracle_row(k, N, em, bits) if oracle is None else oracle
    exact, sums = exact[:k + 1], sums[:k]
    row = mzv_limit_bracket(k, N, em, bits=bits)
    bound = series.width_bound(k, N, em, bits)
    t = series.head_bits(N, bits)
    for m, ((lo, hi), (elo, ehi, d), r) in enumerate(zip(row, exact,
                                                         _reach(N, bits, sums, slack, exact))):
        where = (k, N, em, bits, m)
        assert lo * d <= elo << bits and ehi << bits <= hi * d, where
        assert hi - lo <= bound[m], where
        # each end at most (r + 2^(t - bits)) / 2^t outside, over d 2^(t + bits)
        out = ((r << bits) + (1 << t)) * d
        assert ((elo << bits) - lo * d) << t <= out and ((hi * d) - (ehi << bits)) << t <= out, where


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=24), st.integers(min_value=1, max_value=3000),
       st.integers(min_value=0, max_value=40))
@example(8, 8192, 9)
@example(24, 256, 6)
@example(8, 1, 0)
def test_the_fixed_point_bracket_is_the_exact_one_widened_by_its_rounding_at_most(k, N, em):
    # on the grid a plan for this width takes, 32 bits past it, and on a
    # coarse one, where the rounding is most of the width; past N = 400 the
    # inner row on the coarse grid finds the width, and one on the fine
    # grid serves both
    elo, ehi, d = _oracle_row(k, N, em, 24)[0][k]
    fine = (d // (ehi - elo)).bit_length() + 32
    oracle = _oracle_row(k, N, em, fine)
    for bits in (fine, 24):
        _check_against_the_oracle_row(k, N, em, bits, oracle)


def _convolution_limit_bracket(k, N, em, bits):
    """oracle: the row as the limit kernel took it when it convolved the
    head with the tail, zeta({2}^j) = sum_{i<=j} zeta_N({2}^i) e_{j-i}(tail):
    the head's e_i from _newton_brackets on head_power_sums on 2^-t,
    t = head_bits(N, bits), times tail_elementary_brackets on 2^-bits, each
    end one exact sum floored or ceiled once onto 2^-bits."""
    t = series.head_bits(N, bits)
    hlo, hhi = zip(*series._newton_brackets(series.head_power_sums(N, k, t), t))
    elo, ehi = zip(*series.tail_elementary_brackets(N, k, em, bits))
    return [(sum(map(operator.mul, hlo[:j + 1], elo[j::-1])) >> t,
             -(-sum(map(operator.mul, hhi[:j + 1], ehi[j::-1])) >> t))
            for j in range(k + 1)]


_ROW_CASES = (st.integers(min_value=1, max_value=12), st.sampled_from([64, 256, 1000]),
              st.integers(min_value=0, max_value=40), st.integers(min_value=8, max_value=600))


@settings(max_examples=30, deadline=None)
@given(*_ROW_CASES)
@example(12, 64, 0, 8)
@example(12, 1000, 40, 600)
@example(0, 64, 0, 8)
@example(0, 1000, 40, 600)
def test_each_row_entry_is_the_bracket_of_its_own_degree(K, N, em, bits):
    row = mzv_limit_bracket(K, N, em, bits=bits)
    assert len(row) == K + 1
    assert row[0] == (1 << bits, 1 << bits)
    for j in range(1, K + 1):
        assert row[j] == mzv_limit_bracket(j, N, em, bits=bits)[j], j


@settings(max_examples=30, deadline=None)
@given(*_ROW_CASES)
@example(12, 64, 0, 8)
def test_the_row_width_bound_is_that_of_each_degree_alone(K, N, em, bits):
    bound = series.width_bound(K, N, em, bits)
    assert len(bound) == K + 1 and bound[0] == 1
    for j in range(K + 1):
        assert bound[j] == series.width_bound(j, N, em, bits)[j], j


def _head_power_sums_contain_the_exact_sums(N, k, precisions):
    exact = [zeta_even_truncated(N, i) for i in range(1, k + 1)]
    for bits in precisions:
        unit = Fraction(1, 1 << bits)
        for i, (lo, hi) in enumerate(series.head_power_sums(N, k, bits)):
            assert lo * unit <= exact[i] <= hi * unit, (N, i + 1, bits)


_HEAD_NS = (1, 2, 3, 31, 32, 33, 256, 1000, 8192)


def test_head_power_sums_contain_the_exact_sums_on_the_grid():
    for N in _HEAD_NS:
        _head_power_sums_contain_the_exact_sums(N, 8 if N < 8192 else 2, (24, 64, 256))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=1200), st.integers(min_value=1, max_value=8),
       st.integers(min_value=1, max_value=400))
def test_head_power_sums_contain_the_exact_sums(N, k, bits):
    _head_power_sums_contain_the_exact_sums(N, k, (bits,))


def test_head_elementary_brackets_contain_the_exact_row_within_a_unit():
    # the head's e_j brackets contain zeta_N({2}^j), each less than one unit
    # of 2^-bits wide, the most a row's head may add to each end
    for N in _HEAD_NS:
        k = 64 if N < 8192 else 8
        row = mzv_row(N, k)
        for bits in (24, 64, 256):
            t = series.head_bits(N, bits)
            head = series._newton_brackets(series.head_power_sums(N, k, t), t)
            for j, (lo, hi) in enumerate(head):
                assert Fraction(lo, 1 << t) <= row[j] <= Fraction(hi, 1 << t), (N, j, bits)
                assert hi - lo < 1 << (t - bits), (N, j, bits)


def test_the_row_follows_the_rational_row_on_the_grid():
    # one oracle row per (N, em) to k = 24, the rational one below N = 256,
    # and one inner row to k = 64; k = 24 and 64 at N = 8192 are left to
    # the closed form below: the inner row alone takes seconds there
    for N in _HEAD_NS:
        for em in (0, 6, 40):
            if N < 256:
                oracle = (_on_one_denominator(_rational_row(24, N, em)),
                          _rational_power_sums(24, N, em), N + 1)
            else:
                oracle = (*_inner_row(24 if N < 8192 else 8, N, em, 256), N + 2)
            deep = (*_inner_row(64, N, em, 256), N + 2) if N < 8192 else None
            for k in (*range(1, 9), 24, 64) if N < 8192 else range(1, 9):
                for bits in (24, 64, 256):
                    _check_against_the_oracle_row(k, N, em, bits, oracle if k <= 24 else deep)
    pi = pi_oracle(320)
    for k in (24, 64):
        for em in (0, 6, 40):
            for bits in (24, 64, 256):
                row = mzv_limit_bracket(k, 8192, em, bits=bits)
                bound = series.width_bound(k, 8192, em, bits)
                for m in (1, 2, k):
                    lo, hi = row[m]
                    closed = pi.power(2 * m) / math.factorial(2 * m + 1)
                    assert hi - lo <= bound[m], (k, em, bits, m)
                    assert (Fraction(lo, 1 << bits) <= closed.hi
                            and closed.lo <= Fraction(hi, 1 << bits)), (k, em, bits, m)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=24), st.integers(min_value=1, max_value=2000),
       st.integers(min_value=0, max_value=40), st.integers(min_value=8, max_value=600))
def test_the_row_follows_the_rational_row(k, N, em, bits):
    _check_against_the_oracle_row(k, N, em, bits)


def test_the_tail_is_rounded_outward(monkeypatch):
    # with no guard bits and the head's power sums bracketed within a unit,
    # only the kernel's own roundings part its row from the rational one
    def tight_head(N, k, t):
        return [((h.numerator << t) // h.denominator, -((-h.numerator << t) // h.denominator))
                for h in map(_head_sum, [N] * k, range(1, k + 1))]

    monkeypatch.setattr(series, "head_bits", lambda N, bits: bits)
    monkeypatch.setattr(series, "head_power_sums", tight_head)
    for N in (1, 2, 3, 7, 31, 100):
        for em in (0, 3, 9):
            exact = _rational_row(6, N, em)
            for bits in (16, 40, 64, 100, 200):
                unit = Fraction(1, 1 << bits)
                for m, ((lo, hi), (elo, ehi)) in enumerate(
                        zip(mzv_limit_bracket(6, N, em, bits=bits), exact)):
                    assert lo * unit <= elo and ehi <= hi * unit, (N, em, bits, m)


@pytest.mark.parametrize("K, P", [(1, 64), (8, 116), (8, 160), (12, 219), (5, 512), (24, 64)])
def test_every_row_entry_certifies_and_contains_the_exact_kernel(K, P):
    target = Fraction(1, 2 ** (P + 2))
    width = 2 * target
    N, em = series.plan_limit(K, width)
    row = mzv_limit(K, P)
    assert len(row) == K + 1 and row[0].value == 1 and row[0].err == 0
    bits = series.limit_bits(width)
    assert bits == P + 34
    brackets = mzv_limit_bracket(K, N, em, bits=bits)
    for j, (lo, hi) in enumerate(_rational_row(K, N, em)[1:], 1):
        a, c = brackets[j]
        assert type(a) is int and type(c) is int, j
        assert a <= lo * (1 << bits) and hi * (1 << bits) <= c, j
        assert row[j].err <= target, j
        assert row[j].lo <= lo <= hi <= row[j].hi, j
        # the entry is the kernel's bracket, its ends handed over unchanged
        assert (row[j].l, row[j].h, row[j].bits) == (a, c, bits), j


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=32, max_value=300),
       st.lists(st.tuples(st.integers(min_value=0, max_value=2 ** 400),
                          st.integers(min_value=0, max_value=2 ** 400)),
                min_size=2, max_size=5))
def test_row_entries_are_the_planned_brackets_and_a_wider_one_is_refused(P, ends):
    # any brackets on the plan's grid: each entry has the bracket's ends,
    # and a bracket wider than 2^-(P + 1) misses the certified error
    bits = series.limit_bits(Fraction(1, 2 ** (P + 1)))
    brackets = [(a % (1 << (bits + 1)), a % (1 << (bits + 1)) + w % (1 << (bits - P)))
                for a, w in ends]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(series, "mzv_limit_bracket", lambda *a, **kw: brackets)
        if all(c - a <= 1 << (bits - P - 1) for a, c in brackets):
            row = mzv_limit(len(brackets) - 1, P)
            assert [(z.l, z.h, z.bits) for z in row] == [(a, c, bits) for a, c in brackets]
            assert all(z.err <= Fraction(1, 2 ** (P + 2)) for z in row)
        else:
            with pytest.raises(ValueError):
                mzv_limit(len(brackets) - 1, P)


def test_mzv_table_invariants():
    # the table of rows zeta_n({2}^0..6), n = 1..12, obeys the recursion
    rows = [[Fraction(1)] + [Fraction(0)] * 6] + [mzv_row(n, 6) for n in range(1, 13)]
    for n in range(1, 13):
        assert rows[n][0] == 1
        for k in range(1, 7):
            assert rows[n][k] == rows[n - 1][k] + rows[n - 1][k - 1] * Fraction(1, n * n)
    assert rows[3][5] == 0


def test_rolling_row_matches_table():
    # oracle: the x^(2k+1) coefficients of the expanded product are
    # (-1)^k zeta_N({2}^k)
    poly = f_polynomial(30)
    assert mzv_row(30, 5) == [(-1) ** k * poly[2 * k + 1] for k in range(6)]


def test_zeta_even_truncated_examples():
    assert zeta_even_truncated(1, 3) == 1
    assert zeta_even_truncated(3, 1) == Fraction(49, 36)
    assert zeta_even_truncated(2, 2) == Fraction(17, 16)


def test_f_series_coefficient_examples():
    # the x^(2k+1) coefficient of the truncated product is (-1)^k zeta_N({2}^k)
    assert mzv_row(2, 1)[1] == Fraction(5, 4)
    assert mzv_row(7, 0)[0] == 1
    assert mzv_row(3, 3)[3] == Fraction(1, 36)


def test_signed_mzv_row_matches_polynomial_expansion():
    # oracle: multiply the factors out and read off x^(2k+1)
    for N in range(1, 13):
        poly = f_polynomial(N)
        row = mzv_row(N, N)
        for k in range(N + 1):
            assert poly[2 * k + 1] == (-1) ** k * row[k]
        for i in range(0, len(poly), 2):
            assert poly[i] == 0


@given(st.integers(min_value=1, max_value=50), st.integers(min_value=1, max_value=8))
def test_factorial_upper_bound(N, k):
    # zeta_N({2}^k) <= zeta_N(2)^k / k!
    assert mzv_truncated(N, k) <= zeta_even_truncated(N, 1) ** k / math.factorial(k)


def test_mzv_limit_trivial_and_known_values():
    (z0,) = mzv_limit(0, 64)
    assert z0.value == 1 and z0.err == 0
    z1 = mzv_limit(1, 128)[1]
    assert z1.decimal(10).startswith("1.6449340668"[:11])
    pi = pi_oracle(160)
    # k=2 instantiates to pi^4/120
    z0, z1, z2 = mzv_limit(2, 128)
    assert z0.value == 1 and z0.err == 0
    target = pi.value ** 4 / 120
    assert abs(z2.value - target) <= z2.err + Fraction(1, 2 ** 120)


def test_mzv_limit_brackets_contain_closed_form():
    pi = pi_oracle(160)
    for K in range(1, 9):
        for k, z in enumerate(mzv_limit(K, 128)):
            closed = pi.power(2 * k) / math.factorial(2 * k + 1)
            assert abs(z.value - closed.value) <= z.err + closed.err, (K, k)


def test_sharp_bracket_inside_monotone_bound():
    N = 500
    for k in (1, 2, 3):
        lo, hi = (end * Fraction(1, 1 << 128) for end in mzv_limit_bracket(k, N, 6, bits=128)[k])
        head = mzv_truncated(N, k)
        # the coarse tail bound (zeta_N({2}^{k-1}) + 1) / N
        coarse = (mzv_truncated(N, k - 1) + 1) / N
        assert head <= lo <= hi <= head + coarse


def test_bracket_narrows_with_truncation():
    lo1, hi1 = mzv_limit_bracket(2, 100, 6, bits=128)[2]
    lo2, hi2 = mzv_limit_bracket(2, 200, 6, bits=128)[2]
    assert lo1 <= lo2 <= hi2 <= hi1


def limit_steps():
    """The escalation ladder certified limits used to walk, kept as the
    oracle of the planner: depths 6..9 at n = 256, then n doubled at depth 9
    while it stays within EXACT_N_LIMIT, then the depth doubled at that
    last n up to EM_CEILING."""
    n = 256
    steps = [(n, em) for em in range(6, 10)]
    while 2 * n <= series.EXACT_N_LIMIT:
        n *= 2
        steps.append((n, 9))
    em = 9
    while em < series.EM_CEILING:
        em = min(2 * em, series.EM_CEILING)
        steps.append((n, em))
    return steps


def _ladder_brackets(steps, bracket, reported, precisions):
    """{P: the bracket the ladder certifies at P bits}: each step's bracket
    is taken once for all P, and the first one reported within 2^-(P+2)
    wins, as the escalation did. reported(lo, hi) is the step's reported
    bracket as a function of P."""
    out = {}
    for n, em in steps:
        at = reported(*bracket(n, em))
        for P in precisions:
            if P not in out:
                b = at(P)
                if b is not None and b.err <= Fraction(1, 2 ** (P + 2)):
                    out[P] = b
        if len(out) == len(precisions):
            return out
    raise AssertionError("the ladder ran out")


def _mzv_bracket(lo, hi):
    """The bracket a limit would report at P bits from the exact bracket
    [lo, hi], or None where it is wider than 2^-(P + 1)."""
    def at(P):
        if hi - lo > Fraction(1, 2 ** (P + 1)):
            return None
        return ApproxReal.from_bracket(lo, hi, P + 34)
    return at


def _pi_freq_bracket(lo, hi):
    return lambda P: (6 * ApproxReal.from_bracket(lo, hi, P + 35)).sqrt()


def _overlap(a, b):
    return a.lo <= b.hi and b.lo <= a.hi


def test_limit_steps_double_n_then_the_depth_at_the_last_exact_n():
    # the oracle's ladder; the last doubling of the depth is capped at EM_CEILING
    em_steps = [9 * 2 ** r for r in range(1, 8)] + [series.EM_CEILING]
    assert em_steps[-2] < series.EM_CEILING < 2 * em_steps[-2]
    assert limit_steps() == (
        [(256, em) for em in range(6, 10)]
        + [(n, 9) for n in (512, 1024, 2048, 4096, 8192)]
        + [(8192, em) for em in em_steps])


_PLANNED_PRECISIONS = (64, 116, 147, 155, 176, 219, 300, 512, 1024)


def test_the_plan_takes_one_bracket_that_overlaps_the_ladder(monkeypatch):
    pi = pi_oracle(1024 + 64)
    # the ladder's heads, prod (n^2 + t) to t^8 over their common factor,
    # built once for every k
    heads = {}
    for n in {n for n, _ in limit_steps()}:
        prod = series._factor_product(0, n, 8)
        g = math.gcd(*prod)
        heads[n] = [c // g for c in prod]
    calls = []
    bracket = series.mzv_limit_bracket
    monkeypatch.setattr(series, "mzv_limit_bracket",
                        lambda *a, **kw: calls.append(a) or bracket(*a, **kw))
    for k in range(1, 9):
        closed = pi.power(2 * k) / math.factorial(2 * k + 1)
        oracle = _ladder_brackets(limit_steps(),
                               lambda n, em: _exact_limit_bracket(k, n, em, heads[n][:k + 1]),
                               _mzv_bracket, _PLANNED_PRECISIONS)
        for P in _PLANNED_PRECISIONS:
            calls.clear()
            row = mzv_limit(k, P)
            z = row[k]
            assert len(calls) == 1, (k, P)
            assert all(e.err <= Fraction(1, 2 ** (P + 2)) for e in row), (k, P)
            assert _overlap(z, oracle[P]) and _overlap(z, closed), (k, P)


_PI_FREQ_PRECISIONS = (32, 64, 100, 128, 176, 224, 268, 269, 300, 512, 1024, 4096)


def test_pi_freq_is_the_root_of_the_certified_zeta2_row_entry(monkeypatch):
    # pi_freq takes zeta(2) from one mzv_limit(1, P + 1) bracket, never from
    # zeta2_bracket; its bracket overlaps the root of that exact
    # Euler-Maclaurin bracket at the same plan and the oracle, within
    # 2^-(P + 2)
    pi = pi_oracle(4096 + 64)
    calls = []
    bracket, zeta2 = series.mzv_limit_bracket, pi_constants.zeta2_bracket
    monkeypatch.setattr(series, "mzv_limit_bracket",
                        lambda *a, **kw: calls.append((a, kw)) or bracket(*a, **kw))
    monkeypatch.setattr(pi_constants, "zeta2_bracket", None)
    for P in _PI_FREQ_PRECISIONS:
        calls.clear()
        est = pi_constants.pi_freq(P)
        # the row's width at P + 1 bits
        width = Fraction(1, 2 ** (P + 2))
        plan = series.plan_limit(1, width)
        assert calls == [((1, *plan), {"bits": series.limit_bits(width)})], P
        exact = _pi_freq_bracket(*zeta2(*plan))(P)
        assert est.err <= Fraction(1, 2 ** (P + 2)), P
        assert _overlap(est, exact) and _overlap(est, pi), P


@pytest.mark.parametrize("k", [1, 2, 3, 8, 16, 24])
def test_the_width_bound_covers_the_whole_bracket(k):
    # the i > 1 terms count: at k = 24, N = 256, em = 50 the bracket is
    # far wider than zeta({2}^23) times the width of p_1 alone. The bound
    # takes zeta(2i) for the power sums and zeta({2}^m) for the brackets
    # of e_m, which at k = 24 are loose at small N
    for N, em in ((256, 6), (256, 50), (64, 25)):
        elo, ehi = _rational_row(k, N, em)[k]
        s = (ehi - elo).denominator.bit_length() + 8
        lo, hi = mzv_limit_bracket(k, N, em, bits=s)[k]
        width, bound = (Fraction(x, 1 << s) for x in (hi - lo, series.width_bound(k, N, em, s)[k]))
        assert ehi - elo <= width <= bound <= (ehi - elo) * (3 if N >= 256 else 8), (k, N, em)


# (k values, precisions, plan): plan_limit(k, 2^-(P + 1)) as e33c9ba took
# it. The first rows are the endpoints of the certified-limits benchmark's
# precision bands, each of which must keep one plan across it; then the
# precision ceiling, and pi-equality's zeta(2) row at the ceiling (16384 +
# 24 bits for pi_freq, one more for its row), the deepest plan any request
# makes
_PINNED_PLANS = (
    (range(1, 9), (64, 116), (256, 6)),
    ((1, 2, 3), (147, 155), (256, 9)),
    ((1, 2, 3, 4), (163,), (256, 10)),
    ((1, 2, 3, 4), (176,), (256, 11)),
    ((4, 5, 6), (190,), (256, 12)),
    ((4, 5, 6), (199,), (256, 13)),
    ((3, 4, 5), (207,), (256, 14)),
    ((3, 4, 5), (219,), (256, 15)),
    ((1, 8, 64), (16384,), (8192, 1469)),
    ((1,), (16409,), (8192, 1472)),
)


def test_the_plans_are_pinned():
    for ks, precisions, plan in _PINNED_PLANS:
        for k in ks:
            for P in precisions:
                assert series.plan_limit(k, Fraction(1, 2 ** (P + 1))) == plan, (k, P)


def test_entries_1_and_2_are_no_wider_than_the_convolution_at_the_pinned_plans():
    # entry j does not depend on the row's k, so a row to j = 2 serves every
    # k of a plan; there the closed-form floor bounds the kernel's entries
    # 1 and 2 and every entry of width_bound from below
    for ks, precisions, (N, em) in _PINNED_PLANS:
        for P in precisions:
            bits = series.limit_bits(Fraction(1, 2 ** (P + 1)))
            row = mzv_limit_bracket(2, N, em, bits=bits)
            oracle = _convolution_limit_bracket(2, N, em, bits)
            bound = series.width_bound(8, N, em, bits)
            for j in (1, 2):
                (lo, hi), (olo, ohi) = row[j], oracle[j]
                assert hi - lo <= ohi - olo, (N, em, P, j)
                assert _floor(j - 1, N, em) * (1 << bits) <= hi - lo, (N, em, P, j)
            for m in range(8):
                assert _floor(m, N, em) * (1 << bits) <= bound[m + 1], (N, em, P, m)


def test_a_plan_costs_a_logarithmic_number_of_bounds(monkeypatch):
    floors, wholes = [], []
    floor, whole = series._floor_terms, series.width_bound
    monkeypatch.setattr(series, "_floor_terms", lambda *a: floors.append(a) or floor(*a))
    monkeypatch.setattr(series, "width_bound", lambda *a: wholes.append(a) or whole(*a))
    log_em = series.EM_CEILING.bit_length()
    for k in (1, 8, 24):
        for P in (64, 219, 1024, 4096, 13000):
            floors.clear()
            wholes.clear()
            N, em = series.plan_limit(k, Fraction(1, 2 ** P))
            assert 6 <= em <= series.EM_CEILING and N <= series.EXACT_N_LIMIT
            assert len(floors) <= 6 * (log_em + 1), (k, P)
            assert len(wholes) <= 2 * (log_em + 1), (k, P)
            assert max(whole(k, N, em, P + 32)) <= 1 << 32, (k, P)


def _floor(m, N, em):
    return Fraction(*series._floor_terms(m, N, em))


def test_closed_form_floor_bounds_the_bracket_width_from_below():
    for N, em in ((64, 6), (256, 9), (1000, 40), (8192, 9), (8192, 72)):
        lo, hi = power_sum_tail_bracket(N, 1, em)
        floor = _floor(0, N, em)
        assert floor <= hi - lo <= 2 * floor, (N, em)
    for N, em in ((64, 6), (256, 9), (1000, 40)):
        row, prod = mzv_row(N, 9), series._factor_product(0, N, 9)
        for m in range(1, 9):
            lo, hi = _exact_limit_bracket(m + 1, N, em, prod[:m + 2])
            floor = _floor(m, N, em)
            assert floor <= row[m] * _floor(0, N, em) <= hi - lo, (m, N, em)
    for m in range(1, 9):
        for N in (1, 3, 10, 100):
            assert _floor(m, N, 6) <= mzv_truncated(N, m) * _floor(0, N, 6)
    # the row's widest floor, in closed form, is the widest of all
    for N in (1, 2, 3, 64, 256, 8192):
        for k in range(1, 25):
            floors = [_floor(m, N, 6) for m in range(k)]
            assert floors[series._widest_floor(k, N)] == max(floors), (k, N)
    # the head's floor is tight at the last exact truncation
    assert 2 * _floor(7, 8192, 9) > mzv_truncated(8192, 7) * _floor(0, 8192, 9)


@pytest.mark.parametrize("compute", [lambda: mzv_limit(4, 384), lambda: mzv_limit(4, 512),
                                     lambda: pi_constants.pi_freq(384)],
                         ids=["mzv-k4-384", "mzv-k4-512", "pi_freq-384"])
def test_requests_past_the_last_doubling_certify_within_seconds(compute):
    start = time.process_time()
    compute()
    assert time.process_time() - start < 2


def test_deep_limits_contain_the_closed_form():
    for P in (300, 512, 1024):
        pi = pi_oracle(P + 64)
        for k in (1, 4, 8):
            z = mzv_limit(k, P)[k]
            closed = pi.power(2 * k) / math.factorial(2 * k + 1)
            assert z.err <= Fraction(1, 2 ** (P + 2)), (k, P)
            assert abs(z.value - closed.value) <= z.err + closed.err, (k, P)
