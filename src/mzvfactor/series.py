"""Truncated multiple zeta values zeta_N({2}^k), truncated even zeta values,
and certified limits. zeta_N({2}^k) is, up to the sign (-1)^k, the
coefficient of x^(2k+1) in the expanded truncated product.

zeta_N({2}^k) is the k-th elementary symmetric function of {1/n^2 : n <= N},
so every entry of an exact row comes from one integer polynomial:

    zeta_N({2}^j) = [t^j] prod_{n<=N} (n^2 + t) / (N!)^2.

The product is taken mod t^(k+1) over a balanced tree of ranges of n
(binary splitting; Haible & Papanikolaou 1998, Bernstein 2008), so its
operands stay balanced and the row costs one division per entry; it serves
the exact rows only. A certified limit takes no exact product. It works on
W-bit integers in the fixed-point idiom of Brent & Zimmermann, "Modern
Computer Arithmetic" (2010). zeta({2}^j) is the j-th elementary symmetric
function of {1/n^2 : n >= 1}, whose power sums zeta(2i) add over the head
n <= N and the tail n > N: the head's are bracketed by nested floor
divisions, the tail's by Euler-Maclaurin, both on one grid a few bits
finer than the row's, and one run of Newton's identities on their sums
brackets the whole row. Every lower end is floored and every upper one
ceiled, as every ApproxReal operation does, so the row's ApproxReal
brackets are those integer ends. A limit takes one row: every
zeta({2}^j), j <= k, from one set of power sums and one bracket per entry,
at the truncation and depth plan_limit picks for the whole row from
closed-form bounds before any work (Johansson, "Rigorous high-precision
computation of the Hurwitz zeta function and its derivatives", Numer.
Algorithms 2015); the bound counts the rounding. The rolling recursion
e[n][k] = e[n-1][k] + e[n-1][k-1] / n^2, the rational interval Newton
recursion, the exact integer limit kernel, the kernels that convolved the
head's row with the tail's and the escalation ladder the limits used to
walk are left to the tests as oracles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .numeric import (
    ApproxReal,
    DomainError,
    ResourceError,
    ZERO,
    ONE,
    power_sum_tail_numerators,
    round_to_bits,  # not called here; bench/test_bench.py checks the tracer wraps this binding
)

# the largest truncation of an exact row, of a certified limit or of zeta_N(2)
EXACT_N_LIMIT = 10 ** 4
# The deepest Euler-Maclaurin tail. At N = 8192 a row at the 16384-bit
# precision ceiling takes depth 1469 at every k (the entry zeta({2}^2),
# whose floor is widest, decides it), and the deepest plan any request
# makes, pi-equality's zeta(2) row at 16409 bits (pi_freq 24 bits finer,
# its row one bit finer still), takes 1472; the cap leaves about 4% of
# headroom (the plan reaches 16936 bits), and no admitted request plans
# deeper than it needs. There a whole `compute mzv` request took 2.0 s of
# CPU time at k = 1, 2.3 s at k = 8 and 3.4 s at k = 24 on a shared 2-CPU
# Xeon host, 1.8-1.9 s of it the Bernoulli numbers to B_2940.
EM_CEILING = 1536
# The largest k of a certified limit. The slowest request at a given k is
# one at the 16384-bit precision ceiling, a single attempt at N = 8192 and
# depth 1469; on a shared 2-CPU Xeon host a `compute mzv` row there took
# 2.0 s of CPU time at k = 1, 3.4 s at k = 24, 4.9 s at k = 48, 6.1-6.4 s
# at k = 64 and about 9 s at k = 96, 1.8-1.9 s of it the Bernoulli numbers
# and at k = 64 about 2-2.5 s the head's N k floor divisions (with the
# exact head product that row took 14.5 s). k = 64 keeps the 60 s budget
# about eight times the time of `verify basel --k 64` and `verify
# factorization --k 64` there (6.7-7.4 s, with basel's oracle 32 bits
# finer), room for a much slower host: this ceiling alone bounds the time
# of the limit suites. A 64-bit request at k = 64 takes under 0.01 s.
MZV_K_CEILING = 64


# ranges of n this short multiply their linear factors in one at a time
_LEAF = 32


def poly_mul_trunc(a: list[int], b: list[int]) -> list[int]:
    """a * b mod t^len(a), for integer coefficient lists of equal length."""
    return [sum(a[i] * b[j - i] for i in range(j + 1)) for j in range(len(a))]


def _factor_product(lo: int, hi: int, k_max: int) -> list[int]:
    """[t^0..t^k_max] of prod_{lo < n <= hi} (n^2 + t), by a balanced
    product tree over the range."""
    if hi - lo <= _LEAF:
        poly = [1] + [0] * k_max
        for n in range(lo + 1, hi + 1):
            sq = n * n
            for j in range(min(k_max, n - lo), 0, -1):
                poly[j] = poly[j] * sq + poly[j - 1]
            poly[0] *= sq
        return poly
    mid = (lo + hi) // 2
    return poly_mul_trunc(_factor_product(lo, mid, k_max),
                          _factor_product(mid, hi, k_max))


def mzv_row(N: int, k_max: int) -> list[Fraction]:
    """[zeta_N({2}^0), ..., zeta_N({2}^k_max)], exact: c_j / c_0 from the
    coefficients c_j of prod_{n<=N} (n^2 + t); c_0 is (N!)^2."""
    if N < 1:
        raise DomainError("mzv_row needs N >= 1")
    poly = _factor_product(0, N, k_max)
    return [Fraction(c, poly[0]) for c in poly]


def mzv_truncated(N: int, k: int) -> Fraction:
    """zeta_N({2}^k) = sum over 1 <= n_1 < ... < n_k <= N of prod 1/n_i^2."""
    if k < 0:
        raise DomainError("k must be nonnegative")
    if k == 0:
        return ONE
    if k > N:
        return ZERO
    return mzv_row(N, k)[k]


def zeta_even_truncated(N: int, j: int) -> Fraction:
    """sum_{n=1}^N 1/n^(2j)."""
    if N < 1 or j < 1:
        raise DomainError("zeta_even_truncated needs N >= 1, j >= 1")
    return sum((Fraction(1, n ** (2 * j)) for n in range(1, N + 1)), ZERO)


# ---------------------------------------------------------------------------
# Certified limits
# ---------------------------------------------------------------------------

def _newton_brackets(p: list[tuple[int, int]], bits: int) -> list[tuple[int, int]]:
    """Brackets lo / 2^bits <= e_m <= hi / 2^bits, m = 0..len(p), of the
    elementary symmetric functions of a set of positive reals, from brackets
    of its power sums p_i, i = 1..len(p), on the same grid. Newton's
    identities m e_m = sum_{i=1..m} (-1)^(i-1) e_{m-i} p_i sum exact products
    of the integer ends, and the lower end of e_m is floored and the upper
    end ceiled. Each e bracket (a, b) lies in [0, inf), so its product with
    a p bracket (c, d) runs from a c (b c if c < 0) to b d (a d if d < 0)."""
    e = [(1 << bits, 1 << bits)]
    for m in range(1, len(p) + 1):
        lo = hi = 0
        for i in range(1, m + 1):
            (a, b), (c, d) = e[m - i], p[i - 1]
            tlo = a * c if c >= 0 else b * c
            thi = b * d if d >= 0 else a * d
            if i % 2:
                lo, hi = lo + tlo, hi + thi
            else:
                lo, hi = lo - thi, hi - tlo
        unit = m << bits
        e.append((max(0, lo // unit), -(-hi // unit)))
    return e


def tail_elementary_brackets(N: int, k: int, em_terms: int, bits: int) -> list[tuple[int, int]]:
    """Brackets lo / 2^bits <= e_m <= hi / 2^bits, m = 0..k, of the
    elementary symmetric functions e_m of the tail set {1/n^2 : n > N}: each
    power-sum bracket of power_sum_tail_numerators is taken once to
    2^-bits, its lower end floored and its upper end ceiled, and run
    through _newton_brackets. At k = 0 the one entry e_0 = 1 is exact.
    No request calls it: mzv_limit_bracket adds the tail's power sums to
    the head's before Newton's identities. It stays only because
    bench/tracing.py names it in SPANS and the tests take it as the
    tail's oracle."""
    if not k:
        return [(1 << bits, 1 << bits)]
    den, ends = power_sum_tail_numerators(N, k, em_terms)
    return _newton_brackets([((lo << bits) // den, -((-hi << bits) // den)) for lo, hi in ends],
                            bits)


def head_bits(N: int, bits: int) -> int:
    """The fractional bits of the power sums of a row taken on the grid 2^-bits
    at truncation N: bitlen(N) + 8 guard bits past it, so that the slack of
    N units in each head power sum stays under 2^-8 of a unit of 2^-bits."""
    return bits + N.bit_length() + 8


def head_power_sums(N: int, k: int, bits: int) -> list[tuple[int, int]]:
    """Brackets lo / 2^bits <= p_i <= hi / 2^bits, i = 1..k, of the power
    sums p_i = sum_{n<=N} 1/n^(2i) of the head set {1/n^2 : n <= N}.
    Each term floor(2^bits / n^(2i)) comes from the one before by one more
    floor division by n^2 (nested floors of positive integers are the
    floor of the quotient), so the sum h_i of the N floors is less than N
    units short of p_i: the bracket is [h_i, h_i + N]. The terms do not
    increase in n, so those that reach 0 are dropped from the end."""
    sq = [n * n for n in range(1, N + 1)]
    x = [1 << bits] * N
    out = []
    for _ in range(k):
        x = [t // q for t, q in zip(x, sq)]
        while x and not x[-1]:
            x.pop()
        h = sum(x)
        out.append((h, h + N))
    return out


@lru_cache(maxsize=256)
def _floor_terms(m: int, N: int, em: int) -> tuple[int, int]:
    """A closed-form lower bound, for N >= 1, of zeta_N({2}^m) times the
    width W_1 of power_sum_tail_bracket(N, 1, em), as an unreduced
    (numerator, denominator). Entry m + 1 of width_bound(k, N, em, s),
    k > m, is at least that: its recursion gives
    w(e_{m+1}) >= zeta({2}^m) W_1 by induction, from w(P_1) >= W_1,
    hi(e_m) >= zeta({2}^m) and zeta(2) zeta({2}^(m-1)) >= m zeta({2}^m).
    So is the width of entry m + 1 of mzv_limit_bracket(k, N, em) at the
    m <= 1 that plan_limit checks (_widest_floor), wherever the kernel's
    bracket P_1 of p_1 is at most 1/N wide: entry 1 is P_1, and
    2 e_2 = e_1 p_1 - p_2 makes 2 w(e_2) >= 2 lo(P_1) w(P_1), so entry 2
    is at least (zeta(2) - 1/N) W_1 wide, which the floor at m = 1 is
    below. W_1 is |B_2i| / (N+1)^(2i+1), i = em + 1,
    with |B_2i| > 2 (2i)! / (2 pi)^(2i); zeta_N({2}^m) is pi^(2m) / (2m+1)!
    less at most zeta({2}^(m-1)) / N; and 333/106 < pi < 355/113. Cached:
    every plan checks the same depth caps and bisection steps at each N."""
    i = em + 1
    num, den = 2 * math.factorial(2 * i) * 113 ** (2 * i), 710 ** (2 * i) * (N + 1) ** (2 * i + 1)
    if m:
        cut = Fraction(355, 113) ** (2 * m - 2) / (math.factorial(2 * m - 1) * N)
        head = max(ZERO, Fraction(333, 106) ** (2 * m) / math.factorial(2 * m + 1) - cut)
        num, den = num * head.numerator, den * head.denominator
    return num, den


def _widest_floor(k: int, N: int) -> int:
    """The m < k with the largest floor _floor_terms(m, N, em): the floors
    of the entries 1..k of a row differ only in their head factor, so this m
    decides, at every em, whether the floor of every entry is within a
    width. From m = 1 on, (333/106)^(2m) / (2m+1)! falls, so every head
    factor at m >= 2 is below (333/106)^4 / 5! < 1, the factor at m = 0;
    the factor at m = 1, (333/106)^2 / 3! - 1/N, is above 1 exactly when
    N >= 2."""
    return 1 if k >= 2 and N >= 2 else 0


def width_bound(k: int, N: int, em: int, s: int) -> list[int]:
    """Upper bounds, in units of 2^-s, of the widths of the entries
    j = 0..k of mzv_limit_bracket(k, N, em, bits=s), for N >= 1, from
    closed forms only: one recursion for the whole row, in units of 2^-t,
    t = head_bits(N, s), that follows the kernel's.

    The tail bracket of p_i has width W_i = |B_2n| C(2i+2em, 2n) /
    ((2i-1) a^(2i+2em+1)), n = em + 1 and a = N + 1, with
    |B_2n| < 2 (2n)! zeta(2n) / (2 pi)^(2n), zeta(2n) <= 1 + 3/4^n and
    2 pi > 333/53. Its ends, floored and ceiled onto 2^-t, and the head's
    N units make the kernel's bracket P_i of p_i at most
    w(P_i) = W_i + N + 2 units wide. Its lower end is at most
    p_i = zeta(2i), below (355/113)^2 / 6 at i = 1 and at most 1 + 3/4^i
    above, so hi(P_i) <= zeta(2i) + w(P_i), which also bounds |lo(P_i)|.
    A product of an e bracket [a, b] in [0, inf) and a p bracket [c, d] is
    at most b (d - c) + max(|c|, |d|) (b - a) wide, so Newton's identities
    give
        m w(e_m) <= sum_{i=1..m} (hi(e_{m-i}) w(P_i) + hi(P_i) w(e_{m-i})),
    each product taken over 2^t, plus 2 units for the floor and the
    ceiling. The lower end of e_m is at most zeta({2}^m) = pi^(2m) / (2m+1)!,
    so hi(e_m) <= (355/113)^(2m) / (2m+1)! + w(e_m). Every quantity is
    rounded up to a whole unit. The floor and the ceiling onto 2^-s make
    entry m at most ceil(w(e_m) / 2^(t-s)) + 1 units of 2^-s wide.
    """
    t = head_bits(N, s)
    n, a = em + 1, N + 1
    big = 2 * math.factorial(2 * n) * (4 ** n + 3) * 53 ** (2 * n) << t
    small = 4 ** n * 333 ** (2 * n) * a ** (2 * em + 1)
    wp, hp = [0], [0]
    for i in range(1, k + 1):
        wp.append(-(-big * math.comb(2 * i + 2 * em, 2 * n)
                    // (small * (2 * i - 1) * a ** (2 * i))) + N + 2)
        num, den = (355 ** 2, 6 * 113 ** 2) if i == 1 else (4 ** i + 3, 4 ** i)
        hp.append(-((-num << t) // den) + wp[i])
    we, he = [0], [1 << t]
    for m in range(1, k + 1):
        total = sum(he[m - i] * wp[i] + hp[i] * we[m - i] for i in range(1, m + 1))
        we.append(-(-total // (m << t)) + 2)
        he.append(-((-(355 ** (2 * m)) << t) // (113 ** (2 * m) * math.factorial(2 * m + 1)))
                  + we[m])
    return [-(-w >> (t - s)) + 1 for w in we]


def plan_limit(k: int, width: Fraction) -> tuple[int, int]:
    """The one (truncation, Euler-Maclaurin depth) at which a certified limit
    takes its row: the width of every entry j = 1..k of
    mzv_limit_bracket(k, N, em, bits=s), s = limit_bits(width), is at most
    `width` by width_bound. Nothing is built; past the reach this raises
    ResourceError.

    N is the first of the ladder 256 2^i <= EXACT_N_LIMIT with such an em of
    at most N/2, or, at the last N, of at most EM_CEILING. At each N the
    depth is first guessed as the smallest em >= 6 whose
    floor _floor_terms(j - 1, N, em) is within `width` for every j <= k, the
    largest such em over j, by trying em = 6, 12, 24, ... and bisecting the
    last step; the floor is a lower bound of width_bound, so no smaller em
    can pass. The guess is confirmed by width_bound, or the bound is bisected
    above it. Each width_bound is one recursion for the whole row, so a
    plan costs O(log EM_CEILING) closed-form bounds at each N of the ladder,
    as a plan for entry k alone would.

    The cap N/2 comes from the cost of the attempt. It was first measured
    at every N of the ladder for k = 1, 4, 8, 16 and 24 and 512 to 8192
    bits in steps of sqrt(2), when the head was the exact product and
    cost about 3-4x per doubling of N. The W-bit head costs about N k
    small divisions and k^2 products on W bits, so with it the attempt
    costs about 1.5-2x per doubling of N. Measured again at every N of the
    ladder for k = 1, 8 and 24 and 1024 to 8192 bits in doublings, with the
    Bernoulli numbers built, as in any process that took a limit as deep
    before, N/2 still picked the cheapest N at 11 of the 12 points; at k = 1
    and 8192 bits N = 4096 took 19 ms against its 23 ms. A fresh process
    also builds the Bernoulli numbers once, about 0.5 s at depth 987, so
    there a shallower depth at a larger N is cheaper near 8192 bits, by at
    most that build. The rule stays until the plans may move: the
    certified-limits benchmark draws its precisions from bands that each
    keep one plan, and a planner by cost belongs with a redefinition of
    those bands. The rule keeps N = 256 up to about 1055 bits at k = 1 and
    1054 at k = 8 and 24, then doubles N once per doubling of the precision.
    """
    s = limit_bits(width)
    allowed = (width.numerator << s) // width.denominator

    def floor_fits(m: int, N: int, em: int) -> bool:
        num, den = _floor_terms(m, N, em)
        return num * width.denominator <= width.numerator * den

    def fits(N: int, em: int) -> bool:
        return max(width_bound(k, N, em, s)) <= allowed

    ladder = [256 << i for i in range((EXACT_N_LIMIT // 256).bit_length())]
    for N in ladder:
        # the floor falls as em grows up to about pi (N + 1), above every cap
        cap = EM_CEILING if N == ladder[-1] else min(EM_CEILING, N // 2)
        m = _widest_floor(k, N)
        if not floor_fits(m, N, cap):
            continue
        lo, hi = 6, 6
        while not floor_fits(m, N, hi):
            lo, hi = hi + 1, min(2 * hi, cap)
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if floor_fits(m, N, mid) else (mid + 1, hi)
        if not fits(N, lo):
            if not fits(N, cap):
                continue
            lo, hi = lo + 1, cap
            while lo < hi:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if fits(N, mid) else (mid + 1, hi)
        return N, lo
    raise ResourceError(f"no truncation N <= {EXACT_N_LIMIT} with a depth "
                        f"em <= {EM_CEILING} brackets the limit within the requested width")


def limit_bits(width: Fraction) -> int:
    """The fractional bits s at which a certified limit planned within
    `width` takes its bracket: 32 bits past the width's denominator, so the
    rounding of the s-bit kernel is far inside the width."""
    return width.denominator.bit_length() + 32


def mzv_limit_bracket(k: int, N: int, em: int, *, bits: int) -> list[tuple[int, int]]:
    """Brackets lo / 2^bits <= zeta({2}^j) <= hi / 2^bits, j = 0..k.

    zeta({2}^j) is the j-th elementary symmetric function of
    {1/n^2 : n >= 1}, whose power sums add over the head n <= N and the
    tail n > N. On the grid 2^-t, t = head_bits(N, bits), each head power
    sum is bracketed by head_power_sums and each tail one by the
    Euler-Maclaurin numerators of power_sum_tail_numerators, its lower end
    floored and its upper end ceiled; the two brackets add, and one
    _newton_brackets run turns the sums into the row, each end then
    floored or ceiled once onto 2^-bits. No power sum depends on k, so
    entry j is the bracket a call at j would return. width_bound bounds
    the width of each entry.
    """
    if k < 0:
        raise DomainError("k must be nonnegative")
    if N > EXACT_N_LIMIT:
        raise ResourceError(f"truncation {N} exceeds ceiling {EXACT_N_LIMIT}")
    if not k:
        return [(1 << bits, 1 << bits)]
    t = head_bits(N, bits)
    den, tail = power_sum_tail_numerators(N, k, em)
    p = [(h + (lo << t) // den, g - (-hi << t) // den)
         for (h, g), (lo, hi) in zip(head_power_sums(N, k, t), tail)]
    return [(lo >> (t - bits), -(-hi >> (t - bits))) for lo, hi in _newton_brackets(p, t)]


def require_limit_k(k: int) -> None:
    """Refuse a certified limit zeta({2}^k) by its k alone, before any work."""
    if k < 0:
        raise DomainError("k must be nonnegative")
    if k > MZV_K_CEILING:
        raise ResourceError(f"zeta({{2}}^{k}): k exceeds ceiling {MZV_K_CEILING}")


def mzv_limit(k: int, precision_bits: int) -> list[ApproxReal]:
    """The row [zeta({2}^0), ..., zeta({2}^k)], each entry with certified
    error at most 2^-(precision_bits + 2), the bracket of one row of
    mzv_limit_bracket at the (N, em) of plan_limit, each of width at most
    2^-(precision_bits + 1)."""
    require_limit_k(k)
    if k == 0:
        return [ApproxReal(1, 1, 0)]
    width = Fraction(1, 1 << (precision_bits + 1))
    try:
        N, em = plan_limit(k, width)
    except ResourceError:
        raise ResourceError(f"cannot certify zeta({{2}}^{k}) to {precision_bits} bits "
                            f"within configured ceilings") from None
    bits = limit_bits(width)
    row = [ApproxReal(a, c, bits) for a, c in mzv_limit_bracket(k, N, em, bits=bits)]
    if any(z.h - z.l > 1 << (bits - precision_bits - 1) for z in row):
        raise ValueError(f"zeta({{2}}^{k}): the planned bracket at N = {N}, "
                         f"em = {em} missed 2^-{precision_bits + 2}")
    return row
