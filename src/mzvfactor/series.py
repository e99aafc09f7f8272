"""Truncated multiple zeta values zeta_N({2}^k), truncated even zeta values,
and certified limits. zeta_N({2}^k) is, up to the sign (-1)^k, the
coefficient of x^(2k+1) in the expanded truncated product.

zeta_N({2}^k) is the k-th elementary symmetric function of {1/n^2 : n <= N},
so every entry of a row comes from one integer polynomial:

    zeta_N({2}^j) = [t^j] prod_{n<=N} (n^2 + t) / (N!)^2.

The product is taken mod t^(k+1) over a balanced tree of ranges of n
(binary splitting; Haible & Papanikolaou 1998, Bernstein 2008), so its
operands stay balanced and the row costs one division per entry. The
certified limit's tail runs Newton's identities on integer numerators over
the one denominator of its power-sum brackets, so with the integer head
each end of a bracket is reduced once. A limit takes one bracket, at the
truncation and depth plan_limit picks from closed-form bounds before any
work (Johansson, "Rigorous high-precision computation of the Hurwitz zeta
function and its derivatives", Numer. Algorithms 2015). The rolling recursion
e[n][k] = e[n-1][k] + e[n-1][k-1] / n^2 and the rational interval Newton
recursion, and the escalation ladder the limits used to walk, are left to
the tests as oracles.
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
    require_precision,
    round_to_bits,
)

# the largest truncation of an exact head row or zeta_N(2)
EXACT_N_LIMIT = 10 ** 4
# The deepest Euler-Maclaurin tail. At N = 8192 it reaches 13,662 bits at
# k = 1 and 13,679 at k = 8. There the one planned attempt took 1.9 s of CPU
# time at k = 1, 3.5 s at k = 8 and 41 s at k = 24 on a 2.1 GHz Xeon core;
# at k = 24 the tail brackets alone took 24 s, and a doubled depth would at
# least double them, past the 60 s budget.
EM_CEILING = 1152
# The largest k of a certified limit. The slowest request at a given k is
# one at the reach, a single attempt at N = 8192 and a depth near
# EM_CEILING; on a 2.1 GHz Xeon core it took 1.9 s of CPU time at k = 4,
# 3.5 s at k = 8, 15 s at k = 16, 41 s at k = 24 and 64 s at k = 28, past
# the 60 s budget. A 64-bit request at k = 24 takes 0.04 s.
MZV_K_CEILING = 24


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

def tail_elementary_brackets(N: int, k: int, em_terms: int = 6) -> tuple[int, list[tuple[int, int]]]:
    """Brackets lo / (den^m m!) <= e_m <= hi / (den^m m!), m = 0..k, for the
    tail set {1/n^2 : n > N}, as (den, [(lo, hi)]), where p_i = P_i / den.
    Newton's identities m e_m = sum_{i=1..m} (-1)^(i-1) e_{m-i} p_i run on
    numerators: E_m sums E_{m-i} P_i den^(i-1) (m-1)!/(m-i)!. Each e bracket
    lies in [0, inf), so its product with a p bracket (c, d) runs from the
    smaller of its ends times c to the larger times d; every denominator is
    positive, so that choice and the clamp at 0 act on numerators unchanged.
    """
    den, p = power_sum_tail_numerators(N, k, em_terms)
    p = [(c * den ** i, d * den ** i) for i, (c, d) in enumerate(p)]
    e = [(1, 1)]
    for m in range(1, k + 1):
        lo, hi, scale = 0, 0, 1
        for i in range(1, m + 1):
            (a, b), (c, d) = e[m - i], p[i - 1]
            tlo, thi = scale * min(a * c, b * c), scale * max(a * d, b * d)
            lo, hi = (lo + tlo, hi + thi) if i % 2 == 1 else (lo - thi, hi - tlo)
            scale *= m - i
        e.append((max(0, lo), hi))
    return den, e


@lru_cache(maxsize=256)
def _floor_terms(m: int, N: int, em: int) -> tuple[int, int]:
    """bracket_floor(m, N, em) as an unreduced (numerator, denominator);
    every plan checks the same depth caps and bisection steps at each N."""
    i = em + 1
    num, den = 2 * math.factorial(2 * i) * 113 ** (2 * i), 710 ** (2 * i) * (N + 1) ** (2 * i + 1)
    if m:
        cut = Fraction(355, 113) ** (2 * m - 2) / (math.factorial(2 * m - 1) * N)
        head = max(ZERO, Fraction(333, 106) ** (2 * m) / math.factorial(2 * m + 1) - cut)
        num, den = num * head.numerator, den * head.denominator
    return num, den


def bracket_floor(m: int, N: int, em: int) -> Fraction:
    """A closed-form lower bound, for N >= 1, of zeta_N({2}^m) times the
    width of power_sum_tail_bracket(N, 1, em), which the width of
    mzv_limit_bracket(m + 1, N, em) is at least. That width is
    |B_2i| / (N+1)^(2i+1), i = em + 1,
    with |B_2i| > 2 (2i)! / (2 pi)^(2i); zeta_N({2}^m) is pi^(2m) / (2m+1)!
    less at most zeta({2}^(m-1)) / N; and 333/106 < pi < 355/113."""
    return Fraction(*_floor_terms(m, N, em))


def width_bound(k: int, N: int, em: int, s: int) -> int:
    """An upper bound, in units of 2^-s, of the width of
    mzv_limit_bracket(k, N, em), for k, N >= 1, from closed forms only.

    That width is sum_{j<k} zeta_N({2}^j) w(e_{k-j}), all terms
    nonnegative, and zeta_N({2}^j) <= zeta({2}^j) < (355/113)^(2j) / (2j+1)!.
    The tail bracket of p_i has width W_i = |B_2n| C(2i+2em, 2n) /
    ((2i-1) a^(2i+2em+1)), n = em + 1 and a = N + 1, with
    |B_2n| < 2 (2n)! zeta(2n) / (2 pi)^(2n), zeta(2n) <= 1 + 3/4^n and
    2 pi > 333/53; each end of it is at most p_i + W_i, and
    p_i <= 1 / ((2i-1) N^(2i-1)). A product of an e bracket [a, b] in
    [0, inf) and a p bracket [c, d] is at most b (d - c) + max(|c|, |d|) (b - a)
    wide, so Newton's identities give
        w(e_m) <= (1/m) sum_{i=1..m} (hi(e_{m-i}) W_i + (p_i + W_i) w(e_{m-i})),
    with hi(e_m) <= e_m + w(e_m) and e_m <= p_1^m / m! <= 1 / (N^m m!).
    Every quantity is rounded up to a whole unit, so the bound exceeds the
    exact sum by at most about k^2 units.
    """
    n, a, one = em + 1, N + 1, 1 << s
    big = 2 * math.factorial(2 * n) * (4 ** n + 3) * 53 ** (2 * n) << s
    small = 4 ** n * 333 ** (2 * n) * a ** (2 * em + 1)
    w, q = [0], [0]
    for i in range(1, k + 1):
        w.append(-(-big * math.comb(2 * i + 2 * em, 2 * n)
                   // (small * (2 * i - 1) * a ** (2 * i))))
        q.append(-(-one // ((2 * i - 1) * N ** (2 * i - 1))) + w[i])
    eps, eta = [0], [one]
    for m in range(1, k + 1):
        total = sum(eta[m - i] * w[i] + q[i] * eps[m - i] for i in range(1, m + 1))
        eps.append(-(-total // (m << s)))
        eta.append(-(-one // (N ** m * math.factorial(m))) + eps[m])
    return sum(-(-355 ** (2 * j) * eps[k - j] // (113 ** (2 * j) * math.factorial(2 * j + 1)))
               for j in range(k))


def plan_limit(k: int, width: Fraction, n: int,
               N: int | None = None) -> tuple[int, int]:
    """The one (truncation, Euler-Maclaurin depth) at which a certified limit
    takes its bracket: the width of mzv_limit_bracket(k, N, em) (for k = 1,
    of zeta2_bracket(N, em)) is at most `width` by width_bound. Nothing is
    built; past the reach this raises ResourceError. A pinned truncation N
    is the one attempt (N, 6).

    N is the first of the ladder n 2^i <= EXACT_N_LIMIT with such an em of
    at most N/4, or, at the last N, of at most EM_CEILING. At each N the
    depth is first guessed as the smallest em >= 6 whose
    bracket_floor(k - 1, N, em) is within `width`, by trying em = 6, 12,
    24, ... and bisecting the last step; the floor is a lower bound of the
    width, so no smaller em can pass. The guess is confirmed by width_bound,
    or the bound is bisected above it. So a plan costs O(log EM_CEILING)
    closed-form bounds at each N of the ladder.

    The cap N/4 comes from the cost of the attempt (head product, tail
    brackets, Bernoulli numbers and the one reduction), measured at every N
    of the ladder for k = 1, 4, 8, 16 and 24 from 64 to 8192 bits: the head
    costs about 4x per doubling of N, while the tail costs little until the
    depth nears N/2, where the Euler-Maclaurin terms stop shrinking fast.
    The rule came within 20% of the cheapest N wherever an attempt takes
    more than 0.01 s. It keeps N = 256 up to about 660 bits at k = 1 and 775
    at k = 24 (N = 64 up to 171 bits for pi_freq), then doubles N about once
    per doubling of the precision.
    """
    if N is not None:
        if N < 1:
            raise DomainError("a pinned truncation needs N >= 1")
        if N > EXACT_N_LIMIT:
            raise ResourceError(f"truncation {N} exceeds ceiling {EXACT_N_LIMIT}")
        return N, 6
    s = width.denominator.bit_length() + 32
    allowed = (width.numerator << s) // width.denominator

    def floor_fits(N: int, em: int) -> bool:
        num, den = _floor_terms(k - 1, N, em)
        return num * width.denominator <= width.numerator * den

    ladder = [n << i for i in range((EXACT_N_LIMIT // n).bit_length())]
    for N in ladder:
        # the floor falls as em grows up to about pi (N + 1), above every cap
        cap = EM_CEILING if N == ladder[-1] else min(EM_CEILING, N // 4)
        if not floor_fits(N, cap):
            continue
        lo, hi = 6, 6
        while not floor_fits(N, hi):
            lo, hi = hi + 1, min(2 * hi, cap)
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if floor_fits(N, mid) else (mid + 1, hi)
        if width_bound(k, N, lo, s) > allowed:
            if width_bound(k, N, cap, s) > allowed:
                continue
            lo, hi = lo + 1, cap
            while lo < hi:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if width_bound(k, N, mid, s) <= allowed else (mid + 1, hi)
        return N, lo
    raise ResourceError(f"no truncation N <= {EXACT_N_LIMIT} with a depth "
                        f"em <= {EM_CEILING} brackets the limit within the requested width")


def mzv_limit_bracket(k: int, N: int = 1000, em_terms: int = 6,
                      row: list[int] | None = None) -> tuple[Fraction, Fraction]:
    """Exact rational bracket for zeta({2}^k).

    Splits the elementary symmetric function over {1..N} and the tail:
        zeta({2}^k) = sum_j zeta_N({2}^j) * e_{k-j}(tail),
    an identity, so the only width comes from the tail power-sum brackets.
    With zeta_N({2}^j) = c_j / c_0 from prod_{n<=N} (n^2 + t), each end is
    one integer sum, reduced once. A caller that already holds c_0..c_k for
    this same N, or those over a common factor, passes them as `row`.
    """
    if k < 0:
        raise DomainError("k must be nonnegative")
    if k == 0:
        return (ONE, ONE)
    if N > EXACT_N_LIMIT:
        raise ResourceError(f"truncation {N} exceeds ceiling {EXACT_N_LIMIT}")
    if row is not None and len(row) != k + 1:
        raise DomainError(f"row has {len(row)} entries, mzv_row(N, {k}) has {k + 1}")
    head = row if row is not None else _factor_product(0, N, k)
    den, tails = tail_elementary_brackets(N, k, em_terms)
    # c_j / c_0 times E_{k-j} / (den^(k-j) (k-j)!), on c_0 den^k k!
    scaled = [c * den ** j * math.perm(k, j) for j, c in enumerate(head)]
    whole = head[0] * den ** k * math.factorial(k)
    return tuple(Fraction(sum(c * e[end] for c, e in zip(scaled, reversed(tails))), whole)
                 for end in (0, 1))


def require_limit_k(k: int) -> None:
    """Refuse a certified limit zeta({2}^k) by its k alone, before any work."""
    if k < 0:
        raise DomainError("k must be nonnegative")
    if k > MZV_K_CEILING:
        raise ResourceError(f"zeta({{2}}^{k}): k exceeds ceiling {MZV_K_CEILING}")


def mzv_limit(k: int, precision_bits: int, N: int | None = None) -> ApproxReal:
    """zeta({2}^k) with certified error at most 2^-(precision_bits + 2), from
    one bracket at the (N, em) of plan_limit."""
    require_limit_k(k)
    require_precision(precision_bits)
    if k == 0:
        return ApproxReal.exact(1, precision_bits)
    target = Fraction(1, 1 << (precision_bits + 2))
    refused = (f"cannot certify zeta({{2}}^{k}) to {precision_bits} bits "
               f"within configured ceilings")
    # the midpoint, below 2, is rounded at precision_bits + 8 bits, so the
    # error is half the bracket's width plus less than 2^-(precision_bits + 7)
    width = 2 * target - Fraction(1, 1 << (precision_bits + 6))
    pinned = N is not None
    try:
        N, em = plan_limit(k, width, 256, N)
    except ResourceError:
        if pinned:
            raise
        raise ResourceError(refused) from None
    # the ball's radius is at least half the bracket's width
    if pinned and bracket_floor(k - 1, N, em) > 2 * target:
        raise ResourceError(refused)
    # prod_{n <= N} (n^2 + t) mod t^(k+1) over the gcd of its coefficients,
    # so the bracket reduces on far less than (N!)^2
    prod = _factor_product(0, N, k)
    g = math.gcd(*prod)
    lo, hi = mzv_limit_bracket(k, N, em, row=[c // g for c in prod])
    v, r = round_to_bits((lo + hi) / 2, precision_bits + 8)
    err = (hi - lo) / 2 + r
    if err <= target:
        return ApproxReal(v, err, precision_bits)
    if pinned:
        raise ResourceError(refused)
    raise ValueError(f"zeta({{2}}^{k}): the planned bracket at N = {N}, "
                     f"em = {em} missed 2^-{precision_bits + 2}")
