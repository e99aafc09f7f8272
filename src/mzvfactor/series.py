"""Truncated multiple zeta values zeta_N({2}^k), truncated even zeta values,
and certified limits. zeta_N({2}^k) is, up to the sign (-1)^k, the
coefficient of x^(2k+1) in the expanded truncated product.

zeta_N({2}^k) is the k-th elementary symmetric function of {1/n^2 : n <= N},
so every entry of a row comes from one integer polynomial:

    zeta_N({2}^j) = [t^j] prod_{n<=N} (n^2 + t) / (N!)^2.

The product is taken mod t^(k+1) over a balanced tree of ranges of n
(binary splitting; Haible & Papanikolaou 1998, Bernstein 2008), so its
operands stay balanced and the row costs one division per entry. The
rolling recursion e[n][k] = e[n-1][k] + e[n-1][k-1] / n^2 is left to the
tests as an oracle.
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
    power_sum_tail_bracket,
    require_precision,
    round_to_bits,
)

# the largest truncation of an exact head row or zeta_N(2)
EXACT_N_LIMIT = 10 ** 4
# The deepest Euler-Maclaurin tail, at N = 8192: about 13,660 bits, 24 s of
# CPU time at k = 8 on a 2.0 GHz Xeon core. One more doubling of the depth
# took 61 s for its k = 8 bracket alone, past the 60 s budget.
EM_CEILING = 1152


# ranges of n this short multiply their linear factors in one at a time
_LEAF = 32


def _poly_mul_trunc(a: list[int], b: list[int]) -> list[int]:
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
    return _poly_mul_trunc(_factor_product(lo, mid, k_max),
                           _factor_product(mid, hi, k_max))


def _row_from_product(poly: list[int]) -> list[Fraction]:
    """The row zeta_N({2}^j) = c_j / (N!)^2 from the coefficients c_j of
    prod_{n<=N} (n^2 + t); c_0 is (N!)^2."""
    return [Fraction(c, poly[0]) for c in poly]


def mzv_row(N: int, k_max: int) -> list[Fraction]:
    """[zeta_N({2}^0), ..., zeta_N({2}^k_max)], exact."""
    if N < 1:
        raise DomainError("mzv_row needs N >= 1")
    return _row_from_product(_factor_product(0, N, k_max))


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

def tail_elementary_brackets(N: int, k: int, em_terms: int = 6) -> list[tuple[Fraction, Fraction]]:
    """Brackets for e_m of the tail set {1/n^2 : n > N}, m = 0..k.

    Newton's identities, run in exact rational interval arithmetic:
        m e_m = sum_{i=1..m} (-1)^(i-1) e_{m-i} p_i.
    Every e bracket lies in [0, inf), so its product with a p bracket
    (c, d) runs from the smaller of its ends times c to the larger times d.
    """
    p = [power_sum_tail_bracket(N, i, em_terms) for i in range(1, k + 1)]
    e: list[tuple[Fraction, Fraction]] = [(ONE, ONE)]
    for m in range(1, k + 1):
        lo = hi = ZERO
        for i in range(1, m + 1):
            (a, b), (c, d) = e[m - i], p[i - 1]
            tlo, thi = min(a * c, b * c), max(a * d, b * d)
            lo, hi = (lo + tlo, hi + thi) if i % 2 == 1 else (lo - thi, hi - tlo)
        e.append((max(ZERO, lo / m), hi / m))
    return e


def limit_steps(n: int, N: int | None = None) -> list[tuple[int, int]]:
    """The (truncation, Euler-Maclaurin depth) attempts of a certified limit
    that starts at truncation n: depths 6..9 at n, then n doubled at depth 9
    while it stays within EXACT_N_LIMIT, then the depth doubled at that last
    n up to EM_CEILING. A pinned truncation N is the one attempt (N, 6)."""
    if N is not None:
        if N < 1:
            raise DomainError("a pinned truncation needs N >= 1")
        if N > EXACT_N_LIMIT:
            raise ResourceError(f"truncation {N} exceeds ceiling {EXACT_N_LIMIT}")
        return [(N, 6)]
    steps = [(n, em) for em in range(6, 10)]
    while 2 * n <= EXACT_N_LIMIT:
        n *= 2
        steps.append((n, 9))
    em = 9
    while em < EM_CEILING:
        em = min(2 * em, EM_CEILING)
        steps.append((n, em))
    return steps


@lru_cache(maxsize=64)
def bracket_floor(m: int, N: int, em: int) -> Fraction:
    """A closed-form lower bound, for N >= 1, of zeta_N({2}^m) times the
    width of power_sum_tail_bracket(N, 1, em), which the width of
    mzv_limit_bracket(m + 1, N, em) is at least. That width is
    |B_2i| / (N+1)^(2i+1), i = em + 1,
    with |B_2i| > 2 (2i)! / (2 pi)^(2i); zeta_N({2}^m) is pi^(2m) / (2m+1)!
    less at most zeta({2}^(m-1)) / N; and 333/106 < pi < 355/113."""
    i = em + 1
    floor = Fraction(2 * math.factorial(2 * i) * 113 ** (2 * i),
                     710 ** (2 * i) * (N + 1) ** (2 * i + 1))
    if m:
        cut = Fraction(355, 113) ** (2 * m - 2) / (math.factorial(2 * m - 1) * N)
        floor *= max(ZERO, Fraction(333, 106) ** (2 * m) / math.factorial(2 * m + 1) - cut)
    return floor


def mzv_limit_bracket(k: int, N: int = 1000, em_terms: int = 6,
                      row: list[Fraction] | None = None) -> tuple[Fraction, Fraction]:
    """Exact rational bracket for zeta({2}^k).

    Splits the elementary symmetric function over {1..N} and the tail:
        zeta({2}^k) = sum_j zeta_N({2}^j) * e_{k-j}(tail),
    an identity, so the only width comes from the tail power-sum brackets.
    A caller that already holds the exact row mzv_row(N, k), for this same
    N, passes it as `row`.
    """
    if k < 0:
        raise DomainError("k must be nonnegative")
    if k == 0:
        return (ONE, ONE)
    if N > EXACT_N_LIMIT:
        raise ResourceError(f"truncation {N} exceeds ceiling {EXACT_N_LIMIT}")
    if row is not None and len(row) != k + 1:
        raise DomainError(f"row has {len(row)} entries, mzv_row(N, {k}) has {k + 1}")
    head = row if row is not None else mzv_row(N, k)
    tails = tail_elementary_brackets(N, k, em_terms)
    return (sum(head[j] * tails[k - j][0] for j in range(k + 1)),
            sum(head[j] * tails[k - j][1] for j in range(k + 1)))


def mzv_limit(k: int, precision_bits: int, N: int | None = None) -> ApproxReal:
    """zeta({2}^k) with certified error meeting the requested precision,
    tried at the steps limit_steps(256, N)."""
    require_precision(precision_bits)
    if k == 0:
        return ApproxReal.exact(1, precision_bits)
    target = Fraction(1, 1 << (precision_bits + 2))
    steps = limit_steps(256, N)
    refused = (f"cannot certify zeta({{2}}^{k}) to {precision_bits} bits "
               f"within configured ceilings")
    # the ball's radius is at least half the bracket's width
    if bracket_floor(k - 1, *steps[-1]) > 2 * target:
        raise ResourceError(refused)
    # prod_{m <= built} (m^2 + t) mod t^(k+1) and its row: an Euler-Maclaurin
    # step reuses the row, a doubling of n multiplies in only (built, n]
    prod, built, row = [1] + [0] * k, 0, None
    for n, em in steps:
        if built < n:
            prod = _poly_mul_trunc(prod, _factor_product(built, n, k))
            built = n
            row = _row_from_product(prod)
        lo, hi = mzv_limit_bracket(k, n, em, row=row)
        v, r = round_to_bits((lo + hi) / 2, precision_bits + 8)
        err = (hi - lo) / 2 + r
        if err <= target:
            return ApproxReal(v, err, precision_bits)
    raise ResourceError(refused)
