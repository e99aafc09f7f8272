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
each end of a bracket is reduced once. The rolling recursion
e[n][k] = e[n-1][k] + e[n-1][k-1] / n^2 and the rational interval Newton
recursion are left to the tests as oracles.
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
# The deepest Euler-Maclaurin tail, at N = 8192: about 13,660 bits, 24 s of
# CPU time at k = 8 on a 2.0 GHz Xeon core. One more doubling of the depth
# took 61 s for its k = 8 bracket alone, past the 60 s budget.
EM_CEILING = 1152
# The largest k of a certified limit. The slowest request at a given k runs
# the whole escalation, up to depth EM_CEILING, at a precision at the reach;
# on a 2.1 GHz Xeon core that took 4.5 s of CPU time at k = 8, 13 to 17 s
# at k = 16, 35 s at k = 20, 47 s at k = 24 and 77 s at k = 28, past the
# 60 s budget. A 64-bit request at k = 24 takes 0.04 s.
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
    """zeta({2}^k) with certified error meeting the requested precision,
    tried at the steps limit_steps(256, N)."""
    require_limit_k(k)
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
    # prod_{m <= built} (m^2 + t) mod t^(k+1) over the gcd of its
    # coefficients, so brackets reduce on far less than (n!)^2: an
    # Euler-Maclaurin step reuses it, a doubling multiplies in (built, n]
    prod, built = [1] + [0] * k, 0
    for n, em in steps:
        if built < n:
            prod, built = poly_mul_trunc(prod, _factor_product(built, n, k)), n
            g = math.gcd(*prod)
            prod = [c // g for c in prod]
        lo, hi = mzv_limit_bracket(k, n, em, row=prod)
        v, r = round_to_bits((lo + hi) / 2, precision_bits + 8)
        err = (hi - lo) / 2 + r
        if err <= target:
            return ApproxReal(v, err, precision_bits)
    raise ResourceError(refused)
