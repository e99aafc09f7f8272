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
tests as an oracle, and to mzv_row_approx, which runs it in balls.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .numeric import (
    DEFAULT_PRECISION,
    ApproxReal,
    DomainError,
    ResourceError,
    ZERO,
    ONE,
    power_sum_tail_bracket,
    require_precision,
    round_to_bits,
)

BRUTEFORCE_LIMIT = 12
EXACT_N_LIMIT = 10 ** 4
MZV_N_CEILING = 10 ** 6


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


def mzv_row_approx(N: int, k_max: int,
                   precision: int = DEFAULT_PRECISION) -> list[ApproxReal]:
    """The row by the rolling recursion e[n][k] = e[n-1][k] + e[n-1][k-1] / n^2
    in balls of `precision` bits; numerators of the exact entries grow past
    any sane size above N = 10^4, so deep truncations run here instead."""
    if N < 1:
        raise DomainError("mzv_row_approx needs N >= 1")
    row = [ApproxReal.exact(1, precision)] + [ApproxReal.exact(0, precision)] * k_max
    for n in range(1, N + 1):
        sq = n * n
        for k in range(min(k_max, n), 0, -1):
            row[k] = row[k] + row[k - 1] / sq
    return row


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


def zeta_even_truncated(N: int, j: int) -> Fraction:
    """sum_{n=1}^N 1/n^(2j)."""
    if N < 1 or j < 1:
        raise DomainError("zeta_even_truncated needs N >= 1, j >= 1")
    return sum((Fraction(1, n ** (2 * j)) for n in range(1, N + 1)), ZERO)


# ---------------------------------------------------------------------------
# Certified limits
# ---------------------------------------------------------------------------

def _interval_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _interval_sub(a, b):
    return (a[0] - b[1], a[1] - b[0])


def _interval_mul(a, b):
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(products), max(products))


def tail_elementary_brackets(N: int, k: int, em_terms: int = 6) -> list[tuple[Fraction, Fraction]]:
    """Brackets for e_m of the tail set {1/n^2 : n > N}, m = 0..k.

    Newton's identities, run in exact rational interval arithmetic:
        m e_m = sum_{i=1..m} (-1)^(i-1) e_{m-i} p_i.
    """
    p = [power_sum_tail_bracket(N, i, em_terms) for i in range(1, k + 1)]
    e: list[tuple[Fraction, Fraction]] = [(ONE, ONE)]
    for m in range(1, k + 1):
        acc = (ZERO, ZERO)
        for i in range(1, m + 1):
            term = _interval_mul(e[m - i], p[i - 1])
            acc = _interval_add(acc, term) if i % 2 == 1 else _interval_sub(acc, term)
        lo, hi = acc
        e.append((max(ZERO, lo / m), hi / m))
    return e


def mzv_limit_bracket(k: int, N: int = 1000, em_terms: int = 6,
                      precision: int = DEFAULT_PRECISION,
                      row: list[Fraction] | None = None) -> tuple[Fraction, Fraction]:
    """Exact rational bracket for zeta({2}^k).

    Splits the elementary symmetric function over {1..N} and the tail:
        zeta({2}^k) = sum_j zeta_N({2}^j) * e_{k-j}(tail),
    an identity, so below N = EXACT_N_LIMIT the only width comes from the
    tail power-sum brackets; above it the head rows are balls of
    `precision` bits. A caller that already holds the exact row
    mzv_row(N, k), for this same N, passes it as `row`; it is used only
    below EXACT_N_LIMIT.
    """
    if k < 0:
        raise DomainError("k must be nonnegative")
    if k == 0:
        return (ONE, ONE)
    if N > MZV_N_CEILING:
        raise ResourceError(f"truncation {N} exceeds ceiling {MZV_N_CEILING}")
    if row is not None and len(row) != k + 1:
        raise DomainError(f"row has {len(row)} entries, mzv_row(N, {k}) has {k + 1}")
    if N <= EXACT_N_LIMIT:
        head = [(h, h) for h in (row if row is not None else mzv_row(N, k))]
    else:
        head = [(a.lo, a.hi) for a in mzv_row_approx(N, k, precision)]
    tails = tail_elementary_brackets(N, k, em_terms)
    lo = ZERO
    hi = ZERO
    for j in range(k + 1):
        tlo, thi = tails[k - j]
        hlo, hhi = head[j]
        lo += hlo * tlo
        hi += hhi * thi
    return (lo, hi)


def mzv_limit(k: int, precision_bits: int, N: int | None = None) -> ApproxReal:
    """zeta({2}^k) with certified error meeting the requested precision."""
    require_precision(precision_bits)
    if k == 0:
        return ApproxReal.exact(1, precision_bits)
    target = Fraction(1, 1 << (precision_bits + 2))
    n = N if N is not None else 256
    em = 6
    # prod_{m <= built} (m^2 + t) mod t^(k+1) and its row: an Euler-Maclaurin
    # step reuses the row, a doubling of n multiplies in only (built, n]
    prod, built, row = [1] + [0] * k, 0, None
    while True:
        exact = n <= EXACT_N_LIMIT
        if exact and built < n:
            prod = _poly_mul_trunc(prod, _factor_product(built, n, k))
            built = n
            row = _row_from_product(prod)
        # past EXACT_N_LIMIT the head row is approximate: its N k roundings
        # at head_bits bits add up to less than 2^-(precision_bits+16)
        head_bits = precision_bits + 16 + n.bit_length() + k.bit_length()
        lo, hi = mzv_limit_bracket(k, n, em, precision=head_bits,
                                   row=row if exact else None)
        mid = (lo + hi) / 2
        v, r = round_to_bits(mid, precision_bits + 8)
        err = (hi - lo) / 2 + r
        if err <= target:
            return ApproxReal(v, err, precision_bits)
        if N is not None or (n >= MZV_N_CEILING and em + 1 >= 16):
            raise ResourceError(
                f"cannot certify zeta({{2}}^{k}) to {precision_bits} bits "
                f"within configured ceilings")
        if em < 9:
            em += 1
        else:
            n *= 2
            if n > MZV_N_CEILING:
                raise ResourceError("truncation ceiling reached")
