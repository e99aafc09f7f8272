"""The log-derivative sum p(x) with F'' = -F p: partial-fraction identity,
interchange-of-summation bounds, harmonic telescoping closed forms, the
per-coefficient cancellation witnesses, and the structural second-derivative
identity on the truncated polynomial.

The heart of the constancy argument is exact per-(n, j) cancellation:
the x^(2j) coefficient of the double sum splits into a telescoped tail
-4 H(2n)/n^(2j+1) plus a finite part 4 (H(2n-1) - 1/n)/n^(2j+1), and their
total -6/n^(2j+2) kills the matching coefficient of the single sum.
"""

from __future__ import annotations

from fractions import Fraction

from .numeric import DEFAULT_PRECISION, ApproxReal, DomainError, ZERO, harmonic
from .polys import Poly, poly_add, poly_diff, poly_divexact, poly_eq, poly_mul
from .product import f_polynomial


def partial_fraction_check(x: Fraction, l1: int, l2: int) -> bool:
    """Exact check of the two-pole split of 8x^2/(l1^2 l2^2 (1-x^2/l1^2)(1-x^2/l2^2))."""
    if not l1 < l2:
        raise DomainError("need l1 < l2")
    x = Fraction(x)
    x2 = x * x
    if x2 == l1 * l1 or x2 == l2 * l2:
        raise DomainError("pole at x = +-l1 or +-l2")
    lhs = 8 * x2 / (l1 * l1 * l2 * l2
                    * (1 - x2 / (l1 * l1)) * (1 - x2 / (l2 * l2)))
    rhs = (4 * (Fraction(1, l1 - l2) - Fraction(1, l1 + l2))
           / (l2 * (1 - x2 / (l2 * l2)))
           + 4 * (Fraction(1, l2 - l1) - Fraction(1, l2 + l1))
           / (l1 * (1 - x2 / (l1 * l1))))
    return lhs == rhs


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


def p_coefficient_witness(n: int, j: int) -> tuple[Fraction, Fraction, Fraction]:
    """The three exact pieces of the x^(2j) coefficient at index n:
    the tail part -4 H(2n)/n^(2j+1), the finite part 4 (H(2n-1) - 1/n)/n^(2j+1)
    and the diagonal part 6/n^(2j+2). The claim is that they sum to zero."""
    if n < 1 or j < 1:
        raise DomainError("need n, j >= 1")
    nw = n ** (2 * j + 1)
    tail = Fraction(-4, nw) * harmonic(2 * n)
    fin = 4 * (harmonic(2 * n - 1) - Fraction(1, n)) / Fraction(nw)
    diag = Fraction(6, nw * n)
    return tail, fin, diag


def p_eval(x: Fraction, N: int, precision: int = DEFAULT_PRECISION) -> ApproxReal:
    """Certified value of the depth-N truncation

        6 sum_{n<=N} 1/(n^2 - x^2)
        - 8 x^2 sum_{l1<l2<=N} 1/((l1^2 - x^2)(l2^2 - x^2)),

    using the exact pair-sum rearrangement (S^2 - S2)/2 of the same
    truncation, in balls of `precision` bits (the radius grows about as
    N 2^-precision). Points within 1/N of an integer are rejected: the
    terms blow up and the bracket becomes vacuous; the check reads x rounded
    to a ball, whose radius counts against the distance.
    """
    if N < 2:
        raise DomainError("p_eval needs N >= 2")
    xa = ApproxReal.from_rational(Fraction(x), precision)
    mag = abs(xa.value) + xa.err
    if mag >= 1:
        raise DomainError("p_eval needs 0 <= |x| < 1")
    if 1 - mag < Fraction(1, N):
        raise DomainError(f"x within 1/{N} of the pole at 1; bracket would be vacuous")
    x2 = xa * xa
    s = s2 = ApproxReal.exact(0, precision)
    for n in range(1, N + 1):
        term = 1 / (n * n - x2)
        s = s + term
        s2 = s2 + term * term
    pair_sum = (s * s - s2) * Fraction(1, 2)
    return 6 * s - x2 * pair_sum * 8


def interchange_bound_check(x: Fraction, N: int) -> bool:
    """Exact check that both absolute rearranged sums of the double series,
    truncated at N with their inner geometric j-sums in closed form, stay
    below 32 x^2 / (1 - x^2)."""
    x = Fraction(x)
    if not 0 < x < 1:
        raise DomainError("need 0 < x < 1")
    x2 = x * x
    bound = 32 * x2 / (1 - x2)
    sum_a = ZERO   # terms carrying 1/l2^(2j): 8 x^2 / ((l2^2-l1^2)(l2^2-x^2))
    sum_b = ZERO   # terms carrying 1/l1^(2j): 8 x^2 / ((l2^2-l1^2)(l1^2-x^2))
    for l1 in range(1, N + 1):
        for l2 in range(l1 + 1, N + 1):
            gap = l2 * l2 - l1 * l1
            sum_a += 8 * x2 / (gap * (l2 * l2 - x2))
            sum_b += 8 * x2 / (gap * (l1 * l1 - x2))
    return sum_a <= bound and sum_b <= bound


def fpp_assembly_identity(N: int) -> bool:
    """Structural second-derivative identity on the expanded truncation.

    With factors f_0 = x and f_n = 1 - x^2/n^2, checks exactly that
        (prod f)'' = sum_{i != j} f_i' f_j' prod_{m != i,j} f_m
                     + sum_i f_i'' prod_{m != i} f_m
    as polynomials, by expansion and coefficient comparison.
    """
    if N < 1:
        raise DomainError("needs N >= 1")
    factors: list[Poly] = [[ZERO, Fraction(1)]]
    factors += [[Fraction(1), ZERO, Fraction(-1, n * n)] for n in range(1, N + 1)]
    full = f_polynomial(N)
    lhs = poly_diff(poly_diff(full))
    rhs: Poly = [ZERO]
    others = [poly_divexact(full, f) for f in factors]
    for i, fi in enumerate(factors):
        rhs = poly_add(rhs, poly_mul(poly_diff(poly_diff(fi)), others[i]))
        for j, fj in enumerate(factors):
            if i == j:
                continue
            rest = poly_divexact(others[i], fj)
            rhs = poly_add(rhs, poly_mul(poly_mul(poly_diff(fi), poly_diff(fj)), rest))
    return poly_eq(lhs, rhs)
