"""The log-derivative sum p(x) with F'' = -F p: partial-fraction identity,
interchange-of-summation bounds, the per-coefficient cancellation witnesses
in their harmonic closed forms, and the structural second-derivative
identity on the integer factors of the truncated product.

The heart of the constancy argument is exact per-(n, j) cancellation:
the x^(2j) coefficient of the double sum splits into a telescoped tail
-4 H(2n)/n^(2j+1) plus a finite part 4 (H(2n-1) - 1/n)/n^(2j+1), and their
total -6/n^(2j+2) kills the matching coefficient of the single sum.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .numeric import DEFAULT_PRECISION, ApproxReal, DomainError, ZERO, harmonic
from .series import poly_mul_trunc


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

    With factors f_0 = x and f_n = 1 - x^2/n^2, the claim is that
        (prod f)'' = sum_{i != j} f_i' f_j' prod_{m != i,j} f_m
                     + sum_i f_i'' prod_{m != i} f_m
    as polynomials. It is checked exactly on the integer factors g_0 = x and
    g_n = n^2 - x^2 = n^2 f_n: every term on either side holds each factor
    index exactly once, as g, g' or g'', so scaling f_n by n^2 multiplies
    both sides by prod n^2 and leaves the identity unchanged. Every product
    has degree at most 2N + 1, so multiplying mod x^(2N+2) is exact.
    """
    if N < 1:
        raise DomainError("needs N >= 1")
    size = 2 * N + 2
    g = [[0, 1] + [0] * (size - 2)]
    g += [[n * n, 0, -1] + [0] * (size - 3) for n in range(1, N + 1)]

    def diff(p: list[int]) -> list[int]:
        return [i * c for i, c in enumerate(p)][1:] + [0]

    def prod(ps: list[list[int]]) -> list[int]:
        return functools.reduce(poly_mul_trunc, ps)

    rhs = [0] * size
    for i, gi in enumerate(g):
        terms = [[diff(diff(gi))] + g[:i] + g[i + 1:]]
        terms += [[diff(gi), diff(gj)] + [gm for m, gm in enumerate(g) if m not in (i, j)]
                  for j, gj in enumerate(g) if j != i]
        rhs = [sum(cs) for cs in zip(rhs, *map(prod, terms))]
    return diff(diff(prod(g))) == rhs
