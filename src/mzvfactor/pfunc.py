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

from .numeric import DEFAULT_PRECISION, TIME_CEILING, ZERO, ApproxReal
from .numeric import DomainError, ResourceError, harmonic
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


# p_eval spends nearly all its time on the two integer floors of each term.
# On a shared 2-CPU x86-64 host (CPython 3.11) a term took 0.27 to 0.49 us
# at P = 128 and 0.56 us near n = 10^8, 13 to 25 us at P = 16384, and 13 to
# 22 us at P = 128 with a 2048-bit denominator b, as the host's load varied.
# Under `python -X dev`, whose debug allocator slows every integer operation
# and which the CI test job uses, a term took up to 1.3 us at P = 128. The
# closed form in require_p_eval_size gives 1.5 to 7.8 times each of these in
# microseconds, and 1.5 to 2.5 times the debug-mode figures: its 1.5 us a
# term is there so that the largest request admitted at the default
# precision also finishes within the budget under -X dev. The ceiling is
# TIME_CEILING.


def require_p_eval_size(N: int, precision: int, den_bits: int, calls: int = 1) -> None:
    """Refuse `calls` p_eval calls at depth N and `precision` bits, at points
    whose denominators have at most `den_bits` bits, from a closed-form bound
    of their time in microseconds, before any term is summed."""
    nb = N.bit_length()
    w = precision + nb + 8
    per_term = (3 * 2 ** 15 + 3 * w * (den_bits + 4 * nb + 40) // 2 + 2 ** 8 * den_bits
                + den_bits ** 2 // 4)
    cost = calls * N * per_term >> 16
    if cost > TIME_CEILING:
        raise ResourceError(f"p_eval at N = {N}, precision {precision}: {cost} us "
                            f"exceeds ceiling {TIME_CEILING}")


def _sum_brackets(x: Fraction, N: int, precision: int) -> tuple[ApproxReal, ApproxReal]:
    """Brackets of S = sum_{n<=N} 1/(n^2 - x^2) and S2 = sum 1/(n^2 - x^2)^2
    for |x| < 1, on W = precision + bitlen(N) + 8 fractional bits. With
    x = a/b the terms are the positive rationals b^2/d_n and b^4/d_n^2,
    d_n = n^2 b^2 - a^2. Each is floored on 2^-W, less than one unit short,
    so each sum lies in [s, s + N] 2^-W, s its floor sum."""
    a, b = x.as_integer_ratio()
    b2, a2 = b * b, a * a
    W = precision + N.bit_length() + 8
    num, num2 = b2 << W, (b2 * b2) << W
    s = s2 = 0
    for n in range(1, N + 1):
        d = n * n * b2 - a2
        s += num // d
        s2 += num2 // (d * d)
    return ApproxReal(s, s + N, W), ApproxReal(s2, s2 + N, W)


def p_eval(x: Fraction, N: int, precision: int = DEFAULT_PRECISION) -> ApproxReal:
    """Certified value of the depth-N truncation

        6 sum_{n<=N} 1/(n^2 - x^2)
        - 8 x^2 sum_{l1<l2<=N} 1/((l1^2 - x^2)(l2^2 - x^2)),

    using the exact pair-sum rearrangement (S^2 - S2)/2 of the same
    truncation: S and S2 are the brackets of _sum_brackets, and
    6 S - 4 x^2 (S^2 - S2) is taken in ApproxReal brackets on the same unit
    u = 2^-W, W = precision + bitlen(N) + 8 >= precision + 10, with x^2
    rounded outward once from its exact value.

    The radius. S and S2 have radii r below N u / 2 < 2^-(precision + 9).
    Each rounding moves an end outward by less than one unit, so it adds
    less than u to a radius; the subtractions and the integer products are
    exact. For |x| <= 9/10 (S < 6.1, S2 < 28.1, 0 < S^2 - S2 < 37.2) and
    radii a, b of positive brackets of midpoints A, B, a product has radius
    A b + B a before its rounding, so
        x^2:           radius below u / 2 (one rounding);
        S S:           below 2 (6.1) r + u;
        S S - S2:      below 13.2 r + u;
        x^2 (S S - S2): below 0.82 (13.2 r + u) + 37.2 u / 2 + u
                       < 10.9 r + 20.5 u,
    and 6 S - 4 x^2 (S^2 - S2) has radius below 6 r + 4 (10.9 r + 20.5 u)
    = 49.6 r + 82 u < (0.097 + 0.081) 2^-precision < 0.18 2^-precision.
    The value is above 1.29: with t_n = 1/(n^2 - x^2) it is
    sum_l t_l (6 - 8 x^2 sum_{n>l} t_n), and sum_{n>=2} t_n < 0.726. So
    the radius is at most 2^-(precision + 1) times the value whatever N.
    Points within 1/N of an integer are rejected: the terms blow up and the
    bracket becomes vacuous; the check compares x itself, exactly, so a
    point exactly 1/N from the pole is accepted. A request past
    TIME_CEILING raises ResourceError before any term is summed.
    """
    if N < 2:
        raise DomainError("p_eval needs N >= 2")
    x = Fraction(x)
    if abs(x) >= 1:
        raise DomainError("p_eval needs 0 <= |x| < 1")
    if 1 - abs(x) < Fraction(1, N):
        raise DomainError(f"x within 1/{N} of the pole at 1; bracket would be vacuous")
    require_p_eval_size(N, precision, x.denominator.bit_length())
    S, S2 = _sum_brackets(x, N, precision)
    x2 = ApproxReal.from_bracket(x * x, x * x, S.bits)
    return 6 * S - x2 * (S * S - S2) * 4


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
