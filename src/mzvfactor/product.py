"""The truncated product F_N(x) = x * prod_{n<=N} (1 - x^2/n^2): exact
evaluation in both displayed forms, the convergent shifted-product form, the
periodicity ratio, and the rise/fall scan on [0, 1]. Its expanded
coefficients are the zeta_N({2}^k) rows of series.py.

eval_F and eval_F_shifted multiply ints and reduce once; eval_F_factored folds
Fraction factors, the independent display that product.two_forms checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .numeric import DomainError, ZERO


def eval_F(x: Fraction, N: int) -> Fraction:
    """x * prod_{n=1}^N (1 - x^2/n^2) = a prod (n^2 b^2 - a^2) / (b^(2N+1) (N!)^2)."""
    if N < 1:
        raise DomainError("eval_F needs N >= 1")
    a, b = Fraction(x).as_integer_ratio()
    num = a * math.prod(n * n * b * b - a * a for n in range(1, N + 1))
    return Fraction(num, b ** (2 * N + 1) * math.factorial(N) ** 2)


def eval_F_factored(x: Fraction, N: int) -> Fraction:
    """The same product in its factored display x * prod (n-x)(n+x)/n^2."""
    if N < 1:
        raise DomainError("eval_F_factored needs N >= 1")
    x = Fraction(x)
    acc = x
    for n in range(1, N + 1):
        acc *= Fraction((n - x) * (n + x), n * n)
    return acc


def eval_F_shifted(x: Fraction, N: int) -> Fraction:
    """Shifted-factor partial product x(1-x) * prod_{n=1}^{N-1} (n+x)(n+1-x)/(n(n+1)).

    Normalized so the partials converge to the full product: the value equals
    F_{N-1}(x) * (N-x)/N, hence |eval_F(x,N) - eval_F_shifted(x,N)| decays
    like C(x)/N. Each factor is increasing on [0, 1/2] and decreasing on
    [1/2, 1], which drives the monotonicity scan. With x = a/b the value is
    a(b-a) prod (nb+a)((n+1)b-a) / (b^(2N) (N-1)! N!).
    """
    if N < 1:
        raise DomainError("eval_F_shifted needs N >= 1")
    a, b = Fraction(x).as_integer_ratio()
    num = a * (b - a) * math.prod((n * b + a) * ((n + 1) * b - a) for n in range(1, N))
    return Fraction(num, b ** (2 * N) * math.factorial(N - 1) * math.factorial(N))


def shifted_truncation_gap_bound(x: Fraction, N: int) -> Fraction:
    """x / (3N), a derived bound of |eval_F(x, N) - eval_F_shifted(x, N)| for
    0 <= x <= 1.

    F_N = F_{N-1} (N - x)(N + x)/N^2 and eval_F_shifted = F_{N-1} (N - x)/N,
    so eval_F - eval_F_shifted = eval_F_shifted * x/N exactly. Each factor
    (n + x)(n + 1 - x)/(n(n + 1)) of eval_F_shifted is 1 + x(1 - x)/(n(n + 1)),
    and sum_n 1/(n(n + 1)) = 1, so
        0 <= eval_F_shifted <= x(1 - x) e^(x(1 - x)) <= e^(1/4)/4 < 1/3.
    """
    if not 0 <= x <= 1:
        raise DomainError("the shifted-form gap bound holds for 0 <= x <= 1")
    return Fraction(x) / (3 * N)


def periodicity_ratio(x: Fraction, N: int) -> Fraction:
    """F_N(x+1)/F_N(x), exact. Poles of the ratio are rejected."""
    if N < 1:
        raise DomainError("periodicity_ratio needs N >= 1")
    x = Fraction(x)
    if x.denominator == 1 and -N <= x.numerator <= N:
        raise DomainError("F_N(x) vanishes at integers |x| <= N")
    denom = eval_F(x, N)
    return eval_F(x + 1, N) / denom


def monotonicity_scan(N: int, grid_size: int) -> Optional[tuple[Fraction, Fraction]]:
    """Sample eval_F_shifted on grid_size equispaced rationals in [0, 1] and
    return the first neighbouring pair (x1, x2) that breaks the rise up to
    1/2 or the fall after it, or None if the sequence rises and falls.

    The per-factor claim is also checked exactly on every rising pair: the
    increment of (n+x)(n+1-x) over [x1, x2] is (x2-x1)(1-x1-x2) independently
    of n, so one sign check per pair certifies all factors at once.
    """
    if grid_size < 3:
        raise DomainError("grid_size must be at least 3")
    half = Fraction(1, 2)
    x1, v1 = ZERO, eval_F_shifted(ZERO, N)
    for i in range(1, grid_size):
        x2 = Fraction(i, grid_size - 1)
        v2 = eval_F_shifted(x2, N)
        if x2 <= half and not ((x2 - x1) * (1 - x1 - x2) >= 0 and v1 < v2):
            return x1, x2
        if x1 >= half and not v1 > v2:
            return x1, x2
        x1, v1 = x2, v2
    return None
