"""The truncated product F_N(x) = x * prod_{n<=N} (1 - x^2/n^2): exact
evaluation in both displayed forms, the convergent shifted-product form, the
periodicity ratio with its sign report, finite-difference probes of the
second derivative, and the rise/fall scan on [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .numeric import DEFAULT_PRECISION, ApproxReal, DomainError, ZERO, ONE
from .polys import Poly, poly_mul, poly_trim


def eval_F(x: Fraction, N: int) -> Fraction:
    """x * prod_{n=1}^N (1 - x^2/n^2), exact."""
    if N < 1:
        raise DomainError("eval_F needs N >= 1")
    x = Fraction(x)
    acc = x
    x2 = x * x
    for n in range(1, N + 1):
        acc *= 1 - x2 / (n * n)
    return acc


def eval_F_factored(x: Fraction, N: int) -> Fraction:
    """The same product in its factored display x * prod (n-x)(n+x)/n^2."""
    if N < 1:
        raise DomainError("eval_F_factored needs N >= 1")
    x = Fraction(x)
    acc = x
    for n in range(1, N + 1):
        acc *= Fraction((n - x) * (n + x), n * n)
    return acc


def eval_F_approx(x: ApproxReal, N: int,
                  precision_bits: int = DEFAULT_PRECISION) -> ApproxReal:
    """Certified evaluation of the truncated product at a bracketed point,
    rounding at precision_bits or at x's precision, whichever is larger."""
    if N < 1:
        raise DomainError("eval_F_approx needs N >= 1")
    one = ApproxReal.exact(1, precision_bits)
    acc = x
    x2 = x * x
    for n in range(1, N + 1):
        acc = acc * (one - x2 / (n * n))
    return acc


def eval_F_shifted(x: Fraction, N: int) -> Fraction:
    """Shifted-factor partial product x(1-x) * prod_{n=1}^{N-1} (n+x)(n+1-x)/(n(n+1)).

    Normalized so the partials converge to the full product: the value equals
    F_{N-1}(x) * (N-x)/N, hence |eval_F(x,N) - eval_F_shifted(x,N)| decays
    like C(x)/N. Each factor is increasing on [0, 1/2] and decreasing on
    [1/2, 1], which drives the monotonicity scan.
    """
    if N < 1:
        raise DomainError("eval_F_shifted needs N >= 1")
    x = Fraction(x)
    acc = x * (1 - x)
    for n in range(1, N):
        acc *= Fraction((n + x) * (n + 1 - x), n * (n + 1))
    return acc


def shifted_truncation_gap_bound(x: Fraction, N: int) -> Fraction:
    """A computed C(x)/N dominating |eval_F - eval_F_shifted| at truncation N."""
    x = Fraction(abs(x))
    return (x + 1) * Fraction(1, N)


@dataclass(frozen=True)
class PeriodicityReport:
    x: Fraction
    N: int
    ratio: Fraction
    reference: Fraction       # (N+1+x)/(N-x)
    matched_sign: int         # +1 or -1, whichever sign of the reference matches


def periodicity_ratio(x: Fraction, N: int) -> Fraction:
    """F_N(x+1)/F_N(x), exact. Poles of the ratio are rejected."""
    if N < 1:
        raise DomainError("periodicity_ratio needs N >= 1")
    x = Fraction(x)
    if x.denominator == 1 and -N <= x.numerator <= N:
        raise DomainError("F_N(x) vanishes at integers |x| <= N")
    denom = eval_F(x, N)
    return eval_F(x + 1, N) / denom


def periodicity_sign_report(x: Fraction, N: int) -> PeriodicityReport:
    """Compare the ratio against +-(N+1+x)/(N-x) and record the matching sign."""
    x = Fraction(x)
    ratio = periodicity_ratio(x, N)
    reference = Fraction(N + 1 + x, N - x)
    if ratio == reference:
        sign = 1
    elif ratio == -reference:
        sign = -1
    else:
        raise DomainError(
            f"ratio {ratio} matches neither sign of {reference} at x={x}, N={N}")
    return PeriodicityReport(x=x, N=N, ratio=ratio, reference=reference,
                             matched_sign=sign)


def second_derivative_fd(x: ApproxReal | Fraction, N: int,
                         h: Fraction | None = None,
                         precision_bits: int = DEFAULT_PRECISION) -> tuple[ApproxReal, bool]:
    """Central finite difference (F_N(x+h) - 2 F_N(x) + F_N(x-h)) / h^2.

    The default step 2^(-precision/3) balances the O(h^2) truncation against
    the O(ulp/h^2) rounding. Returns (estimate, cancellation_flag); the flag
    is set when the certified error dominates the value, i.e. the difference
    lost all significance.
    """
    if h is None:
        h = Fraction(1, 1 << (precision_bits // 3))
    h = Fraction(h)
    if h <= 0:
        raise DomainError("step h must be positive")
    xa = (x if isinstance(x, ApproxReal)
          else ApproxReal.from_rational(Fraction(x), precision_bits))
    fp = eval_F_approx(xa + h, N, precision_bits)
    f0 = eval_F_approx(xa, N, precision_bits)
    fm = eval_F_approx(xa - h, N, precision_bits)
    num = fp - f0 - f0 + fm
    est = num / (h * h)
    flagged = est.err >= abs(est.value)
    return est, flagged


def f_polynomial(N: int) -> Poly:
    """Expanded coefficients of x * prod_{n<=N} (1 - x^2/n^2)."""
    poly: Poly = [ZERO, ONE]
    for n in range(1, N + 1):
        poly = poly_mul(poly, [ONE, ZERO, -Fraction(1, n * n)])
    return poly_trim(poly)


@dataclass(frozen=True)
class MonotonicityReport:
    N: int
    grid_size: int
    passed: bool
    first_violation: Optional[tuple[Fraction, Fraction]] = None
    max_value: Optional[Fraction] = None


def monotonicity_scan(N: int, grid_size: int) -> MonotonicityReport:
    """Sample eval_F_shifted on grid_size equispaced rationals in [0, 1] and
    check that the sequence rises up to 1/2 and falls afterwards.

    The per-factor claim is also checked exactly on every rising pair: the
    increment of (n+x)(n+1-x) over [x1, x2] is (x2-x1)(1-x1-x2) independently
    of n, so one sign check per pair certifies all factors at once.
    """
    if grid_size < 3:
        raise DomainError("grid_size must be at least 3")
    half = Fraction(1, 2)
    xs = [Fraction(i, grid_size - 1) for i in range(grid_size)]
    vals = [eval_F_shifted(x, N) for x in xs]
    for i in range(len(xs) - 1):
        x1, x2 = xs[i], xs[i + 1]
        if x2 <= half and not ((x2 - x1) * (1 - x1 - x2) >= 0 and vals[i] < vals[i + 1]):
            return MonotonicityReport(N, grid_size, False, (x1, x2), max(vals))
        if x1 >= half and not vals[i] > vals[i + 1]:
            return MonotonicityReport(N, grid_size, False, (x1, x2), max(vals))
    return MonotonicityReport(N, grid_size, True, None, max(vals))
