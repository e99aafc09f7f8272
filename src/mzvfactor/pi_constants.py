"""The two pi constants generated by the product (frequency and amplitude),
the normalized odd series g, the Pythagorean invariant, and the arc-length
identification with the geometric circle constant.

pi_freq = sqrt(6 sum 1/n^2) comes from the certified zeta(2) bracket;
pi_amp = 2 prod (2n/(2n-1))(2n/(2n+1)) comes from the interlacing Wallis
partial products; the arc length integrates the unit-speed parametrization
(g, g') between the bracketed endpoints +-pi_freq/2, with g and g' summed
exactly at rational nodes. All three are compared against the independent
Machin oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .numeric import (
    ApproxReal,
    DomainError,
    ResourceError,
    ZERO,
    ONE,
    pi_oracle,
    power_sum_tail_bracket,
    require_precision,
)
from .series import bracket_floor, limit_steps, mzv_truncated

WALLIS_N_CEILING = 10 ** 6

# pi_amp reports the exact Wallis partial while its numerator and
# denominator have at most this many bits: such integers have at most 4300
# decimal digits, Python's default limit for int-to-str conversion.
EXACT_PARTIAL_MAX_BITS = 14_284

# Simpson nodes of arc_length's coarse pass (the fine pass doubles them) and
# the Wallis pairs of three_way_pi_compare
QUAD_NODES = 32
WALLIS_PAIRS = 20_000


@dataclass(frozen=True)
class PiEstimate:
    value: ApproxReal
    truncation: dict = field(default_factory=dict)
    exact_partial: Optional[Fraction] = None


# ---------------------------------------------------------------------------
# pi_freq
# ---------------------------------------------------------------------------

def zeta2_bracket(N: int, em_terms: int = 6) -> tuple[Fraction, Fraction]:
    """Exact bracket for sum 1/n^2: head to N plus the Euler-Maclaurin tail."""
    head = mzv_truncated(N, 1)
    lo, hi = power_sum_tail_bracket(N, 1, em_terms)
    return head + lo, head + hi


def pi_freq(precision_bits: int, N: Optional[int] = None) -> PiEstimate:
    """sqrt of six times the certified zeta(2) bracket, tried at the steps
    limit_steps(64, N); a pinned truncation N reports whatever width it
    certifies."""
    require_precision(precision_bits)
    target = Fraction(1, 1 << (precision_bits + 2))
    steps = limit_steps(64, N)
    # sqrt(6 z) has slope 3 / sqrt(6 z) > 3/4 for z < 8/3, so the ball's
    # radius is at least 3/8 of the zeta(2) bracket's width
    if N is None and 3 * bracket_floor(0, *steps[-1]) > 8 * target:
        raise ResourceError("pi_freq cannot reach the requested precision")
    for n, em in steps:
        lo, hi = zeta2_bracket(n, em)
        value = ApproxReal.from_bracket(6 * lo, 6 * hi, precision_bits + 16).sqrt()
        if value.err <= target or N is not None:
            return PiEstimate(value=value,
                              truncation={"N": n, "em_terms": em,
                                          "precision_bits": precision_bits})
    raise ResourceError("pi_freq cannot reach the requested precision")


# ---------------------------------------------------------------------------
# pi_amp and the Wallis partial products
# ---------------------------------------------------------------------------

def _wallis_raw(N: int) -> tuple[int, int]:
    """Numerator/denominator of 2 prod_{n<=N} (2n)^2/((2n-1)(2n+1)) in the
    closed form 2^(4N+1) / (C(2N, N)^2 (2N+1)); the numerator is a power of
    two, so the fraction is reduced by stripping the denominator's factors
    of 2, and no gcd is needed at large N."""
    if N < 0:
        raise DomainError("needs N >= 0")
    if N > WALLIS_N_CEILING:
        raise ResourceError(f"Wallis truncation {N} exceeds {WALLIS_N_CEILING}")
    return 1 << (4 * N + 1), math.comb(2 * N, N) ** 2 * (2 * N + 1)


def wallis_pair_product(N: int) -> Fraction:
    """2 prod_{n<=N} (2n/(2n-1))(2n/(2n+1)), exact."""
    num, den = _wallis_raw(N)
    return Fraction(num, den)


def wallis_partial(half_steps: int) -> Fraction:
    """Partial product after `half_steps` single factors; even and odd counts
    land on opposite sides of the limit (the interlacing bracket)."""
    if half_steps < 0:
        raise DomainError("needs half_steps >= 0")
    pairs, odd = divmod(half_steps, 2)
    w = wallis_pair_product(pairs)
    if odd:
        n = pairs + 1
        w *= Fraction(2 * n, 2 * n - 1)
    return w


def pi_amp(N: int, precision_bits: int = 128) -> PiEstimate:
    """N-pair Wallis partial product with the certified interlacing bracket
    [W_N, W_N * (2N+2)/(2N+1)].

    The bracket endpoints are dyadic roundings taken outward (floor below,
    ceiling above), so the certificate survives the rounding.
    """
    require_precision(precision_bits)
    num, den = _wallis_raw(N)
    shift = precision_bits + 8
    lo = Fraction((num << shift) // den, 1 << shift)
    hi_num = num * (2 * N + 2)
    hi_den = den * (2 * N + 1)
    hi = Fraction((hi_num << shift) // hi_den + 1, 1 << shift)
    # report the partial product itself; the radius covers the whole bracket
    value = ApproxReal(lo, hi - lo, precision_bits)
    twos = (den & -den).bit_length() - 1
    exact_partial = None
    if max(num.bit_length(), den.bit_length()) - twos <= EXACT_PARTIAL_MAX_BITS:
        exact_partial = Fraction(num >> twos, den >> twos)
    return PiEstimate(value=value, truncation={"N": N},
                      exact_partial=exact_partial)


# ---------------------------------------------------------------------------
# The normalized odd series g and its derivative
# ---------------------------------------------------------------------------

def _auto_terms(x_abs: Fraction, precision_bits: int) -> int:
    eps = Fraction(1, 1 << (precision_bits + 8))
    t = 1
    term = x_abs
    while True:
        # term currently |x|^(2t+1)/(2t+1)!; also require the ratio < 1
        term = term * x_abs * x_abs / ((2 * t) * (2 * t + 1))
        if term <= eps and x_abs * x_abs < (2 * t + 2) * (2 * t + 3):
            return t
        t += 1


def g_eval(x: Fraction, precision_bits: int = 128) -> tuple[ApproxReal, ApproxReal]:
    """(g(x), g'(x)) for g(x) = sum (-1)^k x^(2k+1)/(2k+1)!.

    The partial sums are exact rationals, and the alternating remainders
    bound the truncation. Requires |x| <= 4.
    """
    require_precision(precision_bits)
    x = Fraction(x)
    if abs(x) > 4:
        raise DomainError("g_eval is certified on [-4, 4] only")
    if x == 0:
        g_sum, gp_sum = ZERO, ONE
        rem_g = rem_gp = ZERO
    else:
        T = _auto_terms(abs(x), precision_bits)
        g_sum = ZERO
        gp_sum = ZERO
        xp = x          # x^(2k+1)
        x2 = x * x
        for k in range(T + 1):
            sign = 1 if k % 2 == 0 else -1
            fact = math.factorial(2 * k + 1)
            g_sum += Fraction(sign) * xp / fact
            gp_sum += Fraction(sign) * (xp / x) / math.factorial(2 * k)
            xp *= x2
        # _auto_terms keeps x^2 < (2T+2)(2T+3), so the remainders alternate
        ax = abs(x)
        rem_g = ax ** (2 * T + 3) / Fraction(math.factorial(2 * T + 3))
        rem_gp = ax ** (2 * T + 2) / Fraction(math.factorial(2 * T + 2))
    g = ApproxReal.from_bracket(g_sum - rem_g, g_sum + rem_g, precision_bits + 16)
    gp = ApproxReal.from_bracket(gp_sum - rem_gp, gp_sum + rem_gp, precision_bits + 16)
    return g, gp


def pythagorean_check(grid: list[Fraction],
                      precision_bits: int = 128) -> list[ApproxReal]:
    """The deviation balls g(x)^2 + g'(x)^2 - 1, one per grid point; a ball
    that misses 0 refutes the invariant g^2 + g'^2 = 1 at its point."""
    out = []
    for x in grid:
        g, gp = g_eval(x, precision_bits)
        out.append(g * g + gp * gp - 1)
    return out


# ---------------------------------------------------------------------------
# Arc length of the parametrized half-circle
# ---------------------------------------------------------------------------

def _speed(x: Fraction, precision_bits: int) -> ApproxReal:
    g, gp = g_eval(x, precision_bits)
    sq = g * g + gp * gp
    lo = max(ZERO, sq.lo)
    return ApproxReal.from_bracket(lo, sq.hi, precision_bits + 16).sqrt()


def _simpson(speeds: list[ApproxReal], h: Fraction, precision_bits: int) -> ApproxReal:
    """Composite Simpson sum over the speeds at m + 1 nodes spaced h apart."""
    m = len(speeds) - 1
    total = ApproxReal.exact(0, precision_bits)
    for i, s in enumerate(speeds):
        w = 1 if i in (0, m) else (4 if i % 2 == 1 else 2)
        total = total + s * w
    return total * (h / 3)


def arc_length(precision_bits: int) -> ApproxReal:
    """Integrate sqrt(g'^2 + g^2) over [-pi_freq/2, pi_freq/2], with the
    certified node errors, a node-doubling truncation estimate, and the
    endpoint-bracket sliver folded into the error."""
    require_precision(precision_bits)
    pf = pi_freq(precision_bits + 24)
    a = pf.value.value / 2
    delta = pf.value.err / 2
    # the QUAD_NODES pass uses the even nodes of the 2 QUAD_NODES pass
    h = a / QUAD_NODES
    speeds = [_speed(-a + i * h, precision_bits + 16) for i in range(2 * QUAD_NODES + 1)]
    q1 = _simpson(speeds[::2], 2 * h, precision_bits + 16)
    q2 = _simpson(speeds, h, precision_bits + 16)
    doubling = abs(q2.value - q1.value)
    # endpoint sliver at both ends: |speed| <= sqrt(2) e^2 < 12 anywhere
    # within |x| <= 2
    extra = doubling + 2 * delta * 12
    return ApproxReal(q2.value, q2.err + extra, precision_bits)


# ---------------------------------------------------------------------------
# The four-way comparison
# ---------------------------------------------------------------------------

def three_way_pi_compare(precision_bits: int) -> dict[str, ApproxReal]:
    """The four certified estimates of pi by name: "freq" (pi_freq), "amp"
    (pi_amp at WALLIS_PAIRS), "arc" (arc_length) and "oracle" (the Machin
    oracle)."""
    require_precision(precision_bits)
    return {
        "freq": pi_freq(precision_bits).value,
        "amp": pi_amp(WALLIS_PAIRS, precision_bits).value,
        "arc": arc_length(precision_bits),
        "oracle": pi_oracle(precision_bits),
    }
