"""The two pi constants generated by the product (frequency and amplitude),
the normalized odd series g, the Pythagorean invariant, and the arc-length
identification with the geometric circle constant.

pi_freq = sqrt(6 sum 1/n^2) comes from the certified zeta(2) bracket;
pi_amp = 2 prod (2n/(2n-1))(2n/(2n+1)) comes from the interlacing Wallis
partial products; the arc length integrates the unit-speed parametrization
(g, g') between the bracketed endpoints +-pi_freq/2. All three are compared
against the independent Machin oracle.
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
from .series import bracket_floor, limit_steps, zeta_even_truncated

WALLIS_N_CEILING = 10 ** 6

# pi_amp reports the exact Wallis partial while its numerator and
# denominator have at most this many bits: such integers have at most 4300
# decimal digits, Python's default limit for int-to-str conversion.
EXACT_PARTIAL_MAX_BITS = 14_284

# exp(4) < 55: a certified Lipschitz bound for g, g', g'' on [-4, 4]
_SERIES_LIPSCHITZ = Fraction(55)


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
    head = zeta_even_truncated(N, 1)
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
        value = ApproxReal.from_bracket(6 * lo, 6 * hi,
                                        precision_bits + 16).sqrt(precision_bits + 16)
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


def g_eval(x: Fraction | ApproxReal, terms: Optional[int] = None,
           precision_bits: int = 128) -> tuple[ApproxReal, ApproxReal]:
    """(g(x), g'(x)) for g(x) = sum (-1)^k x^(2k+1)/(2k+1)!.

    The partial sums are exact rationals; the alternating remainders bound
    the truncation, and a certified Lipschitz constant absorbs any input
    bracket width. Requires |x| <= 4.
    """
    require_precision(precision_bits)
    if isinstance(x, ApproxReal):
        xv, xerr = x.value, x.err
    else:
        xv, xerr = Fraction(x), ZERO
    if abs(xv) + xerr > 4:
        raise DomainError("g_eval is certified on [-4, 4] only")
    T = terms if terms is not None else _auto_terms(abs(xv), precision_bits)
    if xv == 0:
        g_sum, gp_sum = ZERO, ONE
        rem_g = rem_gp = ZERO
    else:
        g_sum = ZERO
        gp_sum = ZERO
        xp = xv          # x^(2k+1)
        x2 = xv * xv
        for k in range(T + 1):
            sign = 1 if k % 2 == 0 else -1
            fact = math.factorial(2 * k + 1)
            g_sum += Fraction(sign) * xp / fact
            gp_sum += Fraction(sign) * (xp / xv) / math.factorial(2 * k)
            xp *= x2
        ax = abs(xv)
        if ax * ax >= (2 * T + 2) * (2 * T + 3):
            raise DomainError("too few terms for the alternating remainder bound")
        rem_g = ax ** (2 * T + 3) / Fraction(math.factorial(2 * T + 3))
        rem_gp = ax ** (2 * T + 2) / Fraction(math.factorial(2 * T + 2))
    slop = _SERIES_LIPSCHITZ * xerr
    g = ApproxReal.from_bracket(g_sum - rem_g - slop, g_sum + rem_g + slop,
                                precision_bits + 16)
    gp = ApproxReal.from_bracket(gp_sum - rem_gp - slop, gp_sum + rem_gp + slop,
                                 precision_bits + 16)
    return g, gp


def pythagorean_check(grid: list[Fraction | ApproxReal],
                      terms: Optional[int] = None,
                      precision_bits: int = 128) -> list[ApproxReal]:
    """The deviation balls g(x)^2 + g'(x)^2 - 1, one per grid point; a ball
    that misses 0 refutes the invariant g^2 + g'^2 = 1 at its point."""
    out = []
    for x in grid:
        g, gp = g_eval(x, terms, precision_bits)
        out.append(g * g + gp * gp - 1)
    return out


# ---------------------------------------------------------------------------
# Arc length of the parametrized half-circle
# ---------------------------------------------------------------------------

def _speed(x: Fraction, precision_bits: int) -> ApproxReal:
    g, gp = g_eval(x, None, precision_bits)
    sq = g * g + gp * gp
    lo = max(ZERO, sq.lo)
    return ApproxReal.from_bracket(lo, sq.hi, precision_bits + 16).sqrt(precision_bits + 16)


def _simpson(speeds: list[ApproxReal], h: Fraction, precision_bits: int) -> ApproxReal:
    """Composite Simpson sum over the speeds at m + 1 nodes spaced h apart."""
    m = len(speeds) - 1
    total = ApproxReal.exact(0, precision_bits)
    for i, s in enumerate(speeds):
        w = 1 if i in (0, m) else (4 if i % 2 == 1 else 2)
        total = total + s * w
    return total * (h / 3)


def arc_length(precision_bits: int, quad_nodes: int = 32,
               half: bool = False) -> ApproxReal:
    """Integrate sqrt(g'^2 + g^2) over [-pi_freq/2, pi_freq/2] (or the right
    half), with the certified node errors, a node-doubling truncation
    estimate, and the endpoint-bracket sliver folded into the error."""
    require_precision(precision_bits)
    if quad_nodes < 8:
        raise DomainError("needs quad_nodes >= 8")
    m = quad_nodes + (quad_nodes % 2)
    pf = pi_freq(precision_bits + 24)
    a = pf.value.value / 2
    delta = pf.value.err / 2
    lo_end = ZERO if half else -a
    # the m-node pass uses the even nodes of the 2m-node pass
    h = (a - lo_end) / (2 * m)
    speeds = [_speed(lo_end + i * h, precision_bits + 16) for i in range(2 * m + 1)]
    q1 = _simpson(speeds[::2], 2 * h, precision_bits + 16)
    q2 = _simpson(speeds, h, precision_bits + 16)
    doubling = abs(q2.value - q1.value)
    ends = 1 if half else 2
    # endpoint sliver: |speed| <= sqrt(2) e^2 < 12 anywhere within |x| <= 2
    extra = doubling + ends * delta * 12
    return ApproxReal(q2.value, q2.err + extra, precision_bits)


# ---------------------------------------------------------------------------
# The four-way comparison
# ---------------------------------------------------------------------------

def three_way_pi_compare(precision_bits: int, wallis_pairs: int = 20_000,
                         quad_nodes: int = 32) -> dict[str, ApproxReal]:
    """The four certified estimates of pi by name: "freq" (pi_freq), "amp"
    (pi_amp), "arc" (arc_length) and "oracle" (the Machin oracle)."""
    require_precision(precision_bits)
    return {
        "freq": pi_freq(precision_bits).value,
        "amp": pi_amp(wallis_pairs, precision_bits).value,
        "arc": arc_length(precision_bits, quad_nodes),
        "oracle": pi_oracle(precision_bits),
    }
