"""The two pi constants generated by the product (frequency and amplitude),
the normalized odd series g, the Pythagorean invariant, and the arc-length
identification with the geometric circle constant.

pi_freq = sqrt(6 sum 1/n^2) comes from the certified zeta(2) of mzv_limit;
pi_amp = 2 prod (2n/(2n-1))(2n/(2n+1)) comes from the interlacing Wallis
partial products, with C(2N, N) built from its prime factorization. One
exact polynomial certificate, Q = G^2 + G'^2 - 1 for the truncations G, G'
of g, g', computed exactly, bounds |g^2 + g'^2 - 1| on all of
|x| <= 355/113 > pi with the alternating remainders: that bound is the
Pythagorean record, and the speed's distance from 1 for the arc length of
(g, g') between the bracketed endpoints +-pi_freq/2, with no quadrature.
The estimates are compared against the independent Machin oracle.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .numeric import (
    ApproxReal,
    DomainError,
    ResourceError,
    pi_oracle,
    power_sum_tail_bracket,
)
from .series import mzv_limit, mzv_truncated

WALLIS_N_CEILING = 10 ** 6

# pi_amp reports the exact Wallis partial while its numerator and
# denominator have at most this many bits: such integers have at most 4300
# decimal digits, Python's default limit for int-to-str conversion.
EXACT_PARTIAL_MAX_BITS = 14_284

# the Wallis pairs of three_way_pi_compare
WALLIS_PAIRS = 20_000


# ---------------------------------------------------------------------------
# pi_freq
# ---------------------------------------------------------------------------

def zeta2_bracket(N: int, em_terms: int = 6) -> tuple[Fraction, Fraction]:
    """Exact bracket for sum 1/n^2: head to N plus the Euler-Maclaurin tail.
    No request reads it; the tests take it as the exact reference of the
    zeta(2) that pi_freq reads from mzv_limit."""
    head = mzv_truncated(N, 1)
    lo, hi = power_sum_tail_bracket(N, 1, em_terms)
    return head + lo, head + hi


def pi_freq(precision_bits: int) -> ApproxReal:
    """sqrt(6 zeta(2)) within 2^-(precision_bits + 2), zeta(2) the k = 1
    entry of the certified row mzv_limit(1, precision_bits + 1), a bracket
    of radius at most 2^-(precision_bits + 3) on 2^-b, b = precision_bits + 35.

    Six times that bracket is exact and lies above 9.8, where sqrt has
    slope below 0.16, so the root's radius is at most
    0.16 * 6 * 2^-(precision_bits + 3) = 0.48 * 2^-(precision_bits + 2),
    plus the rounding of its two ends to 2^-b, less than one unit each,
    which adds less than 2^-(precision_bits + 35) to the radius."""
    value = (6 * mzv_limit(1, precision_bits + 1)[1]).sqrt()
    if value.err > Fraction(1, 1 << (precision_bits + 2)):
        raise ValueError(f"pi_freq: the root of 6 zeta(2) missed 2^-{precision_bits + 2}")
    return value


# ---------------------------------------------------------------------------
# pi_amp and the Wallis partial products
# ---------------------------------------------------------------------------

def _central_binomial(N: int) -> int:
    """C(2N, N) as the balanced product of p^e over the primes p <= 2N,
    where e = sum_i (floor(2N/p^i) - 2 floor(N/p^i)) (Legendre's formula).
    The primes are sieved per call."""
    n = 2 * N
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = bytes(min(2, n + 1))
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, n + 1, i)))
    # a binary counter of partial products: an entry of level j is the
    # product of 2^j consecutive factors, so each multiplication pairs
    # operands of about equal size, and at most log2 of the factor count
    # partial products are held at a time
    stack: list[tuple[int, int]] = []
    for p in itertools.compress(range(n + 1), sieve):
        e, pk = 0, p
        while pk <= n:
            e += n // pk - 2 * (N // pk)
            pk *= p
        if e:
            f, level = p ** e, 0
            while stack and stack[-1][0] == level:
                f *= stack.pop()[1]
                level += 1
            stack.append((level, f))
    result = 1
    for _, f in reversed(stack):
        result *= f
    return result


def _wallis_raw(N: int) -> tuple[int, int]:
    """Numerator/denominator of 2 prod_{n<=N} (2n)^2/((2n-1)(2n+1)) in the
    closed form 2^(4N+1) / (C(2N, N)^2 (2N+1)); the numerator is a power of
    two, so the fraction is reduced by stripping the denominator's factors
    of 2, and no gcd is needed at large N."""
    if N < 0:
        raise DomainError("needs N >= 0")
    if N > WALLIS_N_CEILING:
        raise ResourceError(f"Wallis truncation {N} exceeds {WALLIS_N_CEILING}")
    return 1 << (4 * N + 1), _central_binomial(N) ** 2 * (2 * N + 1)


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


def pi_amp(N: int, precision_bits: int = 128) -> tuple[ApproxReal, Fraction | None]:
    """(bracket, exact partial): the N-pair Wallis partial product with the
    certified interlacing bracket [W_N, W_N * (2N+2)/(2N+1)], and W_N itself
    while its numerator and denominator fit EXACT_PARTIAL_MAX_BITS, else None.

    The bracket endpoints are dyadic roundings taken outward (floor below,
    ceiling above) on 2^-(precision_bits + 8), so the certificate survives
    the rounding. The bracket returned is [2 lo - hi, hi], whose midpoint,
    the value a record reports, is the lower end lo of the partial product.
    """
    num, den = _wallis_raw(N)
    shift = precision_bits + 8
    lo = (num << shift) // den
    hi = (num * (2 * N + 2) << shift) // (den * (2 * N + 1)) + 1
    value = ApproxReal(2 * lo - hi, hi, shift)
    twos = (den & -den).bit_length() - 1
    exact_partial = None
    if max(num.bit_length(), den.bit_length()) - twos <= EXACT_PARTIAL_MAX_BITS:
        exact_partial = Fraction(num >> twos, den >> twos)
    return value, exact_partial


# ---------------------------------------------------------------------------
# The normalized odd series g and its derivative
# ---------------------------------------------------------------------------

def _terms(p: int, q: int, precision_bits: int) -> tuple[int, int]:
    """(T, L) for g at x = p/q > 0. T is the first t >= 1 with
    x^(2t+1)/(2t+1)! <= 2^-(precision_bits+8) and x^2 < (2t+2)(2t+3),
    compared exactly as p^(2t+1) 2^(precision_bits+8) <= q^(2t+1) (2t+1)!.
    2^L is at most the first omitted term x^(2T+3)/(2T+3)! = a/d, with
    L = bitlen(a) - bitlen(d) - 1 as a >= 2^(bitlen(a)-1) and d < 2^bitlen(d)."""
    a, d, u, v = p ** 3, 6 * q ** 3, p * p, q * q
    t = 1
    while a << (precision_bits + 8) > d or u >= (2 * t + 2) * (2 * t + 3) * v:
        a, d, t = a * u, d * v * ((2 * t + 2) * (2 * t + 3)), t + 1
    a, d = a * u, d * v * ((2 * t + 2) * (2 * t + 3))
    return t, a.bit_length() - d.bit_length() - 1


def g_eval(x: Fraction, precision_bits: int = 128) -> tuple[ApproxReal, ApproxReal]:
    """(g(x), g'(x)) for g(x) = sum (-1)^k x^(2k+1)/(2k+1)!, |x| <= 4.
    No request reads it; the tests take it as the pointwise reference.

    With x = p/q and u/v = x^2, both series are summed in units of 2^-W.
    The k-th term of g is a_k = a_{k-1} u // (v 2k(2k+1)) from
    a_0 = |p| 2^W // q. Each floor leaves a_k below the true term by at most
    E_k = ceil(E_{k-1} u / (v 2k(2k+1))) + 1, from E_0 = 1. The terms of g'
    are b_k = b_{k-1} u // (v (2k-1)2k) from b_0 = 2^W, with F_k alike and
    F_0 = 0. As x^2 < (2T+2)(2T+3), the terms decrease after the last one
    summed, so each alternating remainder is at most its first omitted
    term: ceil((a_T + E_T) u / (v (2T+2)(2T+3))) for g and
    ceil((b_T + F_T) u / (v (2T+1)(2T+2))) for g'. Each radius is the sum
    of the E_k (F_k) plus that remainder bound, in units of 2^-W.

    For |x| <= 4 the E_k sum to at most 2T + 8, and the remainder bound
    exceeds the remainder by at most E_T + 1 <= 6 units. W is
    precision_bits + 32, or more where 2T + 16 units would exceed half of
    the first omitted term of g (the smaller remainder); so no radius is
    more than 1.5 times its remainder.
    """
    x = Fraction(x)
    if abs(x) > 4:
        raise DomainError("g_eval is certified on [-4, 4] only")
    if x == 0:
        return ApproxReal(0, 0, 0), ApproxReal(1, 1, 0)
    p, q = abs(x.numerator), x.denominator
    T, L = _terms(p, q, precision_bits)
    W = max(precision_bits + 32, (2 * T + 16).bit_length() + 1 - L)
    u, v = p * p, q * q
    a, E = (p << W) // q, 1
    b, F = 1 << W, 0
    g_sum, g_err, gp_sum, gp_err = a, E, b, F
    for k in range(1, T + 1):
        da = v * ((2 * k) * (2 * k + 1))
        db = v * ((2 * k - 1) * (2 * k))
        a, E = a * u // da, -(-E * u // da) + 1
        b, F = b * u // db, -(-F * u // db) + 1
        if k & 1:
            g_sum, gp_sum = g_sum - a, gp_sum - b
        else:
            g_sum, gp_sum = g_sum + a, gp_sum + b
        g_err += E
        gp_err += F
    g_err += -(-(a + E) * u // (v * ((2 * T + 2) * (2 * T + 3))))
    gp_err += -(-(b + F) * u // (v * ((2 * T + 1) * (2 * T + 2))))
    if x < 0:
        g_sum = -g_sum
    return (ApproxReal(g_sum - g_err, g_sum + g_err, W),
            ApproxReal(gp_sum - gp_err, gp_sum + gp_err, W))


# ---------------------------------------------------------------------------
# Arc length of the parametrized half-circle
# ---------------------------------------------------------------------------

def _speed_defect(D: int) -> tuple[list[int], Fraction]:
    """(s, eps) for G, G', the degree-D truncations of g, g' (D >= 1): Q = G^2 + G'^2 - 1
    = sum_m (-1)^m s_m x^(2m)/(2m)!, s_m the sum of (-1)^j C(2m, j) over j, 2m - j in [0, D]
    less 1 at m = 0, and eps = sum |s_m| A^(2m)/(2m)! + r (48 + r) + r' (48 + r') bounds
    |g^2 + g'^2 - 1| on |x| <= A = 355/113, which holds [-pi, pi]: |G|, |G'| <= e^A < 24,
    and r, r' = A^(D+1)/(D+1)!, A^(D+2)/(D+2)! bound the alternating remainders R of g, g'
    (in some order; A^2 < 10 < (D+2)(D+3)), so |g^2 - G^2| = |R| |2G + R| <= r (48 + r).
    The terms are rounded up on W bits, by under 2^-30 r' in all: each u[j] by under
    e^A < 24 units, and sum |s_m| < 4^(D+1).

    The sums are closed: sum_{j<=J} (-1)^j C(n, j) = (-1)^J C(n-1, J) for n >= 1, so
    s_m = (-1)^D C(2m-1, D) - (-1)^(2m-D-1) C(2m-1, 2m-D-1) = 2 (-1)^D C(2m-1, D) for
    D < 2m <= 2D, and s_m = 0 for m <= D/2, the two truncations agreeing there."""
    W = (D + 2) * ((D + 2).bit_length() + 2) + 32   # >= log2((D+2)!) + 2D + 36
    u = list(itertools.accumulate(   # u[j] >= A^j / j! in units of 2^-W
        range(1, 2 * D + 3), lambda t, j: -(-t * 355 // (113 * j)), initial=1 << W))
    sign = -2 if D & 1 else 2
    sums = [sign * math.comb(2 * m - 1, D) if 2 * m > D else 0 for m in range(D + 1)]
    eps = sum(abs(s) * u[2 * m] for m, s in enumerate(sums))
    eps += sum(-(-r * ((48 << W) + r) >> W) for r in u[D + 1:D + 3])
    return sums, Fraction(eps, 1 << W)


def arc_length(p: ApproxReal, precision_bits: int) -> tuple[ApproxReal, Fraction]:
    """(length, eps): the length of x -> (g, g') over [-p/2, p/2], at the
    endpoints of a given bracket p of pi, p = pi_freq(precision_bits + 24) or
    tighter, with p/2 in [a - delta, a + delta] and a + delta <= A = 355/113
    (else ValueError, a broken invariant), and the eps of _speed_defect at
    D = 2T + 1, T from _terms at A. As g'' = -g term by term, the squared
    speed g^2 + g'^2 is within eps of 1, so the speed is in [1 - eps, 1 + eps/2]
    and the length in [2 (a - delta)(1 - eps), 2 (a + delta)(1 + eps/2)]."""
    if p.hi > Fraction(710, 113):
        raise ValueError("arc_length: an endpoint lies past 355/113")
    _, eps = _speed_defect(2 * _terms(355, 113, precision_bits + 24)[0] + 1)
    length = ApproxReal.from_bracket(p.lo * (1 - eps), p.hi * (1 + eps / 2), precision_bits + 32)
    return length, eps


# ---------------------------------------------------------------------------
# The four-way comparison
# ---------------------------------------------------------------------------

def three_way_pi_compare(precision_bits: int) -> tuple[dict[str, ApproxReal], Fraction]:
    """The four certified estimates of pi by name: "freq" (pi_freq, taken
    24 bits finer for the arc's endpoints), "amp" (pi_amp at WALLIS_PAIRS),
    "arc" (arc_length) and "oracle" (the Machin oracle); and the arc's eps,
    the bound of |g^2 + g'^2 - 1| on |x| <= 355/113."""
    freq = pi_freq(precision_bits + 24)
    arc, eps = arc_length(freq, precision_bits)
    return {
        "freq": freq,
        "amp": pi_amp(WALLIS_PAIRS, precision_bits)[0],
        "arc": arc,
        "oracle": pi_oracle(precision_bits),
    }, eps
