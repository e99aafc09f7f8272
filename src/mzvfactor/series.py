"""Truncated multiple zeta values zeta_N({2}^k), truncated even zeta values,
and certified limits. zeta_N({2}^k) is, up to the sign (-1)^k, the
coefficient of x^(2k+1) in the expanded truncated product.

zeta_N({2}^k) is the k-th elementary symmetric function of {1/n^2 : n <= N},
so every entry of an exact row comes from one integer polynomial:

    zeta_N({2}^j) = [t^j] prod_{n<=N} (n^2 + t) / (N!)^2.

The product is taken mod t^(k+1) over a balanced tree of ranges of n
(binary splitting; Haible & Papanikolaou 1998, Bernstein 2008), so its
operands stay balanced and the row costs one division per entry; it serves
the exact rows only. A certified limit takes no exact product. It works on
W-bit integers, W 34 bits past the requested precision, in the fixed-point
idiom of Brent & Zimmermann, "Modern Computer Arithmetic" (2010): the head
n <= N and the tail n > N each give brackets of the power sums of their
set, the head's from nested floor divisions a few bits finer and the
tail's from Euler-Maclaurin, and Newton's identities turn each into
brackets of its elementary symmetric functions. Every lower end is floored
and every upper one ceiled, as every ApproxReal operation does, so the
row's ApproxReal brackets are those integer ends. A limit takes one row:
every zeta({2}^j), j <= k, from one head, one tail and one bracket per
entry, at the truncation and depth plan_limit picks for the whole row from
closed-form bounds before any work (Johansson, "Rigorous high-precision
computation of the Hurwitz zeta function and its derivatives", Numer.
Algorithms 2015); the bound counts the rounding. The rolling recursion
e[n][k] = e[n-1][k] + e[n-1][k-1] / n^2, the rational interval Newton
recursion, the exact integer limit kernel, the exact-head limit kernel and
the escalation ladder the limits used to walk are left to the tests as
oracles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .numeric import (
    ApproxReal,
    DomainError,
    ResourceError,
    ZERO,
    ONE,
    power_sum_tail_numerators,
    round_to_bits,  # not called here; bench/test_bench.py checks the tracer wraps this binding
)

# the largest truncation of an exact row, of a certified limit or of zeta_N(2)
EXACT_N_LIMIT = 10 ** 4
# The deepest Euler-Maclaurin tail. At N = 8192 a row at the 16384-bit
# precision ceiling takes depth 1469 at every k (the entry zeta({2}^2),
# whose floor is widest, decides it), and the deepest plan any request
# makes, pi-equality's zeta(2) row at 16409 bits (pi_freq 24 bits finer,
# its row one bit finer still), takes 1472; the cap leaves about 4% of
# headroom (the plan reaches 16936 bits), and no admitted request plans
# deeper than it needs. There a whole `compute mzv` request took 1.9-2.0 s
# of CPU time at k = 1, 2.2 s at k = 8 and 3.3 s at k = 24 on a shared
# 2-CPU Xeon host, 1.8 s of it the Bernoulli numbers to B_2940.
EM_CEILING = 1536
# The largest k of a certified limit. The slowest request at a given k is
# one at the 16384-bit precision ceiling, a single attempt at N = 8192 and
# depth 1469; on a shared 2-CPU Xeon host a `compute mzv` row there took
# 1.9-2.0 s of CPU time at k = 1, 3.3 s at k = 24, 4.6 s at k = 48, 6.8-7.2 s
# at k = 64 and 10.2 s at k = 96, 1.8 s of it the Bernoulli numbers and at
# k = 64 about 2 s the head's N k floor divisions (with the exact head
# product that row took 14.5 s). k = 64 keeps the 60 s budget about
# eight times the time of `verify basel --k 64` and `verify factorization
# --k 64` there (6.8-7.8 s, with basel's oracle 32 bits finer), room for a
# much slower host: this ceiling alone bounds the time of the limit
# suites. A 64-bit request at k = 64 takes under 0.01 s.
MZV_K_CEILING = 64


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

def _newton_brackets(p: list[tuple[int, int]], bits: int) -> list[tuple[int, int]]:
    """Brackets lo / 2^bits <= e_m <= hi / 2^bits, m = 0..len(p), of the
    elementary symmetric functions of a set of positive reals, from brackets
    of its power sums p_i, i = 1..len(p), on the same grid. Newton's
    identities m e_m = sum_{i=1..m} (-1)^(i-1) e_{m-i} p_i sum exact products
    of the integer ends, and the lower end of e_m is floored and the upper
    end ceiled. Each e bracket (a, b) lies in [0, inf), so its product with
    a p bracket (c, d) runs from a c (b c if c < 0) to b d (a d if d < 0)."""
    e = [(1 << bits, 1 << bits)]
    for m in range(1, len(p) + 1):
        lo = hi = 0
        for i in range(1, m + 1):
            (a, b), (c, d) = e[m - i], p[i - 1]
            tlo = a * c if c >= 0 else b * c
            thi = b * d if d >= 0 else a * d
            if i % 2:
                lo, hi = lo + tlo, hi + thi
            else:
                lo, hi = lo - thi, hi - tlo
        unit = m << bits
        e.append((max(0, lo // unit), -(-hi // unit)))
    return e


def tail_elementary_brackets(N: int, k: int, em_terms: int, bits: int) -> list[tuple[int, int]]:
    """Brackets lo / 2^bits <= e_m <= hi / 2^bits, m = 0..k, of the
    elementary symmetric functions e_m of the tail set {1/n^2 : n > N}: each
    power-sum bracket of power_sum_tail_numerators is taken once to
    2^-bits, its lower end floored and its upper end ceiled, and run
    through _newton_brackets. At k = 0 the one entry e_0 = 1 is exact."""
    if not k:
        return [(1 << bits, 1 << bits)]
    den, ends = power_sum_tail_numerators(N, k, em_terms)
    return _newton_brackets([((lo << bits) // den, -((-hi << bits) // den)) for lo, hi in ends],
                            bits)


def head_bits(N: int, bits: int) -> int:
    """The fractional bits of the head of a row taken on the grid 2^-bits
    at truncation N: bitlen(N) + 8 guard bits past it, so that the slack of
    N units in each head power sum stays under 2^-8 of a unit of 2^-bits."""
    return bits + N.bit_length() + 8


def head_power_sums(N: int, k: int, bits: int) -> list[tuple[int, int]]:
    """Brackets lo / 2^bits <= p_i <= hi / 2^bits, i = 1..k, of the power
    sums p_i = sum_{n<=N} 1/n^(2i) of the head set {1/n^2 : n <= N}.
    Each term floor(2^bits / n^(2i)) comes from the one before by one more
    floor division by n^2 (nested floors of positive integers are the
    floor of the quotient), so the sum h_i of the N floors is less than N
    units short of p_i: the bracket is [h_i, h_i + N]. The terms do not
    increase in n, so those that reach 0 are dropped from the end."""
    sq = [n * n for n in range(1, N + 1)]
    x = [1 << bits] * N
    out = []
    for _ in range(k):
        x = [t // q for t, q in zip(x, sq)]
        while x and not x[-1]:
            x.pop()
        h = sum(x)
        out.append((h, h + N))
    return out


@lru_cache(maxsize=256)
def _floor_terms(m: int, N: int, em: int) -> tuple[int, int]:
    """A closed-form lower bound, for N >= 1, of zeta_N({2}^m) times the
    width of power_sum_tail_bracket(N, 1, em), which the width of entry
    m + 1 of mzv_limit_bracket(k, N, em), k > m, is at least, as an
    unreduced (numerator, denominator). That width is
    |B_2i| / (N+1)^(2i+1), i = em + 1,
    with |B_2i| > 2 (2i)! / (2 pi)^(2i); zeta_N({2}^m) is pi^(2m) / (2m+1)!
    less at most zeta({2}^(m-1)) / N; and 333/106 < pi < 355/113. Cached:
    every plan checks the same depth caps and bisection steps at each N."""
    i = em + 1
    num, den = 2 * math.factorial(2 * i) * 113 ** (2 * i), 710 ** (2 * i) * (N + 1) ** (2 * i + 1)
    if m:
        cut = Fraction(355, 113) ** (2 * m - 2) / (math.factorial(2 * m - 1) * N)
        head = max(ZERO, Fraction(333, 106) ** (2 * m) / math.factorial(2 * m + 1) - cut)
        num, den = num * head.numerator, den * head.denominator
    return num, den


def _widest_floor(k: int, N: int) -> int:
    """The m < k with the largest floor _floor_terms(m, N, em): the floors
    of the entries 1..k of a row differ only in their head factor, so this m
    decides, at every em, whether the floor of every entry is within a
    width. From m = 1 on, (333/106)^(2m) / (2m+1)! falls, so every head
    factor at m >= 2 is below (333/106)^4 / 5! < 1, the factor at m = 0;
    the factor at m = 1, (333/106)^2 / 3! - 1/N, is above 1 exactly when
    N >= 2."""
    return 1 if k >= 2 and N >= 2 else 0


def width_bound(k: int, N: int, em: int, s: int) -> list[int]:
    """Upper bounds, in units of 2^-s, of the widths of the entries
    j = 0..k of mzv_limit_bracket(k, N, em, bits=s), for N >= 1, from
    closed forms only: the bound of each exact bracket plus twice its
    rounding bound, all from one _width_terms recursion."""
    return [exact + 2 * rounding for exact, rounding in _width_terms(k, N, em, s)]


def _width_terms(k: int, N: int, em: int, s: int) -> list[tuple[int, int]]:
    """[(B_m, R_m), m = 0..k] in units of 2^-s: B_m bounds the width of the
    exact bracket sum_j zeta_N({2}^j) e_{m-j} of zeta({2}^m), and R_m how
    far each end of entry m of mzv_limit_bracket(k, N, em, bits=s) lies
    outside it. The recursion below runs once for the whole row; only the
    two final sums depend on m, so entry m equals entry m of
    _width_terms(m, N, em, s).

    The exact width of entry m is sum_{j<m} zeta_N({2}^j) w(e_{m-j}), all terms
    nonnegative, and zeta_N({2}^j) <= zeta({2}^j) < (355/113)^(2j) / (2j+1)!.
    The tail bracket of p_i has width W_i = |B_2n| C(2i+2em, 2n) /
    ((2i-1) a^(2i+2em+1)), n = em + 1 and a = N + 1, with
    |B_2n| < 2 (2n)! zeta(2n) / (2 pi)^(2n), zeta(2n) <= 1 + 3/4^n and
    2 pi > 333/53; each end of it is at most p_i + W_i, and
    p_i <= 1 / ((2i-1) N^(2i-1)). A product of an e bracket [a, b] in
    [0, inf) and a p bracket [c, d] is at most b (d - c) + max(|c|, |d|) (b - a)
    wide, so Newton's identities give
        w(e_m) <= (1/m) sum_{i=1..m} (hi(e_{m-i}) W_i + (p_i + W_i) w(e_{m-i})),
    with hi(e_m) <= e_m + w(e_m) and e_m <= p_1^m / m! <= 1 / (N^m m!).
    Every quantity is rounded up to a whole unit, so the bound exceeds the
    exact sum by at most about k^2 units.

    The kernel's products are exact, and each rounding moves an end outward
    by less than one unit of its grid. If the ends of X' lie at most x
    outside those of X, and those of Y' at most y outside Y, the ends of
    X'Y' lie at most x mag(Y') + mag(X) y outside those of XY. The s-bit
    tail moves each end of a p_i bracket outward by less than a unit, so
    each end of its e_m lies at most
        r_m <= 1 + (1/m) sum_{i=1..m} (hi(e_{m-i}) + r_{m-i} + (p_i + W_i) r_{m-i})
    units outside the exact one, where each term, a product of two
    quantities in units, is taken over 2^s. The head, on the grid 2^-t,
    t = head_bits(N, s), brackets each point p_i <= zeta(2i) <= 1 + 3/4^i
    with ends at most N units of 2^-t outside it, so each end of its e_j,
    whose exact value zeta_N({2}^j) is at most zeta({2}^j), lies at most
        rho_j <= 1 + (1/j) sum_{i=1..j} (rho_{j-i} (p_i + N) + zeta({2}^(j-i)) N)
    units of 2^-t outside zeta_N({2}^j), rho_0 = 0, each term taken over
    2^t (_head_rounding). Each end of entry m then lies at most
        R_m <= 1 + max_{j<=m} rho_j sum_{j=1..m} (hi(e_{m-j}) + r_{m-j}) / 2^t
                 + sum_{j=0..m} zeta({2}^j) r_{m-j}
    units of 2^-s outside the exact bracket. There the head adds under
    2^-8 of a unit (rho_j <= 12 N at j <= 64), where a head ratio rounded
    once to 2^-s would add one: at the N >= 256 of a plan R_m is 4 units at
    m = 1 and 9 at m = 5 to 80, against the 2^32 units of the planned width.
    """
    n, a, one = em + 1, N + 1, 1 << s
    big = 2 * math.factorial(2 * n) * (4 ** n + 3) * 53 ** (2 * n) << s
    small = 4 ** n * 333 ** (2 * n) * a ** (2 * em + 1)
    w, q = [0], [0]
    for i in range(1, k + 1):
        w.append(-(-big * math.comb(2 * i + 2 * em, 2 * n)
                   // (small * (2 * i - 1) * a ** (2 * i))))
        q.append(-(-one // ((2 * i - 1) * N ** (2 * i - 1))) + w[i])
    eps, eta, r = [0], [one], [0]
    for m in range(1, k + 1):
        total = sum(eta[m - i] * w[i] + q[i] * eps[m - i] for i in range(1, m + 1))
        eps.append(-(-total // (m << s)))
        eta.append(-(-one // (N ** m * math.factorial(m))) + eps[m])
        total = sum(eta[m - i] + (1 + q[i]) * r[m - i] for i in range(1, m + 1))
        r.append(-(-total // (m << s)) + 1)
    # zeta({2}^j) < num / den
    zeta = [(355 ** (2 * j), 113 ** (2 * j) * math.factorial(2 * j + 1)) for j in range(k + 1)]
    rho, shift = _head_rounding(k, N), head_bits(N, s) - s
    # carried = sum_{i<m} (hi(e_i) + r_i) and top = max_{j<=m} rho_j, so
    # that top carried bounds the head's terms of R_m
    out, carried, top = [], 0, 0
    for m in range(k + 1):
        exact = sum(-(-num * eps[m - j] // den) for j, (num, den) in enumerate(zeta[:m]))
        top = max(top, rho[m])
        total = -(-top * carried >> shift) + sum(-(-num * r[m - j] * one // den)
                                               for j, (num, den) in enumerate(zeta[:m + 1]))
        carried += eta[m] + r[m]
        out.append((exact, -(-total // one) + 1))
    return out


@lru_cache(maxsize=256)
def _head_rounding(k: int, N: int) -> tuple[int, ...]:
    """rho_j, j = 0..k, of _width_terms: how far each end of the head's
    bracket of zeta_N({2}^j) lies outside it, in units of 2^-t,
    t = head_bits(N, s), at any s. Each term of the recursion is rounded up
    to a unit of 2^-32: zeta({2}^j) N, and p_i + N 2^-t < 1 + 3/4^i + 2^-8.
    Cached: a plan bounds each depth it tries at one N with the same head."""
    u = 32
    head = [-((-(355 ** (2 * j)) << u) // (113 ** (2 * j) * math.factorial(2 * j + 1))) * N
            for j in range(k)]
    ends = [0] + [-(-(4 ** i + 3 << u) // 4 ** i) + (1 << u - 8) for i in range(1, k + 1)]
    rho = [0]
    for j in range(1, k + 1):
        total = sum(rho[j - i] * ends[i] + head[j - i] for i in range(1, j + 1))
        rho.append(-(-total // (j << u)) + 1)
    return tuple(rho)


def plan_limit(k: int, width: Fraction) -> tuple[int, int]:
    """The one (truncation, Euler-Maclaurin depth) at which a certified limit
    takes its row: the width of every entry j = 1..k of
    mzv_limit_bracket(k, N, em, bits=s), s = limit_bits(width), is at most
    `width` by width_bound. Nothing is built; past the reach this raises
    ResourceError.

    N is the first of the ladder 256 2^i <= EXACT_N_LIMIT with such an em of
    at most N/2, or, at the last N, of at most EM_CEILING. At each N the
    depth is first guessed as the smallest em >= 6 whose
    floor _floor_terms(j - 1, N, em) is within `width` for every j <= k, the
    largest such em over j, by trying em = 6, 12, 24, ... and bisecting the
    last step; the floor is a lower bound of the width, so no smaller em can
    pass. The guess is confirmed by width_bound, or the bound is bisected
    above it. Each width_bound is one recursion for the whole row, so a
    plan costs O(log EM_CEILING) closed-form bounds at each N of the ladder,
    as a plan for entry k alone would.

    The cap N/2 comes from the cost of the attempt. It was first measured
    at every N of the ladder for k = 1, 4, 8, 16 and 24 and 512 to 8192
    bits in steps of sqrt(2), when the head was the exact product and
    cost about 3-4x per doubling of N. The W-bit head costs about N k
    small divisions and k^2 products on W bits, so with it the attempt
    costs about 1.5-2x per doubling of N. Measured again at every N of the
    ladder for k = 1, 8 and 24 and 1024 to 8192 bits in doublings, with the
    Bernoulli numbers built, as in any process that took a limit as deep
    before, N/2 still picked the cheapest N at 11 of the 12 points; at k = 1
    and 8192 bits N = 4096 took 19 ms against its 23 ms. A fresh process
    also builds the Bernoulli numbers once, about 0.5 s at depth 987, so
    there a shallower depth at a larger N is cheaper near 8192 bits, by at
    most that build. The rule stays until the plans may move: the
    certified-limits benchmark draws its precisions from bands that each
    keep one plan, and a planner by cost belongs with a redefinition of
    those bands. The rule keeps N = 256 up to about 1055 bits at k = 1 and
    1054 at k = 8 and 24, then doubles N once per doubling of the precision.
    """
    s = limit_bits(width)
    allowed = (width.numerator << s) // width.denominator

    def floor_fits(m: int, N: int, em: int) -> bool:
        num, den = _floor_terms(m, N, em)
        return num * width.denominator <= width.numerator * den

    def fits(N: int, em: int) -> bool:
        return max(width_bound(k, N, em, s)) <= allowed

    ladder = [256 << i for i in range((EXACT_N_LIMIT // 256).bit_length())]
    for N in ladder:
        # the floor falls as em grows up to about pi (N + 1), above every cap
        cap = EM_CEILING if N == ladder[-1] else min(EM_CEILING, N // 2)
        m = _widest_floor(k, N)
        if not floor_fits(m, N, cap):
            continue
        lo, hi = 6, 6
        while not floor_fits(m, N, hi):
            lo, hi = hi + 1, min(2 * hi, cap)
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if floor_fits(m, N, mid) else (mid + 1, hi)
        if not fits(N, lo):
            if not fits(N, cap):
                continue
            lo, hi = lo + 1, cap
            while lo < hi:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if fits(N, mid) else (mid + 1, hi)
        return N, lo
    raise ResourceError(f"no truncation N <= {EXACT_N_LIMIT} with a depth "
                        f"em <= {EM_CEILING} brackets the limit within the requested width")


def limit_bits(width: Fraction) -> int:
    """The fractional bits s at which a certified limit planned within
    `width` takes its bracket: 32 bits past the width's denominator, so the
    rounding of the s-bit kernel is far inside the width."""
    return width.denominator.bit_length() + 32


def mzv_limit_bracket(k: int, N: int = 1000, em_terms: int = 6, *,
                      bits: int) -> list[tuple[int, int]]:
    """Brackets lo / 2^bits <= zeta({2}^j) <= hi / 2^bits, j = 0..k.

    Splits the elementary symmetric function over {1..N} and the tail:
        zeta({2}^j) = sum_{i<=j} zeta_N({2}^i) * e_{j-i}(tail),
    an identity, so the width comes from the tail power-sum brackets and
    the rounding. The head zeta_N({2}^i) is bracketed on the finer grid
    2^-head_bits(N, bits), by _newton_brackets on head_power_sums; every
    factor is nonnegative, so each end is one exact integer sum of head
    times tail_elementary_brackets, floored or ceiled once onto 2^-bits.
    One head and one tail serve every entry, and neither depends on k, so
    entry j is the bracket a call at j would return. Each end lies outside
    the exact bracket by at most the rounding bound of _width_terms.
    """
    if k < 0:
        raise DomainError("k must be nonnegative")
    if N > EXACT_N_LIMIT:
        raise ResourceError(f"truncation {N} exceeds ceiling {EXACT_N_LIMIT}")
    w = head_bits(N, bits)
    hlo, hhi = zip(*_newton_brackets(head_power_sums(N, k, w), w))
    elo, ehi = zip(*tail_elementary_brackets(N, k, em_terms, bits))
    return [(sum(map(mul, hlo[:j + 1], elo[j::-1])) >> w,
             -(-sum(map(mul, hhi[:j + 1], ehi[j::-1])) >> w))
            for j in range(k + 1)]


def require_limit_k(k: int) -> None:
    """Refuse a certified limit zeta({2}^k) by its k alone, before any work."""
    if k < 0:
        raise DomainError("k must be nonnegative")
    if k > MZV_K_CEILING:
        raise ResourceError(f"zeta({{2}}^{k}): k exceeds ceiling {MZV_K_CEILING}")


def mzv_limit(k: int, precision_bits: int) -> list[ApproxReal]:
    """The row [zeta({2}^0), ..., zeta({2}^k)], each entry with certified
    error at most 2^-(precision_bits + 2), the bracket of one row of
    mzv_limit_bracket at the (N, em) of plan_limit, each of width at most
    2^-(precision_bits + 1)."""
    require_limit_k(k)
    if k == 0:
        return [ApproxReal(1, 1, 0)]
    width = Fraction(1, 1 << (precision_bits + 1))
    try:
        N, em = plan_limit(k, width)
    except ResourceError:
        raise ResourceError(f"cannot certify zeta({{2}}^{k}) to {precision_bits} bits "
                            f"within configured ceilings") from None
    bits = limit_bits(width)
    row = [ApproxReal(a, c, bits) for a, c in mzv_limit_bracket(k, N, em, bits=bits)]
    if any(z.h - z.l > 1 << (bits - precision_bits - 1) for z in row):
        raise ValueError(f"zeta({{2}}^{k}): the planned bracket at N = {N}, "
                         f"em = {em} missed 2^-{precision_bits + 2}")
    return row
