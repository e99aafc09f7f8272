"""Exact rational arithmetic, harmonic numbers, tail brackets, and a
self-contained high-precision pi oracle, Machin's formula summed on integers.

Everything here is certified: an ApproxReal is a dyadic bracket, two
integer ends on the unit 2^-bits, that is guaranteed to contain the true
real number. No floating point is used anywhere in the package; "rounding"
means taking an exact integer result back to 2^-bits, the lower end
floored and the upper one ceiled (Brent & Zimmermann, "Modern Computer
Arithmetic", 2010), so a bracket only ever widens outward.
"""

from __future__ import annotations

import math
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

DEFAULT_PRECISION = 128
MAX_PRECISION = 1 << 14
TIME_CEILING = 60 * 10 ** 6   # us, the budget of every closed-form time ceiling


class DomainError(ValueError):
    """An operation was evaluated at a pole or outside its domain."""


class ResourceError(RuntimeError):
    """A request exceeded a configured resource ceiling (precision, N, ...)."""


def require_precision(bits: int) -> None:
    if bits < 32:
        raise DomainError(f"precision must be at least 32 bits, got {bits}")
    if bits > MAX_PRECISION:
        raise ResourceError(f"precision {bits} exceeds ceiling {MAX_PRECISION}")


def _floor_log2(q: Fraction) -> int:
    # floor(log2 |q|) within +-1, good enough to aim a rounding shift
    return abs(q.numerator).bit_length() - q.denominator.bit_length()


def round_to_bits(q: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Round q to a dyadic rational with about `bits` significant bits.

    Returns (dyadic value, exact rounding error |value - q|).
    """
    if q == 0:
        return ZERO, ZERO
    shift = bits - _floor_log2(q)
    if shift >= 0:
        scaled = q * (1 << shift)
        n = round(scaled)
        v = Fraction(n, 1 << shift)
    else:
        scaled = q / (1 << -shift)
        n = round(scaled)
        v = Fraction(n * (1 << -shift))
    return v, abs(v - q)


ERR_BITS = 32


def err_up(q: Fraction) -> Fraction:
    """Round an error radius up to a short dyadic upper bound.

    Radii only ever need an upper bound; keeping them at ERR_BITS significant
    bits with power-of-two denominators stops exact-rational bookkeeping from
    ballooning across long summations.
    """
    if q == 0:
        return ZERO
    if q < 0:
        raise DomainError("negative error radius")
    if q.denominator.bit_length() <= ERR_BITS and q.numerator.bit_length() <= ERR_BITS:
        return q
    shift = ERR_BITS - _floor_log2(q)
    if shift <= 0:
        step = 1 << (-shift)
        n = -((-q.numerator) // (q.denominator * step))
        return Fraction(n * step)
    n = -((-q.numerator << shift) // q.denominator)   # ceil(q * 2^shift)
    return Fraction(n, 1 << shift)


def sqrt_bounds(n: int) -> tuple[int, int]:
    """(floor(sqrt(n)), ceil(sqrt(n))) for an integer n >= 0."""
    r = math.isqrt(n)
    return r, r + (r * r < n)


def frac_to_decimal(q: Fraction, places: int = 30) -> str:
    """Exact decimal expansion of q truncated toward zero at `places` digits;
    one that ends sooner stops at its last digit (an integer at one 0)."""
    sign = "-" if q < 0 else ""
    ipart, rem = divmod(abs(q.numerator), q.denominator)
    if places <= 0:
        return f"{sign}{ipart}"
    digits, rest = divmod(rem * 10 ** places, q.denominator)
    frac = f"{digits:0{places}d}"
    return f"{sign}{ipart}.{frac if rest else frac.rstrip('0') or '0'}"


class ApproxReal:
    """A dyadic bracket: the true value lies in [l, h] 2^-bits, l and h ints.

    An operation takes its exact result from the integer ends, then floors
    the lower end and ceils the upper one back to the larger `bits` of its
    operands, so each end moves outward by less than one unit of 2^-bits.
    An int operand is exact. value and err, the midpoint and half-width a
    record prints, and lo and hi are views of the two ends. Brackets are
    never mutated after construction.
    """

    __slots__ = ("l", "h", "bits")

    def __init__(self, l: int, h: int, bits: int) -> None:
        if h < l:
            raise DomainError("empty bracket")
        self.l, self.h, self.bits = l, h, bits

    @staticmethod
    def from_bracket(lo: Fraction, hi: Fraction, bits: int) -> "ApproxReal":
        """[lo, hi] rounded outward to 2^-bits."""
        return ApproxReal(math.floor(lo * (1 << bits)), math.ceil(hi * (1 << bits)), bits)

    # ---- views ----

    @property
    def value(self) -> Fraction:
        return Fraction(self.l + self.h, 1 << (self.bits + 1))

    @property
    def err(self) -> Fraction:
        return Fraction(self.h - self.l, 1 << (self.bits + 1))

    @property
    def lo(self) -> Fraction:
        return Fraction(self.l, 1 << self.bits)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.h, 1 << self.bits)

    def contains(self, q: Fraction | int) -> bool:
        return self.lo <= q <= self.hi

    def decimal(self, places: int = 30) -> str:
        return frac_to_decimal(self.value, places)

    def __repr__(self) -> str:
        return f"ApproxReal({self.l}, {self.h}, {self.bits})"

    # ---- arithmetic ----

    def __neg__(self) -> "ApproxReal":
        return ApproxReal(-self.h, -self.l, self.bits)

    def __abs__(self) -> "ApproxReal":
        return ApproxReal(max(self.l, -self.h, 0), max(-self.l, self.h), self.bits)

    def __add__(self, other: "ApproxReal | int") -> "ApproxReal":
        l1, h1, l2, h2, b = _common(self, other)
        return ApproxReal(l1 + l2, h1 + h2, b)

    __radd__ = __add__

    def __sub__(self, other: "ApproxReal | int") -> "ApproxReal":
        l1, h1, l2, h2, b = _common(self, other)
        return ApproxReal(l1 - h2, h1 - l2, b)

    def __rsub__(self, other: "ApproxReal | int") -> "ApproxReal":
        l1, h1, l2, h2, b = _common(self, other)
        return ApproxReal(l2 - h1, h2 - l1, b)

    def __mul__(self, other: "ApproxReal | int") -> "ApproxReal":
        # the products of the ends are exact on 2^-(bits + b2), s bits finer
        l, h, b2 = _ends(other)
        s, ends = min(self.bits, b2), (self.l * l, self.l * h, self.h * l, self.h * h)
        return ApproxReal(min(ends) >> s, -(-max(ends) >> s), max(self.bits, b2))

    __rmul__ = __mul__

    def __truediv__(self, n: int) -> "ApproxReal":
        """The bracket divided by an exact positive integer, the one divisor
        in use ((2k+1)! in the limit suites); any other raises DomainError."""
        if not isinstance(n, int) or n <= 0:
            raise DomainError("a bracket is divided only by a positive integer")
        return ApproxReal(self.l // n, -(-self.h // n), self.bits)

    def __rtruediv__(self, other: "ApproxReal | int") -> "ApproxReal":
        raise DomainError("a bracket is divided only by a positive integer")

    def sqrt(self) -> "ApproxReal":
        if self.l < 0:
            raise DomainError("sqrt of a bracket extending below zero")
        b = self.bits
        return ApproxReal(sqrt_bounds(self.l << b)[0], sqrt_bounds(self.h << b)[1], b)

    def power(self, n: int) -> "ApproxReal":
        if n < 0:
            raise DomainError("negative powers not supported")
        out, base = ApproxReal(1, 1, 0), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out


def _ends(y: "ApproxReal | int") -> tuple[int, int, int]:
    """(l, h, bits) of the bracket y, or (y, y, 0) of an exact int y."""
    if isinstance(y, ApproxReal):
        return y.l, y.h, y.bits
    if isinstance(y, int):
        return y, y, 0
    raise TypeError(f"a bracket's operand is a bracket or an int, not {type(y).__name__}")


def _common(x: ApproxReal, y: "ApproxReal | int") -> tuple[int, int, int, int, int]:
    """(l1, h1, l2, h2, b): the ends of x and y on the finer unit 2^-b of the two."""
    l, h, b2 = _ends(y)
    b = max(x.bits, b2)
    return x.l << (b - x.bits), x.h << (b - x.bits), l << (b - b2), h << (b - b2), b


# ---------------------------------------------------------------------------
# Harmonic numbers
# ---------------------------------------------------------------------------

# H(0), H(1), ...: append-only, never evicted
_harmonics: list[Fraction] = [ZERO]


def harmonic(n: int) -> Fraction:
    """H(n) = sum_{k<=n} 1/k, exact, memoized in _harmonics."""
    if n < 0:
        raise DomainError("harmonic number needs n >= 0")
    while len(_harmonics) <= n:
        _harmonics.append(_harmonics[-1] + Fraction(1, len(_harmonics)))
    return _harmonics[n]


# ---------------------------------------------------------------------------
# pi oracle (Machin arctangent series, independent of everything else)
# ---------------------------------------------------------------------------

def _atan_inv(m: int, b: int) -> tuple[int, int]:
    """Integer ends lo <= 2^b arctan(1/m) <= hi, m >= 2, by the alternating
    Taylor series on floors: p_0 = 2^b // m, p_j = p_{j-1} // m^2 and
    t_j = p_j // (2j+1). Nested floors make t_j the floor of the exact term
    2^b / (m^(2j+1) (2j+1)), less than one unit short, so the exact sum of
    the J terms lies less than ceil(J/2) units above their sum s and
    floor(J/2) below it. The sum stops at the first p_J = 0, where the exact
    term and so the remainder are below one unit."""
    p, s, j = (1 << b) // m, 0, 0
    while p:
        t = p // (2 * j + 1)
        s, p, j = s - t if j & 1 else s + t, p // (m * m), j + 1
    return s - j // 2 - 1, s + (j + 1) // 2 + 1


def pi_oracle(precision_bits: int) -> ApproxReal:
    """pi via 16 atan(1/5) - 4 atan(1/239), each by _atan_inv on b =
    precision_bits + bitlen(precision_bits) + 16 bits. Their J_m terms
    (m^(2 J_m - 1) <= 2^b) leave a bracket of 16 (J_5 + 2) + 4 (J_239 + 2)
    < 3.8 b + 50 < 2^(b - precision_bits - 8) units of 2^-b, the bracket
    returned."""
    b = precision_bits + precision_bits.bit_length() + 16
    lo5, hi5 = _atan_inv(5, b)
    lo239, hi239 = _atan_inv(239, b)
    return ApproxReal(16 * lo5 - 4 * hi239, 16 * hi5 - 4 * lo239, b)


# ---------------------------------------------------------------------------
# Bernoulli numbers and Euler-Maclaurin power-sum tails
# ---------------------------------------------------------------------------

# B_2, B_4, ...: the longest table built so far, replaced only by a longer one
_bernoulli: list[Fraction] = []


def bernoulli_even(count: int) -> tuple[Fraction, ...]:
    """(B_2, B_4, ..., B_{2 count}) from the integer tangent numbers T_i
    (Brent & Harvey, "Fast computation of Bernoulli, tangent and secant
    numbers", 2011): B_{2i} = (-1)^(i-1) 2i T_i / (4^i (4^i - 1)).
    T_i for i <= c does not depend on the length of the table, so a shorter
    count is served as a prefix of the longest table built so far."""
    if count > len(_bernoulli):
        t = [0] + [math.factorial(m - 1) for m in range(1, count + 1)]
        for m in range(2, count + 1):
            for j in range(m, count + 1):
                t[j] = (j - m) * t[j - 1] + (j - m + 2) * t[j]
        _bernoulli[:] = (Fraction((-1) ** (m - 1) * 2 * m * t[m], 4 ** m * (4 ** m - 1))
                         for m in range(1, count + 1))
    return tuple(_bernoulli[:count])


def power_sum_tail_numerators(N: int, k: int, em_terms: int = 6) -> tuple[int, list[tuple[int, int]]]:
    """Brackets lo_j / den <= p_j <= hi_j / den for p_j = sum_{n>N} 1/n^(2j),
    j = 1..k, on one denominator: (den, [(lo_j, hi_j)]).

    Euler-Maclaurin at a = N+1, to depth m = em_terms:
        p_j = 1/(2 a^(2j)) + sum_{i=0..m} c_i / a^(2j+2i-1) + R,
        c_i = B_{2i} C(2j+2i-2, 2i) / (2j-1), B_0 = 1,
    and since x^(-2j) is completely monotone the remainder R is bounded by
    the first omitted term c_{m+1} / a^(2j+2m+1) and shares its sign, so
    appending that term yields a two-sided bracket. With L the lcm of the
    Bernoulli denominators and O that of 1, 3, .., 2k-1, each c_i is an
    integer over 2 L O, and each sum is taken by Horner's rule in a^2.
    """
    if N < 1 or k < 1 or em_terms < 0:
        raise DomainError("power_sum_tail_bracket needs N, j >= 1 and em_terms >= 0")
    a, m, u = N + 1, em_terms, (N + 1) ** 2
    b = bernoulli_even(m + 1)
    L = math.lcm(*(q.denominator for q in b))
    bn = [L] + [q.numerator * (L // q.denominator) for q in b]   # B_{2i} L
    O = math.lcm(*range(1, 2 * k, 2))
    ends = []
    for j in range(1, k + 1):
        acc = 0
        for i in range(m + 1):
            acc = acc * u + math.comb(2 * j + 2 * i - 2, 2 * i) * bn[i]
        # c_i 2 L O = 2 (O / (2j-1)) C(2j+2i-2, 2i) B_{2i} L, and u^(k-j)
        # lifts a^(2j+2m+1) to den's a^(2k+2m+1)
        w = O // (2 * j - 1) * u ** (k - j)
        s = w * a * (2 * a * acc + (2 * j - 1) * L * u ** m)
        t = s + 2 * w * math.comb(2 * j + 2 * m, 2 * m + 2) * bn[m + 1]
        ends.append((min(s, t), max(s, t)))
    return 2 * L * O * a ** (2 * k + 2 * m + 1), ends


def power_sum_tail_bracket(N: int, j: int, em_terms: int = 6) -> tuple[Fraction, Fraction]:
    """Exact rational bracket for sum_{n>N} 1/n^(2j) (power_sum_tail_numerators)."""
    den, ends = power_sum_tail_numerators(N, j, em_terms)
    return Fraction(ends[-1][0], den), Fraction(ends[-1][1], den)
