"""Exact rational arithmetic, harmonic numbers, tail brackets, and a
self-contained high-precision pi oracle.

Everything here is certified: an ApproxReal is a dyadic ball, an integer
midpoint mantissa and exponent with a short radius rounded up, that is
guaranteed to contain the true real number. No floating point is used
anywhere in the package; "rounding" means explicit dyadic rounding at a
precision the caller passes, whose error bound is added to the radius.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

ZERO = Fraction(0)
ONE = Fraction(1)

DEFAULT_PRECISION = 128
MAX_PRECISION = 1 << 14


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


def sqrt_bounds(q: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Exact rational bounds lo <= sqrt(q) <= hi with hi - lo <= 2^(1-bits)*sqrt(q)-ish."""
    if q < 0:
        raise DomainError("sqrt of a negative rational")
    if q == 0:
        return ZERO, ZERO
    # scale so the integer sqrt carries enough bits
    m = bits + 4 + max(0, -_floor_log2(q) // 2 + 1)
    s = math.isqrt((q.numerator << (2 * m)) // q.denominator)
    lo = Fraction(s, 1 << m)
    hi = Fraction(s + 1, 1 << m)
    return lo, hi


def frac_to_decimal(q: Fraction, places: int = 30) -> str:
    """Exact decimal expansion of q truncated toward zero at `places` digits."""
    sign = "-" if q < 0 else ""
    q = abs(q)
    ipart = q.numerator // q.denominator
    rem = q.numerator - ipart * q.denominator
    digits = []
    for _ in range(places):
        rem *= 10
        d = rem // q.denominator
        digits.append(str(d))
        rem -= d * q.denominator
        if rem == 0:
            break
    frac = "".join(digits)
    return f"{sign}{ipart}.{frac}" if frac else f"{sign}{ipart}"


def _to_fraction(m: int, e: int) -> Fraction:
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


# Radii are "magnitudes": pairs (m, e) with m >= 0 standing for m * 2^e,
# kept at about ERR_BITS bits and only ever rounded up (lower bounds, used for
# a divisor, are rounded down), so their arithmetic stays on short ints.

def _mag_of(q: Fraction) -> tuple[int, int]:
    """Dyadic upper bound of the rational radius q >= 0 (err_up, then up to
    a power-of-two denominator)."""
    q = err_up(q)
    n, d = q.numerator, q.denominator
    if d & (d - 1) == 0:
        return n, 1 - d.bit_length()
    s = ERR_BITS - n.bit_length() + d.bit_length()
    return -(-(n << s) // d), -s


def _mag_up(m: int, e: int) -> tuple[int, int]:
    """Upper bound of m 2^e with at most ERR_BITS + 1 bits."""
    n = m.bit_length() - ERR_BITS
    if n <= 0:
        return m, e
    return -(-m >> n), e + n


def _mag_down(m: int, e: int) -> tuple[int, int]:
    """Lower bound of m 2^e (m > 0) with exactly ERR_BITS bits."""
    n = m.bit_length() - ERR_BITS
    return (m >> n, e + n) if n >= 0 else (m << -n, e + n)


def _mag_add(m1: int, e1: int, m2: int, e2: int) -> tuple[int, int]:
    """Upper bound of m1 2^e1 + m2 2^e2."""
    if not m2:
        return _mag_up(m1, e1)
    if not m1:
        return _mag_up(m2, e2)
    b1, b2 = m1.bit_length(), m2.bit_length()
    if e1 + b1 < e2 + b2:
        m1, e1, b1, m2, e2, b2 = m2, e2, b2, m1, e1, b1
    if b1 < ERR_BITS:
        e1 -= ERR_BITS - b1
        m1 <<= ERR_BITS - b1
    d = e1 - e2
    if d >= b2:
        # the smaller term is below one unit in the last place of the larger
        return _mag_up(m1 + 1, e1)
    if d >= 0:
        return _mag_up((m1 << d) + m2, e2)
    return _mag_up(m1 + (m2 << -d), e1)


def _mag_div(m1: int, e1: int, m2: int, e2: int) -> tuple[int, int]:
    """Upper bound of (m1 2^e1) / (m2 2^e2), m2 > 0."""
    s = ERR_BITS + m2.bit_length() - m1.bit_length()
    if s >= 0:
        return -(-(m1 << s) // m2), e1 - e2 - s
    return -(-m1 // (m2 << -s)), e1 - e2 - s


_new = object.__new__


def _make(m: int, e: int, rm: int, re: int, prec: int) -> "ApproxReal":
    b = _new(ApproxReal)
    b.man = m
    b.exp = e
    b.rad = rm
    b.rexp = re
    b.prec = prec
    return b


def _rounded(m: int, e: int, rm: int, re: int, prec: int) -> "ApproxReal":
    """The ball with midpoint m 2^e rounded to nearest at prec + 1
    significant bits (as round_to_bits does) and radius rm 2^re widened by
    the rounding error."""
    n = m.bit_length() - prec - 1
    if n > 0:
        low = m & ((1 << n) - 1)
        m >>= n
        if low >> (n - 1):
            m += 1
            low = (1 << n) - low
        if low:
            rm, re = _mag_add(rm, re, low, e)
        e += n
    return _make(m, e, rm, re, prec)


class ApproxReal:
    """A dyadic ball: the true value lies in [value - err, value + err].

    The midpoint is man * 2^exp and the radius rad * 2^rexp, all ints; the
    radius keeps about ERR_BITS bits and is always rounded up. `prec` is the
    ball's working precision: an operation rounds its midpoint to nearest at
    the larger precision of its operands, and adds that rounding error to the
    radius. Ints and Fractions mixed into an operation count as exact balls
    at the other operand's precision (a non-dyadic Fraction is rounded
    first). Balls are never mutated after construction.
    """

    __slots__ = ("man", "exp", "rad", "rexp", "prec")

    def __init__(self, value: Fraction | int, err: Fraction | int, prec: int) -> None:
        require_precision(prec)
        value = Fraction(value)
        den = value.denominator
        if den & (den - 1):
            raise DomainError("a ball's midpoint must be dyadic")
        if err < 0:
            raise DomainError("negative error radius")
        self.man = value.numerator
        self.exp = 1 - den.bit_length()
        self.rad, self.rexp = _mag_of(Fraction(err))
        self.prec = prec

    # ---- constructors ----

    @staticmethod
    def exact(q: Fraction | int, prec: int) -> "ApproxReal":
        """The dyadic rational q as a ball of radius 0."""
        return ApproxReal(q, ZERO, prec)

    @staticmethod
    def from_rational(q: Fraction | int, prec: int) -> "ApproxReal":
        v, r = round_to_bits(Fraction(q), prec)
        return ApproxReal(v, r, prec)

    @staticmethod
    def from_bracket(lo: Fraction, hi: Fraction, prec: int) -> "ApproxReal":
        if hi < lo:
            raise DomainError("empty bracket")
        mid = (lo + hi) / 2
        v, r = round_to_bits(mid, prec)
        return ApproxReal(v, (hi - lo) / 2 + r, prec)

    # ---- views ----

    @property
    def value(self) -> Fraction:
        return _to_fraction(self.man, self.exp)

    @property
    def err(self) -> Fraction:
        return _to_fraction(self.rad, self.rexp)

    @property
    def lo(self) -> Fraction:
        return self.value - self.err

    @property
    def hi(self) -> Fraction:
        return self.value + self.err

    def contains(self, q: Fraction | int) -> bool:
        return self.lo <= q <= self.hi

    def decimal(self, places: int = 30) -> str:
        return frac_to_decimal(self.value, places)

    def __repr__(self) -> str:
        return f"ApproxReal({self.value!r}, {self.err!r}, {self.prec})"

    # ---- arithmetic ----

    def __neg__(self) -> "ApproxReal":
        return _make(-self.man, self.exp, self.rad, self.rexp, self.prec)

    def __abs__(self) -> "ApproxReal":
        return _make(abs(self.man), self.exp, self.rad, self.rexp, self.prec)

    def __add__(self, other: "ApproxReal | Fraction | int") -> "ApproxReal":
        return _add(self, _coerce(other, self.prec), False)

    __radd__ = __add__

    def __sub__(self, other: "ApproxReal | Fraction | int") -> "ApproxReal":
        return _add(self, _coerce(other, self.prec), True)

    def __rsub__(self, other: "ApproxReal | Fraction | int") -> "ApproxReal":
        return _add(_coerce(other, self.prec), self, True)

    def __mul__(self, other: "ApproxReal | Fraction | int") -> "ApproxReal":
        other = _coerce(other, self.prec)
        m1, e1, r1, f1, p1 = self.man, self.exp, self.rad, self.rexp, self.prec
        m2, e2, r2, f2, p2 = other.man, other.exp, other.rad, other.rexp, other.prec
        # |a| rb + |b| ra + ra rb
        rm = re = 0
        if r2:
            am, ae = _mag_up(abs(m1), e1)
            rm, re = _mag_up(am * r2, ae + f2)
        if r1:
            bm, be = _mag_up(abs(m2), e2)
            rm, re = _mag_add(rm, re, bm * r1, be + f1)
            if r2:
                rm, re = _mag_add(rm, re, r1 * r2, f1 + f2)
        return _rounded(m1 * m2, e1 + e2, rm, re, p1 if p1 >= p2 else p2)

    __rmul__ = __mul__

    def __truediv__(self, other: "ApproxReal | Fraction | int") -> "ApproxReal":
        other = _coerce(other, self.prec)
        m1, e1, r1, f1, p1 = self.man, self.exp, self.rad, self.rexp, self.prec
        m2, e2, r2, f2, p2 = other.man, other.exp, other.rad, other.rexp, other.prec
        prec = p1 if p1 >= p2 else p2
        if not m2:
            raise DomainError("division by a bracket containing zero")
        a, d = abs(m1), abs(m2)
        # a lower bound of |b| - rb, which must be positive
        lm, le = _mag_down(d, e2)
        if r2:
            if f2 + r2.bit_length() <= le:
                lm -= 1
            elif f2 >= le:
                lm -= r2 << (f2 - le)
            else:
                lm, le = (lm << (le - f2)) - r2, f2
            if lm <= 0:
                raise DomainError("division by a bracket containing zero")
        # midpoint quotient with prec + 1 or prec + 2 bits, rounded to nearest
        s = prec + 1 + d.bit_length() - a.bit_length()
        if s < 0:
            d <<= -s
        q, r = divmod(a << s if s > 0 else a, d)
        e = e1 - e2 - s
        # radius (ra + |a/b| rb) / (|b| - rb)
        rm = re = 0
        if r2:
            qm, qe = _mag_up(q + 1, e)
            rm, re = _mag_add(r1, f1, qm * r2, qe + f2)
            rm, re = _mag_div(rm, re, lm, le)
        elif r1:
            rm, re = _mag_div(r1, f1, lm, le)
        if r:
            if 2 * r >= d:
                q += 1
            rm, re = _mag_add(rm, re, 1, e - 1)
        if (m1 < 0) != (m2 < 0):
            q = -q
        return _make(q, e, rm, re, prec)

    def __rtruediv__(self, other: "ApproxReal | Fraction | int") -> "ApproxReal":
        return _coerce(other, self.prec) / self

    def sqrt(self) -> "ApproxReal":
        if self.lo < 0:
            raise DomainError("sqrt of a bracket extending below zero")
        lo, _ = sqrt_bounds(self.lo, self.prec)
        _, hi = sqrt_bounds(self.hi, self.prec)
        return ApproxReal.from_bracket(lo, hi, self.prec)

    def power(self, n: int) -> "ApproxReal":
        if n < 0:
            raise DomainError("negative powers not supported")
        out = _make(1, 0, 0, 0, self.prec)
        base = self
        e = n
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out


def _add(a: ApproxReal, b: ApproxReal, negate: bool) -> ApproxReal:
    """a + b, or a - b when `negate`."""
    m1, e1, p1 = a.man, a.exp, a.prec
    m2, e2, p2 = b.man, b.exp, b.prec
    if negate:
        m2 = -m2
    if e1 >= e2:
        m, e = (m1 << (e1 - e2)) + m2, e2
    else:
        m, e = m1 + (m2 << (e2 - e1)), e1
    rm, re = _mag_add(a.rad, a.rexp, b.rad, b.rexp)
    return _rounded(m, e, rm, re, p1 if p1 >= p2 else p2)


def _coerce(x: "ApproxReal | Fraction | int", prec: int) -> ApproxReal:
    if isinstance(x, ApproxReal):
        return x
    if isinstance(x, int):
        return _make(x, 0, 0, 0, prec)
    q = Fraction(x)
    den = q.denominator
    if den & (den - 1) == 0:
        return _make(q.numerator, 1 - den.bit_length(), 0, 0, prec)
    return ApproxReal.from_rational(q, prec)

# ---------------------------------------------------------------------------
# Harmonic numbers
# ---------------------------------------------------------------------------

class HarmonicCache:
    """Monotone, append-only cache of H(n) = sum_{k<=n} 1/k.

    Safe for concurrent reads once warmed; verification runs never evict.
    """

    def __init__(self) -> None:
        self._values: list[Fraction] = [ZERO]

    def harmonic(self, n: int) -> Fraction:
        if n < 0:
            raise DomainError("harmonic number needs n >= 0")
        vals = self._values
        while len(vals) <= n:
            m = len(vals)
            vals.append(vals[m - 1] + Fraction(1, m))
        return vals[n]

    def __len__(self) -> int:
        return len(self._values)


_cache = HarmonicCache()


def harmonic(n: int) -> Fraction:
    """H(n), exact, memoized in the shared cache."""
    return _cache.harmonic(n)


# ---------------------------------------------------------------------------
# Elementary tail brackets
# ---------------------------------------------------------------------------

def zeta2_tail_bracket(N: int) -> tuple[Fraction, Fraction]:
    """Integral-comparison bracket: 1/(N+1) <= sum_{n>N} 1/n^2 <= 1/N."""
    if N < 1:
        raise DomainError("tail bracket needs N >= 1")
    return Fraction(1, N + 1), Fraction(1, N)


# ---------------------------------------------------------------------------
# pi oracle (Machin arctangent series, independent of everything else)
# ---------------------------------------------------------------------------

def _atan_inv_bracket(m: int, eps: Fraction) -> tuple[Fraction, Fraction]:
    """Exact bracket for arctan(1/m) via the alternating Taylor series.

    Consecutive partial sums bracket the limit, so [min(S_T, S_{T+1}),
    max(S_T, S_{T+1})] is certified once the appended term is below eps.
    """
    s = ZERO
    term_num = Fraction(1, m)
    k = 0
    prev = s
    while True:
        prev = s
        t = term_num / (2 * k + 1)
        s = s + t if k % 2 == 0 else s - t
        if t <= eps and k > 0:
            break
        term_num /= m * m
        k += 1
    return (min(prev, s), max(prev, s))


def pi_oracle(precision_bits: int) -> ApproxReal:
    """pi to the requested precision via 16*atan(1/5) - 4*atan(1/239).

    The truncation error is the exact alternating-series bracket; the only
    other error is the final dyadic rounding, also exact.
    """
    require_precision(precision_bits)
    eps = Fraction(1, 1 << (precision_bits + 8))
    lo5, hi5 = _atan_inv_bracket(5, eps / 32)
    lo239, hi239 = _atan_inv_bracket(239, eps / 8)
    lo = 16 * lo5 - 4 * hi239
    hi = 16 * hi5 - 4 * lo239
    return ApproxReal.from_bracket(lo, hi, precision_bits)


# ---------------------------------------------------------------------------
# Bernoulli numbers and Euler-Maclaurin power-sum tails
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def bernoulli_even(count: int) -> tuple[Fraction, ...]:
    """(B_2, B_4, ..., B_{2 count}) from the integer tangent numbers T_i
    (Brent & Harvey, "Fast computation of Bernoulli, tangent and secant
    numbers", 2011): B_{2i} = (-1)^(i-1) 2i T_i / (4^i (4^i - 1))."""
    t = [0] + [math.factorial(m - 1) for m in range(1, count + 1)]
    for m in range(2, count + 1):
        for j in range(m, count + 1):
            t[j] = (j - m) * t[j - 1] + (j - m + 2) * t[j]
    return tuple(Fraction((-1) ** (m - 1) * 2 * m * t[m], 4 ** m * (4 ** m - 1))
                 for m in range(1, count + 1))


def power_sum_tail_bracket(N: int, j: int, em_terms: int = 6) -> tuple[Fraction, Fraction]:
    """Exact rational bracket for sum_{n>N} 1/n^(2j).

    Euler-Maclaurin at a = N+1, to depth m = em_terms:
        tail = 1/(2 a^(2j)) + sum_{i=0..m} c_i / a^(2j+2i-1) + R,
        c_i = B_{2i} C(2j+2i-2, 2i) / (2j-1), B_0 = 1,
    and since x^(-2j) is completely monotone the remainder R is bounded by
    the first omitted term c_{m+1} / a^(2j+2m+1) and shares its sign, so
    appending that term yields a two-sided bracket. The sum is taken on the
    common denominator D a^(2j+2m) by Horner's rule in a^2, and reduced once.
    """
    if N < 1 or j < 1 or em_terms < 0:
        raise DomainError("power_sum_tail_bracket needs N, j >= 1 and em_terms >= 0")
    a = N + 1
    u = a * a
    b = (ONE,) + bernoulli_even(em_terms + 1)
    c = [Fraction(math.comb(2 * j + 2 * i - 2, 2 * i), 2 * j - 1) * b[i]
         for i in range(em_terms + 2)]
    omit = c.pop() / a ** (2 * j + 2 * em_terms + 1)
    D = math.lcm(2, *(q.denominator for q in c))
    acc = 0
    for q in c:
        acc = acc * u + q.numerator * (D // q.denominator)
    s = Fraction(a * acc + (D // 2) * u ** em_terms, D * a ** (2 * j + 2 * em_terms))
    return (min(s, s + omit), max(s, s + omit))
