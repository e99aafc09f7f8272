"""Exact rational arithmetic, harmonic numbers, tail brackets, and a
self-contained high-precision pi oracle, Machin's formula summed on integers.

Everything here is certified: an ApproxReal is a dyadic ball, an integer
midpoint and an integer radius on one shared exponent, that is guaranteed
to contain the true real number. No floating point is used anywhere in the
package; "rounding" means explicit dyadic rounding at a precision the
caller passes, whose error bound is added to the radius, and the radius
itself is only ever rounded up, at GUARD_BITS below the midpoint's unit.
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
    """Exact decimal expansion of q truncated toward zero at `places` digits;
    one that ends sooner stops at its last digit (an integer at one 0)."""
    sign = "-" if q < 0 else ""
    ipart, rem = divmod(abs(q.numerator), q.denominator)
    if places <= 0:
        return f"{sign}{ipart}"
    digits, rest = divmod(rem * 10 ** places, q.denominator)
    frac = f"{digits:0{places}d}"
    return f"{sign}{ipart}.{frac if rest else frac.rstrip('0') or '0'}"


# The radius's bits below the midpoint's last place: each upward rounding
# of a radius costs 2^-GUARD_BITS of a unit (8 bits widen radii by >2^-10).
GUARD_BITS = 16
_new = object.__new__


def _make(m: int, r: int, e: int, prec: int) -> "ApproxReal":
    b = _new(ApproxReal)
    b.man = m
    b.rad = r
    b.exp = e
    b.prec = prec
    return b


def _ball(m: int, r: int, e: int, prec: int) -> "ApproxReal":
    """The ball with midpoint m 2^e rounded to nearest at prec + 1
    significant bits (as round_to_bits does) and radius r 2^(e - GUARD_BITS)
    widened by the rounding error and rounded up to the new unit."""
    # a zero midpoint is rounded at its radius, which would outgrow prec else
    n = (m.bit_length() or r.bit_length() - GUARD_BITS) - prec - 1
    if n > 0:
        low = m & ((1 << n) - 1)
        m >>= n
        if low >> (n - 1):
            m += 1
            low = (1 << n) - low
        r = -(-(r + (low << GUARD_BITS)) >> n)
        e += n
    return _make(m, r, e, prec)


class ApproxReal:
    """A dyadic ball: the true value lies in [value - err, value + err].

    The midpoint is man * 2^exp and the radius rad * 2^(exp - GUARD_BITS),
    all ints on one exponent; the radius is always rounded up. `prec` is
    the ball's working precision: an operation rounds its midpoint to
    nearest at the larger precision of its operands, and adds that rounding
    error to the radius. Ints and Fractions mixed into an operation count as
    exact balls at the other operand's precision (a non-dyadic Fraction is
    rounded first). Balls are never mutated after construction.
    """

    __slots__ = ("man", "rad", "exp", "prec")

    def __init__(self, value: Fraction | int, err: Fraction | int, prec: int) -> None:
        value, err = Fraction(value), Fraction(err)
        den = value.denominator
        if den & (den - 1):
            raise DomainError("a ball's midpoint must be dyadic")
        if err < 0:
            raise DomainError("negative error radius")
        e = 1 - den.bit_length()
        if err:
            # a unit small enough for the radius to keep ERR_BITS bits
            e = min(e, _floor_log2(err) - ERR_BITS + GUARD_BITS)
        self.man = value.numerator << (1 - den.bit_length() - e)
        self.rad = -(-(err.numerator << (GUARD_BITS - e)) // err.denominator)
        self.exp = e
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
        m, e = self.man, self.exp
        return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)

    @property
    def err(self) -> Fraction:
        r, e = self.rad, self.exp - GUARD_BITS
        return Fraction(r << e) if e >= 0 else Fraction(r, 1 << -e)

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
        return _make(-self.man, self.rad, self.exp, self.prec)

    def __abs__(self) -> "ApproxReal":
        return _make(abs(self.man), self.rad, self.exp, self.prec)

    def __add__(self, other: "ApproxReal | Fraction | int") -> "ApproxReal":
        return _add(self, _coerce(other, self.prec), False)

    __radd__ = __add__

    def __sub__(self, other: "ApproxReal | Fraction | int") -> "ApproxReal":
        return _add(self, _coerce(other, self.prec), True)

    def __rsub__(self, other: "ApproxReal | Fraction | int") -> "ApproxReal":
        return _add(_coerce(other, self.prec), self, True)

    def __mul__(self, other: "ApproxReal | Fraction | int") -> "ApproxReal":
        other = _coerce(other, self.prec)
        m1, r1, e1, p1 = self.man, self.rad, self.exp, self.prec
        m2, r2, e2, p2 = other.man, other.rad, other.exp, other.prec
        # |a| rb + |b| ra + ra rb
        r = abs(m1) * r2 + abs(m2) * r1
        if r1 and r2:
            r += -(-(r1 * r2) >> GUARD_BITS)
        return _ball(m1 * m2, r, e1 + e2, p1 if p1 >= p2 else p2)

    __rmul__ = __mul__

    def __truediv__(self, n: int) -> "ApproxReal":
        """The ball divided by an exact positive integer, the one divisor in
        use ((2k+1)! in the limit suites); any other raises DomainError."""
        if not isinstance(n, int) or n <= 0:
            raise DomainError("a ball is divided only by a positive integer")
        m, r, e, prec = self.man, self.rad, self.exp, self.prec
        a = abs(m)
        # midpoint quotient with prec + 1 or prec + 2 bits, rounded to nearest
        s = prec + 1 + n.bit_length() - a.bit_length()
        if s >= 0:
            a, r = a << s, r << s
        else:
            n <<= -s
        q, rem = divmod(a, n)
        # radius r / n in units of 2^(e - s - GUARD_BITS)
        r = -(-r // n)
        if rem:
            if 2 * rem >= n:
                q += 1
            r += 1 << (GUARD_BITS - 1)
        return _make(-q if m < 0 else q, r, e - s, prec)

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
        out = _make(1, 0, 0, self.prec)
        base = self
        e = n
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out


def _add(a: ApproxReal, b: ApproxReal, negate: bool) -> ApproxReal:
    """a + b, or a - b when `negate`, on the smaller of the two units."""
    m1, r1, e1, p1 = a.man, a.rad, a.exp, a.prec
    m2, r2, e2, p2 = b.man, b.rad, b.exp, b.prec
    if negate:
        m2 = -m2
    if e1 > e2:
        m1, r1, e1 = m1 << (e1 - e2), r1 << (e1 - e2), e2
    elif e2 > e1:
        m2, r2 = m2 << (e2 - e1), r2 << (e2 - e1)
    return _ball(m1 + m2, r1 + r2, e1, p1 if p1 >= p2 else p2)


def _coerce(x: "ApproxReal | Fraction | int", prec: int) -> ApproxReal:
    if isinstance(x, ApproxReal):
        return x
    if isinstance(x, int):
        return _make(x, 0, 0, prec)
    q = Fraction(x)
    den = q.denominator
    if den & (den - 1) == 0:
        return _make(q.numerator, 0, 1 - den.bit_length(), prec)
    return ApproxReal.from_rational(q, prec)

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
    < 3.8 b + 50 < 2^(b - precision_bits - 8) units of 2^-b; the final
    dyadic rounding is exact."""
    b = precision_bits + precision_bits.bit_length() + 16
    lo5, hi5 = _atan_inv(5, b)
    lo239, hi239 = _atan_inv(239, b)
    return ApproxReal.from_bracket(Fraction(16 * lo5 - 4 * hi239, 1 << b),
                                   Fraction(16 * hi5 - 4 * lo239, 1 << b), precision_bits)


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
