"""Dense univariate polynomials over exact rationals (coefficient lists,
index = degree). Just enough machinery for expanding, differentiating and
comparing the truncated products."""

from __future__ import annotations

from fractions import Fraction

from .numeric import ZERO

Poly = list[Fraction]


def poly_trim(p: Poly) -> Poly:
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def poly_add(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    out = [ZERO] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return poly_trim(out)


def poly_mul(a: Poly, b: Poly) -> Poly:
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return poly_trim(out)


def poly_diff(a: Poly) -> Poly:
    if len(a) <= 1:
        return [ZERO]
    return poly_trim([a[i] * i for i in range(1, len(a))])


def poly_divexact(a: Poly, b: Poly) -> Poly:
    """Exact division; raises if b does not divide a."""
    a = list(a)
    out = [ZERO] * (len(a) - len(b) + 1)
    for i in range(len(out) - 1, -1, -1):
        q = a[i + len(b) - 1] / b[-1]
        out[i] = q
        if q != 0:
            for j, cb in enumerate(b):
                a[i + j] -= q * cb
    if any(c != 0 for c in a):
        raise ValueError("polynomial division is not exact")
    return poly_trim(out)


def poly_eq(a: Poly, b: Poly) -> bool:
    return poly_trim(list(a)) == poly_trim(list(b))
