"""The level-k vertex universe, its weight function, the two edge systems,
component enumeration, and the exact residual identities that produce the
factorization (2k+1)(2k) zeta({2}^k) = zeta({2}^{k-1}) * 6 zeta(2).

Vertices come in two kinds:
  V1 (mu; n): an index set mu (strictly increasing, |mu| <= k-1) with a
      distinguished positive integer n;
  V2 (mu; l1, l2; eps): an index set (|mu| <= k-2), a pair l1 < l2, and a
      marker eps in {1, 2} selecting l_eps.

Distinctness counts how many distinguished integers avoid mu. Alpha edges
join vertices whose weights cancel in finite groups; beta edges join each
V1 vertex to the pair vertices carrying its integer, an infinite family
that cancels by harmonic telescoping. The vertices in no alpha component
reproduce (2k+1)(2k) zeta_N({2}^k) exactly at every truncation N; those in
no beta component reproduce 6 zeta_N({2}^{k-1}) zeta_N(2).

Alpha rule 2 (the eps flip) deliberately skips 2-distinct vertices with
|mu| = k-2: flipping eps there does not cancel (the pair sums to
8/(l1^2 l2^2) times the mu weight), and exactly those vertices must stay
edge-free for the residual identity to hold.

Inside, a vertex is a code, a plain tuple: (mask, n) for V1 and (mask, l1,
l2, eps) for V2, bit m of mask set iff m is in mu. The neighbour functions,
weight_term, iter_vertices, the classifiers, closures and the residual
identities work on codes, and a component is its codes. V1 and V2 remain
at the boundary: a vertex is validated once where it enters (a closure's
seed, weight()), and a component's codes are decoded only where a dump or a
counterexample writes them, by format_component. Codes built inside are
valid by construction and are not checked again.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from .numeric import (DEFAULT_PRECISION, ApproxReal, DomainError, ResourceError,
                      pi_oracle)
from .series import mzv_limit, mzv_row, mzv_truncated


class V1(NamedTuple):
    mu: tuple[int, ...]
    n: int


class V2(NamedTuple):
    mu: tuple[int, ...]
    l1: int
    l2: int
    eps: int


Vertex = Union[V1, V2]
Code = tuple[int, ...]   # (mask, n) or (mask, l1, l2, eps)


def _mask(mu: Iterable[int]) -> int:
    return sum(1 << m for m in mu)


@functools.lru_cache(maxsize=4096)
def _members(mask: int) -> tuple[int, ...]:
    return tuple(m for m in range(mask.bit_length()) if mask >> m & 1)


def encode(v: Vertex) -> Code:
    """The code of a valid V1 or V2."""
    return (_mask(v.mu), *v[1:])


def decode(c: Code) -> Vertex:
    """The V1 or V2 a code stands for, built without the NamedTuple's checks."""
    return tuple.__new__(V1 if len(c) == 2 else V2, (_members(c[0]), *c[1:]))


ALPHA_SAFETY_BOUND = 64

# The only size limits of the enumerations: a request over one is refused
# from a closed-form count before any weight is taken. CPU times on a shared
# 2-CPU Xeon host: a residual-identity weight took 0.6-0.7 us for k = 3..7
# at the largest N admitted; at k = 2 the common denominator grows with N,
# and a weight took 1.2 us at N = 500 and 3.8 us at N = 2000, the largest N
# admitted (30 s). A vertex took 0.5-4.4 us in the alpha walk (k = 2..6 at
# the largest bound admitted, 2.0-2.4M vertices, 9 s at most). A k = 2 beta
# hub vertex took 2.4-3.5 us at M = 300, 7-9 us at M = 1000 and 10-13 us at
# M = 1549, the largest hub admitted (24-31 s). At M = 1000 it took 12, 17,
# 17, 23 and 23 us at k = 3..7, and 23 us at k = 8, M = 979 (22 s), so a beta
# closure at level k is refused above VERTEX_CEILING * 4 / (k + 2) vertices.
RESIDUAL_WEIGHT_CEILING = 8_000_000
VERTEX_CEILING = 2_400_000


def _require_size(count: int, ceiling: int, what: str) -> None:
    if count > ceiling:
        raise ResourceError(f"{what}: {count} exceeds ceiling {ceiling}")


class StructuralFailure(AssertionError):
    """An enumerated object contradicts a structural claim (for instance an
    alpha closure that refuses to stay finite)."""


def validate_vertex(v: Vertex, k: int) -> None:
    if not isinstance(v, (V1, V2)):
        raise DomainError(f"not a vertex: {v!r}")
    mu = v.mu
    if mu and min(mu) <= 0:
        raise DomainError(f"index set entries must be positive: {mu}")
    if len(mu) > 1 and not all(map(operator.lt, mu, mu[1:])):
        raise DomainError(f"index set must be strictly increasing: {mu}")
    if isinstance(v, V1):
        if v.n <= 0:
            raise DomainError("V1 needs a positive distinguished integer")
        if len(v.mu) > k - 1:
            raise DomainError(f"V1 order {len(v.mu)} exceeds k-1 at level {k}")
        return
    if not 0 < v.l1 < v.l2:
        raise DomainError("V2 needs 0 < l1 < l2")
    if v.eps not in (1, 2):
        raise DomainError("eps must be 1 or 2")
    if len(v.mu) > k - 2:
        raise DomainError(f"V2 order {len(v.mu)} exceeds k-2 at level {k}")


def weight(v: Vertex, k: int) -> Fraction:
    """The weight t_k(v), exact."""
    validate_vertex(v, k)
    j = len(v.mu)
    p = Fraction(1, math.prod(v.mu) ** 2)
    if isinstance(v, V1):
        sign = -1 if j % 2 == 0 else 1
        return 6 * sign * p * Fraction(1, v.n ** (2 * (k - j)))
    sign = 1 if j % 2 == 0 else -1
    eps_sign = 1 if v.eps == 1 else -1
    le = v.l1 if v.eps == 1 else v.l2
    return Fraction(8 * sign * eps_sign, 1) * p / (
        le ** (2 * (k - j - 1)) * (v.l2 * v.l2 - v.l1 * v.l1))


# ---------------------------------------------------------------------------
# Integer weight-sum kernel
# ---------------------------------------------------------------------------

def weight_term(c: Code, k: int) -> tuple[int, int]:
    """t_k(c) * prod(mu)^2, the weight without its index-set factor, as an
    unreduced (signed numerator, positive denominator) pair of ints.

    The integer kernel's per-vertex entry point, on a coded vertex. c must
    be valid; it is not validated here.
    """
    j = c[0].bit_count()
    if len(c) == 2:
        return (6 if j % 2 else -6), c[1] ** (2 * (k - j))
    _, l1, l2, eps = c
    gap = l2 * l2 - l1 * l1
    if eps == 1:
        return (-8 if j % 2 else 8), l1 ** (2 * (k - j - 1)) * gap
    return (8 if j % 2 else -8), l2 ** (2 * (k - j - 1)) * gap


def _add_terms(terms: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """The sum of num/den over (num, den) pairs as an unreduced pair
    (total, D): D is the lcm of the denominators seen so far, and each
    numerator enters scaled by D // den. Nothing is reduced, and the terms
    are consumed as they come."""
    total, common = 0, 1
    for num, den in terms:
        scale, rest = divmod(common, den)
        if rest:
            grow = den // math.gcd(common, den)
            total *= grow
            common *= grow
            scale = common // den
        total += num * scale
    return total, common


def weight_sum(codes: Iterable[Code], k: int) -> Fraction:
    """The exact sum of t_k over valid coded vertices, reduced once at the end."""
    def terms():
        for c in codes:
            num, den = weight_term(c, k)
            yield num, den * math.prod(_members(c[0])) ** 2
    return Fraction(*_add_terms(terms()))


def _index_set_sum(groups: Iterable[tuple[tuple[int, ...], Iterable[Code]]],
                   k: int) -> Fraction:
    """The exact sum of t_k over groups (mu, vertices whose index set is mu):
    an integer sum over each group's vertices, times the group's factor
    1/prod(mu)^2, reduced once at the end. A group is consumed before the
    next is drawn. The vertices must be valid; they are not validated here."""
    def group_terms():
        for mu, codes in groups:
            total, den = _add_terms(weight_term(c, k) for c in codes)
            yield total, den * math.prod(mu) ** 2
    return Fraction(*_add_terms(group_terms()))


# ---------------------------------------------------------------------------
# Alpha edges
# ---------------------------------------------------------------------------

def alpha_neighbors(c: Code, k: int) -> list[Code]:
    """All alpha partners of the coded vertex c, without repeats.

    Rule 1 toggles n's membership in mu on V1 vertices. Rule 2 flips eps,
    except on 2-distinct vertices of top order k-2 (see module docstring).
    Rule 3 draws triangles on eps = 1 vertices (lam; a,b), (lam+a; a,b),
    (lam+b; a,b). Rule 4 toggles the larger pair element's membership on
    eps = 1 vertices that carry the smaller one.

    c must be valid; it is not validated here. Every partner of a valid
    vertex is valid.
    """
    mask = c[0]
    if len(c) == 2:
        bit = 1 << c[1]
        return [(mask ^ bit, c[1])] if mask & bit or mask.bit_count() < k - 1 else []

    _, l1, l2, eps = c
    b1, b2 = 1 << l1, 1 << l2
    s1, s2 = mask & b1, mask & b2
    room = mask.bit_count() < k - 2     # one more index fits
    out = []
    # rule 2
    if s1 or s2 or room:
        out.append((mask, l1, l2, 3 - eps))
    if eps == 1:
        # rule 3 triangles
        if not s1 and not s2:
            if room:
                out += [(mask | b1, l1, l2, 1), (mask | b2, l1, l2, 1)]
        elif not (s1 and s2):   # lam is mu without the one member
            lam, other = (mask ^ b1, b2) if s1 else (mask ^ b2, b1)
            out += [(lam, l1, l2, 1), (lam | other, l1, l2, 1)]
        # rule 4: membership toggle of l2 when l1 is present
        if s1 and (s2 or room):
            out.append((mask ^ b2, l1, l2, 1))
    return out


def is_alpha_residual(c: Code, k: int) -> bool:
    """The classified residual reading: 1-distinct V1 of order k-1 and
    2-distinct V2 of order k-2 carry no alpha edge."""
    mask = c[0]
    if len(c) == 2:
        return mask.bit_count() == k - 1 and not mask >> c[1] & 1
    return mask.bit_count() == k - 2 and not mask & ((1 << c[1]) | (1 << c[2]))


# ---------------------------------------------------------------------------
# Beta edges
# ---------------------------------------------------------------------------

def beta_neighbors(c: Code, k: int, M: int) -> list[Code]:
    """All beta partners of the coded vertex c with integer entries <= M,
    without repeats.

    A V1 vertex (mu; n) of order 1..k-2 joins every pair vertex that carries
    n in the marked slot; an order-0 vertex joins every empty-set pair vertex
    (the stated rule for the empty set really is that broad). Top order k-1
    carries no beta edge. V2 partners are the inverse images.

    c must be valid; it is not validated here. Every partner of a valid
    vertex is valid.
    """
    if M < 1:
        raise DomainError("beta_neighbors needs a positive bound M")
    mask = c[0]
    if len(c) == 2:
        n, j = c[1], mask.bit_count()
        if j > k - 2:
            return []
        if j == 0:
            return [(0, l1, l2, eps) for l1 in range(1, M + 1)
                    for l2 in range(l1 + 1, M + 1) for eps in (1, 2)]
        return ([(mask, l, n, 2) for l in range(1, min(n, M + 1))]
                + [(mask, n, l, 1) for l in range(n + 1, M + 1)])
    if not mask:
        return [(0, n) for n in range(1, M + 1)]
    return [(mask, c[1] if c[3] == 1 else c[2])]


def is_beta_residual(c: Code, k: int) -> bool:
    """Only V1 vertices of top order k-1 (either distinctness) lack beta edges."""
    return len(c) == 2 and c[0].bit_count() == k - 1


# ---------------------------------------------------------------------------
# Components
# ---------------------------------------------------------------------------

class WeightedComponent(NamedTuple):
    codes: tuple[Code, ...]   # in no particular order
    weight_sum: Fraction

    def size(self) -> int:
        return len(self.codes)


def beta_closure_size(v: Vertex, k: int, M: int) -> int:
    """The number of vertices of component(v, "beta", k, M), in closed form;
    v must be valid and M >= 1.

    A top-order V1 carries no beta edge. The empty-mu vertices form one hub
    component: the M order-0 V1 and the M(M-1) empty-mu pairs with entries
    <= M. Any other vertex lies in the star of V1(mu, c), c its n or its
    marked l: that centre and one pair per l <= M other than c. A seed
    with an entry beyond M joins its component as one extra vertex.
    """
    if isinstance(v, V1) and len(v.mu) == k - 1:
        return 1
    if not v.mu:
        if isinstance(v, V1):
            # at M = 1 there is no empty-mu pair to reach
            return M * M + (v.n > M) if M > 1 else 1
        return M * M + (v.l2 > M)
    if isinstance(v, V1):
        return 1 + M - (v.n <= M)
    centre, other = (v.l1, v.l2) if v.eps == 1 else (v.l2, v.l1)
    return 1 + M - (centre <= M) + (other > M)


def require_beta_size(v: Vertex, k: int, M: int) -> None:
    """Refuse the beta closure of v at bound M from its closed-form size,
    before any of it is built."""
    validate_vertex(v, k)
    if M < 1:
        raise DomainError("beta_neighbors needs a positive bound M")
    _require_size(beta_closure_size(v, k, M), VERTEX_CEILING * 4 // (k + 2),
                  f"beta closure of {format_vertex(v)} at k = {k}, M = {M}: vertices")


def _beta_neighbors_hub_once(k: int, M: int):
    """beta_neighbors for one closure, listing each hub's partners once.

    Every order-0 V1 has the same partners (all empty-mu pairs within M),
    and every empty-mu pair the same (all order-0 V1 within M). Once one
    member of a hub is expanded, the others add nothing new and are not
    expanded."""
    expanded = set()

    def neighbors(u: Code):
        if not u[0]:
            hub = len(u) == 2
            if hub in expanded:
                return ()
            expanded.add(hub)
        return beta_neighbors(u, k, M)
    return neighbors


def component(v: Vertex, kind: str, k: int, M: Optional[int] = None, *,
              partners: Optional[list[Code]] = None) -> WeightedComponent:
    """Breadth-first closure of v under the chosen edge system.

    Alpha closures must stay finite on their own; growing past
    ALPHA_SAFETY_BOUND vertices is reported as a structural failure, not
    truncated silently.
    Beta closures are truncated at entry bound M and refused from their
    closed-form size by require_beta_size. Only the seed v is validated.
    The search runs on codes and the component keeps them as found; the
    seed's partners, when the caller has listed them, are passed as
    `partners` and not listed again. The weight sum runs on the integer
    kernel.
    """
    if kind == "alpha":
        validate_vertex(v, k)
        neighbors = lambda u: alpha_neighbors(u, k)
    elif kind == "beta":
        if M is None:
            raise DomainError("beta closure needs a truncation bound M")
        require_beta_size(v, k, M)
        neighbors = _beta_neighbors_hub_once(k, M)
    else:
        raise DomainError(f"unknown edge system {kind!r}")
    seed = encode(v)
    frontier = list(neighbors(seed) if partners is None else partners)
    seen = {seed, *frontier}
    while frontier:
        if kind == "alpha" and len(seen) > ALPHA_SAFETY_BOUND:
            raise StructuralFailure(
                f"alpha closure of {v} exceeded {ALPHA_SAFETY_BOUND} vertices")
        nxt = []
        for u in frontier:
            for w in neighbors(u):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return WeightedComponent(tuple(seen), weight_sum(seen, k))


def iter_vertices(k: int, bound: int) -> Iterator[Code]:
    """Every vertex at level k with all integer entries <= bound, coded."""
    universe = range(1, bound + 1)
    for j in range(0, k):
        for mask in map(_mask, itertools.combinations(universe, j)):
            for n in universe:
                yield mask, n
    for j in range(0, k - 1):
        for mask in map(_mask, itertools.combinations(universe, j)):
            for l1 in universe:
                for l2 in range(l1 + 1, bound + 1):
                    yield mask, l1, l2, 1
                    yield mask, l1, l2, 2


def vertex_count(k: int, bound: int) -> int:
    """The number of vertices iter_vertices(k, bound) yields."""
    index_sets = [math.comb(bound, j) for j in range(k)]
    return (sum(index_sets) * bound
            + sum(index_sets[:k - 1]) * 2 * math.comb(bound, 2))


def require_alpha_size(k: int, bound: int) -> None:
    """Refuse the alpha walk at (k, bound) from its vertex count, before any
    closure is built."""
    if k < 2 or bound < 1:
        raise DomainError("alpha components need k >= 2 and bound >= 1")
    _require_size(vertex_count(k, bound), VERTEX_CEILING,
                  f"alpha components at k = {k}, bound {bound}: vertices")


def alpha_walk(k: int, bound: int, singletons: bool = True) -> Iterator[WeightedComponent]:
    """Every alpha component touching vertices with entries <= bound, once
    each, in the order iter_vertices first reaches it. The size check runs
    at the first step, before any vertex. A vertex without alpha partners is
    its own component, weighed directly, or skipped unweighed when
    singletons is false; only the others run the closure search."""
    require_alpha_size(k, bound)
    seen: set[Code] = set()   # vertices of components already yielded, not yet reached
    for c in iter_vertices(k, bound):
        if c in seen:
            seen.remove(c)
            continue
        partners = alpha_neighbors(c, k)
        if partners:
            comp = component(decode(c), "alpha", k, partners=partners)
            seen.update(u for u in comp.codes if u != c)   # c is not reached again
            yield comp
        elif singletons:
            yield WeightedComponent((c,), weight_sum((c,), k))


def alpha_components_up_to(k: int, bound: int) -> list[WeightedComponent]:
    """All distinct alpha components touching vertices with entries <= bound,
    singletons excluded."""
    return list(alpha_walk(k, bound, singletons=False))


def residual_classification_consistent(k: int, bound: int) -> bool:
    """Exhaustively confirm, for entries <= bound: no alpha edges <=>
    classified alpha-residual, no beta edges <=> classified beta-residual,
    and every alpha edge is listed from both of its ends."""
    unanswered = set()   # alpha edges (u, w) listed from u and not yet from w
    for c in iter_vertices(k, bound):
        partners = alpha_neighbors(c, k)
        if (len(partners) == 0) != is_alpha_residual(c, k):
            return False
        if (len(beta_neighbors(c, k, bound)) == 0) != is_beta_residual(c, k):
            return False
        for u in partners:
            if (u, c) in unanswered:
                unanswered.remove((u, c))
            else:
                unanswered.add((c, u))
    return not unanswered


# ---------------------------------------------------------------------------
# Residual identities
# ---------------------------------------------------------------------------

def require_residual_size(kind: str, k: int, N: int) -> None:
    """Refuse the alpha or beta residual identity at (k, N) from the number
    of weights it takes, before any is taken."""
    if k < 2:
        raise DomainError("needs k >= 2")
    index_sets = math.comb(N, k - 1)
    # alpha: C(N, k-1)(N-k+1) V1 with n outside mu, and k-1 times as many V2
    # (l1 < l2 outside mu, two markers each); beta: every n with every mu
    count = k * (N - k + 1) * index_sets if kind == "alpha" else N * index_sets
    _require_size(count, RESIDUAL_WEIGHT_CEILING,
                  f"{kind} residual identity at k = {k}, N = {N}: weights")


def alpha_residual_identity(k: int, N: int) -> tuple[Fraction, Fraction]:
    """lhs = (-1)^k sum of weights over alpha-residual vertices with entries
    <= N; rhs = (2k+1)(2k) zeta_N({2}^k). Returns both; they must be equal."""
    require_residual_size("alpha", k, N)
    universe = range(1, N + 1)

    def groups():
        for mu in itertools.combinations(universe, k - 1):
            mask = _mask(mu)
            yield mu, ((mask, n) for n in universe if not mask >> n & 1)
        for mu in itertools.combinations(universe, k - 2):
            mask = _mask(mu)
            rest = [n for n in universe if not mask >> n & 1]
            yield mu, ((mask, l1, l2, eps)
                       for l1, l2 in itertools.combinations(rest, 2) for eps in (1, 2))

    sign = 1 if k % 2 == 0 else -1
    lhs = sign * _index_set_sum(groups(), k)
    rhs = (2 * k + 1) * (2 * k) * mzv_truncated(N, k)
    return lhs, rhs


def beta_residual_identity(k: int, N: int) -> tuple[Fraction, Fraction]:
    """lhs = (-1)^k sum over beta-residual vertices (order k-1, every n <= N);
    rhs = 6 zeta_N({2}^{k-1}) zeta_N(2), both factors from one mzv_row."""
    require_residual_size("beta", k, N)
    universe = range(1, N + 1)
    groups = ((mu, ((mask, n) for n in universe))
              for mu in itertools.combinations(universe, k - 1) for mask in [_mask(mu)])
    sign = 1 if k % 2 == 0 else -1
    lhs = sign * _index_set_sum(groups, k)
    row = mzv_row(N, k - 1)
    rhs = 6 * row[k - 1] * row[1]
    return lhs, rhs


def multiplicity_identity(k: int) -> bool:
    """6k + 8 C(k,2) = (2k+1)(2k), the count matching residual patterns to
    the factorization coefficient."""
    return 6 * k + 8 * math.comb(k, 2) == (2 * k + 1) * (2 * k)


# ---------------------------------------------------------------------------
# Certified factorization at the limit
# ---------------------------------------------------------------------------

def factorization_check(k_max: int, precision_bits: int
                        ) -> list[tuple[ApproxReal, ApproxReal, ApproxReal, ApproxReal]]:
    """For k = 1..k_max, the certified values (lhs, rhs, mzv, closed_form):
    lhs = (2k+1)(2k) zeta({2}^k), rhs = zeta({2}^{k-1}) * 6 zeta(2),
    mzv = zeta({2}^k), closed_form = pi^(2k)/(2k+1)! from the independent oracle.

    Every limit zeta({2}^j), j = 0..k_max, comes from one certified row,
    one mzv_limit call at k_max; the integer factors are exact, and the one
    product of two limits rounds on the row's unit. The oracle takes no
    less than DEFAULT_PRECISION bits, so a low requested precision widens
    only the limits.
    """
    z = mzv_limit(k_max, precision_bits)
    pi = pi_oracle(max(precision_bits, DEFAULT_PRECISION))
    levels = []
    for k in range(1, k_max + 1):
        lhs = (2 * k + 1) * (2 * k) * z[k]
        rhs = 6 * z[k - 1] * z[1]
        closed = pi.power(2 * k) / math.factorial(2 * k + 1)
        levels.append((lhs, rhs, z[k], closed))
    return levels


# ---------------------------------------------------------------------------
# Component dump format
# ---------------------------------------------------------------------------

def format_vertex(v: Vertex) -> str:
    mu = "[" + ",".join(str(m) for m in v.mu) + "]"
    if isinstance(v, V1):
        return f"V1 mu={mu} n={v.n}"
    return f"V2 mu={mu} l1={v.l1} l2={v.l2} eps={v.eps}"


def format_component(c: WeightedComponent) -> str:
    """The component's vertices, decoded, in canonical order: V1 before V2,
    each kind in its own tuple order; then its weight sum."""
    lines = [format_vertex(v) for v in sorted(map(decode, c.codes), key=lambda v: (len(v), v))]
    lines.append(f"sum={c.weight_sum.numerator}/{c.weight_sum.denominator}")
    return "\n".join(lines) + "\n"
