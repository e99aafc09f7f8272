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

A vertex is validated once, where it enters from outside this module (a
closure's seed, weight()); the vertices that iter_vertices, a residual
identity or a neighbour function builds are valid by construction and are
not checked again.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
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

ALPHA_SAFETY_BOUND = 64

# The only size limits of the enumerations: a request over one is refused
# from a closed-form count before any weight is taken. Each is about 60 s
# of CPU time on a 2.0 GHz Xeon core. A residual-identity weight took
# 2.0-2.7 us for k = 3..7; at k = 2 the common denominator grows with N,
# and a weight took 3.2 us at N = 500 and 7.35 us at N = 2000, the largest
# N admitted (59 s). A vertex took 12-15 us in the alpha walk (k = 2..6, up
# to 1.62M vertices) and, in the k = 2 beta hub, 7.5 us at M = 300 to
# 17 us at M = 1000, rising about linearly to some 24.5 us at M = 1549,
# the largest hub admitted at k = 2. At M = 1000 a hub vertex took 16.8,
# 20.7, 24.2, 27.3, 29.5, 34.5 and 36.5 us at k = 2..8, at most (k + 2)/4
# times the cost at k = 2, so a beta closure at level k is refused above
# VERTEX_CEILING * 4 / (k + 2) vertices.
RESIDUAL_WEIGHT_CEILING = 8_000_000
VERTEX_CEILING = 2_400_000


def _require_size(count: int, ceiling: int, what: str) -> None:
    if count > ceiling:
        raise ResourceError(f"{what}: {count} exceeds ceiling {ceiling}")


class StructuralFailure(AssertionError):
    """An enumerated object contradicts a structural claim (for instance an
    alpha closure that refuses to stay finite)."""


def _check_mu(mu: tuple[int, ...]) -> None:
    if mu and min(mu) <= 0:
        raise DomainError(f"index set entries must be positive: {mu}")
    if len(mu) > 1 and not all(map(operator.lt, mu, mu[1:])):
        raise DomainError(f"index set must be strictly increasing: {mu}")


def validate_vertex(v: Vertex, k: int) -> None:
    if not isinstance(v, (V1, V2)):
        raise DomainError(f"not a vertex: {v!r}")
    _check_mu(v.mu)
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


def _mu_square_product(mu: tuple[int, ...]) -> Fraction:
    acc = Fraction(1)
    for m in mu:
        acc /= m * m
    return acc


def weight(v: Vertex, k: int) -> Fraction:
    """The weight t_k(v), exact."""
    validate_vertex(v, k)
    j = len(v.mu)
    p = _mu_square_product(v.mu)
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

def weight_term(v: Vertex, k: int) -> tuple[int, int]:
    """t_k(v) * prod(mu)^2, the weight without its index-set factor, as an
    unreduced (signed numerator, positive denominator) pair of ints.

    The integer kernel's per-vertex entry point. v must be valid; it is
    not validated here.
    """
    j = len(v.mu)
    if isinstance(v, V1):
        return (6 if j % 2 else -6), v.n ** (2 * (k - j))
    gap = v.l2 * v.l2 - v.l1 * v.l1
    if v.eps == 1:
        return (-8 if j % 2 else 8), v.l1 ** (2 * (k - j - 1)) * gap
    return (8 if j % 2 else -8), v.l2 ** (2 * (k - j - 1)) * gap


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


def weight_sum(vertices: Iterable[Vertex], k: int) -> Fraction:
    """The exact sum of t_k over valid vertices, reduced once at the end."""
    def terms():
        for v in vertices:
            num, den = weight_term(v, k)
            yield num, den * math.prod(v.mu) ** 2
    return Fraction(*_add_terms(terms()))


def _index_set_sum(groups: Iterable[tuple[tuple[int, ...], Iterable[Vertex]]],
                   k: int) -> Fraction:
    """The exact sum of t_k over groups (mu, vertices whose index set is mu):
    an integer sum over each group's vertices, times the group's factor
    1/prod(mu)^2, reduced once at the end. A group is consumed before the
    next is drawn. The vertices must be valid; they are not validated here."""
    def group_terms():
        for mu, vertices in groups:
            total, den = _add_terms(weight_term(v, k) for v in vertices)
            yield total, den * math.prod(mu) ** 2
    return Fraction(*_add_terms(group_terms()))


# ---------------------------------------------------------------------------
# Alpha edges
# ---------------------------------------------------------------------------

def _without(mu: tuple[int, ...], x: int) -> tuple[int, ...]:
    return tuple(m for m in mu if m != x)


def _with(mu: tuple[int, ...], x: int) -> tuple[int, ...]:
    return tuple(sorted(mu + (x,)))


def alpha_neighbors(v: Vertex, k: int) -> set[Vertex]:
    """All alpha partners of v.

    Rule 1 toggles n's membership in mu on V1 vertices. Rule 2 flips eps,
    except on 2-distinct vertices of top order k-2 (see module docstring).
    Rule 3 draws triangles on eps = 1 vertices (lam; a,b), (lam+a; a,b),
    (lam+b; a,b). Rule 4 toggles the larger pair element's membership on
    eps = 1 vertices that carry the smaller one.

    v must be valid; it is not validated here. Every partner of a valid
    vertex is valid.
    """
    out: set[Vertex] = set()
    if isinstance(v, V1):
        if v.n in v.mu:
            out.add(V1(_without(v.mu, v.n), v.n))
        elif len(v.mu) + 1 <= k - 1:
            out.add(V1(_with(v.mu, v.n), v.n))
        return out

    j = len(v.mu)
    s1 = v.l1 in v.mu
    s2 = v.l2 in v.mu
    # rule 2
    if not (not s1 and not s2 and j == k - 2):
        out.add(V2(v.mu, v.l1, v.l2, 3 - v.eps))
    if v.eps == 1:
        # rule 3 triangles
        if not s1 and not s2:
            if j + 1 <= k - 2:
                out.add(V2(_with(v.mu, v.l1), v.l1, v.l2, 1))
                out.add(V2(_with(v.mu, v.l2), v.l1, v.l2, 1))
        elif s1 and not s2:
            lam = _without(v.mu, v.l1)
            out.add(V2(lam, v.l1, v.l2, 1))
            out.add(V2(_with(lam, v.l2), v.l1, v.l2, 1))
        elif s2 and not s1:
            lam = _without(v.mu, v.l2)
            out.add(V2(lam, v.l1, v.l2, 1))
            out.add(V2(_with(lam, v.l1), v.l1, v.l2, 1))
        # rule 4: membership toggle of l2 when l1 is present
        if s1 and s2:
            out.add(V2(_without(v.mu, v.l2), v.l1, v.l2, 1))
        elif s1 and not s2 and j + 1 <= k - 2:
            out.add(V2(_with(v.mu, v.l2), v.l1, v.l2, 1))
    return out


def is_alpha_residual(v: Vertex, k: int) -> bool:
    """The classified residual reading: 1-distinct V1 of order k-1 and
    2-distinct V2 of order k-2 carry no alpha edge."""
    if isinstance(v, V1):
        return len(v.mu) == k - 1 and v.n not in v.mu
    return len(v.mu) == k - 2 and v.l1 not in v.mu and v.l2 not in v.mu


# ---------------------------------------------------------------------------
# Beta edges
# ---------------------------------------------------------------------------

def beta_neighbors(v: Vertex, k: int, M: int) -> set[Vertex]:
    """All beta partners of v with integer entries <= M.

    A V1 vertex (mu; n) of order 1..k-2 joins every pair vertex that carries
    n in the marked slot; an order-0 vertex joins every empty-set pair vertex
    (the stated rule for the empty set really is that broad). Top order k-1
    carries no beta edge. V2 partners are the inverse images.

    v must be valid; it is not validated here. Every partner of a valid
    vertex is valid.
    """
    if M < 1:
        raise DomainError("beta_neighbors needs a positive bound M")
    out: set[Vertex] = set()
    if isinstance(v, V1):
        j = len(v.mu)
        if j == 0:
            if k >= 2:
                for l1 in range(1, M + 1):
                    for l2 in range(l1 + 1, M + 1):
                        out.add(V2((), l1, l2, 1))
                        out.add(V2((), l1, l2, 2))
        elif j <= k - 2:
            for l in range(1, M + 1):
                if l == v.n:
                    continue
                if l > v.n:
                    out.add(V2(v.mu, v.n, l, 1))
                else:
                    out.add(V2(v.mu, l, v.n, 2))
        return out
    if len(v.mu) == 0:
        return {V1((), n) for n in range(1, M + 1)}
    le = v.l1 if v.eps == 1 else v.l2
    return {V1(v.mu, le)}


def is_beta_residual(v: Vertex, k: int) -> bool:
    """Only V1 vertices of top order k-1 (either distinctness) lack beta edges."""
    return isinstance(v, V1) and len(v.mu) == k - 1


# ---------------------------------------------------------------------------
# Components
# ---------------------------------------------------------------------------

def _vertex_key(v: Vertex):
    if isinstance(v, V1):
        return (0, v.mu, v.n, 0)
    return (1, v.mu, v.l1, v.l2, v.eps)


@dataclass(frozen=True)
class WeightedComponent:
    kind: str                      # "alpha" | "beta"
    k: int
    vertices: tuple[Vertex, ...]   # sorted by the canonical key
    weight_sum: Fraction

    def size(self) -> int:
        return len(self.vertices)


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

    def neighbors(u: Vertex):
        if not u.mu:
            hub = isinstance(u, V1)
            if hub in expanded:
                return ()
            expanded.add(hub)
        return beta_neighbors(u, k, M)
    return neighbors


def component(v: Vertex, kind: str, k: int, M: Optional[int] = None) -> WeightedComponent:
    """Breadth-first closure of v under the chosen edge system.

    Alpha closures must stay finite on their own; growing past
    ALPHA_SAFETY_BOUND vertices is reported as a structural failure, not
    truncated silently.
    Beta closures are truncated at entry bound M and refused from their
    closed-form size by require_beta_size. Only the seed v is validated:
    every other vertex the search reaches is a partner of a valid vertex,
    valid by construction. The weight sum runs on the integer kernel.
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
    seen = {v}
    frontier = [v]
    while frontier:
        nxt = []
        for u in frontier:
            for w in neighbors(u):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
        if kind == "alpha" and len(seen) > ALPHA_SAFETY_BOUND:
            raise StructuralFailure(
                f"alpha closure of {v} exceeded {ALPHA_SAFETY_BOUND} vertices")
    verts = tuple(sorted(seen, key=_vertex_key))
    return WeightedComponent(kind=kind, k=k, vertices=verts,
                             weight_sum=weight_sum(verts, k))


def iter_vertices(k: int, bound: int) -> Iterator[Vertex]:
    """Every vertex at level k with all integer entries <= bound."""
    universe = range(1, bound + 1)
    for j in range(0, k):
        for mu in itertools.combinations(universe, j):
            for n in universe:
                yield V1(mu, n)
    for j in range(0, k - 1):
        for mu in itertools.combinations(universe, j):
            for l1 in universe:
                for l2 in range(l1 + 1, bound + 1):
                    yield V2(mu, l1, l2, 1)
                    yield V2(mu, l1, l2, 2)


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


def alpha_walk(k: int, bound: int) -> Iterator[WeightedComponent]:
    """Every alpha component touching vertices with entries <= bound, once
    each and singletons included, in the order iter_vertices first reaches
    it. The size check runs at the first step, before any vertex. A vertex
    without alpha partners is its own component, weighed directly; only the
    others run the closure search."""
    require_alpha_size(k, bound)
    seen: set[Vertex] = set()
    for v in iter_vertices(k, bound):
        if v in seen:
            continue
        if not alpha_neighbors(v, k):
            num, den = weight_term(v, k)
            yield WeightedComponent("alpha", k, (v,), Fraction(num, den * math.prod(v.mu) ** 2))
            continue
        comp = component(v, "alpha", k)
        seen.update(comp.vertices)
        yield comp


def alpha_components_up_to(k: int, bound: int) -> list[WeightedComponent]:
    """All distinct alpha components touching vertices with entries <= bound,
    singletons excluded, deduplicated by canonical key."""
    return [c for c in alpha_walk(k, bound) if c.size() > 1]


def residual_classification_consistent(k: int, bound: int) -> bool:
    """Exhaustively confirm: no alpha edges <=> classified alpha-residual,
    and no beta edges <=> classified beta-residual, for entries <= bound."""
    for v in iter_vertices(k, bound):
        if (len(alpha_neighbors(v, k)) == 0) != is_alpha_residual(v, k):
            return False
        if (len(beta_neighbors(v, k, bound)) == 0) != is_beta_residual(v, k):
            return False
    return True


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
            yield mu, (V1(mu, n) for n in universe if n not in mu)
        for mu in itertools.combinations(universe, k - 2):
            rest = [n for n in universe if n not in mu]
            yield mu, (V2(mu, l1, l2, eps)
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
    groups = ((mu, (V1(mu, n) for n in universe))
              for mu in itertools.combinations(universe, k - 1))
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
    lines = [format_vertex(v) for v in c.vertices]
    lines.append(f"sum={c.weight_sum.numerator}/{c.weight_sum.denominator}")
    return "\n".join(lines) + "\n"
