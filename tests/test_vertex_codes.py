"""The coded graph machine against the NamedTuple one it replaced.

The reference below is the V1/V2 implementation of the neighbour functions,
the vertex enumeration, the breadth-first closure and the alpha walk as they
stood before vertices were coded as index-set bitmasks. Every coded result,
decoded, must equal the reference's: the same partners, the same vertices
(a component's in canonical order), the same weight sums.
"""

import itertools
from fractions import Fraction

from hypothesis import given, strategies as st

from mzvfactor import bijection
from mzvfactor.bijection import (
    V1,
    V2,
    alpha_neighbors,
    alpha_walk,
    beta_neighbors,
    component,
    decode,
    encode,
    iter_vertices,
    weight,
)

# ---------------------------------------------------------------------------
# Reference: the NamedTuple graph machine
# ---------------------------------------------------------------------------


def _without(mu, x):
    return tuple(m for m in mu if m != x)


def _with(mu, x):
    return tuple(sorted(mu + (x,)))


def ref_alpha_neighbors(v, k):
    out = set()
    if isinstance(v, V1):
        if v.n in v.mu:
            out.add(V1(_without(v.mu, v.n), v.n))
        elif len(v.mu) + 1 <= k - 1:
            out.add(V1(_with(v.mu, v.n), v.n))
        return out
    j = len(v.mu)
    s1 = v.l1 in v.mu
    s2 = v.l2 in v.mu
    if not (not s1 and not s2 and j == k - 2):
        out.add(V2(v.mu, v.l1, v.l2, 3 - v.eps))
    if v.eps == 1:
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
        if s1 and s2:
            out.add(V2(_without(v.mu, v.l2), v.l1, v.l2, 1))
        elif s1 and not s2 and j + 1 <= k - 2:
            out.add(V2(_with(v.mu, v.l2), v.l1, v.l2, 1))
    return out


def ref_beta_neighbors(v, k, M):
    out = set()
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


def ref_iter_vertices(k, bound):
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


def _canonical_key(v):
    """The canonical vertex order: V1 before V2, then mu, then the integers."""
    if isinstance(v, V1):
        return (0, v.mu, v.n, 0)
    return (1, v.mu, v.l1, v.l2, v.eps)


def ref_closure(v, neighbors):
    """The vertices of the breadth-first closure of v, in canonical order."""
    seen, frontier = {v}, [v]
    while frontier:
        nxt = []
        for u in frontier:
            for w in neighbors(u):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return tuple(sorted(seen, key=_canonical_key))


def ref_component(v, kind, k, M=None):
    if kind == "alpha":
        verts = ref_closure(v, lambda u: ref_alpha_neighbors(u, k))
    else:
        verts = ref_closure(v, lambda u: ref_beta_neighbors(u, k, M))
    return verts, sum((weight(u, k) for u in verts), Fraction(0))


def ref_alpha_walk(k, bound):
    seen = set()
    for v in ref_iter_vertices(k, bound):
        if v in seen:
            continue
        verts, total = ref_component(v, "alpha", k)
        seen.update(verts)
        yield verts, total


# ---------------------------------------------------------------------------
# The coded machine against the reference
# ---------------------------------------------------------------------------


def _decoded(comp):
    """A component's codes, decoded, in the reference's canonical order."""
    return tuple(sorted(map(decode, comp.codes), key=_canonical_key))


def _coded_alpha(v, k):
    partners = alpha_neighbors(encode(v), k)
    assert len(set(partners)) == len(partners), (v, k)   # no repeats
    return set(map(decode, partners))


def _coded_beta(v, k, M):
    partners = beta_neighbors(encode(v), k, M)
    assert len(set(partners)) == len(partners), (v, k, M)
    return set(map(decode, partners))


@st.composite
def _vertices(draw, top=60):
    """A level k in 2..6 and a valid V1 or V2 at that level with entries <= top."""
    k = draw(st.integers(2, 6))
    entries = st.integers(1, top)
    if draw(st.booleans()):
        mu = tuple(sorted(draw(st.sets(entries, max_size=k - 1))))
        return k, V1(mu, draw(entries))
    mu = tuple(sorted(draw(st.sets(entries, max_size=k - 2))))
    l1, l2 = sorted(draw(st.sets(entries, min_size=2, max_size=2)))
    return k, V2(mu, l1, l2, draw(st.sampled_from((1, 2))))


def test_codes_round_trip_and_enumerate_in_the_reference_order():
    for k in range(2, 6):
        for bound in range(1, 9):
            vertices = list(ref_iter_vertices(k, bound))
            codes = list(iter_vertices(k, bound))
            assert list(map(decode, codes)) == vertices, (k, bound)
            assert list(map(encode, vertices)) == codes, (k, bound)


@given(_vertices())
def test_codes_round_trip_with_high_entries(case):
    k, v = case
    c = encode(v)
    assert decode(c) == v and type(decode(c)) is type(v)
    assert encode(decode(c)) == c
    assert c[0].bit_count() == len(v.mu)


def test_alpha_neighbours_match_the_reference():
    for k in range(2, 6):
        for v in ref_iter_vertices(k, 8):
            assert _coded_alpha(v, k) == ref_alpha_neighbors(v, k), (v, k)


def test_beta_neighbours_match_the_reference():
    for k in range(2, 6):
        for v in ref_iter_vertices(k, 8):
            for M in (1, 2, 5, 8, 12):
                assert _coded_beta(v, k, M) == ref_beta_neighbors(v, k, M), (v, k, M)


@given(_vertices(), st.integers(1, 64))
def test_neighbours_match_the_reference_with_high_entries(case, M):
    k, v = case
    assert _coded_alpha(v, k) == ref_alpha_neighbors(v, k)
    assert _coded_beta(v, k, M) == ref_beta_neighbors(v, k, M)


def test_every_alpha_component_matches_the_reference():
    for k in range(2, 6):
        for v in ref_iter_vertices(k, 6 if k < 5 else 5):
            comp = component(v, "alpha", k)
            assert (_decoded(comp), comp.weight_sum) == ref_component(v, "alpha", k), (v, k)


def test_every_beta_component_matches_the_reference():
    for k in range(2, 5):
        for v in ref_iter_vertices(k, 5):
            for M in (1, 3, 6):
                comp = component(v, "beta", k, M=M)
                assert (_decoded(comp), comp.weight_sum) == ref_component(v, "beta", k, M), (
                    v, k, M)


@given(_vertices(top=40), st.integers(1, 9))
def test_components_match_the_reference_with_high_entries(case, M):
    k, v = case
    comp = component(v, "alpha", k)
    assert (_decoded(comp), comp.weight_sum) == ref_component(v, "alpha", k)
    comp = component(v, "beta", k, M=M)
    assert (_decoded(comp), comp.weight_sum) == ref_component(v, "beta", k, M)


def test_alpha_walk_matches_the_reference_walk():
    for k, bound in ((2, 12), (3, 8), (4, 7), (5, 6)):
        walk = [(_decoded(c), c.weight_sum) for c in alpha_walk(k, bound)]
        assert walk == list(ref_alpha_walk(k, bound)), (k, bound)
        assert [_decoded(c) for c in bijection.alpha_components_up_to(k, bound)] == [
            verts for verts, _ in walk if len(verts) > 1]
