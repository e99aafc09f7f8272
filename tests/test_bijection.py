"""Vertex weights, edge rules, components, and the residual identities."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mzvfactor import bijection
from mzvfactor.bijection import (
    V1,
    V2,
    WeightedComponent,
    alpha_components_up_to,
    alpha_neighbors,
    alpha_residual_identity,
    beta_closure_size,
    beta_neighbors,
    beta_residual_identity,
    component,
    decode,
    encode,
    factorization_check,
    format_component,
    format_vertex,
    is_alpha_residual,
    is_beta_residual,
    iter_vertices,
    multiplicity_identity,
    residual_classification_consistent,
    validate_vertex,
    weight,
    weight_sum,
)
from mzvfactor.numeric import DomainError, ResourceError
from mzvfactor.series import mzv_truncated, zeta_even_truncated


def _random_vertex(rng, k, bound):
    j_cap = k - 1 if rng.random() < 0.5 else k - 2
    if j_cap == k - 1:
        mu = tuple(sorted(rng.sample(range(1, bound + 1), rng.randint(0, k - 1))))
        return V1(mu, rng.randint(1, bound))
    j = rng.randint(0, max(0, k - 2))
    mu = tuple(sorted(rng.sample(range(1, bound + 1), j)))
    l1 = rng.randint(1, bound - 1)
    l2 = rng.randint(l1 + 1, bound)
    return V2(mu, l1, l2, rng.choice((1, 2)))


def _alpha(v, k):
    """alpha_neighbors through the code adapters: the partners of V1/V2 v as
    a set of V1/V2."""
    return set(map(decode, alpha_neighbors(encode(v), k)))


def _beta(v, k, M):
    """beta_neighbors through the code adapters."""
    return set(map(decode, beta_neighbors(encode(v), k, M)))


def _canonical_key(v):
    """The canonical vertex order: V1 before V2, then mu, then the integers."""
    if isinstance(v, V1):
        return (0, v.mu, v.n, 0)
    return (1, v.mu, v.l1, v.l2, v.eps)


def _decoded(comp):
    """A component's codes, decoded, in canonical order."""
    return tuple(sorted(map(decode, comp.codes), key=_canonical_key))


def weight_form_alt(v, k):
    """The 4(...) display of the pair weight, the cross-check of weight()."""
    validate_vertex(v, k)
    j = len(v.mu)
    p = Fraction(1, math.prod(v.mu) ** 2)
    sign = 1 if j % 2 == 0 else -1
    eps_sign = 1 if v.eps == 1 else -1
    le = v.l1 if v.eps == 1 else v.l2
    return (4 * sign * p / Fraction(le ** (2 * (k - j) - 1))
            * (Fraction(eps_sign, v.l2 - v.l1) - Fraction(1, v.l1 + v.l2)))


def abs_weight_sum_bound(k, j, M):
    """(v1_abs_sum, v1_bound, v2_abs_sum, v2_bound): the sums of |t_k| over
    the order-j V1 and V2 vertices with entries <= M, and the displayed
    absolute-convergence bounds instantiated at the truncation,
    6 zeta_M({2}^j) zeta_M(2(k-j)) for V1 and
    16 zeta_M({2}^j) zeta_M(2) zeta_M(2(k-j-1)) for V2 (both V2 values are
    0 at the top order j = k-1, which has no V2 vertex). Each sum must stay
    below its bound."""
    universe = range(1, M + 1)
    zmj = mzv_truncated(M, j) if j else Fraction(1)
    v1 = Fraction(0)
    for mu in itertools.combinations(universe, j):
        for n in universe:
            v1 += abs(weight(V1(mu, n), k))
    v1_bound = 6 * zmj * zeta_even_truncated(M, k - j)
    v2 = Fraction(0)
    v2_bound = Fraction(0)
    if j <= k - 2:
        for mu in itertools.combinations(universe, j):
            for l1 in universe:
                for l2 in range(l1 + 1, M + 1):
                    v2 += abs(weight(V2(mu, l1, l2, 1), k))
                    v2 += abs(weight(V2(mu, l1, l2, 2), k))
        v2_bound = (16 * zmj * zeta_even_truncated(M, 1)
                    * zeta_even_truncated(M, k - j - 1))
    return v1, v1_bound, v2, v2_bound


def test_weight_examples():
    assert weight(V1((), 1), 2) == -6
    assert weight(V2((), 1, 2, 1), 2) == Fraction(8, 3)
    # the eps flip moves the power onto l2 as well as flipping the sign
    assert weight(V2((), 1, 2, 2), 2) == Fraction(-2, 3)
    # residual pair sum: (-1)^k (t1 + t2) = 8/(l1^2 l2^2)
    pair = weight(V2((), 1, 2, 1), 2) + weight(V2((), 1, 2, 2), 2)
    assert pair == Fraction(8, 1 * 4)


def test_weight_rejects_malformed_vertices():
    with pytest.raises(DomainError):
        weight(V1((2, 1), 3), 4)
    with pytest.raises(DomainError):
        weight(V2((), 3, 3, 1), 4)
    with pytest.raises(DomainError):
        weight(V1((1, 2, 3), 4), 3)  # order k-1 exceeded


def test_weight_form_consistency_examples():
    for v, k in ((V2((), 1, 2, 1), 2), (V2((), 1, 3, 2), 2), (V2((5,), 2, 7, 1), 4)):
        assert weight(v, k) == weight_form_alt(v, k)


def test_weight_form_consistency_random():
    rng = random.Random(7)
    for _ in range(10 ** 4):
        k = rng.randint(2, 6)
        j = rng.randint(0, k - 2)
        mu = tuple(sorted(rng.sample(range(1, 30), j)))
        l1 = rng.randint(1, 25)
        l2 = l1 + rng.randint(1, 10)
        v = V2(mu, l1, l2, rng.choice((1, 2)))
        assert weight(v, k) == weight_form_alt(v, k)


@st.composite
def _levelled_vertices(draw, top=60):
    """A level k in 2..6 and a list of valid V1 and V2 vertices at that
    level with entries <= top."""
    k = draw(st.integers(2, 6))
    entries = st.integers(1, top)
    vertices = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.booleans()):
            mu = tuple(sorted(draw(st.sets(entries, max_size=k - 1))))
            vertices.append(V1(mu, draw(entries)))
        else:
            mu = tuple(sorted(draw(st.sets(entries, max_size=k - 2))))
            l1, l2 = sorted(draw(st.sets(entries, min_size=2, max_size=2)))
            vertices.append(V2(mu, l1, l2, draw(st.sampled_from((1, 2)))))
    return k, vertices


@given(_levelled_vertices())
def test_integer_kernel_matches_fraction_weights(case):
    k, vertices = case
    assert weight_sum(map(encode, vertices), k) == sum((weight(v, k) for v in vertices), Fraction(0))


@given(_levelled_vertices(top=12), st.integers(1, 14))
def test_every_neighbour_of_a_valid_vertex_is_valid(case, M):
    # the premise of validating a closure only at its seed
    k, vertices = case
    for v in vertices:
        validate_vertex(v, k)
        for u in _alpha(v, k):
            validate_vertex(u, k)
        for u in _beta(v, k, M):
            validate_vertex(u, k)


def test_iter_vertices_yields_only_valid_vertices():
    for k in range(1, 5):
        for bound in range(1, 7):
            for c in iter_vertices(k, bound):
                validate_vertex(decode(c), k)


def test_closure_seed_is_validated():
    with pytest.raises(DomainError):
        component(V1((2, 1), 3), "alpha", 4)
    with pytest.raises(DomainError):
        component(V2((), 3, 3, 1), "beta", 4, M=5)


def test_alpha_neighbor_examples():
    assert V1((), 3) in _alpha(V1((3,), 3), 2)
    # top-order 2-distinct pair vertices carry no alpha edge: they are the
    # residual class the factorization counts
    assert _alpha(V2((), 1, 2, 1), 2) == set()
    assert is_alpha_residual(encode(V2((), 1, 2, 1)), 2)
    # one level down the eps flip is present
    assert V2((), 1, 2, 2) in _alpha(V2((), 1, 2, 1), 3)


def test_alpha_triangle_and_membership_toggle():
    k = 3
    nb = _alpha(V2((), 1, 2, 1), k)
    assert V2((1,), 1, 2, 1) in nb and V2((2,), 1, 2, 1) in nb
    nb2 = _alpha(V2((1,), 1, 2, 1), k)
    assert V2((), 1, 2, 1) in nb2 and V2((2,), 1, 2, 1) in nb2


def test_alpha_symmetry_random():
    rng = random.Random(11)
    for _ in range(500):
        k = rng.randint(2, 5)
        v = _random_vertex(rng, k, 12)
        for u in _alpha(v, k):
            assert v in _alpha(u, k), (v, u, k)


def test_beta_neighbors_example():
    nb = _beta(V1((), 3), 2, 5)
    for expected in (V2((), 3, 4, 1), V2((), 3, 5, 1), V2((), 1, 3, 2), V2((), 2, 3, 2)):
        assert expected in nb
    # the empty-set rule joins every pair vertex within the bound
    assert V2((), 1, 2, 1) in nb and V2((), 4, 5, 2) in nb
    assert len(nb) == 2 * 10


def test_beta_neighbors_order_one():
    nb = _beta(V1((2,), 2), 3, 6)
    assert nb == ({V2((2,), 2, l, 1) for l in range(3, 7)}
                  | {V2((2,), 1, 2, 2)})


def test_beta_symmetry_random():
    rng = random.Random(13)
    M = 20
    for _ in range(500):
        k = rng.randint(2, 5)
        v = _random_vertex(rng, k, M)
        for u in _beta(v, k, M):
            assert v in _beta(u, k, M), (v, u, k)


def test_alpha_component_examples():
    comp = component(V1((1,), 1), "alpha", 2)
    assert _decoded(comp) == (V1((), 1), V1((1,), 1))
    assert comp.weight_sum == 0
    single = component(V1((1, 2), 5), "alpha", 3)
    assert single.size() == 1
    assert single.weight_sum == weight(V1((1, 2), 5), 3)


def test_alpha_components_partition():
    comps = alpha_components_up_to(3, 6)
    for c in comps:
        for v in _decoded(c):
            assert _decoded(component(v, "alpha", 3)) == _decoded(c)


def test_alpha_cancellation_small():
    for k in (2, 3, 4):
        for c in alpha_components_up_to(k, 9):
            assert c.weight_sum == 0


def _plain_beta_closure(v, k, M):
    """The reference beta closure: a breadth-first search that expands
    every vertex with beta_neighbors, summed one Fraction at a time."""
    seen, frontier = {v}, [v]
    while frontier:
        nxt = []
        for u in frontier:
            for w in _beta(u, k, M):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen, sum((weight(u, k) for u in seen), Fraction(0))


def _beta_seeds(k, M):
    """Seeds of every closure shape: the hub, stars, top-order singletons,
    each with entries inside and beyond M."""
    seeds = [V1((), 3), V1((), M + 2), V2((), 1, 2, 1), V2((), 2, M + 3, 2),
             V2((), M + 1, M + 3, 1)]
    if k >= 3:
        seeds += [V1((1,), 2), V1((4,), 7), V1((2,), M + 3), V2((5,), 1, 9, 1),
                  V2((5,), 2, M + 4, 1), V2((5,), 2, M + 4, 2), V2((5,), M + 1, M + 4, 2),
                  V1((1, 2), 3)]
    if k >= 4:
        seeds += [V1((1, 3), 2), V2((2, 6), 1, M + 1, 2), V1((1, 2, 3), 9)]
    return seeds


def test_hub_once_beta_closure_matches_plain_search(monkeypatch):
    real = bijection.beta_neighbors
    hub_expansions = []

    def counted(u, k, M):
        if not u[0]:   # an empty index set
            hub_expansions.append(u)
        return real(u, k, M)

    monkeypatch.setattr(bijection, "beta_neighbors", counted)
    for k in (2, 3):
        for M in (1, 2, 5, 13, 30):
            for v in _beta_seeds(k, M):
                hub_expansions.clear()
                comp = component(v, "beta", k, M=M)
                seen, total = _plain_beta_closure(v, k, M)
                assert _decoded(comp) == tuple(sorted(seen, key=_canonical_key)), (k, M, v)
                assert comp.weight_sum == total, (k, M, v)
                # one order-0 V1 and one empty-mu pair at most are expanded
                assert len(hub_expansions) <= 2, (k, M, v)


def test_beta_closure_size_is_the_component_size():
    for k in (2, 3, 4):
        for M in (1, 2, 3, 7, 12):
            for v in _beta_seeds(k, M):
                assert beta_closure_size(v, k, M) == component(v, "beta", k, M=M).size(), (k, M, v)


def test_oversized_beta_closure_is_refused_before_the_search(monkeypatch):
    # the hub at bound M has M^2 vertices, a star M
    monkeypatch.setattr(bijection, "beta_neighbors", None)
    m = math.isqrt(bijection.VERTEX_CEILING) + 1
    for v, k, M in ((V1((), 3), 2, m), (V2((), 1, 2, 2), 3, m),
                    (V1((1,), 2), 3, bijection.VERTEX_CEILING + 1)):
        start = time.process_time()
        with pytest.raises(ResourceError):
            component(v, "beta", k, M=M)
        assert time.process_time() - start < 2


def test_beta_component_sums_shrink():
    prev = None
    for M in (20, 40, 80):
        c = component(V1((), 3), "beta", 2, M=M)
        s = abs(c.weight_sum)
        if prev is not None:
            assert s < prev
        prev = s


def test_residual_classification_small_bounds():
    for k in (2, 3, 4):
        assert residual_classification_consistent(k, 8)


def test_classification_check_fails_on_a_broken_alpha_rule_3(monkeypatch):
    # eps = 1 vertices carrying l1 and not l2 lose their rule-3 partners; each
    # such vertex keeps its eps flip, so only the edges listed from one end
    # show the break
    real = bijection.alpha_neighbors

    def broken(c, k):
        mask, partners = c[0], real(c, k)
        if len(c) == 4 and c[3] == 1 and mask >> c[1] & 1 and not mask >> c[2] & 1:
            lam = mask ^ (1 << c[1])
            partners = [u for u in partners if u[0] not in (lam, lam | 1 << c[2])]
        return partners

    monkeypatch.setattr(bijection, "alpha_neighbors", broken)
    assert not all(residual_classification_consistent(k, 6) for k in (2, 3, 4))


def test_classification_check_fails_on_a_broken_beta_hub(monkeypatch):
    # order-0 V1 vertices lose every beta partner
    real = bijection.beta_neighbors
    monkeypatch.setattr(bijection, "beta_neighbors",
                        lambda c, k, M: [] if len(c) == 2 and not c[0] else real(c, k, M))
    assert not all(residual_classification_consistent(k, 6) for k in (2, 3, 4))


def test_alpha_residual_identity_examples():
    lhs, rhs = alpha_residual_identity(2, 10)
    assert lhs == rhs == 20 * mzv_truncated(10, 2)
    lhs, rhs = alpha_residual_identity(3, 20)
    assert lhs == rhs


def test_beta_residual_identity_examples():
    lhs, rhs = beta_residual_identity(2, 10)
    assert lhs == rhs == 6 * zeta_even_truncated(10, 1) ** 2
    lhs, rhs = beta_residual_identity(3, 15)
    assert lhs == rhs
    # smallest case: the single vertex family ({1}; 1)
    lhs, rhs = beta_residual_identity(2, 1)
    assert lhs == rhs == 6
    # both factors of the rhs come from one row; the reference sums them apart
    for k in (2, 3, 4):
        for N in sorted({1, 2, k - 1, 40}):
            lhs, rhs = beta_residual_identity(k, N)
            assert lhs == rhs == 6 * mzv_truncated(N, k - 1) * zeta_even_truncated(N, 1), (k, N)


def test_residual_identities_top_level():
    # the largest admitted level
    lhs, rhs = alpha_residual_identity(5, 12)
    assert lhs == rhs == 110 * mzv_truncated(12, 5)
    lhs, rhs = beta_residual_identity(5, 12)
    assert lhs == rhs
    for c in alpha_components_up_to(5, 7):
        assert c.weight_sum == 0


def test_index_set_sums_match_per_vertex_weights():
    # the identities sum per index set on the integer kernel; the oracle
    # classifies every vertex and adds its Fraction weight
    for k in (2, 3, 4):
        sign = (-1) ** k
        for N in range(1, 13):
            codes = list(iter_vertices(k, N))
            alpha = sign * sum((weight(decode(c), k) for c in codes if is_alpha_residual(c, k)),
                               Fraction(0))
            beta = sign * sum((weight(decode(c), k) for c in codes if is_beta_residual(c, k)),
                              Fraction(0))
            assert alpha_residual_identity(k, N)[0] == alpha, (k, N)
            assert beta_residual_identity(k, N)[0] == beta, (k, N)


def test_multiplicity_identity():
    assert multiplicity_identity(2)
    assert 6 * 2 + 8 * 1 == 20 == 5 * 4
    for k in range(1, 65):
        assert multiplicity_identity(k)


def test_abs_weight_sum_bounds():
    v1, v1_bound, v2, v2_bound = abs_weight_sum_bound(2, 0, 50)
    assert v1 <= v1_bound and v2 <= v2_bound
    assert v1_bound < 12            # 6 * zeta({2}^0) * (bound 2)
    assert v2 <= 64                 # 16 * 1 * 2 * 2
    v1, v1_bound, v2, v2_bound = abs_weight_sum_bound(3, 1, 30)
    assert v1 <= v1_bound and v2 <= v2_bound


def test_factorization_check_levels():
    levels = factorization_check(2, 96)
    assert len(levels) == 2
    for lhs, rhs, mzv, closed in levels:
        assert abs(lhs.value - rhs.value) <= lhs.err + rhs.err
        assert abs(mzv.value - closed.value) <= mzv.err + closed.err
    assert factorization_check(0, 96) == []


def test_factorization_check_computes_each_limit_once(monkeypatch):
    # every level reads one certified row, taken at k_max
    calls = []
    real = bijection.mzv_limit

    def counted(k, precision_bits, *args):
        calls.append(k)
        return real(k, precision_bits, *args)

    monkeypatch.setattr(bijection, "mzv_limit", counted)
    factorization_check(6, 96)
    assert calls == [6]


def test_component_dump_format():
    comp = component(V1((1,), 1), "alpha", 2)
    text = format_component(comp)
    lines = text.strip().splitlines()
    assert lines[0] == "V1 mu=[] n=1"
    assert lines[1] == "V1 mu=[1] n=1"
    assert lines[2] == "sum=0/1"


def test_the_text_alone_puts_a_component_in_order():
    # a component's codes come in no particular order: a shuffled copy
    # writes the same text, its vertices in canonical order
    rng = random.Random(29)
    comps = [*alpha_components_up_to(3, 5), component(V1((), 3), "beta", 2, M=5),
             component(V1((1,), 2), "beta", 3, M=6), component(V2((5,), 2, 9, 2), "beta", 3, M=6)]
    for comp in comps:
        codes = list(comp.codes)
        rng.shuffle(codes)
        text = format_component(WeightedComponent(tuple(codes), comp.weight_sum))
        assert text == format_component(comp)
        assert text.splitlines()[:-1] == [format_vertex(v) for v in _decoded(comp)]


def test_iter_vertices_counts():
    # k=2, bound=3: V1 orders 0..1, V2 order 0 only
    vs = list(map(decode, iter_vertices(2, 3)))
    v1 = [v for v in vs if isinstance(v, V1)]
    v2 = [v for v in vs if isinstance(v, V2)]
    assert len(v1) == (1 + 3) * 3
    assert len(v2) == 3 * 2
    assert len(set(vs)) == len(vs)
    for k in range(2, 6):
        for bound in (1, 2, 3, 7):
            assert bijection.vertex_count(k, bound) == sum(
                1 for _ in iter_vertices(k, bound))


@pytest.mark.parametrize("identity", [alpha_residual_identity, beta_residual_identity])
def test_residual_ceiling_is_the_exact_weight_count(identity, monkeypatch):
    # a ceiling equal to the number of weights taken (calls of the kernel's
    # per-vertex entry point) admits the request, one less refuses it
    # before any weight is taken
    real = bijection.weight_term
    for k, N in ((2, 7), (3, 9), (4, 8), (5, 9), (4, 3)):
        calls = []
        monkeypatch.setattr(bijection, "weight_term",
                            lambda v, kk: calls.append(v) or real(v, kk))
        monkeypatch.setattr(bijection, "RESIDUAL_WEIGHT_CEILING", 10 ** 9)
        identity(k, N)
        taken = len(calls)
        monkeypatch.setattr(bijection, "RESIDUAL_WEIGHT_CEILING", taken)
        identity(k, N)
        monkeypatch.setattr(bijection, "RESIDUAL_WEIGHT_CEILING", taken - 1)
        calls.clear()
        with pytest.raises(ResourceError):
            identity(k, N)
        assert calls == []


def test_residual_identities_past_n_60():
    # N is limited only by the weight count
    lhs, rhs = alpha_residual_identity(2, 70)
    assert lhs == rhs
    lhs, rhs = beta_residual_identity(2, 70)
    assert lhs == rhs
