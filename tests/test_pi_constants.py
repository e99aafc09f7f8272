"""pi_freq, pi_amp, the odd series, the Pythagorean invariant, arc length,
and the four-way comparison."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mzvfactor import pi_constants, suites
from mzvfactor.numeric import ApproxReal, DomainError, pi_oracle
from mzvfactor.pi_constants import (
    arc_length,
    g_eval,
    pi_amp,
    pi_freq,
    three_way_pi_compare,
    wallis_pair_product,
    wallis_partial,
    zeta2_bracket,
)
from mzvfactor.product import eval_F
from mzvfactor.report import RunConfig
from mzvfactor.series import mzv_limit, zeta_even_truncated


def test_pi_freq_agrees_with_oracle():
    est = pi_freq(64)
    pi = pi_oracle(64)
    assert abs(est.value - pi.value) <= est.err + pi.err
    assert est.decimal(9).startswith("3.14159265")


def _crude_zeta2_bracket(N):
    # head to N plus the integral-comparison tail:
    # 1/(N+1) <= sum_{n>N} 1/n^2 <= 1/N
    head = zeta_even_truncated(N, 1)
    return head + Fraction(1, N + 1), head + Fraction(1, N)


def test_pi_freq_crude_bracket():
    # integral-comparison tail at N=10: width below 0.01 and contains pi
    lo, hi = _crude_zeta2_bracket(10)
    est = ApproxReal.from_bracket(6 * lo, 6 * hi, 80).sqrt()
    pi = pi_oracle(64)
    assert 2 * est.err < Fraction(1, 100)
    assert est.contains(pi.value)


def test_pi_freq_nested_intervals():
    a = _crude_zeta2_bracket(100)
    b = _crude_zeta2_bracket(200)
    assert a[0] <= b[0] <= b[1] <= a[1]
    # the Euler-Maclaurin bracket lies inside the crude one
    c = zeta2_bracket(200)
    assert b[0] <= c[0] <= c[1] <= b[1]


def test_pi_amp_small_partials():
    assert pi_amp(0)[1] == 2
    assert pi_amp(1)[1] == Fraction(8, 3)
    assert wallis_pair_product(1) == Fraction(8, 3)


def test_pi_amp_bracket_contains_pi():
    pi = pi_oracle(96)
    for N in (10, 1000):
        est, _ = pi_amp(N, 96)
        assert est.contains(pi.value)


def test_wallis_interlacing_by_parity():
    pi = pi_oracle(96)
    for m in range(1, 16):
        v = wallis_partial(m)
        if m % 2 == 1:
            assert v > pi.value + pi.err
        else:
            assert v < pi.value - pi.err


def test_wallis_half_step_recurrence():
    # oracle: multiply single factors directly
    acc = Fraction(2)
    factors = []
    for n in range(1, 6):
        factors.append(Fraction(2 * n, 2 * n - 1))
        factors.append(Fraction(2 * n, 2 * n + 1))
    for m in range(1, 11):
        acc_m = Fraction(2)
        for f in factors[:m]:
            acc_m *= f
        assert wallis_partial(m) == acc_m


def test_g_eval_examples():
    g0, gp0 = g_eval(Fraction(0))
    assert g0.value == 0 and gp0.value == 1
    g1, _ = g_eval(Fraction(1))
    assert g1.decimal(9).startswith("0.84147098")


def _series_bracket(x, depth):
    """The exact partial sums of g and g' through the term of index `depth`,
    and their first omitted terms |x|^(2 depth+3)/(2 depth+3)! and
    |x|^(2 depth+2)/(2 depth+2)!."""
    g = gp = Fraction(0)
    for k in range(depth + 1):
        sign = Fraction((-1) ** k)
        g += sign * x ** (2 * k + 1) / math.factorial(2 * k + 1)
        gp += sign * x ** (2 * k) / math.factorial(2 * k)
    ax = abs(x)
    return (g, gp, ax ** (2 * depth + 3) / math.factorial(2 * depth + 3),
            ax ** (2 * depth + 2) / math.factorial(2 * depth + 2))


def _exact_terms(x_abs, precision_bits):
    """The first t >= 1 with x^(2t+1)/(2t+1)! <= 2^-(precision_bits+8) and
    x^2 < (2t+2)(2t+3), on exact rationals."""
    eps = Fraction(1, 1 << (precision_bits + 8))
    t = 1
    term = x_abs
    while True:
        term = term * x_abs * x_abs / ((2 * t) * (2 * t + 1))
        if term <= eps and x_abs * x_abs < (2 * t + 2) * (2 * t + 3):
            return t
        t += 1


def test_terms_are_those_of_the_exact_search():
    # at pi-equality's arc (355/113, P + 24) and at g_eval's test points;
    # 2^L is at most the first omitted term, and more than a quarter of it
    cases = [(Fraction(355, 113), P + 24) for P in (*range(32, 300), 1024, 4096, 16384)]
    cases += itertools.product(
        (Fraction(1, 3), Fraction(7, 2), Fraction(4), Fraction(22, 7), Fraction(1, 10 ** 6),
         Fraction(1, 15), Fraction(1, 2 ** 40)), (32, 64, 128, 1024))
    for x, prec in cases:
        T, L = pi_constants._terms(x.numerator, x.denominator, prec)
        assert T == _exact_terms(x, prec), (x, prec)
        omitted = x ** (2 * T + 3) / math.factorial(2 * T + 3)
        assert Fraction(2) ** L <= omitted < Fraction(2) ** (L + 2), (x, prec)


def _exact_g_eval(x, precision_bits):
    """The (g, g') brackets of the exact rational summation: partial sums at the
    depth _exact_terms chooses, plus and minus the first omitted terms."""
    g, gp, rem, rem_p = _series_bracket(x, _exact_terms(abs(x), precision_bits))
    prec = precision_bits + 16
    return (ApproxReal.from_bracket(g - rem, g + rem, prec),
            ApproxReal.from_bracket(gp - rem_p, gp + rem_p, prec))


def test_g_eval_independent_series_oracle():
    # the bracket must hold the whole bracket of the 120-term partial sum s:
    # [s - r, s + r], with r the first omitted term
    for x, prec in itertools.product(
            (Fraction(1, 3), Fraction(-7, 2), Fraction(4), Fraction(22, 7),
             Fraction(1, 10 ** 6)), (32, 128, 1024)):
        s, _, r, _ = _series_bracket(x, 119)
        g, _ = g_eval(x, prec)
        assert g.lo <= s - r and s + r <= g.hi, (x, prec)


@settings(max_examples=60, deadline=None)
@given(st.fractions(min_value=-4, max_value=4), st.sampled_from([32, 64, 128, 1024]))
@example(Fraction(4), 1024)
@example(Fraction(-22, 7), 1024)
@example(Fraction(1, 2 ** 40), 64)
@example(Fraction(1, 15), 1024)
def test_g_eval_fixed_point_against_the_exact_series(x, prec):
    # each bracket holds the exact bracket 8 terms deeper than the exact
    # summation stops, and is at most twice as wide as that summation's bracket
    depth = _exact_terms(abs(x), prec) + 8
    s, sp, r, rp = _series_bracket(x, depth)
    for ball, exact, mid, rem in zip(g_eval(x, prec), _exact_g_eval(x, prec),
                                     (s, sp), (r, rp)):
        assert ball.lo <= mid - rem and mid + rem <= ball.hi
        assert ball.err <= 2 * exact.err


def test_central_binomial_matches_math_comb():
    for N in (*range(401), pi_constants.WALLIS_PAIRS, 10 ** 5):
        assert pi_constants._central_binomial(N) == math.comb(2 * N, N), N


def test_g_eval_domain_guard():
    with pytest.raises(DomainError):
        g_eval(Fraction(9, 2))


def test_g_at_half_frequency_hits_one():
    pf = pi_freq(160)
    half = pf / 2
    g, gp = g_eval(half.value, precision_bits=160)
    assert g.contains(Fraction(1))
    assert abs(gp.value) <= gp.err + Fraction(1, 2 ** 100)


def _arc(prec):
    """The arc over the endpoints of the pi_freq bracket that pi-equality takes."""
    return arc_length(pi_freq(prec + 24), prec)[0]


def test_arc_length_equals_frequency_constant():
    arc = _arc(96)
    pf = pi_freq(96)
    assert abs(arc.value - pf.value) < Fraction(1, 10 ** 10)


A = Fraction(355, 113)


def _truncated_q(D):
    """Q = G^2 + G'^2 - 1 for the degree-D truncations G, G' of g and g', by
    the Fraction convolution of their coefficient lists."""
    G = [Fraction((-1) ** (j // 2), math.factorial(j)) if j % 2 else Fraction(0)
         for j in range(D + 1)]
    Gp = [Fraction(0) if j % 2 else Fraction((-1) ** (j // 2), math.factorial(j))
          for j in range(D + 1)]
    Q = [Fraction(0)] * (2 * D + 1)
    for i, j in itertools.product(range(D + 1), repeat=2):
        Q[i + j] += G[i] * G[j] + Gp[i] * Gp[j]
    Q[0] -= 1
    return Q


def _slow_defect_bound(D):
    """The bound of _speed_defect rebuilt from the convolution and from the
    definitions of the first omitted terms, A^(D+1)/(D+1)! and A^(D+2)/(D+2)!
    (of g' and g for odd D, of g and g' for even D), and the smaller of them."""
    q = sum(abs(c) * A ** i for i, c in enumerate(_truncated_q(D)))
    r, r_next = (A ** d / math.factorial(d) for d in (D + 1, D + 2))
    return q + r * (2 * 24 + r) + r_next * (2 * 24 + r_next), r_next


def _defect_sums_by_loop(D):
    """oracle: s_m, m = 0..D, as the sum of (-1)^j C(2m, j) over j with j and
    2m - j in [0, D], less 1 at m = 0, term by term"""
    sums = []
    for m in range(D + 1):
        n, j = 2 * m, max(0, 2 * m - D)
        c, s = math.comb(n, j), -(m == 0)
        for j in range(j, min(n, D) + 1):
            s, c = s + (-c if j & 1 else c), c * (n - j) // (j + 1)
        sums.append(s)
    return sums


@pytest.mark.parametrize("D", [*range(1, 80), 500, 2073])
def test_speed_defect_sums_are_the_closed_form_of_the_loop(D):
    # 2073 is the D of arc_length at the 16384-bit precision ceiling
    sums, _ = pi_constants._speed_defect(D)
    assert sums == _defect_sums_by_loop(D)


def test_speed_defect_coefficients_match_the_convolution():
    for D in range(1, 41):
        sums, eps = pi_constants._speed_defect(D)
        Q = _truncated_q(D)
        assert len(sums) == D + 1
        assert all(Q[i] == 0 for i in range(1, 2 * D + 1, 2)), D
        assert [Q[2 * m] for m in range(D + 1)] == [
            Fraction((-1) ** m * s, math.factorial(2 * m)) for m, s in enumerate(sums)], D
        slow, r_next = _slow_defect_bound(D)
        assert slow <= eps <= slow + r_next / 2 ** 30, D


def test_e_to_the_a_is_below_24():
    # the premise |G|, |G'| <= e^A < 24: the terms past j = 40 sum to less
    # than twice the first of them
    head = sum(A ** j / math.factorial(j) for j in range(40))
    assert head + 2 * A ** 40 / math.factorial(40) < 24


def test_the_certified_interval_holds_minus_pi_to_pi():
    # A = 355/113 exceeds pi, so the Pythagorean record covers [-pi, pi],
    # and A^2 < 10 < (D+2)(D+3) keeps the remainders alternating
    pi = pi_oracle(64)
    assert pi.hi < A and A * A < 10


@pytest.mark.parametrize("prec", [32, 64, 128, 224, 512])
def test_speed_defect_covers_the_slow_bound(prec):
    # at the D of arc_length(p, prec), whose rounding adds under 2^-30 of the
    # smaller omitted term
    D = 2 * pi_constants._terms(355, 113, prec + 24)[0] + 1
    _, eps = pi_constants._speed_defect(D)
    slow, r_next = _slow_defect_bound(D)
    assert slow <= eps <= slow + r_next / 2 ** 30


def test_arc_length_radius_is_at_most_2_to_the_minus_p():
    for prec in (64, 128, 224):
        assert _arc(prec).err <= Fraction(1, 2 ** prec), prec


def test_arc_length_radius_is_no_wider_than_the_quadrature_estimate():
    # the radius of the Simpson quadrature the certificate replaced, rounded
    # down to 9 bits
    for prec, old in ((64, Fraction(346, 2 ** 96)), (80, Fraction(510, 2 ** 115)),
                      (224, Fraction(328, 2 ** 259)), (1024, Fraction(316, 2 ** 1057))):
        assert _arc(prec).err <= old, prec


@pytest.mark.parametrize("prec", [32, 64, 100, 128, 224, 256, 512, 1024])
def test_arc_length_overlaps_the_oracle(prec):
    arc, pi = _arc(prec), pi_oracle(prec)
    assert arc.lo <= pi.hi and pi.lo <= arc.hi


def test_arc_length_endpoint_past_the_certified_interval_is_a_broken_invariant():
    with pytest.raises(ValueError):
        arc_length(ApproxReal.from_bracket(Fraction(710, 113) - Fraction(1, 2 ** 80),
                                           Fraction(710, 113) + Fraction(1, 2 ** 80), 88), 64)


def test_speed_at_zero_is_one():
    g, gp = g_eval(Fraction(0))
    assert (g * g + gp * gp).contains(Fraction(1))


def _trio_distance(ests) -> Fraction:
    trio = [ests[name].value for name in ("freq", "arc", "oracle")]
    return max(abs(a - b) for a, b in itertools.combinations(trio, 2))


def test_three_way_compare_64():
    tol = Fraction(1, 10 ** 8)
    ests, _ = three_way_pi_compare(64)
    assert sorted(ests) == ["amp", "arc", "freq", "oracle"]
    for a, b in itertools.combinations(ests.values(), 2):
        assert abs(a.value - b.value) <= a.err + b.err + tol
    assert _trio_distance(ests) < tol


def test_agreement_tightens_with_precision():
    lo, _ = three_way_pi_compare(64)
    hi, _ = three_way_pi_compare(128)
    assert _trio_distance(hi) < _trio_distance(lo)


def test_pi_equality_builds_one_pi_freq_and_one_oracle(monkeypatch):
    # the "freq" bracket is the arc's endpoint bracket, 24 bits finer, and the
    # Wallis parity check reads the "oracle" bracket
    calls = []
    real_freq, real_oracle = pi_constants.pi_freq, pi_oracle
    monkeypatch.setattr(pi_constants, "pi_freq",
                        lambda p, *a: calls.append(("freq", p)) or real_freq(p, *a))
    counted_oracle = lambda p: calls.append(("oracle", p)) or real_oracle(p)
    monkeypatch.setattr(pi_constants, "pi_oracle", counted_oracle)
    monkeypatch.setattr(suites, "pi_oracle", counted_oracle)
    records = suites.run_suite("pi-equality", RunConfig(precision=80))
    assert sorted(calls) == [("freq", 104), ("oracle", 80)]
    assert all(r.status == "pass" for r in records)
    ests, _ = three_way_pi_compare(80)
    assert ests["freq"].err <= Fraction(1, 2 ** 106)
    assert ests["arc"].err <= Fraction(1, 2 ** 80)


@pytest.mark.parametrize("prec", [32, 64, 128])
def test_pi_equality_computes_one_certificate_and_reports_the_arcs_eps(prec, monkeypatch):
    # the Pythagorean record and the arc read one _speed_defect call, at
    # the D the arc's precision asks for
    calls = []
    real = pi_constants._speed_defect
    monkeypatch.setattr(pi_constants, "_speed_defect",
                        lambda D: calls.append((D, real(D)[1])) or real(D))
    records = {r.claim_id: r for r in suites.run_suite("pi-equality",
                                                       RunConfig(precision=prec))}
    [(D, eps)] = calls
    assert D == 2 * pi_constants._terms(355, 113, prec + 24)[0] + 1
    record = records["pi.pythagorean"]
    assert record.status == "pass"
    assert Fraction(record.params["observed_exact"]) == eps <= Fraction(1, 2 ** (prec + 30))


def test_series_coefficient_bridge():
    # coefficients of the product's series match (-1)^k pi_freq^(2k)/(2k+1)!
    pf = pi_freq(160)
    for k, z in enumerate(mzv_limit(8, 128)[1:], start=1):
        target = pf.power(2 * k) / math.factorial(2 * k + 1)
        assert abs(z.value - target.value) <= z.err + target.err


def test_series_matches_product_spot_checks():
    # rescaled series against the raw truncated product at five points
    pf = pi_freq(128)
    for x in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 3),
              Fraction(2, 5), Fraction(9, 20)):
        g, _ = g_eval(pf.value * x, precision_bits=128)
        series_value = g.value / pf.value
        product_value = eval_F(x, 4000)
        assert abs(series_value - product_value) < Fraction(1, 1000)
