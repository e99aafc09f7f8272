"""Every resource ceiling of series, pi_constants, bijection, pfunc and the
product-structure, p-constant, pi-equality, basel and factorization suites
refuses the smallest request it refuses within 2 s of process time; a
certified limit is refused before it builds anything, past the precision
ceiling, within two bits of what its plan reaches or past its k ceiling.
The largest Wallis request admitted finishes within seconds, and the
largest p_eval request admitted at the default precision within its budget.
"""

import time
from fractions import Fraction

import pytest

from mzvfactor import bijection, cli, pfunc, pi_constants, series, suites
from mzvfactor.bijection import V1
from mzvfactor.numeric import (
    DEFAULT_PRECISION,
    MAX_PRECISION,
    TIME_CEILING,
    ResourceError,
    pi_oracle,
)
from mzvfactor.report import RunConfig


class _Built(Exception):
    """Raised in place of the work a ceiling guards."""


def _build(*args, **kwargs):
    raise _Built


# what a certified limit builds once its closed-form check has passed
_MZV_WORK = [(series, "head_power_sums"), (series, "mzv_limit_bracket")]


def _refused(call):
    try:
        call()
    except ResourceError:
        return True
    return False


def _refused_before_work(monkeypatch, call, work):
    """Whether call() raises ResourceError before any of `work` runs."""
    with monkeypatch.context() as m:
        for owner, name in work:
            m.setattr(owner, name, _build)
        try:
            return _refused(call)
        except _Built:
            return False


def _smallest(refused, lo):
    """The smallest n >= lo with refused(n), for a monotone predicate."""
    hi = lo
    while not refused(hi):
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if refused(mid) else (mid + 1, hi)
    return lo


def _mzv(k):
    return lambda p: series.mzv_limit(k, p)


def _first_refused_precision(monkeypatch, compute, work):
    return _smallest(lambda p: _refused_before_work(monkeypatch, lambda: compute(p), work), 32)


def _size_check(check):
    return lambda n: _refused(lambda: check(n))


def _compute(target, **flags):
    """A compute request through the registry, as the CLI resolves it."""
    compute, defaults = cli.COMPUTE[target]
    return compute(RunConfig(**flags).resolve(f"compute {target}", defaults))


def _requests(monkeypatch):
    """(name, the smallest refused request) for every ceiling."""
    out = []
    # the precision is checked once, where a request is resolved: every
    # command reaches its work at MAX_PRECISION, and is refused one bit past
    # it, whatever guard bits it takes below
    for name, compute in [(f"mzv k={k}", lambda p, k=k: _compute("mzv", k=k, precision=p))
                          for k in (1, 4, 8)] + [
            ("pi_freq", lambda p: _compute("pi-freq", precision=p)),
            ("pi-equality", lambda p: suites.run_suite("pi-equality", RunConfig(precision=p)))]:
        p = _first_refused_precision(monkeypatch, compute, _MZV_WORK)
        assert p == MAX_PRECISION + 1
        out.append((f"{name} at {p} bits", lambda p=p, compute=compute: compute(p)))
    p = _smallest(lambda p: _refused_before_work(
        monkeypatch, lambda: _compute("p-eval", N=10, precision=p), [(pfunc, "_sum_brackets")]), 32)
    assert p == MAX_PRECISION + 1
    out.append((f"p-eval at {p} bits", lambda p=p: _compute("p-eval", N=10, precision=p)))
    out.append(("mzv k ceiling", lambda: series.mzv_limit(series.MZV_K_CEILING + 1, 64)))
    # the limit suites are refused by the k ceiling alone, at every precision
    k = _smallest(_size_check(series.require_limit_k), 1)
    assert k == series.MZV_K_CEILING + 1
    for name in ("basel", "factorization"):
        config = RunConfig(k=k, precision=MAX_PRECISION)
        out.append((f"{name} k={k} at {MAX_PRECISION} bits",
                    lambda name=name, config=config: suites.run_suite(name, config)))
    out += [("mzv bracket N",
             lambda: series.mzv_limit_bracket(2, series.EXACT_N_LIMIT + 1, bits=64)),
            ("Wallis", lambda: pi_constants.pi_amp(pi_constants.WALLIS_N_CEILING + 1))]
    for kind, identity in (("alpha", bijection.alpha_residual_identity),
                           ("beta", bijection.beta_residual_identity)):
        n = _smallest(_size_check(lambda n: bijection.require_residual_size(kind, 3, n)), 3)
        out.append((f"{kind} residual N={n}", lambda n=n, f=identity: f(3, n)))
    b = _smallest(lambda b: bijection.vertex_count(2, b) > bijection.VERTEX_CEILING, 1)
    out.append((f"alpha walk bound={b}", lambda: bijection.alpha_components_up_to(2, b)))
    for k in (2, 4, 6, 8):
        m = _smallest(_size_check(lambda m: bijection.require_beta_size(V1((), 3), k, m)), 1)
        out.append((f"beta hub k={k} M={m}",
                    lambda k=k, m=m: bijection.component(V1((), 3), "beta", k, M=m)))
    # the suite's defaults are N = 100 and a grid of 1001 points
    n = _smallest(_size_check(lambda n: suites.require_product_structure_size(n, 1001)), 1)
    g = _smallest(_size_check(lambda g: suites.require_product_structure_size(100, g)), 3)
    out += [(f"product structure N={n}",
             lambda n=n: suites.run_suite("product-structure", RunConfig(N=n))),
            (f"product structure grid={g}",
             lambda g=g: suites.run_suite("product-structure", RunConfig(bound=g)))]
    n = _largest_admitted_p_eval() + 1
    out.append((f"p_eval N={n}", lambda n=n: pfunc.p_eval(Fraction(0), n)))
    # the suite checks its depths before the witness loops, its first work;
    # below N = 10 it is a usage error
    n = _smallest(lambda n: _refused_before_work(
        monkeypatch, lambda: suites.run_suite("p-constant", RunConfig(N=n)),
        [(pfunc, "p_coefficient_witness")]), 10)
    out.append((f"p-constant N={n}",
                lambda n=n: suites.run_suite("p-constant", RunConfig(N=n))))
    return out


def _largest_admitted_p_eval():
    """The largest N admitted for p_eval at x = 0 and the default precision."""
    return _smallest(_size_check(
        lambda n: pfunc.require_p_eval_size(n, DEFAULT_PRECISION, 1)), 2) - 1


def test_every_ceiling_refuses_its_smallest_request_within_2s(monkeypatch):
    requests = _requests(monkeypatch)
    assert len(requests) == 22
    for name, call in requests:
        start = time.process_time()
        with pytest.raises(ResourceError):
            call()
        assert time.process_time() - start < 2, name


def test_the_largest_admitted_wallis_request_brackets_pi_within_5s():
    start = time.process_time()
    est, _ = pi_constants.pi_amp(pi_constants.WALLIS_N_CEILING, 64)
    assert time.process_time() - start < 5
    pi = pi_oracle(64)
    assert est.lo <= pi.lo and pi.hi <= est.hi


def test_the_largest_admitted_p_eval_at_the_default_precision_finishes_within_budget():
    n = _largest_admitted_p_eval()
    start = time.process_time()
    v = pfunc.p_eval(Fraction(0), n)
    assert time.process_time() - start < TIME_CEILING / 10 ** 6
    # 6 zeta_n(2) lies between pi^2 - 6/n and pi^2 - 6/(n + 1)
    pi = pi_oracle(DEFAULT_PRECISION)
    assert v.lo <= pi.hi ** 2 - Fraction(6, n + 1) and pi.lo ** 2 - Fraction(6, n) <= v.hi


def test_the_admitted_beta_hub_at_k6_is_refused_before_the_search(monkeypatch):
    # the vertex ceiling admits this hub at k = 2 (M^2 = 2,399,401 vertices),
    # but at k = 6 a vertex costs about 1.8 times as much
    monkeypatch.setattr(bijection, "beta_neighbors", None)
    bijection.require_beta_size(V1((), 3), 2, 1549)
    with pytest.raises(ResourceError):
        bijection.component(V1((), 3), "beta", 6, M=1549)


def test_the_k_ceiling_refuses_before_any_limit_is_built(monkeypatch):
    # every limit past k = 0 sums a head first, so the suites' refusals
    # also come before their smaller k
    for k in (series.MZV_K_CEILING, series.MZV_K_CEILING + 1):
        config = RunConfig(k=k, precision=64)
        calls = (lambda: series.mzv_limit(k, 64),
                 lambda: suites.run_suite("basel", config),
                 lambda: suites.run_suite("factorization", config))
        refused = [_refused_before_work(monkeypatch, call, _MZV_WORK) for call in calls]
        assert refused == [k > series.MZV_K_CEILING] * 3


def test_the_limit_suites_admit_every_k_to_the_k_ceiling_at_every_precision(monkeypatch):
    # verify basel and factorization at their defaults (k = 8, 128 bits), the
    # certified-limits requests (k <= 7, 64 to 116 bits), the k ceiling at
    # 64 bits, and k = 24 and the k ceiling at MAX_PRECISION reach their
    # work: basel its oracle, factorization its row
    for k, prec in ((8, 128), (7, 116), (series.MZV_K_CEILING, 64),
                    (24, MAX_PRECISION), (series.MZV_K_CEILING, MAX_PRECISION)):
        for name in ("basel", "factorization"):
            config = RunConfig(k=k, precision=prec)
            assert not _refused_before_work(
                monkeypatch, lambda: suites.run_suite(name, config),
                _MZV_WORK + [(suites, "pi_oracle")]), (name, k, prec)


def test_the_limit_suites_refuse_past_the_k_ceiling_before_the_oracle_or_any_limit(monkeypatch):
    for name in ("basel", "factorization"):
        config = RunConfig(k=series.MZV_K_CEILING + 1, precision=MAX_PRECISION)
        assert _refused_before_work(
            monkeypatch, lambda: suites.run_suite(name, config),
            _MZV_WORK + [(suites, "pi_oracle")])


@pytest.mark.parametrize("name", ["basel", "factorization"])
def test_a_limit_suite_takes_one_row(name, monkeypatch):
    # one bracket call, and one head summed, for all eight levels
    brackets, heads = [], []
    bracket, build = series.mzv_limit_bracket, series.head_power_sums
    monkeypatch.setattr(series, "mzv_limit_bracket",
                        lambda *a, **kw: brackets.append((a, kw)) or bracket(*a, **kw))
    monkeypatch.setattr(series, "head_power_sums",
                        lambda *a: heads.append(a) or build(*a))
    assert cli.main(["verify", name, "--k", "8"]) == 0
    [(args, kwargs)] = brackets
    assert args[0] == 8
    assert heads == [(args[1], 8, series.head_bits(args[1], kwargs["bits"]))]


def test_the_alpha_suite_checks_every_level_before_any_closure(monkeypatch):
    # at bound 44 the default levels k = 2 and 3 fit, and k = 4 does not
    assert (bijection.vertex_count(3, 44) <= bijection.VERTEX_CEILING
            < bijection.vertex_count(4, 44))
    assert _refused_before_work(
        monkeypatch, lambda: suites.run_suite("bijection-alpha", RunConfig(bound=44)),
        [(bijection, "component")])


def test_a_request_just_past_the_reach_is_refused_before_any_work(monkeypatch):
    # every k gets to its work at MAX_PRECISION, and one bit more is
    # refused before any
    for k in (1, 8, 24):
        assert not _refused_before_work(
            monkeypatch, lambda: _compute("mzv", k=k, precision=MAX_PRECISION), _MZV_WORK)
        start = time.process_time()
        assert _refused_before_work(
            monkeypatch, lambda: _compute("mzv", k=k, precision=MAX_PRECISION + 1), _MZV_WORK)
        assert time.process_time() - start < 2


def test_pi_freq_certifies_at_its_ceiling_and_refuses_past_it_before_planning(monkeypatch):
    # the square root is taken 16 bits past the request and the row one bit
    # past it, neither capped: its ceiling is MAX_PRECISION, as for every
    # command
    p = MAX_PRECISION
    est = pi_constants.pi_freq(p)
    assert est.err <= Fraction(1, 2 ** (p + 2))
    pi = pi_oracle(256)
    assert est.lo <= pi.hi and pi.lo <= est.hi
    start = time.process_time()
    assert _refused_before_work(monkeypatch, lambda: _compute("pi-freq", precision=p + 1),
                                _MZV_WORK + [(series, "plan_limit")])
    assert time.process_time() - start < 2


@pytest.mark.parametrize("k", [1, 4, 8, 0])
def test_closed_form_refusal_is_within_two_bits_of_the_reach(k, monkeypatch):
    # with the depth capped at 18 the reach is about 450 bits, cheap to probe
    monkeypatch.setattr(series, "EM_CEILING", 18)
    compute = _mzv(k) if k else pi_constants.pi_freq
    p = _first_refused_precision(monkeypatch, compute, _MZV_WORK)
    assert 300 < p < 600
    compute(p - 2)
    with pytest.raises(ResourceError):
        compute(p)
