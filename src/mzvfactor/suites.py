"""The claim registry: the verification suites behind `verify` and the
acceptance gate.

Each suite turns the values the library computes into a list of
VerificationReport records; a suite passes when every record does. Default
parameters are sized for a few minutes on a laptop; heavier runs opt in
through the CLI flags.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from fractions import Fraction

from . import bijection, pfunc, pi_constants, product, series
from .numeric import (
    DEFAULT_PRECISION,
    TIME_CEILING,
    ZERO,
    ApproxReal,
    DomainError,
    ResourceError,
    pi_oracle,
)
from .report import (
    RunConfig,
    VerificationReport,
    bool_record,
    make_record,
    rational_str,
)

TEN = Fraction(10)


# ---------------------------------------------------------------------------

def _limit_tolerance(config: RunConfig) -> Fraction:
    """The tolerance of basel, factorization and pi-equality: --tolerance,
    else 1e-20 from 128 bits and 1e-8 below, which a certified error of
    about 2^-precision meets at every precision from 32 bits."""
    if config.tolerance is not None:
        return config.tolerance
    return TEN ** -20 if config.precision >= 128 else TEN ** -8


# verify basel and verify factorization take one certified row, every
# zeta({2}^k), k <= K, from one mzv_limit call at K: series.MZV_K_CEILING
# bounds their time at every admitted precision.


def suite_basel(config: RunConfig) -> list[VerificationReport]:
    """zeta({2}^k) brackets against pi^(2k)/(2k+1)! from the oracle."""
    k_max, prec, tol = config.k, config.precision, _limit_tolerance(config)
    series.require_limit_k(k_max)   # refuse before the oracle and any limit
    out = []
    # 32 guard bits keep the closed form's radius far below the limit's
    pi = pi_oracle(max(prec, DEFAULT_PRECISION) + 32)
    row = series.mzv_limit(k_max, prec)
    for k in range(1, k_max + 1):
        z = row[k]
        closed = pi.power(2 * k) / math.factorial(2 * k + 1)
        out.append(make_record(
            f"eq2.k{k}", z.value, closed.value, z.err + closed.err, ZERO,
            params={"k": k, "precision_bits": prec}))
        out.append(make_record(
            f"eq2.width.k{k}", 2 * z.err, ZERO, ZERO, tol,
            params={"k": k, "precision_bits": prec}))
    return out


def suite_factorization(config: RunConfig) -> list[VerificationReport]:
    """(2k+1)(2k) zeta({2}^k) = zeta({2}^{k-1}) 6 zeta(2), certified."""
    k_max, prec, tol = config.k, config.precision, _limit_tolerance(config)
    out = []
    # its first work is the row, which refuses a k past the ceiling
    levels = bijection.factorization_check(k_max, prec)
    for k, (lhs, rhs, mzv, closed) in enumerate(levels, start=1):
        budget = lhs.err + rhs.err
        out.append(make_record(
            f"factorization.k{k}", lhs.value, rhs.value, budget, ZERO,
            params={"k": k, "precision_bits": prec}))
        out.append(make_record(
            f"factorization.err.k{k}", budget, ZERO, ZERO, tol, params={"k": k}))
        out.append(bool_record(
            f"factorization.closed_form.k{k}",
            abs(mzv.value - closed.value) <= mzv.err + closed.err, params={"k": k}))
    return out


def suite_p_constant(config: RunConfig) -> list[VerificationReport]:
    """The exact core of the constancy argument plus its numeric shadow."""
    n_small = config.N
    n_large = 10 * n_small
    # the grid reaches x = 9/10, which p_eval takes only at N >= 10
    if n_small < 10:
        raise DomainError(f"p-constant needs N >= 10, got {n_small}")
    # ten points x = i/10 at each depth: together at most eleven calls at n_large
    pfunc.require_p_eval_size(n_large, DEFAULT_PRECISION, 4, calls=11)
    out = []
    for j in range(1, config.j_max + 1):
        worst = ZERO
        for n in range(1, config.n_max + 1):
            worst = max(worst, abs(sum(pfunc.p_coefficient_witness(n, j))))
        out.append(make_record(
            f"p.witness.j{j}", worst, ZERO, ZERO, ZERO,
            params={"n_max": config.n_max, "j": j}))

    rng = random.Random(config.seed)
    trials = 200
    ok = 0
    for _ in range(trials):
        l1 = rng.randint(1, 40)
        l2 = rng.randint(l1 + 1, l1 + 40)
        x = Fraction(rng.randint(-400, 400), rng.randint(401, 800))
        if pfunc.partial_fraction_check(x, l1, l2):
            ok += 1
    out.append(make_record(
        "p.partial_fraction.random", Fraction(ok), Fraction(trials), ZERO, ZERO,
        params={"seed": config.seed, "trials": trials}))

    for x in (Fraction(1, 2), Fraction(1, 10)):
        out.append(bool_record(
            f"p.interchange_bound.x{x.numerator}_{x.denominator}",
            pfunc.interchange_bound_check(x, 50), params={"N": 50, "x": str(x)}))

    dev_small = _constancy_deviation(n_small)
    dev_large = _constancy_deviation(n_large)
    out.append(make_record(
        f"p.constancy.N{n_small}", dev_small, ZERO, _constancy_bound(n_small),
        config.tolerance, params={"N": n_small, "grid": "0,0.1,...,0.9"}))
    out.append(bool_record(
        f"p.constancy.shrink.N{n_large}", dev_large * 3 <= dev_small,
        params={"N_small": n_small, "N_large": n_large,
                "dev_small": rational_str(dev_small),
                "dev_large": rational_str(dev_large)}))

    for n in range(1, 13):
        if not pfunc.fpp_assembly_identity(n):
            out.append(bool_record(f"p.assembly.N{n}", False, params={"N": n}))
            break
    else:
        out.append(bool_record("p.assembly.N1..12", True, params={"N_max": 12}))
    return out


def _constancy_bound(N: int) -> Fraction:
    """The largest deviation _constancy_deviation(N) can take, N >= 10,
    if p(x) = p(0) for the untruncated p on |x| <= 9/10.

    With t_n = 1/(n^2 - x^2), S_N = sum_{n<=N} t_n and T = sum_{n>N} t_n,
    p = 6 (S_N + T) - 8 x^2 sum_{l<m} t_l t_m, whose pairs past p_N are
    S_N T plus those with both indices above N, of sum at most T^2 / 2.
    So p_N(x) - p(x) lies in [-6 T, 4 x^2 (2 S_N T + T^2)]. For |x| <= 9/10,
    T < sum_{n>N} 1/(n^2 - 1) < 1/N, and S_N < 100/19 + 0.727 < 6, as
    sum_{n>=2} 1/(n^2 - 81/100) < 0.727. At x = 0 the pair sum is empty
    and p_N(0) - p(0) = -6 T(0), T(0) < 1/N. T(x) >= T(0), so if
    p(x) = p(0), p_N(x) - p_N(0) lies in
    [-6 (T(x) - T(0)), 4 x^2 (2 S_N T + T^2) + 6 T(0)], and
    T(x) - T(0) < x^2 sum_{n>N} 1/(n^2 (n^2 - 1)) < 1/N. So
    |p_N(x) - p_N(0)| is at most 6/N + (324/100) (12/N + 1/N^2), which is
    below 46/N for N >= 10.
    The deviation adds the radii of each pair of p_eval brackets twice,
    four radii of at most 0.18 2^-DEFAULT_PRECISION each by p_eval's
    derivation, less than 2^-DEFAULT_PRECISION in all."""
    return (Fraction(6, N) + Fraction(324, 100) * (Fraction(12, N) + Fraction(1, N * N))
            + Fraction(1, 1 << DEFAULT_PRECISION))


def _constancy_deviation(N: int) -> Fraction:
    base = pfunc.p_eval(Fraction(0), N)
    worst = ZERO
    for i in range(1, 10):
        v = pfunc.p_eval(Fraction(i, 10), N)
        worst = max(worst, abs(v.value - base.value) + v.err + base.err)
    return worst


def suite_bijection_alpha(config: RunConfig) -> list[VerificationReport]:
    """Every alpha component with entries <= bound cancels exactly."""
    ks = (2, 3, 4) if config.k is None else (config.k,)
    for k in ks:   # refuse before any closure is built
        bijection.require_alpha_size(k, config.bound)
    out = []
    for k in ks:
        try:
            comps = bijection.alpha_components_up_to(k, config.bound)
        except bijection.StructuralFailure as exc:
            path = _dump_failure(config, f"alpha_overflow_k{k}", str(exc))
            out.append(bool_record(f"alpha.cancel.k{k}", False, params={"k": k},
                                   artifact_path=path, counterexample_on_fail=True))
            continue
        worst = max((abs(c.weight_sum) for c in comps), default=ZERO)
        bad = [c for c in comps if c.weight_sum != 0]
        path = None
        if bad:
            path = _dump_failure(config, f"alpha_noncancel_k{k}",
                                 "".join(bijection.format_component(c) for c in bad))
        out.append(make_record(
            f"alpha.cancel.k{k}", worst, ZERO, ZERO, ZERO,
            params={"k": k, "bound": config.bound, "components": len(comps),
                    "largest": max((c.size() for c in comps), default=0)},
            artifact_path=path, counterexample_on_fail=True))
    return out


def suite_bijection_beta(config: RunConfig) -> list[VerificationReport]:
    """Sampled beta components: truncated sums shrink like 1/M."""
    sweep = (25, 50, 100, 200) if config.M is None else (config.M, 2 * config.M)
    out = []
    samples = [
        (2, bijection.V1((), 3), "k2.empty"),
        (3, bijection.V1((1,), 2), "k3.star12"),
        (3, bijection.V1((4,), 7), "k3.star47"),
    ]
    if config.k is not None:
        samples = [s for s in samples if s[0] == config.k]
    for k, seed_vertex, _ in samples:   # refuse before any closure is built
        for M in sweep:
            bijection.require_beta_size(seed_vertex, k, M)
    for k, seed_vertex, label in samples:
        sums = []
        for M in sweep:
            comp = bijection.component(seed_vertex, "beta", k, M=M)
            sums.append((M, abs(comp.weight_sum)))
        decreasing = all(a[1] > b[1] for a, b in zip(sums, sums[1:]))
        scaled = [m * s for m, s in sums]
        stable = max(scaled) <= 2 * min(scaled) if min(scaled) > 0 else False
        out.append(bool_record(
            f"beta.vanish.{label}", decreasing and stable,
            params={"k": k, "sweep": list(sweep),
                    "sums": [rational_str(s) for _, s in sums],
                    "fitted_C": [rational_str(c) for c in scaled]}))
    return out


def suite_residuals(config: RunConfig) -> list[VerificationReport]:
    """Exact residual identities on both edge systems, the classification
    cross-check, and the multiplicity identity."""
    ks = (2, 3, 4) if config.k is None else (config.k,)
    N = config.N
    for k in ks:   # refuse before any identity runs
        for kind in ("alpha", "beta"):
            bijection.require_residual_size(kind, k, N)
    out = []
    for k in ks:
        lhs, rhs = bijection.alpha_residual_identity(k, N)
        out.append(make_record(f"alpha.residual.k{k}", lhs, rhs, ZERO, ZERO,
                               params={"k": k, "N": N}))
        lhs, rhs = bijection.beta_residual_identity(k, N)
        out.append(make_record(f"beta.residual.k{k}", lhs, rhs, ZERO, ZERO,
                               params={"k": k, "N": N}))
        out.append(bool_record(
            f"residual.classes.k{k}",
            bijection.residual_classification_consistent(k, min(10, N)),
            params={"k": k, "bound": min(10, N)}))
    mult_max = 64
    bad = [k for k in range(1, mult_max + 1) if not bijection.multiplicity_identity(k)]
    out.append(bool_record("multiplicity.k1..64", not bad,
                           params={"k_max": mult_max, "failures": bad}))
    return out


def suite_pi_equality(config: RunConfig) -> list[VerificationReport]:
    """The four estimates of pi agree, and g^2 + g'^2 = 1 on [-pi, pi]."""
    prec, tol = config.precision, _limit_tolerance(config)
    ests, eps = pi_constants.three_way_pi_compare(prec)
    # the arc's certificate bounds |g^2 + g'^2 - 1| on all of |x| <= 355/113
    out = [make_record("pi.pythagorean", eps, ZERO, ZERO, tol,
                       params={"precision_bits": prec, "interval": "|x| <= 355/113"})]
    for first, second in itertools.combinations(sorted(ests), 2):
        a, b = ests[first], ests[second]
        out.append(make_record(
            f"pi.{first}_vs_{second}", abs(a.value - b.value), ZERO, a.err + b.err,
            tol, params={"precision_bits": prec}))
    # the brackets of the non-Wallis trio are tight, so they must also agree
    # value to value within the tolerance
    trio = [ests[name].value for name in ("freq", "arc", "oracle")]
    tight = max(abs(a - b) for a, b in itertools.combinations(trio, 2))
    out.append(make_record("pi.tight_trio", tight, ZERO, ZERO, tol,
                           params={"precision_bits": prec,
                                   "members": "freq,arc,oracle"}))
    parity_ok = _wallis_parity(ests["oracle"])
    out.append(bool_record("pi.wallis_parity", parity_ok,
                           params={"half_steps": "1..12"}))
    return out


def _wallis_parity(oracle: ApproxReal) -> bool:
    """Whether the Wallis partials at half steps 1..12 alternate about the
    oracle bracket of pi, above it at odd steps."""
    for m in range(1, 13):
        v = pi_constants.wallis_partial(m)
        gap = v - oracle.value
        expected_positive = m % 2 == 1
        if abs(gap) <= oracle.err:
            return False
        if (gap > 0) != expected_positive:
            return False
    return True


# The product-structure suite spends nearly all its time on the 2N + 1 zero
# checks and on one eval_F_shifted per grid point, mostly in the final
# reduction of a product of about 2N bitlen(N grid) bits. On a 2.0 GHz Xeon
# core a zero check took 9 us at N = 10, 0.58 ms at N = 1000 and 6.0 ms at
# N = 4000; a grid point took 14 us at N = 1, 35 us at N = 20, 7.0 ms at
# N = 1000 (grid 1001) and 35 ms at N = 4000 (grid 11). The closed form in
# require_product_structure_size gives 1.1 to 2.1 times each of these in
# microseconds. The largest request it admits at the default grid, N = 2347
# (60 s by the closed form), took 49 s. The ceiling is TIME_CEILING.


def require_product_structure_size(N: int, grid: int) -> None:
    """Refuse the product-structure suite at (N, grid) from a closed-form
    bound of its time in microseconds, before any product is built."""
    bits = N * (N * grid).bit_length()
    cost = ((2 * N + 1) * (10 + N // 4 + N * N // 2500)
            + grid * (20 + N + bits * bits // 60000))
    if cost > TIME_CEILING:
        raise ResourceError(f"product structure at N = {N}, grid = {grid}: {cost} us "
                            f"exceeds ceiling {TIME_CEILING}")


def suite_product_structure(config: RunConfig) -> list[VerificationReport]:
    """Oddness, integer zeros, the two product displays, the periodicity
    sign, the shifted-form gap bound, and the rise/fall scan."""
    N, grid = config.N, config.bound
    if grid < 3:   # monotonicity_scan's own check, before any product is built
        raise DomainError("grid_size must be at least 3")
    require_product_structure_size(N, grid)
    out = []
    xs = [Fraction(1, 3), Fraction(2, 7), Fraction(5, 4), Fraction(9, 2)]
    odd_ok = all(product.eval_F(-x, N) == -product.eval_F(x, N) for x in xs)
    out.append(bool_record("product.oddness", odd_ok, params={"N": N}))
    zeros_ok = all(product.eval_F(Fraction(m), N) == 0
                   for m in range(-N, N + 1))
    out.append(bool_record("product.zeros", zeros_ok, params={"N": N}))
    forms_ok = all(product.eval_F(x, N) == product.eval_F_factored(x, N)
                   for x in xs)
    out.append(bool_record("product.two_forms", forms_ok, params={"N": N}))
    cases = sorted(
        {(x, nn) for x in (Fraction(1, 2), Fraction(1, 3), Fraction(7, 5))
         for nn in (1, 2, 5, 25)}
        | {(x, nn) for x in (Fraction(1, 2), Fraction(2, 3)) for nn in (1, 3, 10, 50)})
    # F_N(x+1)/F_N(x) is exactly -(N+1+x)/(N-x), so F(x+1) = -F(x) in the limit
    minus_ok = all(product.periodicity_ratio(x, nn) == -Fraction(nn + 1 + x, nn - x)
                   for x, nn in cases)
    out.append(bool_record("product.periodicity_sign", minus_ok,
                           params={"matched_sign": -1, "cases": len(cases)}))
    gap_ok = True
    for x in xs[:2]:
        gap = abs(product.eval_F(x, N) - product.eval_F_shifted(x, N))
        if gap > product.shifted_truncation_gap_bound(x, N):
            gap_ok = False
    out.append(bool_record("product.shifted_gap", gap_ok, params={"N": N}))
    violation = product.monotonicity_scan(N, grid)
    out.append(bool_record("product.monotonicity", violation is None,
                           params={"N": N, "grid": grid,
                                   "first_violation": str(violation)}))
    return out


# each suite and the default of each optional flag it reads; the output
# flags are common to all. A suite resolves a default of None: an absent
# --k or --M selects a sweep, and the limit suites' tolerance depends on the
# precision (_limit_tolerance)
_LIMIT_FLAGS = {"k": 8, "tolerance": None, "precision": DEFAULT_PRECISION}
SUITES = {
    "basel": (suite_basel, _LIMIT_FLAGS),
    "factorization": (suite_factorization, _LIMIT_FLAGS),
    "p-constant": (suite_p_constant, {"n_max": 200, "j_max": 10, "N": 1000,
                                      "tolerance": ZERO, "seed": 0}),
    "bijection-alpha": (suite_bijection_alpha, {"k": None, "bound": 20}),
    "bijection-beta": (suite_bijection_beta, {"k": None, "M": None}),
    "residuals": (suite_residuals, {"k": None, "N": 40}),
    "pi-equality": (suite_pi_equality, {"tolerance": None, "precision": DEFAULT_PRECISION}),
    "product-structure": (suite_product_structure, {"N": 100, "bound": 1001}),
}


def run_suite(name: str, config: RunConfig) -> list[VerificationReport]:
    """The records of suite `name`. A flag the suite does not read is a
    DomainError before any work, as is a configuration under
    which the suite checks nothing, never an empty pass."""
    suite, defaults = SUITES[name]   # KeyError for an unknown name
    records = suite(config.resolve(f"suite {name}", defaults))
    if not records:
        raise DomainError(f"suite {name} checks nothing with these parameters")
    return records


def _dump_failure(config: RunConfig, label: str, payload: str) -> str:
    base = config.output_path or "."
    directory = base if os.path.isdir(base) else os.path.dirname(base) or "."
    path = os.path.join(directory, f"{label}.counterexample.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)
    return path
