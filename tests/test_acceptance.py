"""Acceptance gate: every registered suite runs through `run_suite`, the same
code path as `mzvfactor verify`, and every record it returns must pass.
The per-claim tests after it read the records of the claims they name
from the same runs. One printed pass/fail line per check; run with
`pytest tests/test_acceptance.py -s` to see the lines as they complete."""

import fnmatch
import time
from fractions import Fraction

import pytest

from mzvfactor.report import STATUS_PASS, RunConfig
from mzvfactor.suites import SUITES, run_suite

TOL20 = Fraction(1, 10 ** 20)

# (suites, config, time bound in seconds or None, strict bounds): every
# record whose claim id matches a strict pattern must have its exact
# observed value strictly below the bound, and some record must match.
GATE = [
    (("basel",), RunConfig(), 60, {"eq2.width.k*": TOL20}),
    (("factorization",), RunConfig(), None, {"factorization.err.k*": TOL20}),
    (("p-constant",), RunConfig(), 5, {"p.constancy.N1000": Fraction(5, 100)}),
    (("bijection-alpha", "residuals"), RunConfig(), 180, {}),
    (("bijection-beta",), RunConfig(), None, {}),
    (("pi-equality",), RunConfig(), None, {"pi.pythagorean": TOL20}),
    (("pi-equality",), RunConfig(precision=64), None, {}),
    (("product-structure",), RunConfig(), None, {}),
]


def _gate_id(entry) -> str:
    suites, config = entry[0], entry[1]
    name = "+".join(suites)
    return name if config == RunConfig() else f"{name}@{config.precision}"


def _report(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}  ({detail})")
    return ok


# suite name -> records of its last run at the default RunConfig, so the
# per-claim tests below read the records test_gate produced
_RUNS = {}


def _run(name: str, config: RunConfig) -> list:
    records = run_suite(name, config)
    if config == RunConfig():
        _RUNS[name] = records
    return records


def _strict_problems(records, strict) -> list[str]:
    problems = []
    for pattern, bound in strict.items():
        matched = [r for r in records if fnmatch.fnmatchcase(r.claim_id, pattern)]
        if not matched:
            problems.append(f"no record matches {pattern}")
        problems += [f"{r.claim_id} not below {bound}" for r in matched
                     if not Fraction(r.params["observed_exact"]) < bound]
    return problems


@pytest.mark.parametrize("entry", GATE, ids=_gate_id)
def test_gate(entry):
    suites, config, seconds, strict = entry
    t0 = time.monotonic()
    records = [r for name in suites for r in _run(name, config)]
    elapsed = time.monotonic() - t0
    problems = [f"{r.claim_id} {r.status}" for r in records if r.status != STATUS_PASS]
    problems += _strict_problems(records, strict)
    if seconds is not None and elapsed >= seconds:
        problems.append(f"took {elapsed:.1f}s, bound {seconds}s")
    ok = bool(records) and not problems
    assert _report(_gate_id(entry), ok, "; ".join(
        problems or [f"{len(records)} records, {elapsed:.1f}s"])), problems


def test_every_suite_is_gated():
    gated = {name for suites, *_ in GATE for name in suites}
    assert gated == set(SUITES)


def _check_claims(name: str, suite: str, claim_ids, strict=None) -> None:
    """Every named claim of `suite` (default RunConfig) has a passing record;
    the suite runs again only if test_gate has not run it yet."""
    records = _RUNS.get(suite) or _run(suite, RunConfig())
    by_id = {r.claim_id: r for r in records}
    problems = [f"no record {c}" if c not in by_id else f"{c} {by_id[c].status}"
                for c in claim_ids
                if c not in by_id or by_id[c].status != STATUS_PASS]
    problems += _strict_problems([by_id[c] for c in claim_ids if c in by_id],
                                 strict or {})
    assert _report(name, not problems, "; ".join(
        problems or [f"{len(claim_ids)} records"])), problems


def test_p_constant_exact_core():
    # n = 1..200, j = 1..10: tail + finite + diagonal parts cancel exactly
    _check_claims("p-constant.witnesses.n200.j10", "p-constant",
                  [f"p.witness.j{j}" for j in range(1, 11)])


def test_partial_fractions_randomized():
    _check_claims("p-constant.partial_fractions.200", "p-constant",
                  ["p.partial_fraction.random"])


def test_p_constancy_at_scale():
    # deviation over x = 0, 0.1, ..., 0.9 below 5/100 at N = 1000, and at
    # least three times smaller at N = 10000
    _check_claims("p-constant.constancy", "p-constant",
                  ["p.constancy.N1000", "p.constancy.shrink.N10000"],
                  {"p.constancy.N1000": Fraction(5, 100)})


def test_second_derivative_assembly_identity():
    _check_claims("p-constant.assembly.N1-12", "p-constant", ["p.assembly.N1..12"])


def test_alpha_cancellation_and_residual():
    _check_claims("alpha.cancel.k2-4", "bijection-alpha",
                  [f"alpha.cancel.k{k}" for k in (2, 3, 4)])
    _check_claims("alpha.residual.k2-4", "residuals",
                  [f"alpha.residual.k{k}" for k in (2, 3, 4)])


def test_multiplicity_identity():
    _check_claims("multiplicity.k1-64", "residuals", ["multiplicity.k1..64"])


def test_pythagorean_invariant():
    # g^2 + g'^2 = 1 on all of |x| <= 355/113, which holds [-pi, pi], within
    # the eps of the arc's certificate
    _check_claims("pi-equality.pythagorean", "pi-equality", ["pi.pythagorean"],
                  {"pi.pythagorean": TOL20})
