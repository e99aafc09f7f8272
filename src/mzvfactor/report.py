"""Structured verification records and their JSON / CSV / text emission.

A record passes exactly when |observed - expected| <= certified_error +
tolerance; that comparison is done in exact rational arithmetic when the
record is built, never re-derived from the formatted strings.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Optional

from .numeric import DomainError, frac_to_decimal, require_precision

DECIMAL_PLACES = 45

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_COUNTEREXAMPLE = "counterexample"

FIELDS = ["claim_id", "params", "observed", "expected", "certified_error",
          "status", "artifact_path"]


@dataclass(frozen=True)
class VerificationReport:
    claim_id: str
    params: dict
    observed: str
    expected: str
    certified_error: str
    status: str
    artifact_path: Optional[str] = None


# Python's str() refuses an int of more than 4300 digits; an exact value at
# the 16384-bit precision ceiling has about 4,940
_CHUNK_DIGITS = 4000
_CHUNK = 10 ** _CHUNK_DIGITS


def _int_str(n: int) -> str:
    """str(n), converted in chunks of _CHUNK_DIGITS digits."""
    if -_CHUNK < n < _CHUNK:
        return str(n)
    head, tail = divmod(abs(n), _CHUNK)
    return ("-" if n < 0 else "") + _int_str(head) + str(tail).zfill(_CHUNK_DIGITS)


def rational_str(q: Fraction) -> str:
    num = _int_str(q.numerator)
    return f"{num}/{_int_str(q.denominator)}" if q.denominator != 1 else num


def make_record(claim_id: str, observed: Fraction, expected: Fraction,
                certified_error: Fraction, tolerance: Fraction,
                params: Optional[dict] = None,
                artifact_path: Optional[str] = None,
                counterexample_on_fail: bool = False) -> VerificationReport:
    ok = abs(observed - expected) <= certified_error + tolerance
    status = STATUS_PASS if ok else (
        STATUS_COUNTEREXAMPLE if counterexample_on_fail else STATUS_FAIL)
    p = dict(params or {})
    p.setdefault("tolerance", rational_str(tolerance))
    p.setdefault("observed_exact", rational_str(observed))
    p.setdefault("expected_exact", rational_str(expected))
    return VerificationReport(
        claim_id=claim_id,
        params=p,
        observed=frac_to_decimal(observed, DECIMAL_PLACES),
        expected=frac_to_decimal(expected, DECIMAL_PLACES),
        certified_error=frac_to_decimal(certified_error, DECIMAL_PLACES),
        status=status,
        artifact_path=artifact_path,
    )


def bool_record(claim_id: str, passed: bool, params: Optional[dict] = None,
                artifact_path: Optional[str] = None,
                counterexample_on_fail: bool = False) -> VerificationReport:
    return make_record(claim_id, Fraction(1 if passed else 0), Fraction(1),
                       Fraction(0), Fraction(0), params, artifact_path,
                       counterexample_on_fail)


def all_passed(records: list[VerificationReport]) -> bool:
    return all(r.status == STATUS_PASS for r in records)


def sort_records(records: list[VerificationReport]) -> list[VerificationReport]:
    return sorted(records, key=lambda r: r.claim_id)


def to_json_lines(records: list[VerificationReport]) -> str:
    # vars, not dataclasses.asdict: the same dict without a deep copy
    return "\n".join(json.dumps(vars(r), sort_keys=True)
                     for r in sort_records(records)) + "\n"


def to_csv(records: list[VerificationReport]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(FIELDS)
    for r in sort_records(records):
        w.writerow([r.claim_id, json.dumps(r.params, sort_keys=True), r.observed,
                    r.expected, r.certified_error, r.status, r.artifact_path or ""])
    return buf.getvalue()


def to_text(records: list[VerificationReport]) -> str:
    lines = []
    for r in sort_records(records):
        lines.append(f"[{r.status.upper():>4}] {r.claim_id}: observed={r.observed} "
                     f"expected={r.expected} certified_error={r.certified_error}")
        if r.artifact_path:
            lines.append(f"       artifact: {r.artifact_path}")
    return "\n".join(lines) + "\n"


def render(records: list[VerificationReport], fmt: str) -> str:
    if fmt == "json":
        return to_json_lines(records)
    if fmt == "csv":
        return to_csv(records)
    if fmt == "text":
        return to_text(records)
    raise ValueError(f"unknown output format {fmt!r}")


@dataclass
class RunConfig:
    """The parameters of a run. Every field but the two output ones is the
    optional flag of its name, None when absent; `resolve` fills in the ones
    a request reads."""
    k: Optional[int] = None
    N: Optional[int] = None
    M: Optional[int] = None
    n_max: Optional[int] = None
    j_max: Optional[int] = None
    bound: Optional[int] = None
    tolerance: Optional[Fraction] = None
    seed: Optional[int] = None
    precision: Optional[int] = None
    x: Optional[Fraction] = None
    m_sweep: Optional[tuple[int, ...]] = None
    output_format: str = "text"
    output_path: Optional[str] = None

    def resolve(self, what: str, defaults: dict) -> RunConfig:
        """The one rule for the optional flags of every command. `defaults`
        maps each field `what` reads to its default; a flag given that it
        does not read is a DomainError, and each absent one it reads takes
        its default. A precision it reads is checked here and nowhere else:
        the engine takes its guard bits past it uncapped, so it certifies
        every precision in range."""
        unread = [f"--{f.name.replace('_', '-')}" for f in fields(self)
                  if f.name not in defaults and f.name not in ("output_format", "output_path")
                  and getattr(self, f.name) is not None]
        if unread:
            raise DomainError(f"{what} does not read {', '.join(unread)}")
        config = replace(self, **{name: value for name, value in defaults.items()
                                  if getattr(self, name) is None})
        if "precision" in defaults:
            require_precision(config.precision)
        return config
