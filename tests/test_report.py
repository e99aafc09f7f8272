"""Report records: the pass rule, formats, and ordering; the one rule for
a request's optional flags."""

import json
from fractions import Fraction

import pytest

from mzvfactor.numeric import MAX_PRECISION, DomainError, ResourceError
from mzvfactor.report import (
    RunConfig,
    all_passed,
    bool_record,
    make_record,
    rational_str,
    render,
    sort_records,
)


def test_status_rule_boundary():
    # pass exactly when |observed - expected| <= certified_error + tolerance
    r = make_record("x", Fraction(11, 10), Fraction(1), Fraction(1, 20), Fraction(1, 20))
    assert r.status == "pass"
    r = make_record("x", Fraction(11, 10), Fraction(1), Fraction(1, 20), Fraction(1, 21))
    assert r.status == "fail"


def test_exact_values_past_the_int_to_str_digit_limit_are_written_in_full():
    # 10^9000 + 7 has 9001 digits, past the 4300 that str() accepts; the
    # zeros of the middle chunk must keep their places
    big = 10 ** 9000 + 7
    assert rational_str(Fraction(-big, 3)) == "-1" + "0" * 8999 + "7/3"
    assert rational_str(Fraction(3, big)) == "3/1" + "0" * 8999 + "7"
    assert rational_str(Fraction(big)) == "1" + "0" * 8999 + "7"
    assert rational_str(Fraction(-12, 7)) == "-12/7"


def test_counterexample_status():
    r = make_record("x", Fraction(1), Fraction(0), Fraction(0), Fraction(0),
                    counterexample_on_fail=True)
    assert r.status == "counterexample"


def test_bool_record():
    assert bool_record("b", True).status == "pass"
    assert bool_record("b", False).status == "fail"


def test_exact_values_survive_in_params():
    r = make_record("x", Fraction(1, 3), Fraction(1, 3), Fraction(0), Fraction(0))
    assert r.params["observed_exact"] == "1/3"
    assert r.status == "pass"


def test_json_lines_roundtrip():
    recs = [bool_record("b.two", True), bool_record("a.one", True)]
    lines = render(recs, "json").strip().splitlines()
    ids = [json.loads(line)["claim_id"] for line in lines]
    assert ids == ["a.one", "b.two"]   # canonical claim-id order


def test_csv_and_text_render():
    recs = [make_record("c", Fraction(2), Fraction(2), Fraction(0), Fraction(0))]
    csv_text = render(recs, "csv")
    assert csv_text.splitlines()[0].startswith("claim_id,")
    text = render(recs, "text")
    assert "[PASS] c:" in text


def test_all_passed():
    good = [bool_record("a", True)]
    bad = good + [bool_record("b", False)]
    assert all_passed(good) and not all_passed(bad)


def test_sort_is_stable_copy():
    recs = [bool_record("z", True), bool_record("a", True)]
    ordered = sort_records(recs)
    assert [r.claim_id for r in ordered] == ["a", "z"]
    assert [r.claim_id for r in recs] == ["z", "a"]


def test_resolve_checks_the_precision_of_an_entry_that_reads_it():
    reads = {"precision": 128}
    for bits in (32, 128, MAX_PRECISION):
        assert RunConfig(precision=bits).resolve("entry", reads).precision == bits
    for bits in (16, 31):
        with pytest.raises(DomainError, match=f"at least 32 bits, got {bits}"):
            RunConfig(precision=bits).resolve("entry", reads)
    for bits in (MAX_PRECISION + 1, 1 << 20):
        with pytest.raises(ResourceError, match=f"precision {bits} exceeds ceiling"):
            RunConfig(precision=bits).resolve("entry", reads)
    # the resolved value is the one checked, a default as well as a flag
    with pytest.raises(DomainError):
        RunConfig().resolve("entry", {"precision": 16})
    # an entry that does not read --precision refuses it as unread
    with pytest.raises(DomainError, match="entry does not read --precision"):
        RunConfig(precision=MAX_PRECISION + 1).resolve("entry", {"k": 2})
